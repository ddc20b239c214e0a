"""Numerical tolerances, fixed in one place.

All are absolute. The invariant tolerances sit well above double-precision
eigensolver noise at dimensions up to ~1000 and well below any physical
scale this library works at; the support thresholds are split (eigenvalue
cutoff vs projector leakage) so borderline states do not flap between
finite and infinite relative entropy.
"""

# Density-matrix invariants
TAU_HERM = 1e-10    # max |rho - rho^dagger|
TAU_TRACE = 1e-10   # |Tr rho - 1|
TAU_PSD = 1e-9      # eigenvalues below -TAU_PSD are a hard error
TAU_PURE = 1e-8     # a pure state's largest eigenvalue is at least 1 - TAU_PURE

# Relative-entropy support handling
TAU_SUPP = 1e-11       # eigenvalues <= this count as zero
TAU_SUPP_PROJ = 1e-7   # allowed norm of (I - P_sigma) P_rho
NEG_CLAMP = 1e-9       # tiny negative entropy totals from rounding become exactly 0.0

# Truncation
TAU_LAMBDA = 1e-12  # normalization weights below this are degenerate
TAU_GRAM = 1e-9     # max |B^dagger B - I| for a projector family's basis

# Property checks
SATURATION_BAND = 1e-10  # |margin| at or below this is an exact boundary touch
