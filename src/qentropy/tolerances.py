"""Numerical tolerances, fixed in one place.

All are absolute. The invariant tolerances sit well above double-precision
eigensolver noise at dimensions up to ~1000 and well below any physical
scale this library works at. One support threshold serves two uses: it
is the eigenvalue cutoff, and relative entropy is infinite once the mass a
state leaks outside another's support, Tr[(I - P_sigma) rho], exceeds
dim * ``TAU_SUPP``, the most that cutting a dim-dimensional spectrum can
drop. A marginal leaks out of its own support only the eigenvalues its cut
drops, so mutual information and conditional entropy stay finite, as they
must for every state, while a real leak above that scale reads as infinite.
"""

# Density-matrix invariants
TAU_HERM = 1e-10    # max |rho - rho^dagger|
TAU_TRACE = 1e-10   # |Tr rho - 1|
TAU_PSD = 1e-9      # eigenvalues below -TAU_PSD are a hard error
TAU_PURE = 1e-8     # a pure density matrix's largest eigenvalue is at least
                    # 1 - TAU_PURE; a PureState's squared norm is within it of 1

# Relative-entropy support handling
TAU_SUPP = 1e-11       # eigenvalues <= this count as zero; dim * this bounds leaked mass
NEG_CLAMP = 1e-9       # tiny negative entropy totals from rounding become exactly 0.0

# Truncation
TAU_LAMBDA = 1e-12  # normalization weights below this are degenerate
TAU_GRAM = 1e-9     # max |B^dagger B - I| for a projector family's basis

# Property checks
SATURATION_BAND = 1e-10  # |margin| at or below this is an exact boundary touch
