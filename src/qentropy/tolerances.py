"""Numerical tolerances, fixed in one place.

The invariant tolerances are absolute, well above double-precision
eigensolver noise at dimensions up to ~1000 and well below any physical
scale this library works at. ``EIGH_NOISE`` is relative: a Hermitian solve
of a dim x dim matrix rounds each eigenvalue by up to about dim * eps times
the largest, so the one solve site zeroes the eigenvalues at or below that;
left in, a rank-3 12 x 12 state's nine ~1e-16 noise eigenvalues would each
add about 37 times their size to its entropy. Every other eigenvalue counts
in every entropy sum. ``TAU_SUPP`` decides support containment alone:
relative entropy is infinite once a state's mass on another's
eigendirections at or below ``TAU_SUPP`` exceeds dim * ``TAU_SUPP``. A
marginal puts on those directions only its own eigenvalues there, so mutual
information and conditional entropy stay finite, as they must for every
state, while a real leak reads as infinite.
"""

import sys

# Density-matrix invariants
TAU_HERM = 1e-10    # max |rho - rho^dagger|
TAU_TRACE = 1e-10   # |Tr rho - 1|
TAU_PSD = 1e-9      # eigenvalues below -TAU_PSD are a hard error
TAU_PURE = 1e-8     # a pure density matrix's largest eigenvalue is at least
                    # 1 - TAU_PURE; a PureState's squared norm is within it of 1

# Spectra
EIGH_NOISE = sys.float_info.epsilon  # eigenvalues <= dim * this * the largest are zeroed
TAU_SUPP = 1e-11       # mass on eigendirections <= this, beyond dim * this, is a leak
NEG_CLAMP = 1e-9       # tiny negative entropy totals from rounding become exactly 0.0

# Truncation
TAU_LAMBDA = 1e-12  # normalization weights below this are degenerate
TAU_GRAM = 1e-9     # max |B^dagger B - I| for a projector family's basis

# Property checks
SATURATION_BAND = 1e-10  # |margin| at or below this is an exact boundary touch
