"""Entropic quantities in nats: von Neumann, relative, conditional, mutual.

Values are extended reals: relative entropy is ``math.inf`` when the support
of the first argument is not contained in the support of the second, and
every other quantity built on it inherits that convention.

All formulas work on eigendecompositions; ``0 ln 0`` is taken as 0 and support
membership is decided against fixed absolute tolerances, never by comparing
floating-point numbers to exact zero.

One spectrum path: each matrix is solved once by ``clamped_spectrum``, each
spectrum is cut at the support once, every total passes one round-off rule,
and every H(rho || first x second) is one spectra-level product divergence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StructuralError
from .states import (
    DensityMatrix,
    LabelSet,
    as_density,
    clamped_spectrum,
    partial_trace,
    permute_subsystems,
)
from .tolerances import NEG_CLAMP, TAU_SUPP, TAU_SUPP_PROJ

_Spectrum = tuple[np.ndarray, np.ndarray]


def _entropy_from_eigs(w: np.ndarray) -> float:
    support = w[w > TAU_SUPP]
    return _rounded(float(-np.sum(support * np.log(support))))


def _rounded(total: float) -> float:
    """The one round-off rule: tiny negative totals from rounding become exactly 0.0."""
    if -NEG_CLAMP <= total < 0.0:
        return 0.0
    return total + 0.0  # normalize -0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """H(rho) = -Tr rho ln rho, in nats. Exactly 0.0 for pure states."""
    return _entropy_from_eigs(clamped_spectrum(rho)[0])


def min_supported_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue above the support cutoff; 0.0 for the zero matrix."""
    w, _ = clamped_spectrum(rho)
    support = w[w > TAU_SUPP]
    return float(support.min()) if support.size else 0.0


def _support_contained(u_rho: np.ndarray, v_sigma: np.ndarray) -> bool:
    """Whether range(u_rho) is contained in range(v_sigma), up to tolerance.

    Measured as the spectral norm of (I - P_sigma) applied to the orthonormal
    support basis of rho; compared against a projector-level tolerance that is
    looser than the eigenvalue cutoff because it accumulates rounding from two
    eigendecompositions.
    """
    if u_rho.shape[1] == 0:
        return True
    if v_sigma.shape[1] == 0:
        return False
    residual = u_rho - v_sigma @ (v_sigma.conj().T @ u_rho)
    return float(np.linalg.norm(residual, 2)) <= TAU_SUPP_PROJ


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """H(rho || sigma) = Tr rho (ln rho - ln sigma), in nats.

    Returns ``math.inf`` when supp(rho) is not contained in supp(sigma).
    Both arguments must live on spaces of the same dimension.
    """
    if rho.dim != sigma.dim:
        raise StructuralError(
            f"relative entropy needs equal dimensions, got {rho.dim} and {sigma.dim}"
        )
    w_r, u_r = clamped_spectrum(rho)
    w_s, v_s = clamped_spectrum(sigma)
    r_mask, s_mask = w_r > TAU_SUPP, w_s > TAU_SUPP
    u_sup, v_sup = u_r[:, r_mask], v_s[:, s_mask]
    if not _support_contained(u_sup, v_sup):
        return math.inf
    lam, mu = w_r[r_mask], w_s[s_mask]
    # overlap[i, j] = |<u_i | v_j>|^2 over the two supports
    overlap = np.abs(u_sup.conj().T @ v_sup) ** 2
    return _rounded(float(np.sum(lam * np.log(lam)) - (lam @ overlap) @ np.log(mu)))


def relative_entropy_vs_product(
    rho: DensityMatrix, first: DensityMatrix, second: DensityMatrix
) -> float:
    """H(rho || first x second) with the product spectrum resolved per factor.

    Mathematically identical to ``relative_entropy(rho, tensor(first, second))``:
    supp(A x B) = supp(A) x supp(B) and ln(A x B) = ln A x I + I x ln B on the
    support, so Tr rho ln(A x B) reduces to factor terms against rho's
    marginals. Numerically it matters: genuine products of supported factor
    eigenvalues can sit far below both the support cutoff and the joint
    eigensolver's noise floor (e.g. 1e-9 * 1e-9), where the generic evaluation
    cannot certify them. Deep Fock-cutoff sweeps need this to stay finite.

    ``rho``'s subsystems must be exactly ``first``'s followed by ``second``'s.
    Returns ``math.inf`` when rho's support leaks out of the product support.
    """
    if rho.layout.subsystems != first.layout.subsystems + second.layout.subsystems:
        raise StructuralError(
            f"state subsystems {rho.layout.subsystems} must be the factors "
            f"{first.layout.subsystems} + {second.layout.subsystems} in order"
        )
    return _product_divergence(
        rho.entries, clamped_spectrum(rho), clamped_spectrum(first), clamped_spectrum(second)
    )


def _product_divergence(
    rho: np.ndarray, spec_rho: _Spectrum, spec_first: _Spectrum, spec_second: _Spectrum
) -> float:
    """:func:`relative_entropy_vs_product` from the joint matrix and the three clamped spectra."""
    (w_r, u_r), (w_a, u_a), (w_b, u_b) = spec_rho, spec_first, spec_second
    mask_a, mask_b = w_a > TAU_SUPP, w_b > TAU_SUPP
    if not (mask_a.all() and mask_b.all()):
        product_support = np.kron(u_a[:, mask_a], u_b[:, mask_b])
        if not _support_contained(u_r[:, w_r > TAU_SUPP], product_support):
            return math.inf

    da, db = w_a.size, w_b.size
    joint = rho.reshape(da, db, da, db)
    red_a = np.einsum("abcb->ac", joint)
    red_b = np.einsum("abad->bd", joint)
    # weight of rho's marginals on each factor eigendirection
    p_a = np.maximum(np.einsum("ia,ij,ja->a", u_a.conj(), red_a, u_a).real, 0.0)
    p_b = np.maximum(np.einsum("ia,ij,ja->a", u_b.conj(), red_b, u_b).real, 0.0)
    cross = float(
        p_a[mask_a] @ np.log(w_a[mask_a]) + p_b[mask_b] @ np.log(w_b[mask_b])
    )
    lam = w_r[w_r > TAU_SUPP]
    return _rounded(float(np.sum(lam * np.log(lam))) - cross)


def _grouped(
    rho: DensityMatrix, first: LabelSet, second: LabelSet
) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix]:
    """``rho`` regrouped as ``first`` then ``second``, each in layout order, and both marginals."""
    labels_1, labels_2, _ = rho.layout.split(first, second)
    grouped = permute_subsystems(rho, labels_1 + labels_2)
    return grouped, partial_trace(grouped, labels_1), partial_trace(grouped, labels_2)


def mutual_information_states(rho: DensityMatrix, part_x: LabelSet, part_y: LabelSet) -> float:
    """I(X:Y) = H(rho_XY || rho_X x rho_Y) for a bipartition of rho's subsystems."""
    return relative_entropy_vs_product(*_grouped(rho, part_x, part_y))


def conditional_entropy(rho: DensityMatrix, target: LabelSet, given: LabelSet) -> float:
    """H(target | given) = H(rho_target) - H(rho || rho_given x rho_target).

    This is the relative-entropy form, which stays meaningful whenever the
    correlation term is finite; it equals H(rho) - H(rho_given) when the
    joint entropy is finite (see :func:`conditional_entropy_standard`).
    ``target`` and ``given`` must be disjoint and together cover the state's
    subsystems; trace out anything else first. Returns ``-math.inf`` exactly
    when the correlation term is infinite.
    """
    grouped, rho_t, rho_g = _grouped(rho, target, given)
    spec_t = clamped_spectrum(rho_t)
    corr = _product_divergence(
        grouped.entries, clamped_spectrum(grouped), spec_t, clamped_spectrum(rho_g)
    )
    if math.isinf(corr):
        return -math.inf
    return _entropy_from_eigs(spec_t[0]) - corr


def conditional_entropy_standard(rho: DensityMatrix, target: LabelSet, given: LabelSet) -> float:
    """H(target | given) = H(rho) - H(rho_given), the entropy-difference form.

    Kept separate from :func:`conditional_entropy` so the two routes can be
    compared; they agree whenever all entropies involved are finite.
    """
    _, labels_g, _ = rho.layout.split(target, given)
    rho_g = partial_trace(rho, labels_g)
    return von_neumann_entropy(rho) - von_neumann_entropy(rho_g)


def nats_to_bits(x: float) -> float:
    """Convert an extended-real value in nats to bits (infinities pass through)."""
    if math.isinf(x) or math.isnan(x):
        return x
    return x / math.log(2.0)


__all__ = [
    "von_neumann_entropy",
    "relative_entropy",
    "relative_entropy_vs_product",
    "conditional_entropy",
    "conditional_entropy_standard",
    "mutual_information_states",
    "min_supported_eigenvalue",
    "nats_to_bits",
    "as_density",
]
