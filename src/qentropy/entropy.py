"""Entropic quantities in nats: von Neumann, relative, conditional, mutual.

Values are extended reals: relative entropy is ``math.inf`` when the support
of the first argument is not contained in the support of the second, and
every other quantity built on it inherits that convention.

All formulas work on eigendecompositions; ``0 ln 0`` is taken as 0 and support
membership is decided against fixed absolute tolerances, never by comparing
floating-point numbers to exact zero.

One support rule: containment supp(rho) <= supp(sigma) is read from the
leaked mass Tr[(I - P_sigma) rho], the weight of rho on the eigendirections
of sigma below ``TAU_SUPP``, and fails once that mass exceeds dim *
``TAU_SUPP``, the most that cutting a dim-dimensional spectrum at
``TAU_SUPP`` can drop. For every state supp(rho_XY) <= supp(rho_X) x
supp(rho_Y) holds (Holevo-Shirokov), so mutual information and conditional
entropy of a valid state are always finite, while a real leak above the cut
reads as ``math.inf``. The rule never reads rho's eigenvectors.

One spectrum path: each matrix is solved once, by ``states._spectrum``. A
state handed in goes through its public wrapper ``clamped_spectrum``, an
internal array (a Gram matrix) through ``_spectrum`` itself; the dense
branch of ``_mutual_information`` solves its marginals as states, with
vectors, so that perfbench's count of ``eigh`` calls equals its count of
``clamped_spectrum`` calls. Every divergence, :func:`relative_entropy`
included, is one call of ``_spectra_divergence``, H(rho || A x B) from
rho's eigenvalues, the two factors' eigenvalues and rho's weights on their
eigendirections: the one place the support cut, the leak test against
dim * ``TAU_SUPP`` and the round-off rule meet. A relative entropy against
sigma is the same divergence against sigma x 1.

One route per state: a pure state is never densified. Its amplitudes are a
factor F, with rho = F F^dagger, and one function reads the spectra of every
entropy, of every sweep step and of every channel output off F.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateTruncationError, StructuralError
from .states import (
    DensityMatrix,
    LabelSet,
    PureState,
    State,
    _reduced,
    _regrouped,
    _spectrum,
    _support_groups,
    as_density,
    clamped_spectrum,
    partial_trace,
)
from .tolerances import NEG_CLAMP, TAU_LAMBDA, TAU_SUPP

def _entropy_from_eigs(w: np.ndarray) -> float | np.ndarray:
    """-sum w ln w over the support of an ascending spectrum, or of each row of a stack.

    The support is the top of an ascending spectrum, so each row sums its
    own support alone, in the order a single spectrum would.
    """
    rows = w.reshape(-1, w.shape[-1])
    total = np.empty(len(rows))
    for idx, (kept,) in _support_groups(rows):
        support = rows[idx, rows.shape[-1] - kept :]
        total[idx] = -np.add.reduce(support * np.log(support), axis=-1)
    return _rounded(total.reshape(w.shape[:-1]))


def _rounded(total: float | np.ndarray) -> float | np.ndarray:
    """The one round-off rule: tiny negative totals from rounding become exactly 0.0.

    An array of totals is rounded entry by entry.
    """
    if getattr(total, "ndim", 0):
        return np.where((total >= -NEG_CLAMP) & (total < 0.0), 0.0, total) + 0.0
    total = float(total)
    if -NEG_CLAMP <= total < 0.0:
        return 0.0
    return total + 0.0  # normalize -0.0


def von_neumann_entropy(rho: State) -> float:
    """H(rho) = -Tr rho ln rho, in nats. Exactly 0.0 for a pure state (zeros for
    a stack) once its weight passes the degenerate-weight check, with no solve."""
    if isinstance(rho, PureState):
        weight = np.linalg.norm(rho.amplitudes, axis=-1) ** 2
        _retained(float(weight.min()), "the state")
        return np.zeros(weight.shape) if weight.ndim else 0.0
    return _entropy_from_eigs(clamped_spectrum(rho)[0])


def min_supported_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue above the support cutoff; 0.0 for the zero matrix."""
    return _min_supported(clamped_spectrum(rho, vectors=False)[0])


def _min_supported(w: np.ndarray) -> float:
    """Smallest entry of a spectrum above ``TAU_SUPP``; 0.0 if there is none."""
    support = w[w > TAU_SUPP]
    return float(support.min()) if support.size else 0.0


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """H(rho || sigma) = Tr rho (ln rho - ln sigma), in nats.

    Returns ``math.inf`` when rho's mass outside supp(sigma) exceeds
    dim * ``TAU_SUPP``. Both arguments must have the same subsystem
    dimensions, in the same order; their labels may differ.
    """
    return _relative_entropy(rho, sigma)[0]


def _relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> tuple[float, np.ndarray]:
    """:func:`relative_entropy`, and sigma's clamped eigenvalues from the same solve."""
    if rho.layout.dims != sigma.layout.dims:
        raise StructuralError(
            f"relative entropy needs equal subsystem dimensions, got "
            f"{rho.layout.dims} and {sigma.layout.dims}"
        )
    rho = as_density(rho)
    w_rho = clamped_spectrum(rho, vectors=False)[0]
    w_sigma, v = clamped_spectrum(sigma)
    # H(rho || sigma x 1): the factor 1 adds exactly 0 to the cross term
    one = np.ones(1)
    return _spectra_divergence(w_rho, _weights(v, rho.entries), w_sigma, one, one), w_sigma


def _weights(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The weight <u_a| m |u_a> of ``m`` on each column u_a of ``u``; both may
    carry a leading stack axis."""
    return np.einsum("...ia,...ij,...ja->...a", u.conj(), m, u).real


def _spectra_divergence(
    w_rho: np.ndarray, p_a: np.ndarray, w_a: np.ndarray, p_b: np.ndarray, w_b: np.ndarray
) -> float | np.ndarray:
    """H(rho || A x B) from rho's eigenvalues ``w_rho``, the factors' ascending
    eigenvalues ``w_a`` and ``w_b``, and the weights ``p_a`` and ``p_b`` of
    rho's marginals on the factors' eigendirections, in the same order.

    Tr rho ln(A x B) = sum_a p_a ln w_a + sum_b p_b ln w_b over the supports.
    supp(rho) <= supp(A) x supp(B) holds exactly when rho's marginals put no
    weight outside supp(A) and supp(B), and the sum of those two weights lies
    between Tr[(I - P_A x P_B) rho] and twice it. So the leak is read from the
    marginal weights the cross term needs anyway, against the dimension of
    rho's space, and rho's eigenvectors are never used: ``w_rho`` may come
    from a values-only solve, and may list only the nonzero eigenvalues.
    Products of supported factor eigenvalues can sit far below the support
    cutoff (1e-9 * 1e-9), where a joint solve could not certify them; deep
    Fock-cutoff sweeps need this to stay finite.

    Every input may carry a leading stack axis; the value is then one per
    row. Spectra are ascending, so each support is the top of its spectrum.
    """
    p_a, p_b = np.maximum(p_a, 0.0), np.maximum(p_b, 0.0)
    stack, d_a, d_b, d_rho = w_rho.shape[:-1], w_a.shape[-1], w_b.shape[-1], w_rho.shape[-1]
    w_a, p_a = w_a.reshape(-1, d_a), p_a.reshape(-1, d_a)
    w_b, p_b = w_b.reshape(-1, d_b), p_b.reshape(-1, d_b)
    w_rho = w_rho.reshape(-1, d_rho)
    out = np.empty(len(w_rho))
    for rows, (k_a, k_b, k_rho) in _support_groups(w_a, w_b, w_rho):
        cut_a, cut_b = d_a - k_a, d_b - k_b
        leaked = np.add.reduce(p_a[rows, :cut_a], axis=-1)
        leaked += np.add.reduce(p_b[rows, :cut_b], axis=-1)
        # each cross term a row-by-column product, as a single spectrum's dot product
        cross = (
            p_a[rows, None, cut_a:] @ np.log(w_a[rows, cut_a:, None])
            + p_b[rows, None, cut_b:] @ np.log(w_b[rows, cut_b:, None])
        )[:, 0, 0]
        lam = w_rho[rows, d_rho - k_rho :]
        value = np.add.reduce(lam * np.log(lam), axis=-1) - cross
        value[leaked > d_a * d_b * TAU_SUPP] = math.inf
        out[rows] = value
    return _rounded(out.reshape(stack))


def _retained(weight: float, what: str) -> float:
    """A retained weight, raised on if degenerate."""
    if weight <= TAU_LAMBDA:
        raise DegenerateTruncationError(
            f"retained weight {weight:.3e} of {what} is at or below {TAU_LAMBDA:g}",
            weight=weight,
        )
    return weight


def _unfolded(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The A rows (n, k r) and B rows (k, n r) of a factor F of shape (..., n, k, r),
    with rho = F F^dagger: a side's marginal is R R^dagger for its rows R."""
    n, k, r = factor.shape[-3:]
    stack = factor.shape[:-3]
    return (
        factor.reshape(stack + (n, k * r)),
        np.swapaxes(factor, -3, -2).reshape(stack + (k, n * r)),
    )


def _factor_spectra(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple, tuple]:
    """F / ||F||, the weight ||F||^2, and the spectra of F F^dagger / ||F||^2 for a
    factor F of shape (..., n, k, r): joint, then (spectrum, rows R) for A and B.

    The r x r Gram matrix F^dagger F has the joint state's nonzero spectrum
    (renormalized, a pure state's is [[1.0]]). Each side's marginal is
    R R^dagger; its spectrum is the squared singular values of R, zero-padded,
    one values-only SVD serving both sides when r = 1 (a Schmidt-diagonal
    factor needs none: :func:`_schmidt_spectra`). A stack gives one of each per row.
    """
    n, k, r = factor.shape[-3:]
    columns = factor.reshape(factor.shape[:-3] + (n * k, r))
    gram = columns.conj().swapaxes(-1, -2) @ columns
    # Tr F^dagger F = ||F||^2, the weight of F F^dagger
    lam = np.trace(gram, axis1=-2, axis2=-1).real
    _retained(float(lam.min()), "the state")
    w_joint = _spectrum(gram / lam[..., None, None], vectors=False)[0]
    factor = factor / np.sqrt(lam)[..., None, None, None]
    rows_a, rows_b = _unfolded(factor)
    s_a = np.linalg.svd(rows_a, compute_uv=False)
    s_b = s_a if r == 1 else np.linalg.svd(rows_b, compute_uv=False)
    return factor, lam, w_joint, (_padded(s_a**2, n), rows_a), (_padded(s_b**2, k), rows_b)


def _schmidt_coefficients(factor: np.ndarray) -> np.ndarray | None:
    """The diagonal c_i = F[..., i, i, 0] of a factor of shape (..., n, k, 1) with no
    off-diagonal nonzero, its Schmidt coefficients; None for any other factor."""
    return _diagonal(factor[..., 0]) if factor.shape[-1] == 1 else None


def _diagonal(m: np.ndarray) -> np.ndarray | None:
    """A copy of the diagonal of ``m``, or of each matrix in a stack, when ``m``
    has no off-diagonal nonzero; None otherwise."""
    diagonal = np.diagonal(m, axis1=-2, axis2=-1)
    return diagonal.copy() if np.count_nonzero(m) == np.count_nonzero(diagonal) else None


def _schmidt_spectra(
    coefficients: np.ndarray, n: int, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple, tuple]:
    """:func:`_factor_spectra` of the n x k factor with diagonal ``coefficients`` c
    and no other nonzero, read off c with no solve: the joint spectrum is [1.0],
    each marginal is diag(|c_i|^2) / ||c||^2, and its diagonal stands for the rows.
    """
    squares = (coefficients.conj() * coefficients).real
    lam = squares.sum(axis=-1)
    _retained(float(lam.min()), "the state")
    # diag(|c_i|^2) / lam on the longer side; the shorter side's is its head
    p = np.zeros(lam.shape + (max(n, k),))
    p[..., : squares.shape[-1]] = squares / lam[..., None]
    ascending = np.sort(p, axis=-1)
    sides = ((ascending[..., p.shape[-1] - size :], p[..., :size]) for size in (n, k))
    return coefficients / np.sqrt(lam)[..., None], lam, np.ones(lam.shape + (1,)), *sides


def _padded(descending: np.ndarray, size: int) -> np.ndarray:
    """Descending spectra listed ascending with zeros in front, to ``size`` entries."""
    zeros = np.zeros(descending.shape[:-1] + (size - descending.shape[-1],))
    return np.concatenate([zeros, descending[..., ::-1]], axis=-1)


def _grouped(rho: State, first: LabelSet, second: LabelSet) -> DensityMatrix | np.ndarray:
    """``rho`` on ``first`` then ``second``, each in layout order, any other label
    traced out: a density matrix reduced and permuted, or a pure state's factor F
    of shape (..., d_first, d_second, d_rest), rho = F F^dagger, whose last axis runs
    over the leftover labels (its purifier), real if no amplitude is complex."""
    labels_1, labels_2, rest = rho.layout.split(first, second)
    if isinstance(rho, DensityMatrix):
        return _reduced(rho, labels_1 + labels_2)
    amplitudes = rho.amplitudes
    if not np.count_nonzero(amplitudes.imag):
        amplitudes = amplitudes.real
    return _regrouped(amplitudes, rho.layout, (labels_1, labels_2, rest), 1)


def _mutual_information(rho: State, first: LabelSet, second: LabelSet) -> tuple[float, np.ndarray]:
    """I(first:second), and the first marginal's clamped eigenvalues; a pure
    state is read off its factor, as a sweep step reads it. A stack is read off
    Schmidt coefficients only if every row is Schmidt-diagonal; else every row
    takes :func:`_factor_spectra`, which may move such a row in the last bit."""
    grouped = _grouped(rho, first, second)
    if isinstance(grouped, np.ndarray):
        c = _schmidt_coefficients(grouped)
        n, k = grouped.shape[-3:-1]
        spectra = _factor_spectra(grouped) if c is None else _schmidt_spectra(c, n, k)
        _, _, w_joint, (w_1, _), (w_2, _) = spectra
        return _spectra_divergence(w_joint, w_1, w_1, w_2, w_2), w_1
    rho_1, rho_2 = partial_trace(grouped, first), partial_trace(grouped, second)
    w_1, u_1 = clamped_spectrum(rho_1)
    # with vectors though only values are read: perfbench pins eigh == clamped_spectrum calls
    w_joint = clamped_spectrum(grouped)[0]
    w_2, u_2 = clamped_spectrum(rho_2)
    p_1, p_2 = _weights(u_1, rho_1.entries), _weights(u_2, rho_2.entries)
    return _spectra_divergence(w_joint, p_1, w_1, p_2, w_2), w_1


def mutual_information_states(rho: State, part_x: LabelSet, part_y: LabelSet) -> float:
    """I(X:Y) = H(rho_XY || rho_X x rho_Y); labels in neither set are traced out."""
    return _mutual_information(rho, part_x, part_y)[0]


def conditional_entropy(rho: State, target: LabelSet, given: LabelSet) -> float:
    """H(target | given) = H(rho_target) - H(rho || rho_given x rho_target).

    This is the relative-entropy form, which stays meaningful whenever the
    correlation term is finite; it equals H(rho) - H(rho_given) when the
    joint entropy is finite (see :func:`conditional_entropy_standard`).
    Labels in neither set are traced out (a pure state's are its purifier).
    The correlation term is the mutual information, and supp(rho) <=
    supp(rho_target) x supp(rho_given) holds for every state, so the value is
    finite: the marginals leak only the eigenvalues their own cut at
    ``TAU_SUPP`` drops, at most (d_target + d_given - 2) * ``TAU_SUPP``, inside
    the bound d_target * d_given * ``TAU_SUPP``.
    """
    return _conditional_entropy(rho, target, given)[0]


def _conditional_entropy(rho: State, target: LabelSet, given: LabelSet) -> tuple[float, float]:
    """:func:`conditional_entropy`, and H(rho_target) from the same solve."""
    corr, w_target = _mutual_information(rho, target, given)
    h_target = _entropy_from_eigs(w_target)
    return h_target - corr, h_target


def conditional_entropy_standard(rho: DensityMatrix, target: LabelSet, given: LabelSet) -> float:
    """H(target | given) = H(rho_target,given) - H(rho_given), the entropy-difference form.

    Kept separate from :func:`conditional_entropy`, with its label rule, so the two
    routes can be compared; they agree whenever all entropies involved are finite.
    """
    labels_t, labels_g, _ = rho.layout.split(target, given)
    rho_tg = partial_trace(rho, labels_t + labels_g)
    return von_neumann_entropy(rho_tg) - von_neumann_entropy(partial_trace(rho, labels_g))


def nats_to_bits(x: float) -> float:
    """Convert an extended-real value in nats to bits (infinities pass through)."""
    if math.isinf(x) or math.isnan(x):
        return x
    return x / math.log(2.0)


__all__ = [
    "von_neumann_entropy",
    "relative_entropy",
    "conditional_entropy",
    "conditional_entropy_standard",
    "mutual_information_states",
    "min_supported_eigenvalue",
    "nats_to_bits",
]
