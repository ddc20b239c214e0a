"""Quantum channels in Kraus form, dilations, and channel information measures.

Environment ordering convention: the Stinespring isometry of a channel with
Kraus operators ``K_0 .. K_{J-1}`` maps ``|a> -> sum_j (K_j |a>) x |j>_E``
with the environment appended as the LAST tensor factor, so the row index of
the isometry is ``b * J + j``. The complementary channel reads its Kraus
operators off the same isometry with the roles of output and environment
swapped.

Channel information never forms a dense output state. The input's
purification is kept as its (d_in, rank) amplitude matrix psi (a pure
input's is its own amplitude column, so it is never densified), and the output
of (channel x id_R) as the factor F[b, i, j] = sum_a K_j[b, a] psi[a, i] of a
pure state on B, R and the environment, read as every pure state is
(``entropy._factor_spectra``): the env x env Gram matrix F^dagger F gives
rho_BR's nonzero eigenvalues, and values-only SVDs of F its marginals', so no
matrix of size d_out * rank is solved. That arithmetic renormalizes F, so
channel information takes trace-preserving channels only.

A channel may be a stack: Kraus operators (env, N, d_out, d_in), one
channel per row. Channel information of a stack of N states through a stack
of N channels, or through one channel, is evaluated in one call, one value
per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .entropy import _entropy_from_eigs, _factor_spectra, _spectra_divergence
from .errors import InvalidChannelError, PreconditionError, StructuralError, as_integer
from .rng import complex_normal, generator, normal_pairs
from .states import (
    DensityMatrix,
    LabelSet,
    PureState,
    State,
    SubsystemLayout,
    ValidationReport,
    Violation,
    _freeze,
    _regrouped,
    _support_groups,
    as_density,
    clamped_spectrum,
    partial_trace,
)
from .tolerances import TAU_PURE, TAU_SUPP, TAU_TRACE


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by Kraus operators of a common shape.

    ``kraus_ops`` is one frozen complex128 array (env, d_out, d_in), or (env, N,
    d_out, d_in) for a stack of N channels, copied from any iterable of the
    operators. ``dim_in``, ``dim_out`` and ``env_dim``, the Stinespring
    environment's dimension, are read off its shape. Construction checks
    structure only; whether the map is trace preserving is measured by
    :func:`validate_channel`.
    """

    kraus_ops: np.ndarray

    def __init__(self, kraus_ops: Iterable[np.ndarray]):
        ops = list(kraus_ops)
        shapes = sorted({np.shape(k) for k in ops})
        if len(shapes) != 1 or len(shapes[0]) not in (2, 3):
            raise StructuralError(f"need Kraus operators of one shape, 2 or 3 axes; got {shapes}")
        object.__setattr__(self, "kraus_ops", _freeze(ops))

    @property
    def dim_in(self) -> int:
        return self.kraus_ops.shape[-1]

    @property
    def dim_out(self) -> int:
        return self.kraus_ops.shape[-2]

    @property
    def env_dim(self) -> int:
        return len(self.kraus_ops)

    def completeness_defect(self) -> float:
        """Max-abs deviation of sum_j K_j^dagger K_j from the identity; the
        largest over the rows of a stack."""
        s = sum(k.conj().swapaxes(-1, -2) @ k for k in self.kraus_ops)
        return float(np.max(np.abs(s - np.eye(self.dim_in))))

    def apply(self, state: State, out_label: str = "B") -> DensityMatrix:
        """Apply the channel; the output carries a single subsystem label."""
        rho = as_density(state)
        if rho.dim != self.dim_in:
            raise StructuralError(
                f"channel expects input dimension {self.dim_in}, state has {rho.dim}"
            )
        out = sum(k @ rho.entries @ k.conj().swapaxes(-1, -2) for k in self.kraus_ops)
        return DensityMatrix(out, SubsystemLayout([(out_label, self.dim_out)]))


def validate_channel(channel: KrausChannel) -> ValidationReport:
    """Measure trace preservation: sum_j K_j^dagger K_j must equal the identity."""
    defect = channel.completeness_defect()
    if defect > TAU_TRACE:
        return ValidationReport((Violation("trace_preserving", defect),))
    return ValidationReport()


def require_valid_channel(channel: KrausChannel) -> KrausChannel:
    report = validate_channel(channel)
    if not report.ok:
        raise InvalidChannelError(f"channel is not trace preserving: {report.describe()}")
    return channel


def stinespring(channel: KrausChannel) -> np.ndarray:
    """Isometry V with V|a> = sum_j (K_j|a>) x |j>_E, environment last.

    Shape is ``(dim_out * env_dim, dim_in)`` with row index ``b * env_dim + j``;
    V^dagger V = I because the channel must be trace preserving, and
    ``Phi(rho) = Tr_E V rho V^dagger``.
    """
    require_valid_channel(channel)
    return channel.kraus_ops.swapaxes(0, 1).reshape(-1, channel.dim_in)


def complementary(channel: KrausChannel) -> KrausChannel:
    """Channel to the environment of the Stinespring dilation, rho -> Tr_B(V rho V^dagger).

    Read off the same isometry with output and environment exchanged: the
    e-th complementary Kraus operator maps the input to the env_dim-dimensional
    environment via ``(K~_e)[j, a] = (K_j)[e, a]``.
    """
    require_valid_channel(channel)
    # (env, [N,] out, in) -> (out, [N,] env, in)
    return KrausChannel(np.swapaxes(channel.kraus_ops, 0, -2))


def trace_out_channel(layout: SubsystemLayout, keep: LabelSet) -> KrausChannel:
    """Partial trace over the complement of ``keep``, as a Kraus channel.

    The Kraus operators are indexed by the computational basis of the traced
    factors; the output space is the kept factors in their original order,
    matching :func:`qentropy.states.partial_trace`.
    """
    kept = layout.normalize_labels(keep)
    traced = tuple(lab for lab in layout.labels if lab not in set(kept))
    if not kept:
        raise StructuralError("trace_out_channel needs a nonempty kept label set")
    if not traced:
        raise StructuralError("trace_out_channel needs at least one traced subsystem")
    # row x of the identity, regrouped: rows[x, k, t] = 1 iff x indexes |k>|t>
    rows = _regrouped(np.eye(layout.total_dim), layout, (kept, traced), 1)
    return KrausChannel(rows.transpose(2, 1, 0))


def purify(rho: DensityMatrix, reference_label: str = "R") -> PureState:
    """Pure state on (original system) x (reference) whose reduction is rho.

    The reference dimension equals the rank of rho (eigenvalues above the
    support cutoff), not the full dimension. Eigenvalues enter in descending
    order and each eigenvector's phase is fixed by making its
    largest-magnitude component real positive, so the output is a
    deterministic function of the input matrix. A stack purifies row by
    row onto the largest rank among its rows; a row of lower rank has zero
    amplitude on the reference levels past its own rank.
    """
    if reference_label in rho.layout.labels:
        raise StructuralError(
            f"reference label {reference_label!r} collides with {rho.layout.labels}"
        )
    amplitudes = _purification(clamped_spectrum(rho))
    layout = SubsystemLayout(rho.layout.subsystems + ((reference_label, amplitudes.shape[-1]),))
    return PureState(amplitudes.reshape(amplitudes.shape[:-2] + (-1,)), layout)


def _purification(spectrum: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """:func:`purify`'s amplitudes from rho's clamped spectrum, which it leaves
    unchanged, as a (dim, rank) matrix psi with rho = psi psi^dagger.

    A stack gives (N, dim, max rank): row i fills its first rank_i columns,
    solved with the rows of equal rank, and the rest are zero.
    """
    w, u = spectrum
    stack, dim = w.shape[:-1], w.shape[-1]
    w, u = w.reshape(-1, dim), u.reshape(-1, dim, dim)
    groups = _support_groups(w)
    w, u = w[:, ::-1], u[:, :, ::-1]
    if any(rank == 0 for _, (rank,) in groups):
        raise PreconditionError("cannot purify the zero matrix")
    psi = np.zeros((len(w), dim, max(rank for _, (rank,) in groups)), dtype=u.dtype)
    for rows, (rank,) in groups:
        lam, vecs = w[rows, :rank], u[rows, :, :rank]
        # each column's phase makes its largest-magnitude component real positive
        top = np.argmax(np.abs(vecs), axis=-2)[:, None, :]
        pivot = np.take_along_axis(vecs, top, axis=-2)
        amp = vecs * (pivot.conj() / np.hypot(pivot.real, pivot.imag)) * np.sqrt(lam)[:, None, :]
        norms = np.array([np.linalg.norm(row.reshape(-1)) for row in amp])
        psi[rows, :, :rank] = amp / norms[:, None, None]
    return psi.reshape(stack + psi.shape[1:])


def channel_mutual_information(state: State, channel: KrausChannel) -> float:
    """Mutual information between channel output and a purifying reference.

    Purifies the input, sends the system half through the trace-preserving
    channel, and returns H(rho_BR || rho_B x rho_R) in nats for the joint
    output/reference state, whichever purification is used. A pure input is
    its own purification and is never densified.
    """
    return _information_and_spectrum(state, channel)[0]


def _information_and_spectrum(
    state: State, channel: KrausChannel
) -> tuple[float | np.ndarray, np.ndarray]:
    """:func:`channel_mutual_information` from the output factor, read as a pure
    state's mutual information is, and the clamped eigenvalues of the input it
    purified. A pure input is its own purification, its amplitudes as a
    (dim, 1) column, with spectrum [0, ..., 0, 1] and no solve. A density
    matrix is solved once, and the rows of a stack are grouped by rank, so
    each row's factor has exactly its own rank's columns."""
    if not isinstance(state, PureState):
        state = as_density(state)
    if state.dim != channel.dim_in:
        raise StructuralError(
            f"channel expects input dimension {channel.dim_in}, state has {state.dim}"
        )
    require_valid_channel(channel)
    kraus = np.moveaxis(channel.kraus_ops, 0, -3)  # ([N,] env, out, in)
    if isinstance(state, PureState):
        amplitudes = state.amplitudes
        if np.min(np.linalg.norm(amplitudes, axis=-1)) ** 2 <= TAU_SUPP:
            raise PreconditionError("cannot purify the zero matrix")
        w = np.zeros(amplitudes.shape)
        w[..., -1] = 1.0
        return _output_information(kraus, amplitudes[..., None]), w
    w, u = clamped_spectrum(state)
    stack, dim = w.shape[:-1], state.dim
    w, u = w.reshape(-1, dim), u.reshape(-1, dim, dim)
    info = np.empty(len(w))
    for rows, _ in _support_groups(w):
        psi = _purification((w[rows], u[rows]))
        info[rows] = _output_information(kraus[rows] if kraus.ndim == 4 else kraus, psi)
    info = info.reshape(stack)
    return (info if stack else float(info)), w.reshape(stack + (dim,))


def _output_information(kraus: np.ndarray, psi: np.ndarray) -> float | np.ndarray:
    """H(rho_BR || rho_B x rho_R) for the channel with Kraus operators ``kraus``
    (env, out, in) applied to the purification with amplitudes ``psi``
    (in, rank); either may carry a leading stack axis."""
    # F[b, i, j] = sum_a K_j[b, a] psi[a, i]
    factor = np.einsum("...jba,...ai->...bij", kraus, psi)
    _, _, w_joint, (w_b, _), (w_r, _) = _factor_spectra(factor)
    return _spectra_divergence(w_joint, w_b, w_b, w_r, w_r)


def coherent_information(state: State, channel: KrausChannel) -> float:
    """I_c(rho, Phi) = I(rho, Phi) - H(rho), in nats, for a trace-preserving
    channel; rho is solved once for both terms, and a pure rho not at all."""
    mi, eigenvalues = _information_and_spectrum(state, channel)
    return mi - _entropy_from_eigs(eigenvalues)


def conditional_entropy_via_coherent_info(
    state: State, target: LabelSet, given: LabelSet
) -> float:
    """H(target | given) of a pure state's reduction, via channel machinery.

    For a pure state on at least three subsystem groups (target, given, and a
    nonempty remainder), H(target | given) of the target+given marginal
    equals minus the coherent information of tracing the remainder out of the
    given+remainder marginal. This is an independent route to the same number
    as :func:`qentropy.entropy.conditional_entropy` and is kept separate so
    the two can be cross-checked.

    A :class:`~.states.PureState` is taken as built, never densified: it is
    pure when its squared norm is within ``TAU_PURE`` of 1, row by row, and
    its given+remainder marginal is reduced from its amplitudes. A density
    matrix is pure when its trace is within ``TAU_TRACE`` of 1 and its largest
    eigenvalue, from one values-only solve, is at least 1 - ``TAU_PURE``.
    """
    if isinstance(state, PureState):
        squares = np.linalg.norm(state.amplitudes, axis=-1).reshape(-1) ** 2
        off = np.abs(squares - 1.0) > TAU_PURE
        if off.any():
            first = squares[np.argmax(off)]
            raise PreconditionError(f"state must be pure; squared norm is {first:.12f}")
    else:
        trace = np.trace(as_density(state).entries, axis1=-2, axis2=-1).reshape(-1)
        off = np.abs(trace - 1.0) > TAU_TRACE
        if off.any():
            raise PreconditionError(f"state must be pure; trace is {trace[np.argmax(off)]:.12f}")
        top = clamped_spectrum(state, vectors=False)[0][..., -1].reshape(-1)
        if top.min() < 1.0 - TAU_PURE:
            first = top[np.argmax(top < 1.0 - TAU_PURE)]
            raise PreconditionError(f"state must be pure; largest eigenvalue is {first:.12f}")
    _, labels_g, rest = state.layout.split(target, given)
    if not rest:
        raise PreconditionError(
            "need a nonempty remainder group to trace out; the pure state must "
            "extend beyond target and conditioning subsystems"
        )
    rho_gr = partial_trace(state, labels_g + rest)
    trace_rest = trace_out_channel(rho_gr.layout, keep=labels_g)
    return -coherent_information(rho_gr, trace_rest)


def haar_channel(
    rng: np.random.Generator, dim_in: int, dim_out: int, env_dim: int
) -> KrausChannel:
    """Haar-random channel from a random Stinespring isometry, using a live generator.

    Takes the QR decomposition of a complex Gaussian
    ``(dim_out * env_dim, dim_in)`` matrix and fixes phases so the R factor
    has a real positive diagonal; the Kraus operators are the environment
    slices of the resulting isometry. Requires ``dim_out * env_dim >= dim_in``
    so an isometry exists.
    """
    dim_in, dim_out = as_integer(dim_in, "dim_in"), as_integer(dim_out, "dim_out")
    env_dim = as_integer(env_dim, "env_dim")
    if min(dim_in, dim_out, env_dim) < 1:
        raise StructuralError("dimensions and environment dimension must be positive")
    if dim_out * env_dim < dim_in:
        raise StructuralError(
            f"no isometry into dimension {dim_out}*{env_dim} from {dim_in}"
        )
    pairs = _haar_channel_pairs(rng, dim_in, dim_out, env_dim)
    return _haar_channel(pairs, dim_in, dim_out, env_dim)


def _haar_channel_pairs(
    rng: np.random.Generator, dim_in: int, dim_out: int, env_dim: int, rows: int | None = None
) -> np.ndarray:
    """The draw :func:`_haar_channel` builds: the Gaussian
    (dim_out * env_dim, dim_in) matrix's entries, row-major, as one
    :func:`~qentropy.rng.normal_pairs` call, or a block of ``rows`` of them."""
    return normal_pairs(rng, dim_out * env_dim * dim_in, rows)


def _haar_channel(pairs: np.ndarray, dim_in: int, dim_out: int, env_dim: int) -> KrausChannel:
    """The arithmetic of :func:`haar_channel` on one :func:`_haar_channel_pairs`
    draw, or on a stack (N, 2, dim_out * env_dim * dim_in) of them: one
    channel, or a stack of N."""
    g = complex_normal(pairs).reshape(pairs.shape[:-2] + (dim_out * env_dim, dim_in))
    q, r = np.linalg.qr(g, mode="reduced")
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[np.abs(diag) < TAU_SUPP] = 1.0
    v = q * (diag.conjugate() / np.abs(diag))[..., None, :]
    # the environment slices of the isometry, environment axis first
    return KrausChannel(np.moveaxis(v.reshape(v.shape[:-2] + (dim_out, env_dim, dim_in)), -2, 0))


def random_channel(dim_in: int, dim_out: int, env_dim: int, seed: int = 0) -> KrausChannel:
    """Seeded Haar-random channel; deterministic per seed."""
    return haar_channel(generator(seed), dim_in, dim_out, env_dim)


__all__ = [
    "KrausChannel",
    "validate_channel",
    "require_valid_channel",
    "stinespring",
    "complementary",
    "trace_out_channel",
    "purify",
    "channel_mutual_information",
    "coherent_information",
    "conditional_entropy_via_coherent_info",
    "haar_channel",
    "random_channel",
]
