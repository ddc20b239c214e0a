"""Quantum channels in Kraus form, dilations, and channel information measures.

Environment ordering convention: the Stinespring isometry of a channel with
Kraus operators ``K_0 .. K_{J-1}`` maps ``|a> -> sum_j (K_j |a>) x |j>_E``
with the environment appended as the LAST tensor factor, so the row index of
the isometry is ``b * J + j``. The complementary channel reads its Kraus
operators off the same isometry with the roles of output and environment
swapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .entropy import mutual_information_states, von_neumann_entropy
from .errors import InvalidChannelError, PreconditionError, StructuralError
from .rng import complex_normal, generator
from .states import (
    DensityMatrix,
    LabelSet,
    PureState,
    State,
    SubsystemLayout,
    ValidationReport,
    Violation,
    as_density,
    clamped_spectrum,
    partial_trace,
)
from .tolerances import TAU_PURE, TAU_SUPP, TAU_TRACE


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by Kraus operators of a common shape.

    ``env_dim`` (the number of Kraus operators) is the dimension of the
    Stinespring environment. Construction checks structure only; whether the
    map is trace preserving is measured by :func:`validate_channel`.
    """

    kraus_ops: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int

    def __init__(
        self,
        kraus_ops: Iterable[np.ndarray],
        dim_in: int | None = None,
        dim_out: int | None = None,
    ):
        ops = []
        for k in kraus_ops:
            a = np.array(k, dtype=np.complex128, copy=True)
            if a.ndim != 2:
                raise StructuralError(f"Kraus operator has {a.ndim} axes, expected 2")
            a.setflags(write=False)
            ops.append(a)
        if not ops:
            raise StructuralError("a channel needs at least one Kraus operator")
        out, inp = ops[0].shape
        for a in ops:
            if a.shape != (out, inp):
                raise StructuralError(
                    f"Kraus operators disagree in shape: {a.shape} vs {(out, inp)}"
                )
        if dim_in is not None and int(dim_in) != inp:
            raise StructuralError(f"dim_in {dim_in} does not match Kraus shape {(out, inp)}")
        if dim_out is not None and int(dim_out) != out:
            raise StructuralError(f"dim_out {dim_out} does not match Kraus shape {(out, inp)}")
        object.__setattr__(self, "kraus_ops", tuple(ops))
        object.__setattr__(self, "dim_in", inp)
        object.__setattr__(self, "dim_out", out)

    @property
    def env_dim(self) -> int:
        return len(self.kraus_ops)

    def completeness_defect(self) -> float:
        """Max-abs deviation of sum_j K_j^dagger K_j from the identity."""
        s = sum(k.conj().T @ k for k in self.kraus_ops)
        return float(np.max(np.abs(s - np.eye(self.dim_in))))

    def apply(self, state: State, out_label: str = "B") -> DensityMatrix:
        """Apply the channel; the output carries a single subsystem label."""
        rho = as_density(state)
        if rho.dim != self.dim_in:
            raise StructuralError(
                f"channel expects input dimension {self.dim_in}, state has {rho.dim}"
            )
        out = np.zeros((self.dim_out, self.dim_out), dtype=np.complex128)
        for k in self.kraus_ops:
            out += k @ rho.entries @ k.conj().T
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
    stacked = np.stack(channel.kraus_ops)  # (env, out, in)
    env, out, inp = stacked.shape
    return stacked.transpose(1, 0, 2).reshape(out * env, inp)


def complementary(channel: KrausChannel) -> KrausChannel:
    """Channel to the environment of the Stinespring dilation, rho -> Tr_B(V rho V^dagger).

    Read off the same isometry with output and environment exchanged: the
    e-th complementary Kraus operator maps the input to the env_dim-dimensional
    environment via ``(K~_e)[j, a] = (K_j)[e, a]``.
    """
    require_valid_channel(channel)
    stacked = np.stack(channel.kraus_ops)  # (env, out, in)
    swapped = stacked.transpose(1, 0, 2)  # (out, env, in)
    return KrausChannel(list(swapped))


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
    dims = layout.dims
    d = layout.total_dim
    kept_pos = [layout.index_of(lab) for lab in kept]
    traced_pos = [layout.index_of(lab) for lab in traced]
    kept_dims = [dims[p] for p in kept_pos]
    traced_dims = [dims[p] for p in traced_pos]
    d_keep = int(np.prod(kept_dims))
    d_traced = int(np.prod(traced_dims))

    multi = np.array(np.unravel_index(np.arange(d), dims))
    kept_flat = np.ravel_multi_index(tuple(multi[kept_pos]), kept_dims)
    traced_flat = np.ravel_multi_index(tuple(multi[traced_pos]), traced_dims)
    ops = []
    for t in range(d_traced):
        k = np.zeros((d_keep, d), dtype=np.complex128)
        cols = np.nonzero(traced_flat == t)[0]
        k[kept_flat[cols], cols] = 1.0
        ops.append(k)
    return KrausChannel(ops)


def _fresh_label(layout: SubsystemLayout, base: str = "R") -> str:
    if base not in layout.labels:
        return base
    i = 2
    while f"{base}{i}" in layout.labels:
        i += 1
    return f"{base}{i}"


def purify(rho: DensityMatrix, reference_label: str = "R") -> PureState:
    """Pure state on (original system) x (reference) whose reduction is rho.

    The reference dimension equals the rank of rho (eigenvalues above the
    support cutoff), not the full dimension. Eigenvalues enter in descending
    order and each eigenvector's phase is fixed by making its
    largest-magnitude component real positive, so the output is a
    deterministic function of the input matrix.
    """
    if reference_label in rho.layout.labels:
        raise StructuralError(
            f"reference label {reference_label!r} collides with {rho.layout.labels}"
        )
    w, u = clamped_spectrum(rho)
    w, u = w[::-1], u[:, ::-1]
    mask = w > TAU_SUPP
    lam, vecs = w[mask], u[:, mask]
    rank = int(lam.size)
    if rank == 0:
        raise PreconditionError("cannot purify the zero matrix")
    for i in range(rank):
        col = vecs[:, i]
        pivot = col[np.argmax(np.abs(col))]
        vecs[:, i] = col * (pivot.conjugate() / abs(pivot))
    amp = (vecs * np.sqrt(lam)).reshape(-1)  # flat index = a * rank + i
    amp = amp / np.linalg.norm(amp)
    layout = SubsystemLayout(rho.layout.subsystems + ((reference_label, rank),))
    return PureState(amp, layout)


def _extend_last(channel: KrausChannel, dim_ref: int) -> list[np.ndarray]:
    """Kraus operators of (channel x identity) acting on (input x reference)."""
    eye = np.eye(dim_ref)
    return [np.kron(k, eye) for k in channel.kraus_ops]


def channel_mutual_information(state: State, channel: KrausChannel) -> float:
    """Mutual information between channel output and a purifying reference.

    Purifies the input, sends the system half through the channel, and
    returns H(rho_BR || rho_B x rho_R) in nats for the joint output/reference
    state. The value does not depend on which purification is used.
    """
    rho = as_density(state)
    if rho.dim != channel.dim_in:
        raise StructuralError(
            f"channel expects input dimension {channel.dim_in}, state has {rho.dim}"
        )
    ref = _fresh_label(rho.layout)
    psi = purify(rho, reference_label=ref)
    dim_ref = psi.layout.dim_of(ref)
    joint = psi.as_density().entries
    out = np.zeros(
        (channel.dim_out * dim_ref, channel.dim_out * dim_ref), dtype=np.complex128
    )
    for k in _extend_last(channel, dim_ref):
        out += k @ joint @ k.conj().T
    rho_br = DensityMatrix(out, SubsystemLayout([("B", channel.dim_out), (ref, dim_ref)]))
    return mutual_information_states(rho_br, "B", ref)


def coherent_information(state: State, channel: KrausChannel) -> float:
    """I_c(rho, Phi) = I(rho, Phi) - H(rho), in nats."""
    rho = as_density(state)
    mi = channel_mutual_information(rho, channel)
    if math.isinf(mi):
        return mi
    return mi - von_neumann_entropy(rho)


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
    """
    rho = as_density(state)
    top = float(clamped_spectrum(rho)[0][-1])
    if top < 1.0 - TAU_PURE:
        raise PreconditionError(f"state must be pure; largest eigenvalue is {top:.12f}")
    _, labels_g, rest = rho.layout.split(target, given, cover=False)
    if not rest:
        raise PreconditionError(
            "need a nonempty remainder group to trace out; the pure state must "
            "extend beyond target and conditioning subsystems"
        )
    kept = rho.layout.normalize_labels(labels_g + rest)
    rho_gr = partial_trace(rho, kept)
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
    dim_in, dim_out, env_dim = int(dim_in), int(dim_out), int(env_dim)
    if min(dim_in, dim_out, env_dim) < 1:
        raise StructuralError("dimensions and environment dimension must be positive")
    if dim_out * env_dim < dim_in:
        raise StructuralError(
            f"no isometry into dimension {dim_out}*{env_dim} from {dim_in}"
        )
    g = complex_normal(rng, (dim_out * env_dim, dim_in))
    q, r = np.linalg.qr(g, mode="reduced")
    diag = np.diagonal(r).copy()
    diag[np.abs(diag) < TAU_SUPP] = 1.0
    v = q * (diag.conjugate() / np.abs(diag))
    blocks = v.reshape(dim_out, env_dim, dim_in)
    return KrausChannel([blocks[:, j, :] for j in range(env_dim)])


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
