"""Finite-rank truncation of multipartite states and convergence sweeps.

A sweep fixes a nested projector family on each side of a bipartition,
truncates the state to growing ranks (n, k), renormalizes, and tracks how
the conditional entropy of the truncated state approaches that of the full
state. Two correlation terms are recorded per step:

* ``h_nk``: relative entropy of the truncated state against the product of
  its OWN marginals (its mutual information).
* ``h_tilde_nk``: relative entropy against the product of the truncated and
  renormalized marginals of the ORIGINAL state.

Their difference equals the sum of the relative entropies between the two
marginal pairs (see :func:`truncation_diagnostics`), so it is nonnegative
and vanishes exactly when truncation commutes with taking marginals
(e.g. rank-aligned truncation of a Schmidt-diagonal state).

:func:`truncate_normalize` returns states in the original space. Sweeps
instead compress each projected factor onto its retained subspace: replacing
P rho P by (V (x) W)^dagger rho (V (x) W) with isometries V, W changes no
eigenvalue of the state, its marginals, or any product of them, so every
entropy commutes with the compression while matrices shrink from
d_A d_B to n k. That keeps full sweeps inside the runtime budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .entropy import _entropy_from_eigs, _grouped, _product_divergence, relative_entropy
from .errors import DegenerateTruncationError, PreconditionError, StructuralError
from .states import DensityMatrix, LabelSet, SubsystemLayout, clamped_spectrum, partial_trace
from .tolerances import TAU_GRAM, TAU_LAMBDA

ProjectorMode = Literal["computational", "eigenbasis"]
PROJECTOR_MODES = ("computational", "eigenbasis")


@dataclass(frozen=True)
class ProjectorSequence:
    """Nested family of projectors P_1 <= P_2 <= ... from a fixed orthonormal basis.

    ``basis`` holds the basis as columns; ``isometry(r)`` returns the first r
    columns and ``projector(r)`` the corresponding rank-r projector. Because
    every projector reuses the same leading columns, the family is increasing
    by construction: P_m P_n = P_min(m,n), and P equals the identity at full
    rank.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.complex128, copy=True)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise StructuralError(f"basis must be a square matrix, got shape {b.shape}")
        gram_defect = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[0]))))
        if gram_defect > TAU_GRAM:
            raise StructuralError(f"basis columns are not orthonormal (defect {gram_defect:.3e})")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def isometry(self, rank: int) -> np.ndarray:
        rank = int(rank)
        if not 1 <= rank <= self.dim:
            raise PreconditionError(f"rank must be in [1, {self.dim}], got {rank}")
        return self.basis[:, :rank]

    def projector(self, rank: int) -> np.ndarray:
        v = self.isometry(rank)
        return v @ v.conj().T

    @classmethod
    def computational(cls, dim: int) -> "ProjectorSequence":
        """Projectors onto the first r computational (number) basis states."""
        return cls(np.eye(int(dim)))

    @classmethod
    def from_state(cls, rho: DensityMatrix) -> "ProjectorSequence":
        """Projectors onto the top-r eigenvectors of a state (descending eigenvalue)."""
        return cls(clamped_spectrum(rho)[1][:, ::-1])


@dataclass(frozen=True)
class TruncationStep:
    """A truncated-normalized state with its retained weight.

    ``ranks`` maps each projected subsystem label to its rank; subsystems
    absent from the map were left untouched. ``state`` lives in the original
    space with the original layout.
    """

    ranks: dict[str, int]
    lam: float
    state: DensityMatrix


def _renormalized(
    m: np.ndarray, layout: SubsystemLayout, what: str
) -> tuple[DensityMatrix, float]:
    """``m / Tr m`` as a state, and the weight ``Tr m``; degenerate weights raise."""
    weight = float(np.trace(m).real)
    if weight <= TAU_LAMBDA:
        raise DegenerateTruncationError(
            f"retained weight {weight:.3e} of {what} is at or below {TAU_LAMBDA:g}",
            weight=weight,
        )
    return DensityMatrix(m / weight, layout), weight


def _compress(
    m: np.ndarray, iso: np.ndarray, layout: SubsystemLayout, what: str
) -> tuple[DensityMatrix, float]:
    """``iso^dagger m iso``, renormalized: a truncated state on its retained subspace."""
    return _renormalized(iso.conj().T @ m @ iso, layout, what)


def truncate_normalize(
    rho: DensityMatrix,
    projections: Mapping[str, tuple[int, ProjectorSequence]],
) -> TruncationStep:
    """Project chosen subsystems to finite rank, then renormalize.

    ``projections`` maps subsystem labels to (rank, projector family) pairs;
    subsystems not in the map get the identity, which covers one-sided
    truncation. With full-rank projectors everywhere this is the identity:
    lam = 1 and state = rho. Raises :class:`DegenerateTruncationError` when
    the retained weight lam = Tr(P rho P) is at or below the degeneracy
    threshold, since the normalized state is then meaningless.
    """
    if not projections:
        raise StructuralError("projections must name at least one subsystem")
    ranks: dict[str, int] = {}
    factors = []
    for label, dim in rho.layout.subsystems:
        if label in projections:
            rank, seq = projections[label]
            if seq.dim != dim:
                raise StructuralError(
                    f"projector family for {label!r} acts on dimension {seq.dim}, "
                    f"subsystem has dimension {dim}"
                )
            factors.append(seq.projector(rank))
            ranks[label] = int(rank)
        else:
            factors.append(np.eye(dim))
    unknown = set(projections) - set(rho.layout.labels)
    if unknown:
        raise StructuralError(f"unknown subsystem labels {sorted(unknown)} in projections")
    proj = factors[0]
    for f in factors[1:]:
        proj = np.kron(proj, f)
    state, lam = _renormalized(proj @ rho.entries @ proj, rho.layout, "the state")
    return TruncationStep(ranks=ranks, lam=lam, state=state)


@dataclass(frozen=True)
class SweepPoint:
    """One row of a convergence sweep.

    Entropy fields are None on a skipped step (degenerate truncation), in
    which case ``lam`` records the weight that triggered the skip.
    """

    schedule_index: int
    rank_a: int
    rank_b: int
    lam: float
    cond_entropy_nats: float | None
    h_nk: float | None
    h_tilde_nk: float | None
    diff: float | None

    @property
    def skipped(self) -> bool:
        return self.cond_entropy_nats is None


def diagonal_schedule(min_rank: int, max_rank: int, stride: int = 1) -> list[tuple[int, int]]:
    """Rank pairs (n, n) for n = min_rank, min_rank + stride, ..., <= max_rank."""
    min_rank, max_rank, stride = int(min_rank), int(max_rank), int(stride)
    if min_rank < 1 or max_rank < min_rank or stride < 1:
        raise PreconditionError(
            f"need 1 <= min_rank <= max_rank and stride >= 1, got "
            f"({min_rank}, {max_rank}, {stride})"
        )
    return [(n, n) for n in range(min_rank, max_rank + 1, stride)]


def _validate_schedule(schedule: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    if not schedule:
        raise PreconditionError("schedule must contain at least one rank pair")
    pairs = [(int(n), int(k)) for n, k in schedule]
    for n, k in pairs:
        if n < 1 or k < 1:
            raise PreconditionError(f"ranks must be positive, got ({n}, {k})")
    for (n1, k1), (n2, k2) in zip(pairs, pairs[1:]):
        if n2 < n1 or k2 < k1 or (n1, k1) == (n2, k2):
            raise PreconditionError(
                f"schedule must be increasing; ({n2}, {k2}) does not advance ({n1}, {k1})"
            )
    return pairs


@dataclass(frozen=True)
class _Bipartite:
    """A state grouped into factors A (target) and B (given), plus what every step reuses."""

    grouped: DensityMatrix
    marginal_a: np.ndarray
    marginal_b: np.ndarray
    seq_a: ProjectorSequence
    seq_b: ProjectorSequence


def _bipartite(
    rho: DensityMatrix, target: LabelSet, given: LabelSet, mode: ProjectorMode
) -> _Bipartite:
    """Collapse the bipartition to two factors; take its marginals and projector families once.

    Each group is made contiguous in its original internal order and then
    treated as one factor; target and given must disjointly cover the layout.
    """
    if mode not in PROJECTOR_MODES:
        raise PreconditionError(f"unknown projector mode {mode!r}; have {PROJECTOR_MODES}")
    grouped, marginal_a, marginal_b = _grouped(rho, target, given)
    layout = SubsystemLayout([("A", marginal_a.dim), ("B", marginal_b.dim)])
    grouped = DensityMatrix(grouped.entries, layout)
    if mode == "computational":
        seq_a = ProjectorSequence.computational(marginal_a.dim)
        seq_b = ProjectorSequence.computational(marginal_b.dim)
    else:
        seq_a = ProjectorSequence.from_state(marginal_a)
        seq_b = ProjectorSequence.from_state(marginal_b)
    return _Bipartite(grouped, marginal_a.entries, marginal_b.entries, seq_a, seq_b)


@dataclass(frozen=True)
class _Step:
    """A compressed truncated-normalized ``state`` with weight ``lam``, and what it yields.

    ``cond`` is the state's H(A|B), from the spectrum of ``trunc_a`` that ``h_nk`` used.

    A sweep holds each step, joint state included, until the next step has
    been computed: at cutoff 30 that keeps the allocator from handing the
    ~13 MB blocks back to the system and faulting them in again every step.
    """

    state: DensityMatrix
    lam: float
    trunc_a: DensityMatrix
    trunc_b: DensityMatrix
    tilde_a: DensityMatrix
    tilde_b: DensityMatrix
    h_nk: float
    h_tilde_nk: float
    cond: float


def _step(part: _Bipartite, rank_a: int, rank_b: int) -> _Step:
    """Compress to ranks (rank_a, rank_b) and evaluate both correlation terms.

    The truncated-normalized state is conjugated onto the retained subspace;
    ``tilde_*`` are the truncated, renormalized original marginals there.
    """
    iso_a = part.seq_a.isometry(rank_a)
    iso_b = part.seq_b.isometry(rank_b)
    layout = SubsystemLayout([("A", iso_a.shape[1]), ("B", iso_b.shape[1])])
    truncated, lam = _compress(part.grouped.entries, np.kron(iso_a, iso_b), layout, "the state")
    trunc_a = partial_trace(truncated, "A")
    trunc_b = partial_trace(truncated, "B")
    spec_joint, spec_a = clamped_spectrum(truncated), clamped_spectrum(trunc_a)
    h_nk = _product_divergence(truncated.entries, spec_joint, spec_a, clamped_spectrum(trunc_b))
    tilde_a, _ = _compress(part.marginal_a, iso_a, trunc_a.layout, "the target marginal")
    tilde_b, _ = _compress(part.marginal_b, iso_b, trunc_b.layout, "the conditioning marginal")
    h_tilde_nk = _product_divergence(
        truncated.entries, spec_joint, clamped_spectrum(tilde_a), clamped_spectrum(tilde_b)
    )
    cond = -math.inf if math.isinf(h_nk) else _entropy_from_eigs(spec_a[0]) - h_nk
    return _Step(truncated, lam, trunc_a, trunc_b, tilde_a, tilde_b, h_nk, h_tilde_nk, cond)


def conditional_entropy_sweep(
    rho: DensityMatrix,
    target: LabelSet,
    given: LabelSet,
    schedule: Sequence[tuple[int, int]],
    mode: ProjectorMode = "computational",
) -> list[SweepPoint]:
    """Truncated conditional entropies H(target | given) along a rank schedule.

    For each (rank_a, rank_b) in the increasing schedule, the state is
    truncated to the leading rank_a (target side) and rank_b (given side)
    directions of the chosen projector family, renormalized, and measured.
    As the ranks grow, ``cond_entropy_nats`` converges to the conditional
    entropy of the full state; at full rank it reproduces it identically.
    Degenerate steps are recorded with null entropies, not raised.
    """
    pairs = _validate_schedule(schedule)
    part = _bipartite(rho, target, given, mode)
    dim_a, dim_b = part.grouped.layout.dims
    for n, k in pairs:
        if n > dim_a or k > dim_b:
            raise PreconditionError(
                f"rank pair ({n}, {k}) exceeds factor dimensions ({dim_a}, {dim_b})"
            )
    points = []
    for index, (rank_a, rank_b) in enumerate(pairs):
        try:
            step = _step(part, rank_a, rank_b)
        except DegenerateTruncationError as exc:
            points.append(SweepPoint(index, rank_a, rank_b, exc.weight, None, None, None, None))
            continue
        h_nk, h_tilde_nk = step.h_nk, step.h_tilde_nk
        diff = h_tilde_nk - h_nk
        points.append(
            SweepPoint(index, rank_a, rank_b, step.lam, step.cond, h_nk, h_tilde_nk, diff)
        )
    return points


@dataclass(frozen=True)
class TruncationDiagnostics:
    """The two correlation terms at one rank pair and the decomposition of their gap.

    ``h_tilde_nk - h_nk`` equals ``marginal_a_divergence + marginal_b_divergence``
    up to rounding: expanding both relative entropies against the common
    truncated state leaves exactly the divergences between its marginals and
    the truncated-renormalized original marginals.
    """

    rank_a: int
    rank_b: int
    h_nk: float
    h_tilde_nk: float
    marginal_a_divergence: float
    marginal_b_divergence: float

    @property
    def diff(self) -> float:
        return self.h_tilde_nk - self.h_nk

    @property
    def residual(self) -> float:
        """|diff - (divergence_A + divergence_B)|; zero up to rounding."""
        return abs(self.diff - (self.marginal_a_divergence + self.marginal_b_divergence))


def truncation_diagnostics(
    rho: DensityMatrix,
    target: LabelSet,
    given: LabelSet,
    rank_a: int,
    rank_b: int,
    mode: ProjectorMode = "computational",
) -> TruncationDiagnostics:
    """Evaluate h_nk, h_tilde_nk, and the two marginal divergences at one point.

    The divergences are finite because each projected original marginal
    dominates the corresponding marginal of the projected state: for the
    target side, Tr_B((P x Q) rho (P x Q)) <= P Tr_B((I x Q) rho (I x Q)) P
    <= P rho_A P as operators, so supports are contained.
    """
    step = _step(_bipartite(rho, target, given, mode), rank_a, rank_b)
    return TruncationDiagnostics(
        rank_a=int(rank_a),
        rank_b=int(rank_b),
        h_nk=step.h_nk,
        h_tilde_nk=step.h_tilde_nk,
        marginal_a_divergence=relative_entropy(step.trunc_a, step.tilde_a),
        marginal_b_divergence=relative_entropy(step.trunc_b, step.tilde_b),
    )


__all__ = [
    "ProjectorSequence",
    "ProjectorMode",
    "PROJECTOR_MODES",
    "TruncationStep",
    "SweepPoint",
    "TruncationDiagnostics",
    "truncate_normalize",
    "diagonal_schedule",
    "conditional_entropy_sweep",
    "truncation_diagnostics",
]
