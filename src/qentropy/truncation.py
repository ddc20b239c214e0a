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

A sweep never forms the truncated state P rho P in the original space. It
compresses each projected factor onto its retained subspace: replacing
P rho P by (V (x) W)^dagger rho (V (x) W) with isometries V, W changes no
eigenvalue of the state, its marginals, or any product of them, so every
entropy commutes with the compression while matrices shrink from
d_A d_B to n k. The compression forms neither V (x) W nor a D x D projector:
it conjugates the state one factor at a time on its (d_A, d_B, d_A, d_B)
index form, and in the computational basis it is a plain slice.

A pure state is never densified by a sweep. Its amplitudes, grouped as a
factor F of shape (d_A, d_B, r) with rho = F F^dagger and r = 1, are
compressed on their ket index alone; the weight is ||F_nk||^2 and the joint
eigenvalues come from the r x r Gram matrix F_nk^dagger F_nk, which has the
same nonzero spectrum as F_nk F_nk^dagger.

A step solves only what two facts leave open:

* Against its own marginals a state needs no eigenvectors:
  Tr[rho_AB (ln rho_A (x) I)] = Tr rho_A ln rho_A, so ``h_nk`` weighs each
  eigendirection of rho_A by its eigenvalue, and the own marginals are
  solved for eigenvalues only. For a pure factor (r = 1) both are the
  squared singular values of F_nk, zero-padded to n and to k (Schmidt), from
  one values-only SVD; the marginals are never formed.
* In the eigenbasis family the truncated original marginal is diagonal: its
  spectrum is the retained eigenvalues over their sum, and the weights of
  the truncated state on it are its own marginals' diagonal (for a factor,
  the squared row norms of F). In the computational family it is solved
  once per side, and the weights are one matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .entropy import (
    _entropy_from_eigs,
    _grouped,
    _marginals,
    _rounded,
    _spectra_divergence,
    relative_entropy,
)
from .errors import DegenerateTruncationError, PreconditionError, StructuralError, as_integer
from .states import (
    DensityMatrix,
    LabelSet,
    PureState,
    State,
    SubsystemLayout,
    clamped_spectrum,
    partial_trace,
    single,
)
from .tolerances import TAU_GRAM, TAU_LAMBDA

ProjectorMode = Literal["computational", "eigenbasis"]
PROJECTOR_MODES = ("computational", "eigenbasis")


@dataclass(frozen=True)
class ProjectorSequence:
    """Nested family of projectors P_1 <= P_2 <= ... from a fixed orthonormal basis.

    ``basis`` holds the basis as columns; ``isometry(r)`` returns the first r
    columns V_r, and P_r = V_r V_r^dagger. Because every isometry reuses the
    same leading columns, the family is increasing by construction:
    P_m P_n = P_min(m,n), and P equals the identity at full rank.
    ``standard`` records whether the basis is exactly the computational one,
    in which case compressing is indexing.
    """

    basis: np.ndarray
    standard: bool = field(init=False, repr=False, compare=False)
    # the state's eigenvalues along the basis (descending), set by from_state
    _eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.complex128, copy=True)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise StructuralError(f"basis must be a square matrix, got shape {b.shape}")
        eye = np.eye(b.shape[0])
        gram_defect = float(np.max(np.abs(b.conj().T @ b - eye)))
        if gram_defect > TAU_GRAM:
            raise StructuralError(f"basis columns are not orthonormal (defect {gram_defect:.3e})")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "standard", bool(np.array_equal(b, eye)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def isometry(self, rank: int) -> np.ndarray:
        rank = as_integer(rank, "rank")
        if not 1 <= rank <= self.dim:
            raise PreconditionError(f"rank must be in [1, {self.dim}], got {rank}")
        return self.basis[:, :rank]

    def compression(self, rank: int) -> np.ndarray | slice:
        """The rank-r isometry as a map for :func:`_conjugated`: ``slice(r)`` if standard."""
        v = self.isometry(rank)
        return slice(v.shape[1]) if self.standard else v

    @classmethod
    def computational(cls, dim: int) -> "ProjectorSequence":
        """Projectors onto the first r computational (number) basis states."""
        return cls(np.eye(int(dim)))

    @classmethod
    def from_state(cls, rho: DensityMatrix) -> "ProjectorSequence":
        """Projectors onto the top-r eigenvectors of a state (descending eigenvalue)."""
        w, u = clamped_spectrum(rho)
        seq = cls(u[:, ::-1])
        object.__setattr__(seq, "_eigenvalues", w[::-1])
        return seq


def _retained(weight: float, what: str) -> float:
    """A retained weight, raised on if degenerate."""
    if weight <= TAU_LAMBDA:
        raise DegenerateTruncationError(
            f"retained weight {weight:.3e} of {what} is at or below {TAU_LAMBDA:g}",
            weight=weight,
        )
    return weight


def _renormalized(
    m: np.ndarray, layout: SubsystemLayout, what: str
) -> tuple[DensityMatrix, float]:
    """``m / Tr m`` as a state, and the weight ``Tr m``; degenerate weights raise."""
    weight = _retained(float(np.trace(m).real), what)
    return DensityMatrix(m / weight, layout), weight


def _conjugated(
    m: np.ndarray, dims: Sequence[int], maps: Sequence[np.ndarray | slice]
) -> np.ndarray:
    """``F^dagger m F`` for ``F = maps[0] (x) maps[1] (x) ...``, one factor at a time.

    ``m`` acts on the product of spaces of dimensions ``dims``. ``maps[i]``
    is a matrix with ``dims[i]`` rows, contracted with factor i's row and
    column index of ``m``; or ``slice(r)``, the first r computational basis
    vectors, which only indexes.
    """
    n = len(dims)
    t = m.reshape(tuple(dims) * 2)
    for i, f in enumerate(maps):
        if isinstance(f, slice):
            index = [slice(None)] * (2 * n)
            index[i] = index[n + i] = f
            t = t[tuple(index)]
        else:
            t = np.moveaxis(np.tensordot(f.conj(), t, axes=(0, i)), 0, i)
            t = np.moveaxis(np.tensordot(t, f, axes=(n + i, 0)), -1, n + i)
    side = math.prod(t.shape[:n])
    return t.reshape(side, side)


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
    """Rank pairs (n, n) for n = min_rank, min_rank + stride, ..., <= max_rank.

    The three bounds follow :func:`~.errors.as_integer`, like every rank.
    """
    min_rank = as_integer(min_rank, "min_rank")
    max_rank = as_integer(max_rank, "max_rank")
    stride = as_integer(stride, "stride")
    if min_rank < 1 or max_rank < min_rank or stride < 1:
        raise PreconditionError(
            f"need 1 <= min_rank <= max_rank and stride >= 1, got "
            f"({min_rank}, {max_rank}, {stride})"
        )
    return [(n, n) for n in range(min_rank, max_rank + 1, stride)]


def _validate_schedule(schedule: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The schedule as int pairs, read by :func:`~.errors.as_integer`; it must
    be nonempty, positive and strictly increasing."""
    if not schedule:
        raise PreconditionError("schedule must contain at least one rank pair")
    pairs = [(as_integer(n, "rank"), as_integer(k, "rank")) for n, k in schedule]
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
    """A state grouped into factors A (target) and B (given), plus what every step reuses.

    ``joint`` is the grouped density matrix, or for a pure state its factor:
    the amplitudes as an array F of shape (d_A, d_B, r), with rho = F F^dagger.
    """

    joint: np.ndarray
    dims: tuple[int, int]
    marginal_a: np.ndarray
    marginal_b: np.ndarray
    seq_a: ProjectorSequence
    seq_b: ProjectorSequence


def _bipartite(rho: State, target: LabelSet, given: LabelSet, mode: ProjectorMode) -> _Bipartite:
    """Collapse the bipartition to two factors; take its marginals and projector families once.

    Each group is made contiguous in its original internal order and then
    treated as one factor; target and given must disjointly cover the layout.
    A pure state keeps its amplitudes, as a factor with r = 1.
    """
    if mode not in PROJECTOR_MODES:
        raise PreconditionError(f"unknown projector mode {mode!r}; have {PROJECTOR_MODES}")
    if isinstance(rho, PureState):
        labels_a, labels_b, _ = rho.layout.split(target, given)
        order = [rho.layout.index_of(label) for label in labels_a + labels_b]
        amplitudes = rho.amplitudes.reshape(rho.layout.dims).transpose(order)
        if not np.count_nonzero(amplitudes.imag):
            # a real factor keeps each step's products and SVD real, as clamped_spectrum does
            amplitudes = amplitudes.real
        joint = amplitudes.reshape(math.prod(amplitudes.shape[: len(labels_a)]), -1, 1)
        marginal_a, marginal_b = _marginals(joint)
    else:
        grouped, marginal_a, marginal_b = _grouped(rho, target, given)
        joint = grouped.entries
    if mode == "computational":
        seq_a = ProjectorSequence.computational(marginal_a.dim)
        seq_b = ProjectorSequence.computational(marginal_b.dim)
    else:
        seq_a = ProjectorSequence.from_state(marginal_a)
        seq_b = ProjectorSequence.from_state(marginal_b)
    dims = (marginal_a.dim, marginal_b.dim)
    return _Bipartite(joint, dims, marginal_a.entries, marginal_b.entries, seq_a, seq_b)


@dataclass(frozen=True)
class _Marginal:
    """One marginal of a step, as the step reads it.

    ``eigenvalues`` is its clamped spectrum, ascending. ``matrix`` is the
    marginal itself, or with ``root`` a matrix R whose marginal is R R^dagger:
    a pure factor's amplitudes with that side's index as rows.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray
    root: bool = False

    def density(self) -> np.ndarray:
        """The marginal as a matrix."""
        return self.matrix @ self.matrix.conj().T if self.root else self.matrix

    def weights(self, u: np.ndarray | None) -> np.ndarray:
        """The marginal's weight <u_a| m |u_a> on each column u_a of ``u``.

        With None, the weights on the standard basis vectors in reverse
        order, matching a spectrum read ascending off a descending diagonal.
        """
        m = self.matrix
        if u is None:
            diagonal = np.einsum("ij,ij->i", m.conj(), m).real if self.root else m.diagonal().real
            return diagonal[::-1]
        if self.root:
            rotated = u.conj().T @ m
            return np.einsum("ai,ai->a", rotated.conj(), rotated).real
        return np.einsum("ia,ia->a", u.conj(), m @ u).real


@dataclass(frozen=True)
class _Step:
    """A compressed truncated-normalized state with weight ``lam``, and what it yields.

    ``joint`` is the state in its part's representation: a matrix, or a
    factor F with state F F^dagger. ``own_*`` are the state's marginals and
    ``tilde_*`` the truncated, renormalized original marginals. ``cond`` is
    the state's H(A|B), from the spectrum of the target marginal that
    ``h_nk`` used.

    Two facts fix most of a step. ``h_nk`` needs no eigenvector of the
    state's own marginals: Tr[rho (ln rho_A (x) I)] = Tr rho_A ln rho_A, so
    each eigendirection of rho_A carries its own eigenvalue as weight, and
    for a pure factor both marginals have the squared singular values of F
    as spectrum (Schmidt). ``h_tilde_nk`` needs no solve of a tilde marginal
    in the eigenbasis family, where it is the retained eigenvalues over
    their sum, and the state's weights on it are its marginals' diagonal.

    A sweep holds each step, joint state included, until the next step has
    been computed: for a dense state at cutoff 30 that keeps the allocator
    from handing the ~13 MB blocks back to the system and faulting them in
    again every step.
    """

    joint: np.ndarray
    lam: float
    own_a: _Marginal
    own_b: _Marginal
    tilde_a: _Marginal
    tilde_b: _Marginal
    h_nk: float
    h_tilde_nk: float
    cond: float


def _truncated(
    part: _Bipartite, rank_a: int, rank_b: int, cuts: tuple[np.ndarray | slice, ...]
) -> tuple[np.ndarray, float, np.ndarray, _Marginal, _Marginal]:
    """The state compressed to the cuts and renormalized, its weight, its
    eigenvalues and its two marginals: the one part of a step that depends on
    the representation.

    A matrix is conjugated and solved for its eigenvalues only, and so are
    its marginals. A factor is contracted on its ket index; the r x r Gram
    matrix F^dagger F, the state of the purifying system, gives the nonzero
    joint eigenvalues, and the singular values of F unfolded on each side
    give the marginal spectra, one SVD serving both sides when r = 1.
    """
    if part.joint.ndim == 2:  # a density matrix
        layout = SubsystemLayout([("A", rank_a), ("B", rank_b)])
        compressed = _conjugated(part.joint, part.dims, cuts)
        truncated, lam = _renormalized(compressed, layout, "the state")
        w_joint = clamped_spectrum(truncated, vectors=False)[0]
        own = (partial_trace(truncated, label) for label in ("A", "B"))
        marginals = (_Marginal(clamped_spectrum(m, vectors=False)[0], m.entries) for m in own)
        return truncated.entries, lam, w_joint, *marginals
    factor = part.joint
    for axis, cut in enumerate(cuts):
        if isinstance(cut, slice):
            factor = factor[(slice(None),) * axis + (cut,)]
        else:
            factor = np.moveaxis(np.tensordot(cut.conj(), factor, axes=(0, axis)), 0, axis)
    r = factor.shape[2]
    columns = factor.reshape(rank_a * rank_b, r)
    # Tr F^dagger F = ||F||^2, the weight of F F^dagger
    gram, lam = _renormalized(columns.conj().T @ columns, single("R", r), "the state")
    factor = factor / math.sqrt(lam)
    rows_a = factor.reshape(rank_a, rank_b * r)
    rows_b = np.swapaxes(factor, 0, 1).reshape(rank_b, rank_a * r)
    s_a = np.linalg.svd(rows_a, compute_uv=False)
    s_b = s_a if r == 1 else np.linalg.svd(rows_b, compute_uv=False)
    marginals = (
        _Marginal(_padded(s**2, rank), rows, True)
        for s, rows, rank in ((s_a, rows_a, rank_a), (s_b, rows_b, rank_b))
    )
    return factor, lam, clamped_spectrum(gram, vectors=False)[0], *marginals


def _padded(descending: np.ndarray, size: int) -> np.ndarray:
    """A descending spectrum listed ascending with zeros in front, to ``size`` entries."""
    return np.concatenate([np.zeros(size - descending.size), descending[::-1]])


def _tilde(
    marginal: np.ndarray, seq: ProjectorSequence, rank: int, cut: np.ndarray | slice, what: str
) -> tuple[_Marginal, np.ndarray | None]:
    """The truncated, renormalized original marginal and its eigenvectors.

    A family built by :meth:`ProjectorSequence.from_state` compresses the
    marginal to the diagonal matrix of the retained eigenvalues, so its
    spectrum is their renormalized values and its eigenvectors, read
    ascending, are the standard basis reversed: returned as None. Any other
    family compresses the marginal and solves it.
    """
    if seq._eigenvalues is None:
        tilde, _ = _renormalized(_conjugated(marginal, (seq.dim,), (cut,)), single("A", rank), what)
        w, u = clamped_spectrum(tilde)
        return _Marginal(w, tilde.entries), u
    retained = seq._eigenvalues[:rank]
    diagonal = retained / _retained(float(retained.sum()), what)
    return _Marginal(diagonal[::-1], np.diag(diagonal)), None


def _step(part: _Bipartite, rank_a: int, rank_b: int) -> _Step:
    """Compress to ranks (rank_a, rank_b) and evaluate both correlation terms.

    The truncated-normalized state is compressed onto the retained subspace.
    Neither correlation term reads the joint state's eigenvectors or its own
    marginals' eigenvectors, so those are solved for eigenvalues only; in the
    eigenbasis family nothing else is solved.
    """
    cut_a, cut_b = part.seq_a.compression(rank_a), part.seq_b.compression(rank_b)
    joint, lam, w_joint, own_a, own_b = _truncated(part, rank_a, rank_b, (cut_a, cut_b))
    tilde_a, u_a = _tilde(part.marginal_a, part.seq_a, rank_a, cut_a, "the target marginal")
    tilde_b, u_b = _tilde(part.marginal_b, part.seq_b, rank_b, cut_b, "the conditioning marginal")
    w_a, w_b = own_a.eigenvalues, own_b.eigenvalues
    h_nk = _spectra_divergence(w_joint, w_a, w_a, w_b, w_b)
    h_tilde_nk = _spectra_divergence(
        w_joint, own_a.weights(u_a), tilde_a.eigenvalues, own_b.weights(u_b), tilde_b.eigenvalues
    )
    cond = _entropy_from_eigs(w_a) - h_nk
    return _Step(joint, lam, own_a, own_b, tilde_a, tilde_b, h_nk, h_tilde_nk, cond)


def conditional_entropy_sweep(
    rho: State,
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
    Degenerate steps are recorded with null entropies, not raised. ``rho``
    may be a density matrix or a pure state; a pure state is swept from its
    amplitudes and never densified.
    """
    pairs = _validate_schedule(schedule)
    part = _bipartite(rho, target, given, mode)
    dim_a, dim_b = part.dims
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
        diff = _rounded(h_tilde_nk - h_nk)  # a sum of two relative entropies, so >= 0
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
    rho: State,
    target: LabelSet,
    given: LabelSet,
    rank_a: int,
    rank_b: int,
    mode: ProjectorMode = "computational",
) -> TruncationDiagnostics:
    """Evaluate h_nk, h_tilde_nk, and the two marginal divergences at one point.

    ``rho`` may be a density matrix or a pure state, evaluated as in
    :func:`conditional_entropy_sweep`.

    The divergences are finite because each projected original marginal
    dominates the corresponding marginal of the projected state: for the
    target side, Tr_B((P x Q) rho (P x Q)) <= P Tr_B((I x Q) rho (I x Q)) P
    <= P rho_A P as operators, so supports are contained.
    """
    rank_a, rank_b = as_integer(rank_a, "rank_a"), as_integer(rank_b, "rank_b")
    step = _step(_bipartite(rho, target, given, mode), rank_a, rank_b)
    # a divergence needs both marginals of its pair with eigenvectors; the step
    # solved the own marginals for values only, and in the eigenbasis family
    # solved no tilde marginal at all
    divergence_a, divergence_b = (
        relative_entropy(
            DensityMatrix(own.density(), single("A", rank)),
            DensityMatrix(tilde.density(), single("A", rank)),
        )
        for own, tilde, rank in (
            (step.own_a, step.tilde_a, rank_a),
            (step.own_b, step.tilde_b, rank_b),
        )
    )
    return TruncationDiagnostics(
        rank_a=rank_a,
        rank_b=rank_b,
        h_nk=step.h_nk,
        h_tilde_nk=step.h_tilde_nk,
        marginal_a_divergence=divergence_a,
        marginal_b_divergence=divergence_b,
    )


__all__ = [
    "ProjectorSequence",
    "ProjectorMode",
    "PROJECTOR_MODES",
    "SweepPoint",
    "TruncationDiagnostics",
    "diagonal_schedule",
    "conditional_entropy_sweep",
    "truncation_diagnostics",
]
