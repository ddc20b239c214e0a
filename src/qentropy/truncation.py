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
and vanishes exactly when truncation commutes with taking marginals.

A sweep puts the state once into the basis of its projector family: the
computational basis as it is, or the descending eigenbases of the full
marginals. A rank-n projector keeps the first n basis vectors, so a step is
the slice [:n, :k]; compressing by isometries changes no eigenvalue, so every
entropy commutes with it. A pure state is held as its factor F of shape
(d_A, d_B, r), rho = F F^dagger, r running over the labels in neither side,
or as its Schmidt coefficients when F is diagonal, and is never densified.
Each term of a step is one ``entropy._spectra_divergence``, and a step solves
for eigenvectors only where a term reads them (see :class:`_Step`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .entropy import (
    _entropy_from_eigs,
    _factor_spectra,
    _grouped,
    _marginals,
    _retained,
    _rounded,
    _schmidt_coefficients,
    _schmidt_spectra,
    _spectra_divergence,
    relative_entropy,
)
from .errors import DegenerateTruncationError, PreconditionError, StructuralError, as_integer
from .states import (
    DensityMatrix,
    LabelSet,
    State,
    SubsystemLayout,
    _clamped,
    _freeze,
    _regrouped,
    clamped_spectrum,
    partial_trace,
    single,
)
from .tolerances import TAU_GRAM

ProjectorMode = Literal["computational", "eigenbasis"]
PROJECTOR_MODES = ("computational", "eigenbasis")


@dataclass(frozen=True)
class ProjectorSequence:
    """Nested family of projectors P_1 <= P_2 <= ... from a fixed orthonormal basis.

    ``basis`` holds the basis as columns; ``isometry(r)`` returns the first r
    columns V_r, and P_r = V_r V_r^dagger. Because every isometry reuses the
    same leading columns, the family is increasing by construction:
    P_m P_n = P_min(m,n), and P equals the identity at full rank.

    These are the two families a sweep truncates with, as explicit
    projectors. A sweep does not build them: it rotates the state into its
    basis once and slices (see :func:`conditional_entropy_sweep`).
    """

    basis: np.ndarray

    def __post_init__(self):
        b = _freeze(self.basis)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise StructuralError(f"basis must be a square matrix, got shape {b.shape}")
        eye = np.eye(b.shape[0])
        gram_defect = float(np.max(np.abs(b.conj().T @ b - eye)))
        if gram_defect > TAU_GRAM:
            raise StructuralError(f"basis columns are not orthonormal (defect {gram_defect:.3e})")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def isometry(self, rank: int) -> np.ndarray:
        rank = as_integer(rank, "rank")
        if not 1 <= rank <= self.dim:
            raise PreconditionError(f"rank must be in [1, {self.dim}], got {rank}")
        return self.basis[:, :rank]

    @classmethod
    def computational(cls, dim: int) -> "ProjectorSequence":
        """Projectors onto the first r computational (number) basis states."""
        return cls(np.eye(int(dim)))

    @classmethod
    def from_state(cls, rho: DensityMatrix) -> "ProjectorSequence":
        """Projectors onto the top-r eigenvectors of a state (descending eigenvalue)."""
        return cls(clamped_spectrum(rho)[1][:, ::-1])


def _renormalized(
    m: np.ndarray, layout: SubsystemLayout, what: str
) -> tuple[DensityMatrix, float]:
    """``m / Tr m`` as a state, and the weight ``Tr m``; degenerate weights raise."""
    weight = _retained(float(np.trace(m).real), what)
    return DensityMatrix(m / weight, layout), weight


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
    """A state grouped into factors A (target) and B (given), in the basis a sweep slices.

    ``joint`` is the grouped density matrix with indices (a, b, a', b'), or
    for a pure state its factor: the amplitudes as an array F of shape
    (d_A, d_B, r), with rho = F F^dagger, or when that is Schmidt-diagonal its
    coefficients F[i, i, 0]. ``marginal_a`` and ``marginal_b``
    are its marginals in the same basis: a 1-D diagonal when the marginal has
    no off-diagonal nonzero, the matrix otherwise. A side's rank-n projector
    keeps its first n basis vectors, so every truncation is a slice.
    """

    joint: np.ndarray
    marginal_a: np.ndarray
    marginal_b: np.ndarray

    @property
    def dims(self) -> tuple[int, int]:
        return self.marginal_a.shape[0], self.marginal_b.shape[0]


def _bipartite(rho: State, target: LabelSet, given: LabelSet, mode: ProjectorMode) -> _Bipartite:
    """Collapse the bipartition to two factors, in the basis of the projector family.

    Each group is made contiguous in its original internal order and then
    treated as one factor; labels in neither group are traced out, or for a
    pure state, which keeps its amplitudes, become its factor's r axis.

    The computational family keeps the state as it is. The eigenbasis family
    solves each marginal once and rotates the state into the descending
    eigenbases, on its ket and bra indices, or a factor on its ket indices
    alone; each marginal is then the diagonal of its descending
    eigenvalues. A real marginal has a real eigenbasis, so a real factor
    stays real. In either family a factor then Schmidt-diagonal is held as
    its coefficients.
    """
    if mode not in PROJECTOR_MODES:
        raise PreconditionError(f"unknown projector mode {mode!r}; have {PROJECTOR_MODES}")
    labels_t, labels_g, _ = rho.layout.split(target, given)
    grouped = _grouped(rho, labels_t, labels_g)
    if isinstance(grouped, np.ndarray):  # a factor
        joint, marginals = grouped, _marginals(grouped)
    else:
        marginals = [partial_trace(grouped, side) for side in (labels_t, labels_g)]
        joint = _regrouped(grouped.entries, grouped.layout, (labels_t, labels_g), 2)
    if mode == "computational":
        held = [_diagonal_or_matrix(m.entries) for m in marginals]
    else:
        spectra = [clamped_spectrum(m) for m in marginals]
        held = [w[::-1] for w, _ in spectra]
        for axis, (_, u) in enumerate(spectra):
            basis = u[:, ::-1]
            joint = np.moveaxis(np.tensordot(basis.conj(), joint, axes=(0, axis)), 0, axis)
            if joint.ndim == 4:  # a density matrix's bra index
                joint = np.moveaxis(np.tensordot(joint, basis, axes=(2 + axis, 0)), -1, 2 + axis)
        joint = np.ascontiguousarray(joint)
    coefficients = _schmidt_coefficients(joint) if joint.ndim == 3 else None
    return _Bipartite(joint if coefficients is None else coefficients, *held)


def _diagonal_or_matrix(m: np.ndarray) -> np.ndarray:
    """A marginal's diagonal when it has no off-diagonal nonzero, else the marginal."""
    diagonal = m.diagonal()
    return diagonal.copy() if np.count_nonzero(m) == np.count_nonzero(diagonal) else m


@dataclass(frozen=True)
class _Marginal:
    """One marginal of a step, as the step reads it.

    ``eigenvalues`` is its clamped spectrum, ascending. ``matrix`` is the
    marginal itself, or its diagonal when 1-D (as for Schmidt coefficients),
    or with ``root`` a matrix R whose marginal is R R^dagger: a pure factor's
    amplitudes with that side's index as rows.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray
    root: bool = False

    def density(self) -> np.ndarray:
        """The marginal as a matrix."""
        if self.root:
            return self.matrix @ self.matrix.conj().T
        return np.diag(self.matrix) if self.matrix.ndim == 1 else self.matrix

    def weights(self, u: np.ndarray) -> np.ndarray:
        """The marginal's weight <u_a| m |u_a> on each column u_a of ``u``.

        A 1-D ``u`` lists standard basis vectors by index, and the weights
        are the diagonal entries it names.
        """
        m = self.matrix
        if m.ndim == 1:  # Schmidt coefficients' diagonal: so is the tilde marginal
            return m[u]
        if u.ndim == 1:
            diagonal = np.einsum("ij,ij->i", m.conj(), m).real if self.root else m.diagonal().real
            return diagonal[u]
        if self.root:
            rotated = u.conj().T @ m
            return np.einsum("ai,ai->a", rotated.conj(), rotated).real
        return np.einsum("ia,ia->a", u.conj(), m @ u).real


@dataclass(frozen=True)
class _Step:
    """A compressed truncated-normalized state with weight ``lam``, and what it yields.

    ``joint`` is the state in its part's representation: a matrix, a factor F
    with state F F^dagger, or Schmidt coefficients. ``own_*`` are the state's
    marginals and ``tilde_*`` the truncated, renormalized original marginals. ``cond`` is
    the state's H(A|B), from the spectrum of the target marginal that
    ``h_nk`` used.

    Two facts fix most of a step. ``h_nk`` needs no eigenvector of the
    state's own marginals: Tr[rho (ln rho_A (x) I)] = Tr rho_A ln rho_A, so
    each eigendirection of rho_A carries its own eigenvalue as weight, and
    for a factor each marginal's spectrum is the squared singular values of
    its side's rows of F (|c_i|^2 for Schmidt coefficients). ``h_tilde_nk``
    needs no solve of a tilde marginal held as a diagonal, as every marginal
    of the eigenbasis family is: its spectrum is its diagonal, and the
    state's weights on it are its own marginals' diagonal.

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
    part: _Bipartite, rank_a: int, rank_b: int
) -> tuple[np.ndarray, float, np.ndarray, _Marginal, _Marginal]:
    """The state sliced to ranks (rank_a, rank_b) and renormalized, its weight,
    its eigenvalues and its two marginals: the one part of a step that depends
    on the representation.

    A matrix is sliced on its ket and bra indices and solved for its
    eigenvalues only, and so are its marginals. A factor is sliced on its ket
    indices and read by ``entropy._factor_spectra``: the r x r Gram matrix
    gives the nonzero joint eigenvalues, and one values-only SVD both
    marginal spectra when r = 1. Schmidt coefficients c are sliced to
    c[:min(n, k)] and read by ``entropy._schmidt_spectra``, which solves nothing.
    """
    if part.joint.ndim == 4:  # a density matrix
        layout = SubsystemLayout([("A", rank_a), ("B", rank_b)])
        block = part.joint[:rank_a, :rank_b, :rank_a, :rank_b]
        truncated, lam = _renormalized(block.reshape(layout.total_dim, -1), layout, "the state")
        w_joint = clamped_spectrum(truncated, vectors=False)[0]
        own = (partial_trace(truncated, label) for label in ("A", "B"))
        marginals = (_Marginal(clamped_spectrum(m, vectors=False)[0], m.entries) for m in own)
        return truncated.entries, lam, w_joint, *marginals
    if part.joint.ndim == 1:  # Schmidt coefficients
        spectra = _schmidt_spectra(part.joint[: min(rank_a, rank_b)], rank_a, rank_b)
    else:
        spectra = _factor_spectra(part.joint[:rank_a, :rank_b])
    factor, lam, w_joint, *sides = spectra
    return factor, float(lam), w_joint, *(_Marginal(w, m, factor.ndim == 3) for w, m in sides)


def _tilde(marginal: np.ndarray, rank: int, what: str) -> tuple[_Marginal, np.ndarray]:
    """The truncated, renormalized original marginal and its eigenvectors.

    A diagonal needs no solve: it is sliced and divided by its own sum in its
    own dtype (a complex division rounds unlike a real one, and sweep outputs
    are pinned to the bit), its spectrum is that slice in ascending order,
    and its eigenvectors are standard basis vectors, returned as their
    indices. The order is a stable sort of the reversed diagonal, so a
    descending diagonal, as in the eigenbasis family, is read in exact
    reverse and its ties keep that order. A matrix's block is renormalized
    and solved once.
    """
    if marginal.ndim == 1:
        block = marginal[:rank]
        diagonal = (block / _retained(float(block.sum().real), what)).real
        order = rank - 1 - np.argsort(diagonal[::-1], kind="stable")
        return _Marginal(_clamped(diagonal[order]), diagonal), order
    tilde, _ = _renormalized(marginal[:rank, :rank], single("A", rank), what)
    w, u = clamped_spectrum(tilde)
    return _Marginal(w, tilde.entries), u


def _step(part: _Bipartite, rank_a: int, rank_b: int) -> _Step:
    """Slice to ranks (rank_a, rank_b) and evaluate both correlation terms.

    Neither correlation term reads the joint state's eigenvectors or its own
    marginals' eigenvectors, so those are solved for eigenvalues only; a
    diagonal tilde marginal is not solved at all.
    """
    joint, lam, w_joint, own_a, own_b = _truncated(part, rank_a, rank_b)
    tilde_a, u_a = _tilde(part.marginal_a, rank_a, "the target marginal")
    tilde_b, u_b = _tilde(part.marginal_b, rank_b, "the conditioning marginal")
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
    may be a density matrix or a pure state, grouped as in
    :func:`~.entropy.conditional_entropy`; a pure state is never densified.
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
    # each pair is solved again: the tilde marginal with vectors, its own
    # marginal for values
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
