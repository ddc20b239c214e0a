"""Multipartite state foundation: layouts, density matrices, tensor algebra.

Composite indexing convention (fixed, used everywhere including file I/O):
subsystems are ordered, and a basis vector of the composite space is indexed
row-major over that order, i.e. ``|i_0, i_1, ..., i_{N-1}>`` maps to the flat
index ``i_0 * d_1 * ... * d_{N-1} + ... + i_{N-1}``. This is exactly the
ordering of ``numpy.kron`` applied left to right.

``_regrouped`` is the one place the convention is applied: partial traces,
permutations, the label groups of every bipartition and the trace-out channel
all regroup the composite index through it.

One ownership rule: states at the API, arrays inside. A public constructor
(:class:`DensityMatrix`, :class:`PureState`, ``channels.KrausChannel``) owns
a frozen complex128 copy of what it is handed. Inside, matrices stay arrays,
solved by ``_spectrum``; a state is built only to be handed to a caller, or
to a public function that serves as an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidStateError, StructuralError, as_integer
from .rng import complex_normal, generator, normal_pairs
from .tolerances import EIGH_NOISE, TAU_HERM, TAU_PSD, TAU_SUPP, TAU_TRACE

LabelSet = Union[str, Iterable[str]]


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered, labeled tensor factorization of a Hilbert space.

    ``labels`` and ``dims`` are the two columns of ``subsystems``, split once.
    """

    subsystems: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, subsystems: Iterable[tuple[str, int]]):
        subs = tuple((str(lab), as_integer(n, f"dimension of {lab!r}")) for lab, n in subsystems)
        if not subs:
            raise StructuralError("layout needs at least one subsystem")
        labels, dims = zip(*subs)
        if len(set(labels)) != len(labels):
            raise StructuralError(f"duplicate subsystem labels in {list(labels)}")
        for label, dim in subs:
            if dim < 1:
                raise StructuralError(f"subsystem {label!r} has dimension {dim} < 1")
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def dim_of(self, label: str) -> int:
        return self.dims[self.index_of(label)]

    def index_of(self, label: str) -> int:
        if label not in self.labels:
            raise StructuralError(f"unknown subsystem label {label!r}; have {self.labels}")
        return self.labels.index(label)

    def normalize_labels(self, labels: LabelSet) -> tuple[str, ...]:
        """Resolve a label or iterable of labels to layout order; reject unknowns."""
        listed = [labels] if isinstance(labels, str) else list(labels)
        wanted = set(listed)
        if len(wanted) != len(listed):
            raise StructuralError(f"duplicate labels in {listed!r}")
        for lab in wanted:
            self.index_of(lab)
        return tuple(lab for lab in self.labels if lab in wanted)

    def split(
        self, first: LabelSet, second: LabelSet
    ) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """Resolve two disjoint, nonempty label sets and the labels left over.

        Returns ``(first, second, rest)``, each in layout order. ``rest`` may
        be empty or not: every entropy of a bipartition traces it out.
        """
        labels_1 = self.normalize_labels(first)
        labels_2 = self.normalize_labels(second)
        overlap = set(labels_1) & set(labels_2)
        if overlap:
            raise StructuralError(f"label sets overlap on {sorted(overlap)}")
        if not labels_1 or not labels_2:
            raise StructuralError("both label sets must be nonempty")
        rest = tuple(lab for lab in self.labels if lab not in labels_1 + labels_2)
        return labels_1, labels_2, rest


def single(label: str, dim: int) -> SubsystemLayout:
    """Layout with one subsystem."""
    return SubsystemLayout([(label, dim)])


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """A (candidate) quantum state: complex matrix plus subsystem layout.

    Construction checks structure only (square, dimension matches the
    layout). The statistical invariants are measured by :func:`validate`,
    so defective matrices can be built and inspected.

    ``entries`` may also be a stack of shape (N, d, d): N states on one
    layout. :func:`clamped_spectrum`, :func:`partial_trace`,
    :func:`permute_subsystems` and the entropy and channel-information
    functions built on them evaluate a stack row by row in one call and
    return one value per row.
    """

    entries: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        entries = _freeze(self.entries)
        if entries.ndim not in (2, 3) or entries.shape[-1] != entries.shape[-2]:
            raise StructuralError(f"entries must be square, got shape {entries.shape}")
        if entries.shape[-1] != self.layout.total_dim:
            raise StructuralError(
                f"entries are {entries.shape[-1]}x{entries.shape[-1]} but layout "
                f"{self.layout.labels} has total dimension {self.layout.total_dim}"
            )
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    def trace(self) -> complex | np.ndarray:
        """The trace, or one per row of a stack."""
        trace = np.trace(self.entries, axis1=-2, axis2=-1)
        return trace if trace.ndim else complex(trace)


@dataclass(frozen=True)
class PureState:
    """Unit vector with a layout; ``as_density`` gives the rank-1 projector.

    ``amplitudes`` may also be a stack of shape (N, D), whose ``as_density``
    is the (N, D, D) stack of projectors.
    """

    amplitudes: np.ndarray
    layout: SubsystemLayout

    def __post_init__(self):
        amp = _freeze(self.amplitudes)
        if amp.ndim not in (1, 2):
            raise StructuralError(f"amplitudes must be a vector or a stack, got shape {amp.shape}")
        if amp.shape[-1] != self.layout.total_dim:
            raise StructuralError(
                f"amplitude vector has length {amp.shape[-1]} but layout "
                f"{self.layout.labels} has total dimension {self.layout.total_dim}"
            )
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[-1]

    def norm(self) -> float | np.ndarray:
        """The norm of the amplitudes, or one per row of a stack."""
        amp = self.amplitudes
        return np.linalg.norm(amp, axis=-1) if amp.ndim == 2 else float(np.linalg.norm(amp))

    def as_density(self) -> DensityMatrix:
        amp = self.amplitudes
        return DensityMatrix(amp[..., :, None] * amp.conj()[..., None, :], self.layout)


State = Union[DensityMatrix, PureState]


def as_density(state: State) -> DensityMatrix:
    """Coerce a pure state to its density matrix; pass density matrices through."""
    if isinstance(state, PureState):
        return state.as_density()
    if isinstance(state, DensityMatrix):
        return state
    raise StructuralError(f"expected DensityMatrix or PureState, got {type(state).__name__}")


@dataclass(frozen=True)
class Violation:
    invariant: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "pass"
        return "; ".join(f"{v.invariant} (defect {v.magnitude:.3e})" for v in self.violations)


def validate(rho: DensityMatrix) -> ValidationReport:
    """Measure the density-matrix invariants: finiteness, hermiticity, trace, positivity.

    Returns a report whose ``violations`` carry the measured defect of every
    invariant that is out of tolerance; an empty report means pass. A matrix
    with non-finite entries reports only ``finite`` (defect: how many such
    entries), since no other invariant can be measured on it.

    Positivity is decided on the hermitian part S = (m + m^dagger) / 2. A
    Cholesky factorization of S + (TAU_PSD / 2) I is tried first: when it
    succeeds, S has no eigenvalue below -TAU_PSD / 2 - O(n eps ||S||), so
    nothing is reported. Only when it fails is the lowest eigenvalue of S
    itself (unshifted) computed, and reported as the defect if it lies below
    -TAU_PSD. The Cholesky costs about a fifth of that eigensolve at n = 576.
    The verdict is the eigensolve's on every input. If the trace passes, the
    eigenvalues of S sum to 1 within TAU_TRACE, so a largest eigenvalue L
    forces the lowest down to about (1 - L) / (n - 1); a certificate that
    succeeds thus bounds L by about 1 + n TAU_PSD, the rounding term is of
    order n eps, far below TAU_PSD / 2, and no eigenvalue below -TAU_PSD is
    missed. If the trace fails, the report fails anyway; only a matrix of
    norm above about TAU_PSD / (n eps), 10^4 at n = 576, could then list
    positivity differently.
    """
    m = rho.entries
    non_finite = int(np.count_nonzero(~np.isfinite(m)))
    if non_finite:
        return ValidationReport((Violation("finite", float(non_finite)),))
    violations = []
    herm_defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if herm_defect > TAU_HERM:
        violations.append(Violation("hermitian", herm_defect))
    trace_defect = abs(complex(np.trace(m)) - 1.0)
    if trace_defect > TAU_TRACE:
        violations.append(Violation("unit_trace", float(trace_defect)))
    sym = (m + m.conj().T) / 2.0
    try:
        np.linalg.cholesky(sym + (TAU_PSD / 2.0) * np.eye(len(sym)))
    except np.linalg.LinAlgError:
        eigmin = float(np.min(np.linalg.eigvalsh(sym)))
        if eigmin < -TAU_PSD:
            violations.append(Violation("positive_semidefinite", -eigmin))
    return ValidationReport(tuple(violations))


def clamped_spectrum(rho: State, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`_spectrum` of a state's density matrix, or of a stack of them."""
    return _spectrum(as_density(rho).entries, vectors)


def _spectrum(m: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition of a hermitian array (d, d), or a stack (N, d, d), real
    or complex, with hygiene applied: the body of :func:`clamped_spectrum`.

    Symmetrizes, then clamps eigenvalues in [-TAU_PSD, 0] to 0. Anything
    below -TAU_PSD is not noise and raises :class:`InvalidStateError`. The
    solve rounds each eigenvalue by up to about d * eps times the largest,
    so every eigenvalue at or below d * ``EIGH_NOISE`` times its spectrum's
    largest is zeroed too; everything above that floor is kept.
    Returns (eigenvalues ascending, eigenvectors as columns); with
    ``vectors=False`` only the eigenvalues are computed and the second item
    is None.

    A matrix without imaginary part is solved as a real symmetric one, about
    7x faster at dimension 900: its eigenvalues agree with the complex solve
    to rounding, and its eigenvectors come out real, as they do for a real
    array, which gives the same bits as a complex one with its entries.

    A stack of N matrices is one solve with a leading axis on both outputs;
    it is solved as real only when no row has an imaginary part, and the
    first row with an eigenvalue below -TAU_PSD raises.
    """
    # (m + m^dagger) / 2 built in one temporary: a stack of large states sets
    # the memory peak here
    if np.count_nonzero(m.imag):
        sym = m.conj().swapaxes(-1, -2)
        sym += m
    else:
        m = m.real
        sym = m + m.swapaxes(-1, -2)
    sym /= 2.0
    if vectors:
        w, u = np.linalg.eigh(sym)
    else:
        w, u = np.linalg.eigvalsh(sym), None
    w = _clamped(w)
    return np.where(w <= w.shape[-1] * EIGH_NOISE * w[..., -1:], 0.0, w), u


def _clamped(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, or rows of them, with [-TAU_PSD, 0) clamped to 0.

    The first row whose lowest eigenvalue lies below -TAU_PSD raises
    :class:`InvalidStateError`.
    """
    for lowest in w[..., 0].reshape(-1).tolist():
        if lowest < -TAU_PSD:
            raise InvalidStateError(
                f"state has eigenvalue {lowest:.3e} below -{TAU_PSD:g}; not a density matrix"
            )
    return np.where(w < 0.0, 0.0, w)


def tensor(rho: State, sigma: State) -> DensityMatrix:
    """Kronecker product with concatenated layouts."""
    rho, sigma = as_density(rho), as_density(sigma)
    shared = set(rho.layout.labels) & set(sigma.layout.labels)
    if shared:
        raise StructuralError(f"label collision in tensor product: {sorted(shared)}")
    layout = SubsystemLayout(rho.layout.subsystems + sigma.layout.subsystems)
    return DensityMatrix(np.kron(rho.entries, sigma.entries), layout)


def _regrouped(
    a: np.ndarray, layout: SubsystemLayout, groups: Sequence[Sequence[str]], sides: int
) -> np.ndarray:
    """Amplitudes (..., D) (``sides=1``) or a matrix (..., D, D) (``sides=2``) on
    ``layout``, with its subsystem axes put in the order of the label ``groups``
    and each group flattened to one axis: (..., d_g1, d_g2, ...) per side.
    Every label lies in exactly one group; an empty group is an axis of size 1.

    The one place the composite index convention is applied.
    """
    stack = a.shape[: a.ndim - sides]
    n = len(layout.subsystems)
    order = [layout.index_of(label) for group in groups for label in group]
    axes = [*range(len(stack))]
    axes += [len(stack) + side * n + i for side in range(sides) for i in order]
    sizes = tuple(math.prod(layout.dim_of(label) for label in group) for group in groups)
    try:
        tensor_form = a.reshape(stack + layout.dims * sides)
    except ValueError as exc:
        raise StructuralError(f"cannot regroup a layout of {n} subsystems: {exc}") from exc
    return tensor_form.transpose(axes).reshape(stack + sizes * sides)


def _reduced(rho: State, kept: Sequence[str]) -> DensityMatrix:
    """``rho`` on the labels ``kept``, in that order, every other label traced out.

    A pure state's is M M^dagger for its amplitudes M grouped as (kept, traced),
    so it is densified only when ``kept`` is its whole layout, in order.
    """
    if tuple(kept) == rho.layout.labels:
        return as_density(rho)
    traced = tuple(label for label in rho.layout.labels if label not in kept)
    layout = SubsystemLayout((label, rho.layout.dim_of(label)) for label in kept)
    if isinstance(rho, PureState):
        m = _regrouped(rho.amplitudes, rho.layout, (kept, traced), 1)
        return DensityMatrix(m @ m.conj().swapaxes(-1, -2), layout)
    m = _regrouped(rho.entries, rho.layout, (kept, traced) if traced else (kept,), 2)
    return DensityMatrix(np.einsum("...itjt->...ij", m) if traced else m, layout)


def partial_trace(rho: State, keep: LabelSet) -> DensityMatrix:
    """Reduced state on ``keep`` (kept subsystems stay in their original order).

    A pure state is densified only when nothing is traced out.
    """
    kept = rho.layout.normalize_labels(keep)
    if not kept:
        raise StructuralError("partial_trace needs a nonempty set of kept labels")
    return _reduced(rho, kept)


def permute_subsystems(rho: State, new_order: Sequence[str]) -> DensityMatrix:
    """Reorder tensor factors; ``new_order`` must be a permutation of the labels."""
    rho = as_density(rho)
    if sorted(new_order) != sorted(rho.layout.labels):
        raise StructuralError(
            f"{list(new_order)} is not a permutation of {list(rho.layout.labels)}"
        )
    return _reduced(rho, tuple(new_order))


def ginibre_state(
    rng: np.random.Generator, layout: SubsystemLayout, rank: int | None = None
) -> DensityMatrix:
    """Ginibre-induced random state: G G^dagger / Tr, G a dim x rank complex Gaussian.

    ``rank=None`` means full rank; full-rank output has full support with
    probability 1, which keeps relative entropies finite in randomized suites.
    Consumes the generator, so several draws per trial stay on one stream.
    """
    dim = layout.total_dim
    rank = dim if rank is None else as_integer(rank, "rank")
    if not 1 <= rank <= dim:
        raise StructuralError(f"rank must be in [1, {dim}], got {rank}")
    return _ginibre(_ginibre_pairs(rng, layout, rank), layout)


def _ginibre_pairs(
    rng: np.random.Generator,
    layout: SubsystemLayout,
    rank: int | None = None,
    rows: int | None = None,
) -> np.ndarray:
    """The draw :func:`_ginibre` builds: G's dim x rank entries, row-major, as
    one (2, dim * rank) :func:`~qentropy.rng.normal_pairs` call, or a block
    (rows, 2, dim * rank) of them; full rank for None."""
    dim = layout.total_dim
    return normal_pairs(rng, dim * (dim if rank is None else rank), rows)


def _ginibre(pairs: np.ndarray, layout: SubsystemLayout) -> DensityMatrix:
    """The arithmetic of :func:`ginibre_state` on one :func:`_ginibre_pairs`
    draw, or on a stack (N, 2, dim * rank) of them: one state, or a stack of N."""
    g = complex_normal(pairs).reshape(pairs.shape[:-2] + (layout.total_dim, -1))
    m = g @ g.conj().swapaxes(-1, -2)
    return DensityMatrix(m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None], layout)


def random_density_matrix(
    dim: int,
    rank: int | None = None,
    seed: int = 0,
    layout: SubsystemLayout | None = None,
) -> DensityMatrix:
    """Seeded Ginibre-induced random state; deterministic for a fixed seed."""
    dim = as_integer(dim, "dim")
    if layout is None:
        layout = single("A", dim)
    elif layout.total_dim != dim:
        raise StructuralError(f"layout total dimension {layout.total_dim} != dim {dim}")
    return ginibre_state(generator(seed), layout, rank)


def haar_pure_state(rng: np.random.Generator, layout: SubsystemLayout) -> PureState:
    """Haar-random unit vector (normalized complex Gaussian) from a live generator.

    The global phase is fixed by making the first nonzero component real
    positive, which leaves the Haar distribution of the induced state
    untouched.
    """
    return _haar_pure(_haar_pure_pairs(rng, layout), layout)


def _haar_pure_pairs(
    rng: np.random.Generator, layout: SubsystemLayout, rows: int | None = None
) -> np.ndarray:
    """The draw :func:`_haar_pure` builds: the vector's D entries, (2, D), or a
    block (rows, 2, D) of them."""
    return normal_pairs(rng, layout.total_dim, rows)


def _haar_pure(pairs: np.ndarray, layout: SubsystemLayout) -> PureState:
    """The arithmetic of :func:`haar_pure_state` on one :func:`_haar_pure_pairs`
    draw, or on a stack (N, 2, D) of them, one vector per row.

    Each row takes the operations numpy applies to one vector: its norm as two
    real dot products (a row times a column, which matmul hands to ``dot``),
    and the moduli that place and fix its phase by hypot, as ``abs`` takes
    them of a complex scalar (numpy's vectorized ``abs`` may round differently).
    """
    v = complex_normal(pairs)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sqnorm = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    v /= np.sqrt(sqnorm[..., 0])
    # the first component above TAU_SUPP, which a unit vector always has
    first = np.argmax(np.hypot(v.real, v.imag) > TAU_SUPP, axis=-1)[..., None]
    pivot = np.take_along_axis(v, first, axis=-1)
    return PureState(v * (pivot.conj() / np.hypot(pivot.real, pivot.imag)), layout)


def random_pure_state(layout: SubsystemLayout, seed: int = 0) -> PureState:
    """Seeded Haar-random pure state; deterministic per seed."""
    return haar_pure_state(generator(seed), layout)
