"""Multipartite state foundation: layouts, density matrices, tensor algebra.

Composite indexing convention (fixed, used everywhere including file I/O):
subsystems are ordered, and a basis vector of the composite space is indexed
row-major over that order, i.e. ``|i_0, i_1, ..., i_{N-1}>`` maps to the flat
index ``i_0 * d_1 * ... * d_{N-1} + ... + i_{N-1}``. This is exactly the
ordering of ``numpy.kron`` applied left to right.
"""

from __future__ import annotations

import string
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidStateError, StructuralError
from .rng import complex_normal, generator
from .tolerances import TAU_HERM, TAU_PSD, TAU_SUPP, TAU_TRACE

LabelSet = Union[str, Iterable[str]]

_EINSUM_LETTERS = string.ascii_lowercase + string.ascii_uppercase


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered, labeled tensor factorization of a Hilbert space."""

    subsystems: tuple[tuple[str, int], ...]

    def __init__(self, subsystems: Iterable[tuple[str, int]]):
        subs = tuple((str(label), int(dim)) for label, dim in subsystems)
        if not subs:
            raise StructuralError("layout needs at least one subsystem")
        labels = [label for label, _ in subs]
        if len(set(labels)) != len(labels):
            raise StructuralError(f"duplicate subsystem labels in {labels}")
        for label, dim in subs:
            if dim < 1:
                raise StructuralError(f"subsystem {label!r} has dimension {dim} < 1")
        object.__setattr__(self, "subsystems", subs)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        out = 1
        for _, dim in self.subsystems:
            out *= dim
        return out

    def dim_of(self, label: str) -> int:
        for name, dim in self.subsystems:
            if name == label:
                return dim
        raise StructuralError(f"unknown subsystem label {label!r}; have {self.labels}")

    def index_of(self, label: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise StructuralError(f"unknown subsystem label {label!r}; have {self.labels}")

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
        self, first: LabelSet, second: LabelSet, cover: bool = True
    ) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """Resolve two disjoint, nonempty label sets and the labels left over.

        Returns ``(first, second, rest)``, each in layout order. With
        ``cover`` the two sets must cover the layout, so ``rest`` is empty.
        """
        labels_1 = self.normalize_labels(first)
        labels_2 = self.normalize_labels(second)
        overlap = set(labels_1) & set(labels_2)
        if overlap:
            raise StructuralError(f"label sets overlap on {sorted(overlap)}")
        if not labels_1 or not labels_2:
            raise StructuralError("both label sets must be nonempty")
        rest = tuple(lab for lab in self.labels if lab not in labels_1 + labels_2)
        if cover and rest:
            raise StructuralError(f"label sets must cover every subsystem; missing {list(rest)}")
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

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

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


def clamped_spectrum(
    rho: State, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigendecomposition with hygiene applied.

    Symmetrizes, then clamps eigenvalues in [-TAU_PSD, 0] to 0. Anything
    below -TAU_PSD is not noise and raises :class:`InvalidStateError`.
    Returns (eigenvalues ascending, eigenvectors as columns); with
    ``vectors=False`` only the eigenvalues are computed and the second item
    is None.

    A matrix without imaginary part is solved as a real symmetric one, about
    7x faster at dimension 900: its eigenvalues agree with the complex solve
    to rounding, and its eigenvectors come out real.

    A stack of N matrices is one solve with a leading axis on both outputs;
    it is solved as real only when no row has an imaginary part, and the
    first row with an eigenvalue below -TAU_PSD raises.
    """
    m = as_density(rho).entries
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
    return _clamped(w), u


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


def _support_groups(*spectra: np.ndarray) -> list[tuple[np.ndarray | slice, tuple[int, ...]]]:
    """The rows of stacked (N, d) ascending spectra grouped by how many
    eigenvalues of each spectrum lie above ``TAU_SUPP``.

    Returns ``(rows, sizes)`` pairs, ``rows`` indexing the rows whose spectra
    keep ``sizes`` eigenvalues. A stack whose rows all agree, the usual case,
    is one group indexed by a full slice.
    """
    sizes = [[len(row) - bisect_right(row, TAU_SUPP) for row in w.tolist()] for w in spectra]
    keys = list(zip(*sizes))
    if keys.count(keys[0]) == len(keys):
        return [(slice(None), keys[0])]
    groups: dict[tuple[int, ...], list[int]] = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    return [(np.array(rows), key) for key, rows in groups.items()]


def tensor(rho: State, sigma: State) -> DensityMatrix:
    """Kronecker product with concatenated layouts."""
    rho, sigma = as_density(rho), as_density(sigma)
    shared = set(rho.layout.labels) & set(sigma.layout.labels)
    if shared:
        raise StructuralError(f"label collision in tensor product: {sorted(shared)}")
    layout = SubsystemLayout(rho.layout.subsystems + sigma.layout.subsystems)
    return DensityMatrix(np.kron(rho.entries, sigma.entries), layout)


def partial_trace(rho: State, keep: LabelSet) -> DensityMatrix:
    """Reduced state on ``keep`` (kept subsystems stay in their original order)."""
    rho = as_density(rho)
    kept = rho.layout.normalize_labels(keep)
    if not kept:
        raise StructuralError("partial_trace needs a nonempty set of kept labels")
    if len(kept) == len(rho.layout.labels):
        return rho
    dims = rho.layout.dims
    n = len(dims)
    if 2 * n > len(_EINSUM_LETTERS):
        raise StructuralError(f"too many subsystems for partial trace: {n}")
    stack = rho.entries.shape[:-2]
    tensor_form = rho.entries.reshape(stack + dims + dims)
    bra = list(_EINSUM_LETTERS[:n])
    ket = list(_EINSUM_LETTERS[n : 2 * n])
    out = []
    kept_set = set(kept)
    for i, label in enumerate(rho.layout.labels):
        if label in kept_set:
            out.append((bra[i], ket[i]))
        else:
            ket[i] = bra[i]
    spec = "..." + "".join(bra) + "".join(ket) + "->..." + "".join(b for b, _ in out) + "".join(
        k for _, k in out
    )
    kept_dims = [rho.layout.dim_of(label) for label in kept]
    d = int(np.prod(kept_dims))
    reduced = np.einsum(spec, tensor_form).reshape(stack + (d, d))
    layout = SubsystemLayout([(label, rho.layout.dim_of(label)) for label in kept])
    return DensityMatrix(reduced, layout)


def permute_subsystems(rho: State, new_order: Sequence[str]) -> DensityMatrix:
    """Reorder tensor factors; ``new_order`` must be a permutation of the labels."""
    rho = as_density(rho)
    if tuple(new_order) == rho.layout.labels:
        return rho
    if sorted(new_order) != sorted(rho.layout.labels):
        raise StructuralError(
            f"{list(new_order)} is not a permutation of {list(rho.layout.labels)}"
        )
    dims = rho.layout.dims
    n = len(dims)
    stack = rho.entries.shape[:-2]
    lead = list(range(len(stack)))
    perm = [len(stack) + rho.layout.index_of(label) for label in new_order]
    tensor_form = rho.entries.reshape(stack + dims + dims)
    shuffled = tensor_form.transpose(lead + perm + [n + p for p in perm])
    d = rho.layout.total_dim
    layout = SubsystemLayout([(label, rho.layout.dim_of(label)) for label in new_order])
    return DensityMatrix(shuffled.reshape(stack + (d, d)), layout)


def ginibre_state(
    rng: np.random.Generator, layout: SubsystemLayout, rank: int | None = None
) -> DensityMatrix:
    """Ginibre-induced random state: G G^dagger / Tr, G a dim x rank complex Gaussian.

    ``rank=None`` means full rank; full-rank output has full support with
    probability 1, which keeps relative entropies finite in randomized suites.
    Consumes the generator, so several draws per trial stay on one stream.
    """
    dim = layout.total_dim
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise StructuralError(f"rank must be in [1, {dim}], got {rank}")
    g = complex_normal(rng, (dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, layout)


def random_density_matrix(
    dim: int,
    rank: int | None = None,
    seed: int = 0,
    layout: SubsystemLayout | None = None,
) -> DensityMatrix:
    """Seeded Ginibre-induced random state; deterministic for a fixed seed."""
    dim = int(dim)
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
    v = complex_normal(rng, (layout.total_dim,))
    v /= np.linalg.norm(v)
    for x in v:
        if abs(x) > TAU_SUPP:
            v = v * (x.conjugate() / abs(x))
            break
    return PureState(v, layout)


def random_pure_state(layout: SubsystemLayout, seed: int = 0) -> PureState:
    """Seeded Haar-random pure state; deterministic per seed."""
    return haar_pure_state(generator(seed), layout)
