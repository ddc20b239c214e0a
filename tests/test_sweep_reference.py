"""Differential tests: sweeps against a reference that forms kron isometries and solves complex.

The reference is the straightforward route the sweep's shortcuts replace: it
compresses with ``np.kron(V, W)``, solves every matrix as complex Hermitian
with eigenvectors, and feeds the same spectra divergence. The
shortcuts (one rotation into the basis, then slicing; real symmetric solves,
values-only joint and own-marginal solves, the singular values of a pure
factor, diagonal tilde marginals read off their diagonal) may move only
rounding, bounded here by 1e-12 nats. A pure state is swept from its
amplitudes; the reference densifies it first.
"""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from qentropy import truncation
from qentropy.catalog import (
    bell,
    build_state,
    classical_correlated,
    ghz,
    thermal_fock,
    tmsv,
    werner,
)
from qentropy.entropy import _entropy_from_eigs, _grouped, _spectra_divergence, relative_entropy
from qentropy.errors import DegenerateTruncationError
from qentropy.fileio import load_state, save_state
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    _spectrum,
    as_density,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    single,
    tensor,
)
from qentropy.tolerances import TAU_LAMBDA
from qentropy.truncation import (
    PROJECTOR_MODES,
    _bipartite,
    _step,
    conditional_entropy_sweep,
    diagonal_schedule,
    truncation_diagnostics,
)

AGREEMENT = 1e-12  # nats


def complex_spectrum(m):
    """Clamped eigendecomposition by the complex Hermitian solver, whatever the input."""
    sym = ((m + m.conj().T) / 2.0).astype(np.complex128)
    w, u = np.linalg.eigh(sym)
    return np.where(w < 0.0, 0.0, w), u


def grouped_with_marginals(rho, target, given):
    """A density matrix grouped as target then given, and its two marginals."""
    grouped = _grouped(rho, target, given)
    return grouped, partial_trace(grouped, target), partial_trace(grouped, given)


def reference_bases(rho, mode, target="A", given="B"):
    _, marginal_a, marginal_b = grouped_with_marginals(rho, target, given)
    if mode == "computational":
        return np.eye(marginal_a.dim), np.eye(marginal_b.dim)
    return tuple(complex_spectrum(m.entries)[1][:, ::-1] for m in (marginal_a, marginal_b))


def sweep_bases(state, mode, target="A", given="B"):
    """The bases a sweep of ``state`` slices in, from the eigensolves ``_bipartite``
    makes: each marginal's eigenvectors in descending order, or the standard
    bases when it solves none."""
    solved = []

    def recording(m, vectors=True):
        w, u = _spectrum(m, vectors)
        solved.append(u)
        return w, u

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(truncation, "_spectrum", recording)
        part = _bipartite(state, target, given, mode)
    if mode == "computational":
        assert not solved
        return tuple(np.eye(dim) for dim in part.dims)
    assert len(solved) == 2
    return tuple(u[:, ::-1] for u in solved)


def kron_compressed(rho, basis_a, basis_b, n, k, target="A", given="B"):
    """The truncated-normalized joint state and both tilde marginals, by kron isometries.

    A degenerate weight gives None for the three states.
    """
    grouped, marginal_a, marginal_b = grouped_with_marginals(rho, target, given)
    iso_a, iso_b = basis_a[:, :n], basis_b[:, :k]
    iso = np.kron(iso_a, iso_b)
    joint = iso.conj().T @ grouped.entries @ iso
    lam = float(np.trace(joint).real)
    if lam <= TAU_LAMBDA:
        return None, lam, None, None
    tilde_a = iso_a.conj().T @ marginal_a.entries @ iso_a
    tilde_b = iso_b.conj().T @ marginal_b.entries @ iso_b
    return (
        joint / lam,
        lam,
        tilde_a / np.trace(tilde_a).real,
        tilde_b / np.trace(tilde_b).real,
    )


def held_tilde(marginal, rank):
    """The truncated, renormalized original marginal as a matrix, from the
    part's held marginal: a 1-D diagonal or the matrix, sliced to ``rank``."""
    block = np.diag(marginal[:rank]) if marginal.ndim == 1 else marginal[:rank, :rank]
    return block / np.trace(block).real


def product_divergence(w_joint, red_a, red_b, spec_a, spec_b):
    """H(joint || A x B) from the joint eigenvalues, the joint's marginals and
    the factors' spectra: each marginal's weight on each factor eigenvector."""
    args = []
    for red, (w, u) in ((red_a, spec_a), (red_b, spec_b)):
        args += [np.einsum("ia,ij,ja->a", u.conj(), red, u).real, w]
    return _spectra_divergence(w_joint, *args)


def reference_sweep(rho, schedule, mode, target="A", given="B", bases=None):
    """(lam, cond, h_nk, h_tilde_nk, diff) per step, by the kron and complex-solve route.

    ``bases`` overrides the reference's own projector bases, for families
    whose eigenbasis is not unique. A skipped step is (lam, None, ...).
    """
    basis_a, basis_b = bases or reference_bases(rho, mode, target, given)
    rows = []
    for n, k in schedule:
        joint, lam, tilde_a, tilde_b = kron_compressed(
            rho, basis_a, basis_b, n, k, target, given
        )
        if joint is None:
            rows.append((lam, None, None, None, None))
            continue
        t = joint.reshape(n, k, n, k)
        red_a, red_b = np.einsum("abcb->ac", t), np.einsum("abad->bd", t)
        spec_a, spec_b = complex_spectrum(red_a), complex_spectrum(red_b)
        w_joint = complex_spectrum(joint)[0]
        h_nk = product_divergence(w_joint, red_a, red_b, spec_a, spec_b)
        h_tilde_nk = product_divergence(
            w_joint, red_a, red_b, complex_spectrum(tilde_a), complex_spectrum(tilde_b)
        )
        cond = -math.inf if math.isinf(h_nk) else _entropy_from_eigs(spec_a[0]) - h_nk
        rows.append((lam, cond, h_nk, h_tilde_nk, h_tilde_nk - h_nk))
    return rows


def relabeled(rho, label):
    return DensityMatrix(rho.entries, single(label, rho.dim))


def file_state(tmp_path):
    layout = SubsystemLayout([("A", 4), ("B", 5)])
    path = tmp_path / "state.json"
    save_state(path, random_density_matrix(20, seed=11, layout=layout))
    return load_state(path)


STATES = {
    "tmsv": lambda tmp_path: as_density(build_state("tmsv:nbar=1,cutoff=8")),
    "thermal-thermal": lambda tmp_path: tensor(
        thermal_fock(0.5, 6), relabeled(thermal_fock(2.0, 6), "B")
    ),
    "werner": lambda tmp_path: build_state("werner:p=0.5"),
    "complex-file": file_state,
}


def full_schedule(rho, target="A", given="B"):
    """The diagonal schedule from rank 1, then full rank on both sides."""
    dims = tuple(m.dim for m in grouped_with_marginals(rho, target, given)[1:])
    schedule = diagonal_schedule(1, min(dims))
    if schedule[-1] != dims:
        schedule.append(dims)
    return schedule


def assert_agrees(points, expected):
    assert len(points) == len(expected)
    for point, row in zip(points, expected):
        got = (point.lam, point.cond_entropy_nats, point.h_nk, point.h_tilde_nk, point.diff)
        for value, ref in zip(got, row):
            if ref is None:
                assert value is None, (point, row)
            else:
                assert abs(value - ref) <= AGREEMENT, (point, row)


@pytest.mark.parametrize("mode", PROJECTOR_MODES)
@pytest.mark.parametrize("name", sorted(STATES))
def test_sweep_agrees_with_kron_complex_reference(name, mode, tmp_path):
    rho = STATES[name](tmp_path)
    schedule = full_schedule(rho)
    points = conditional_entropy_sweep(rho, "A", "B", schedule, mode=mode)
    assert_agrees(points, reference_sweep(rho, schedule, mode))


# pure states, with the bipartition each is swept across
PURE_STATES = {
    "tmsv": (lambda: tmsv(nbar=1.0, cutoff=8), "A", "B"),
    "bell": (lambda: bell(2), "A", "B"),
    "ghz-A|BC": (lambda: ghz(3, 2), "A", ("B", "C")),
    "complex-3x4": (
        lambda: random_pure_state(SubsystemLayout([("A", 3), ("B", 4)]), seed=9),
        "A",
        "B",
    ),
    "complex-5x3": (
        lambda: random_pure_state(SubsystemLayout([("A", 5), ("B", 3)]), seed=12),
        "A",
        "B",
    ),
    # Schmidt rank 2, below both factor dimensions: the padded SVD spectra
    # carry zeros on both sides
    "ghz-BC|A": (lambda: ghz(3, 2), ("B", "C"), "A"),
    "schmidt-rank-2-4x5": (lambda: schmidt_rank_two(), "A", "B"),
}


def schmidt_rank_two():
    """A complex pure state on 4 x 5 with Schmidt rank 2."""
    rng = np.random.default_rng(21)
    amp = sum(
        np.kron(*(rng.normal(size=d) + 1j * rng.normal(size=d) for d in (4, 5))) for _ in range(2)
    )
    return PureState(amp / np.linalg.norm(amp), SubsystemLayout([("A", 4), ("B", 5)]))


@pytest.mark.parametrize("mode", PROJECTOR_MODES)
@pytest.mark.parametrize("name", sorted(PURE_STATES))
def test_pure_sweep_agrees_with_kron_complex_reference(name, mode, monkeypatch):
    make, target, given = PURE_STATES[name]
    psi = make()
    assert isinstance(psi, PureState)
    rho = as_density(psi)
    schedule = full_schedule(rho, target, given)

    def densify(self):
        raise AssertionError("a pure state's sweep densified it")

    monkeypatch.setattr(PureState, "as_density", densify)
    points = conditional_entropy_sweep(psi, target, given, schedule, mode=mode)
    assert_agrees(points, reference_sweep(rho, schedule, mode, target, given))


def test_degenerate_step_is_skipped_alike_on_both_routes():
    layout = SubsystemLayout([("A", 2), ("B", 2)])
    psi = PureState(np.array([0.0, 0.0, 0.0, 1.0]), layout)  # |11>
    schedule = [(1, 1), (1, 2), (2, 2)]
    factored = conditional_entropy_sweep(psi, "A", "B", schedule)
    dense = conditional_entropy_sweep(as_density(psi), "A", "B", schedule)
    for point in (factored, dense):
        assert [p.skipped for p in point] == [True, True, False]
    assert factored[:2] == dense[:2]  # weight included
    assert factored[0].lam == 0.0
    assert_agrees(factored[2:], [(1.0, 0.0, 0.0, 0.0, 0.0)])


@pytest.mark.parametrize("mode", PROJECTOR_MODES)
@pytest.mark.parametrize("pure", [True, False], ids=["factored", "dense"])
def test_skipped_steps_agree_with_kron_complex_reference(pure, mode):
    # sum_i |i, i+2 mod 3> / sqrt(3): the rank-(1, 1) and rank-(1, 2)
    # truncations in the computational family keep no weight; every marginal
    # is maximally mixed, so the eigenbasis family skips wherever its basis says
    layout = SubsystemLayout([("A", 3), ("B", 3)])
    amp = np.zeros(9)
    amp[[2, 3, 7]] = 1.0 / math.sqrt(3.0)
    psi = PureState(amp, layout)
    rho = as_density(psi)
    state = psi if pure else rho
    schedule = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]
    bases = sweep_bases(state, mode)
    points = conditional_entropy_sweep(state, "A", "B", schedule, mode=mode)
    if mode == "computational":
        assert [p.skipped for p in points] == [True, True, False, False, False]
    assert_agrees(points, reference_sweep(rho, schedule, mode, bases=bases))


def rotated_werner():
    """werner:p=0.5 under a fixed complex local unitary: its maximally mixed
    marginals carry rounding, so the solver picks some basis of the tie."""
    rng = np.random.default_rng(5)
    g_a, g_b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in "AB")
    u_a, u_b = np.linalg.qr(g_a)[0], np.linalg.qr(g_b)[0]
    u = np.kron(u_a, u_b)
    return DensityMatrix(u @ werner(0.5).entries @ u.conj().T, werner(0.5).layout)


# states whose marginals have tied eigenvalues at every cut
TIED_STATES = {
    "werner": lambda: werner(0.5),
    "bell": lambda: bell(2),
    "bell-3": lambda: bell(3),
    "classical": lambda: classical_correlated(3),
    "rotated-werner": rotated_werner,
}


@pytest.mark.parametrize("name", sorted(TIED_STATES))
def test_eigenbasis_ties_at_the_cut_agree_with_kron_reference(name):
    # a tied eigenbasis is not unique, so the reference takes the sweep's own
    # bases; the tilde marginals in them are diagonal whichever basis was chosen
    state = TIED_STATES[name]()
    rho = as_density(state)
    bases = sweep_bases(state, "eigenbasis")
    schedule = full_schedule(rho)
    points = conditional_entropy_sweep(state, "A", "B", schedule, mode="eigenbasis")
    assert_agrees(points, reference_sweep(rho, schedule, "eigenbasis", bases=bases))


@pytest.mark.parametrize("mode", PROJECTOR_MODES)
@pytest.mark.parametrize(
    "make",
    [
        lambda: as_density(build_state("tmsv:nbar=1,cutoff=6")),
        lambda: random_density_matrix(12, seed=4, layout=SubsystemLayout([("A", 3), ("B", 4)])),
    ],
    ids=["real-tmsv", "complex-3x4"],
)
def test_step_compression_equals_kron_route(make, mode):
    rho = make()
    part = _bipartite(rho, "A", "B", mode)
    basis_a, basis_b = sweep_bases(rho, mode)
    dim_a, dim_b = part.dims
    for n, k in [(1, 1), (2, 3), (dim_a, 2), (dim_a, dim_b)]:
        step = _step(part, n, k)
        joint, lam, tilde_a, tilde_b = kron_compressed(rho, basis_a, basis_b, n, k)
        assert abs(step.lam - lam) <= 1e-14
        tildes = [
            (held_tilde(part.marginal_a, n), tilde_a),
            (held_tilde(part.marginal_b, k), tilde_b),
        ]
        for got, ref in [(step.joint, joint), *tildes]:
            if mode == "computational":  # a slice is exactly the 0/1 product
                assert np.array_equal(got, ref)
            else:
                assert np.max(np.abs(got - ref)) <= 1e-14
        assert_tilde_spectra(step, tilde_a, tilde_b)


def held_factor(joint, n, k):
    """The n x k factor F, of shape (n, k, 1), that a pure step holds: itself, or
    the Schmidt-diagonal factor whose diagonal is the held coefficients."""
    if joint.ndim == 3:
        return joint
    factor = np.zeros((n, k, 1), dtype=joint.dtype)
    factor[np.arange(joint.size), np.arange(joint.size), 0] = joint
    return factor


@pytest.mark.parametrize("mode", PROJECTOR_MODES)
@pytest.mark.parametrize(
    "make, schmidt",
    [
        (lambda: tmsv(nbar=1.0, cutoff=6), True),
        (lambda: random_pure_state(SubsystemLayout([("A", 3), ("B", 4)]), seed=4), False),
    ],
    ids=["real-tmsv", "complex-3x4"],
)
def test_factored_step_equals_kron_route(make, schmidt, mode):
    psi = make()
    rho = as_density(psi)
    part = _bipartite(psi, "A", "B", mode)
    basis_a, basis_b = sweep_bases(psi, mode)
    dim_a, dim_b = part.dims
    for n, k in [(1, 1), (2, 3), (dim_a, 2), (dim_a, dim_b)]:
        step = _step(part, n, k)
        # a Schmidt-diagonal factor is held as its coefficients, in either family
        assert step.joint.shape == ((min(n, k),) if schmidt else (n, k, 1))
        joint, lam, tilde_a, tilde_b = kron_compressed(rho, basis_a, basis_b, n, k)
        columns = held_factor(step.joint, n, k).reshape(n * k, 1)
        assert abs(step.lam - lam) <= 1e-14
        assert np.max(np.abs(columns @ columns.conj().T - joint)) <= 1e-14
        assert np.max(np.abs(held_tilde(part.marginal_a, n) - tilde_a)) <= 1e-14
        assert np.max(np.abs(held_tilde(part.marginal_b, k) - tilde_b)) <= 1e-14
        assert_tilde_spectra(step, tilde_a, tilde_b)


def assert_tilde_spectra(step, tilde_a, tilde_b):
    """The step's tilde eigenvalues are those of the kron route's tilde marginals."""
    for got, ref in [(step.tilde_a, tilde_a), (step.tilde_b, tilde_b)]:
        assert np.max(np.abs(got - complex_spectrum(ref)[0])) <= 1e-14


# a dense, a factored and a Schmidt-diagonal state on 4 x 5
LAYOUT_4_5 = SubsystemLayout([("A", 4), ("B", 5)])
DIAGNOSED_STATES = {
    "dense": lambda: random_density_matrix(20, seed=8, layout=LAYOUT_4_5),
    "factor": lambda: random_pure_state(LAYOUT_4_5, seed=8),
    "schmidt": lambda: schmidt_diagonal(random_schmidt_coefficients(4, 3), 4, 5),
}


@pytest.mark.parametrize("mode", PROJECTOR_MODES)
@pytest.mark.parametrize("name", sorted(DIAGNOSED_STATES))
def test_marginal_divergences_agree_with_dense_relative_entropy(name, mode):
    # the diagnostics read each divergence off the step's spectra; the
    # reference rebuilds each own and tilde marginal densely by the kron route
    # and solves the pair through relative_entropy
    state = DIAGNOSED_STATES[name]()
    rho = as_density(state)
    basis_a, basis_b = sweep_bases(state, mode)
    dim_a, dim_b = rho.layout.dim_of("A"), rho.layout.dim_of("B")
    for n, k in [(n, k) for n in range(1, dim_a + 1) for k in range(1, dim_b + 1)]:
        joint, _, tilde_a, tilde_b = kron_compressed(rho, basis_a, basis_b, n, k)
        if joint is None:
            with pytest.raises(DegenerateTruncationError):
                truncation_diagnostics(state, "A", "B", n, k, mode)
            continue
        diag = truncation_diagnostics(state, "A", "B", n, k, mode)
        t = joint.reshape(n, k, n, k)
        pairs = [
            (np.einsum("abcb->ac", t), tilde_a, diag.marginal_a_divergence),
            (np.einsum("abad->bd", t), tilde_b, diag.marginal_b_divergence),
        ]
        for own, tilde, got in pairs:
            layout = single("A", len(own))
            expected = relative_entropy(DensityMatrix(own, layout), DensityMatrix(tilde, layout))
            assert abs(got - expected) <= AGREEMENT, (n, k, got, expected)


@pytest.mark.parametrize("mode", PROJECTOR_MODES)
def test_factor_of_purifying_rank_two_equals_dense_step(mode):
    # a mixed state as a factor F of shape (3, 4, 2), rho = F F^dagger: its two
    # marginals no longer share a spectrum, so each side takes its own SVD
    rng = np.random.default_rng(17)
    factor = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    factor /= np.linalg.norm(factor)
    columns = factor.reshape(12, 2)
    rho = DensityMatrix(columns @ columns.conj().T, SubsystemLayout([("A", 3), ("B", 4)]))
    dense = _bipartite(rho, "A", "B", mode)
    # the factor in the dense part's basis, rotated on its ket indices
    basis_a, basis_b = sweep_bases(rho, mode)
    rotated = np.einsum("ia,jb,ijr->abr", basis_a.conj(), basis_b.conj(), factor)
    factored = dataclasses.replace(dense, joint=rotated)
    for n, k in [(1, 1), (2, 3), (3, 2), (3, 4)]:
        got, ref = _step(factored, n, k), _step(dense, n, k)
        assert abs(got.lam - ref.lam) <= 1e-14
        pairs = [(got.h_nk, ref.h_nk), (got.h_tilde_nk, ref.h_tilde_nk), (got.cond, ref.cond)]
        assert all(abs(value - expected) <= AGREEMENT for value, expected in pairs), (n, k)


def random_schmidt_coefficients(size, seed):
    """Complex Schmidt coefficients with zeros among them, the first included."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=size) + 1j * rng.normal(size=size)
    c[[0, size // 2]] = 0.0
    return c


def schmidt_diagonal(coefficients, dim_a=None, dim_b=None):
    """sum_i c_i |i, i> / ||c|| on labels A, B, with d_A and d_B (default len(c))
    at least len(c)."""
    size = len(coefficients)
    dim_a, dim_b = dim_a or size, dim_b or size
    amp = np.zeros((dim_a, dim_b), dtype=np.result_type(np.asarray(coefficients), float))
    amp[np.arange(size), np.arange(size)] = coefficients
    amp = amp.ravel()
    return PureState(amp / np.linalg.norm(amp), SubsystemLayout([("A", dim_a), ("B", dim_b)]))


SCHMIDT_CASES = {
    # d_A != d_B, both ways, and rank_a != rank_b
    "5x7": (5, 5, 7, [(1, 1), (1, 4), (2, 4), (3, 5), (4, 5), (5, 6), (5, 7)]),
    "6x4": (4, 6, 4, [(1, 2), (2, 2), (3, 2), (4, 3), (5, 4), (6, 4)]),
    # fewer coefficients than both dimensions: a zero-padded factor
    "3-in-5x4": (3, 5, 4, [(1, 1), (2, 2), (2, 4), (4, 4), (5, 4)]),
}
SWEEP_FIELDS = ("lam", "cond_entropy_nats", "h_nk", "h_tilde_nk", "diff")


@pytest.mark.parametrize("mode", PROJECTOR_MODES)
@pytest.mark.parametrize("case", sorted(SCHMIDT_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_held_schmidt_coefficients_agree_with_the_general_factor_route(
    case, seed, mode, monkeypatch, solve_calls
):
    # the general route runs on the held part with its joint replaced by the
    # (d_A, d_B, 1) factor that has the held coefficients on its diagonal
    size, dim_a, dim_b, schedule = SCHMIDT_CASES[case]
    state = schmidt_diagonal(random_schmidt_coefficients(size, seed), dim_a, dim_b)
    part = _bipartite(state, "A", "B", mode)
    assert part.joint.ndim == 1
    solve_calls.clear()
    held = conditional_entropy_sweep(state, "A", "B", schedule, mode)
    # the held route solves nothing per step, and only the eigenbasis it rotates into
    assert Counter(name for name, _, _ in solve_calls) == (
        {"eigh": 2} if mode == "eigenbasis" else {}
    )
    solve_calls.clear()
    general_part = dataclasses.replace(part, joint=held_factor(part.joint, *part.dims))
    monkeypatch.setattr(truncation, "_bipartite", lambda *args: general_part)
    general = conditional_entropy_sweep(state, "A", "B", schedule, mode)
    # the general route: a 1 x 1 Gram solve and an SVD at each step it keeps
    steps = sum(not p.skipped for p in general)
    assert Counter(name for name, _, _ in solve_calls) == {"eigvalsh": steps, "svd": steps}
    if mode == "computational":  # c_0 = 0: the rank-(1, k) steps keep no weight
        assert held[0].skipped and held[0].lam == 0.0
    for point, reference in zip(held, general, strict=True):
        assert point.skipped == reference.skipped
        assert (point.rank_a, point.rank_b) == (reference.rank_a, reference.rank_b)
        for field in SWEEP_FIELDS:
            value, expected = getattr(point, field), getattr(reference, field)
            if expected is None:
                assert value is None
            else:
                assert abs(value - expected) <= 1e-14, (case, field, point, reference)


def test_a_non_diagonal_rank_one_factor_keeps_its_svd(solve_calls):
    # a pure state with off-diagonal amplitudes is held as its factor: one
    # 1 x 1 Gram solve and one SVD of its A rows per step
    psi = random_pure_state(SubsystemLayout([("A", 3), ("B", 4)]), seed=4)
    assert _bipartite(psi, "A", "B", "computational").joint.shape == (3, 4, 1)
    conditional_entropy_sweep(psi, "A", "B", [(1, 1), (2, 3), (3, 4)])
    assert [(name, shape) for name, shape, _ in solve_calls if name != "eigh"] == [
        ("eigvalsh", (1, 1)),
        ("svd", (1, 1)),
        ("eigvalsh", (1, 1)),
        ("svd", (2, 3)),
        ("eigvalsh", (1, 1)),
        ("svd", (3, 4)),
    ]


def unsorted_diagonal():
    """A diagonal state on 3 x 4 whose marginals' diagonals are unsorted, each
    with a zero inside (A = 1 and B = 2 carry no weight)."""
    p = (np.random.default_rng(8).permutation(12) + 1.0).reshape(3, 4)
    p[1, :] = p[:, 2] = 0.0
    return DensityMatrix(np.diag(p.ravel() / p.sum()), SubsystemLayout([("A", 3), ("B", 4)]))


# states whose marginals are diagonal in the computational basis, with the
# bipartition each is swept across
DIAGONAL_STATES = {
    "unsorted-diagonal": (unsorted_diagonal, "A", "B"),
    "unsorted-schmidt": (lambda: schmidt_diagonal([0.2, 0.0, 0.5, 0.1, 0.4]), "A", "B"),
    # tied diagonals
    "classical": (lambda: classical_correlated(3), "A", "B"),
    # the BC marginal diag(1/2, 0, 0, 1/2) has zeros inside its diagonal
    "ghz-A|BC": (lambda: ghz(3, 2), "A", ("B", "C")),
}


@pytest.mark.parametrize("name", sorted(DIAGONAL_STATES))
def test_diagonal_tilde_marginals_read_off_agree_with_kron_reference(name, monkeypatch):
    # in the computational family each tilde marginal is a diagonal block,
    # read off its diagonal: the sweep solves nothing with eigenvectors
    make, target, given = DIAGONAL_STATES[name]
    state = make()
    rho = as_density(state)
    schedule = full_schedule(rho, target, given)
    expected = reference_sweep(rho, schedule, "computational", target, given)

    def solve(*args, **kwargs):
        raise AssertionError("a diagonal tilde marginal was solved")

    monkeypatch.setattr(np.linalg, "eigh", solve)
    points = conditional_entropy_sweep(state, target, given, schedule)
    assert_agrees(points, expected)


def leading_block_diagonal():
    """A state on 5 x 4 whose marginals are diagonal on their leading indices
    only (A = 0..2, B = 0, 1): a diagonal state there, mixed half and half
    with a complex full-rank state on A = 3, 4 and B = 2, 3."""
    head = np.zeros((5, 4))
    head[:3, :2] = np.random.default_rng(6).dirichlet(np.ones(6)).reshape(3, 2)
    tail = np.kron(np.eye(5)[:, 3:], np.eye(4)[:, 2:])
    inner = random_density_matrix(4, seed=7).entries
    entries = 0.5 * np.diag(head.ravel()) + 0.5 * tail @ inner @ tail.T
    return DensityMatrix(entries, SubsystemLayout([("A", 5), ("B", 4)]))


def test_leading_block_diagonal_marginals_agree_with_kron_reference(vector_solve_sizes):
    # each marginal is diagonal in its leading block but not as a whole, so the
    # sweep holds it as a matrix and solves its truncated block at every rank
    rho = leading_block_diagonal()
    schedule = full_schedule(rho)
    expected = reference_sweep(rho, schedule, "computational")
    vector_solve_sizes.clear()
    points = conditional_entropy_sweep(rho, "A", "B", schedule)
    assert_agrees(points, expected)
    assert schedule == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 4)]
    assert vector_solve_sizes == {1: 2, 2: 2, 3: 2, 4: 3, 5: 1}
