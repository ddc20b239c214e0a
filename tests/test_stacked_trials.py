"""Stacked trials: the runner's stacks against a one-trial-at-a-time reference.

The reference is the runner the stacks replace: every fixed and random trial
goes through its check's margin on its own, unstacked args, each random
trial drawn by the public constructors one draw at a time, a block's draws
in turn from its generator, and the continuity schedule is evaluated one eps
at a time. Stacking changes no arithmetic, so reports must be equal, not
merely close. The remaining tests pin the bytes of the stacked draws, the
entry budget's stack sizes, their effect on solves and memory, and the
per-row behaviour of the stacked spectrum, purification and channel paths.
"""

import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import qentropy.harness as harness
from qentropy.catalog import bell
from qentropy.channels import (
    KrausChannel,
    _information_and_spectrum,
    _purification,
    coherent_information,
    complementary,
    haar_channel,
    random_channel,
    validate_channel,
)
from qentropy.entropy import conditional_entropy
from qentropy.errors import InvalidChannelError, InvalidStateError
from qentropy.fileio import save_state
from qentropy.harness import report_to_dict, resolve_state, run_check
from qentropy.rng import BLOCK, block_generator, generator
from qentropy.states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    as_density,
    clamped_spectrum,
    ginibre_state,
    haar_pure_state,
    random_density_matrix,
    random_pure_state,
    single,
)
from qentropy.tolerances import TAU_SUPP

# the checks with random trials; continuity has one named trial, its schedule
TRIAL_CHECKS = sorted(name for name, check in harness._TRIAL_CHECKS.items() if check.draw)

# one shape per check other than its default
OTHER_SHAPES = {
    "duality": {"dims": [3, 2, 2]},
    "bound": {"dims": [2, 4]},
    "coherent-duality": {"dims": [2, 3], "env_dim": 2},
    "monotonicity": {"dims": [2, 3, 2]},
    "concavity": {"dims": [3, 2]},
    "subadditivity": {"dims": [1, 2, 2, 1]},
    "formula-standard": {"dims": [3, 2]},
    "formula-coherent": {"dims": [3, 2]},
}


def _part(layout, label):
    return SubsystemLayout([(label, layout.dim_of(label))])


def _in_turn(draw, rng):
    """``BLOCK`` one-draw calls of ``draw`` on one generator, in turn."""
    return [draw(rng) for _ in range(BLOCK)]


def _ginibre_rows(rng, layout, config):
    return list(zip(_in_turn(lambda r: ginibre_state(r, layout), rng)))


def _concavity_rows(rng, layout, config):
    alphas = _in_turn(lambda r: float(r.uniform()), rng)
    firsts = _in_turn(lambda r: ginibre_state(r, layout), rng)
    seconds = _in_turn(lambda r: ginibre_state(r, layout), rng)
    return list(zip(firsts, seconds, alphas))


def _coherent_duality_rows(rng, layout, config):
    states = _in_turn(lambda r: ginibre_state(r, _part(layout, "A")), rng)
    dims = layout.dim_of("A"), layout.dim_of("B"), config["env_dim"]
    return list(zip(states, _in_turn(lambda r: haar_channel(r, *dims), rng)))


# a block's margin args, row by row, drawn one at a time by the public
# constructors: each argument's BLOCK draws in turn, the arguments in the
# order each check's draw consumes its block's stream
PUBLIC_DRAWS = {
    "duality": lambda rng, layout, config: list(
        zip(_in_turn(lambda r: haar_pure_state(r, layout), rng))
    ),
    "bound": _ginibre_rows,
    "coherent-duality": _coherent_duality_rows,
    "monotonicity": _ginibre_rows,
    "concavity": _concavity_rows,
    "subadditivity": _ginibre_rows,
    "formula-standard": _ginibre_rows,
    "formula-coherent": _ginibre_rows,
}


def public_args(name, seed, layout, config, trials):
    """Random trials 0..trials-1's margin args, each row of each block drawn
    by :data:`PUBLIC_DRAWS` from the block's generator."""
    blocks = [
        PUBLIC_DRAWS[name](block_generator(seed, block), layout, config)
        for block in range(math.ceil(trials / BLOCK))
    ]
    return [blocks[i // BLOCK][i % BLOCK] for i in range(trials)]


def reference_trials(config):
    """Every trial of a check, each evaluated on its own unstacked args, the
    random ones drawn by :func:`public_args` and labelled by their index."""
    check = harness._TRIAL_CHECKS[config["property"]]
    seed = config["seed"]
    layout = SubsystemLayout(zip(check.labels, config["dims"], strict=True))
    trials = [
        harness._Trial(label, seed, *check.margin(*args))
        for label, (args,) in check.fixed(generator(seed), layout, config)
    ]
    drawn = public_args(config["property"], seed, layout, config, config["trials"])
    trials += [harness._Trial(str(i), i, *check.margin(*args)) for i, args in enumerate(drawn)]
    return trials


def reference_report(config):
    return harness._assemble(config, reference_trials(config))


def reference_continuity(config):
    """The continuity report, the base mixed and solved at one eps at a time."""
    rho0 = as_density(resolve_state(config["base"]))
    target, given = rho0.layout.labels[0], rho0.layout.labels[1:]
    dim = rho0.layout.total_dim
    sigma = np.eye(dim) / dim
    h_base = conditional_entropy(rho0, target, given)
    deviations = []
    for n in range(1, config["steps"] + 1):
        eps = 2.0**-n
        mixed = DensityMatrix((1.0 - eps) * rho0.entries + eps * sigma, rho0.layout)
        deviations.append([eps, abs(conditional_entropy(mixed, target, given) - h_base)])
    shrink = min(prev - nxt for (_, prev), (_, nxt) in zip(deviations, deviations[1:]))
    values = {"base_cond_entropy": h_base, "deviations": deviations}
    trial = harness._Trial("schedule", config["seed"], min(-deviations[-1][1], shrink), values)
    return dataclasses.replace(harness._assemble(config, [trial]), trials=config["steps"])


@pytest.fixture(scope="module")
def file_base(tmp_path_factory):
    """A saved full-rank state on A:2 x B:3 x C:4."""
    path = tmp_path_factory.mktemp("continuity") / "rand2x3x4.json"
    layout = SubsystemLayout([("A", 2), ("B", 3), ("C", 4)])
    save_state(path, random_density_matrix(24, seed=5, layout=layout))
    return str(path)


def continuity_base(name, file_base):
    return file_base if name == "file" else name


def record_entropy_shapes(monkeypatch):
    """The shape of every state the harness hands to conditional_entropy."""
    shapes = []
    entropy = harness.conditional_entropy

    def recording(rho, target, given):
        shapes.append(rho.entries.shape)
        return entropy(rho, target, given)

    monkeypatch.setattr(harness, "conditional_entropy", recording)
    return shapes


def stacked_trials(monkeypatch, name, **overrides):
    """The trials the stacked runner hands to the assembler, and its report."""
    seen = []
    assemble = harness._assemble

    def recording(config, trials):
        seen.extend(trials)
        return assemble(config, trials)

    monkeypatch.setattr(harness, "_assemble", recording)
    report = run_check(name, **overrides)
    return seen, report


def as_tuples(trials):
    return [(t.label, t.seed, float(t.margin), dict(t.values)) for t in trials]


class TestAgainstReference:
    @pytest.mark.parametrize("name", TRIAL_CHECKS)
    @pytest.mark.parametrize("seed", [0, 7])
    # 64 and 65 end a stack at a block edge, where the block's trials run out
    @pytest.mark.parametrize("trials", [1, 15, 16, 17, 33, 64, 65])
    def test_report_is_equal(self, name, seed, trials):
        report = run_check(name, seed=seed, trials=trials)
        assert report_to_dict(report) == report_to_dict(reference_report(report.config))

    @pytest.mark.parametrize("name", TRIAL_CHECKS)
    def test_report_is_equal_past_one_default_stack(self, name):
        # one full stack at the default budget and a last stack of one trial
        check = harness._TRIAL_CHECKS[name]
        layout = SubsystemLayout(zip(check.labels, check.parameters["dims"]))
        trials = harness._stack_size(layout) + 1
        report = run_check(name, seed=7, trials=trials)
        assert report_to_dict(report) == report_to_dict(reference_report(report.config))

    @pytest.mark.parametrize("name", TRIAL_CHECKS)
    def test_report_is_equal_on_another_shape(self, name):
        report = run_check(name, seed=5, trials=17, **OTHER_SHAPES[name])
        assert report_to_dict(report) == report_to_dict(reference_report(report.config))

    @pytest.mark.parametrize("name", TRIAL_CHECKS)
    def test_every_trial_is_equal(self, monkeypatch, name):
        # reports keep only the worst random trial; every margin and value must agree
        trials, report = stacked_trials(monkeypatch, name, seed=7, trials=33)
        assert as_tuples(trials) == as_tuples(reference_trials(report.config))


class TestContinuityAgainstReference:
    @pytest.mark.parametrize("base", ["werner:p=0.5", "bell", "file"])
    @pytest.mark.parametrize("steps", [2, 20, 53])
    @pytest.mark.parametrize("one_point_stacks", [False, True])
    def test_report_is_equal(self, monkeypatch, file_base, base, steps, one_point_stacks):
        base = continuity_base(base, file_base)
        if one_point_stacks:
            dim = resolve_state(base).layout.total_dim
            monkeypatch.setattr(harness, "_STACK_ENTRIES", dim**2)
        report = run_check("continuity", base=base, steps=steps)
        assert report.trials == steps
        assert report_to_dict(report) == report_to_dict(reference_continuity(report.config))

    @pytest.mark.parametrize(
        "base, points, expected",
        [
            # the default budget: 4096 // 4^2 = 256 points hold all 20, 4096 // 24^2 = 7
            ("werner:p=0.5", None, [20]),
            ("file", None, [7, 7, 6]),
            # budgets of one and three points on the base's layout
            ("werner:p=0.5", 1, [1] * 20),
            ("file", 1, [1] * 20),
            ("werner:p=0.5", 3, [3] * 6 + [2]),
            ("file", 3, [3] * 6 + [2]),
        ],
    )
    def test_no_stack_exceeds_the_budget(self, monkeypatch, file_base, base, points, expected):
        base = continuity_base(base, file_base)
        dim = resolve_state(base).layout.total_dim
        if points is not None:
            monkeypatch.setattr(harness, "_STACK_ENTRIES", points * dim**2)
        shapes = record_entropy_shapes(monkeypatch)
        run_check("continuity", base=base, steps=20)
        # the base alone, then the schedule's stacks in order
        assert shapes[0] == (dim, dim)
        assert all(shape[1:] == (dim, dim) for shape in shapes[1:])
        stacks = [shape[0] for shape in shapes[1:]]
        assert stacks == expected
        assert max(stacks) * dim**2 <= harness._STACK_ENTRIES


def runner_stacks(monkeypatch, name, **overrides):
    """The margin args of each stack of random trials, as the runner builds
    them from its block draws, and the run's config; fixed trials are left out."""
    check = harness._TRIAL_CHECKS[name]
    stacks = []

    def recording(*args):
        stacks.append(args)
        return check.margin(*args)

    entry = dataclasses.replace(check, margin=recording, fixed=lambda rng, layout, config: [])
    monkeypatch.setitem(harness._TRIAL_CHECKS, name, entry)
    return stacks, run_check(name, **overrides).config


def payload(arg):
    """What a margin arg carries: a state's entries or amplitudes, a channel's
    Kraus operators with a stack's axis first, or a number as float64."""
    if isinstance(arg, KrausChannel):
        return arg.kraus_ops.swapaxes(0, 1) if arg.kraus_ops.ndim == 4 else arg.kraus_ops
    if isinstance(arg, DensityMatrix):
        return arg.entries
    if isinstance(arg, PureState):
        return arg.amplitudes
    return np.asarray(arg, dtype=np.float64)


def drawn_rows(monkeypatch, name, **overrides):
    """Each random trial's margin args, described row by row as the runner
    stacks them, in trial order, and the run's config."""
    stacks, config = runner_stacks(monkeypatch, name, **overrides)
    rows = [
        [described(arg, payload(arg)[i]) for arg in args]
        for args in stacks
        for i in range(len(payload(args[0])))
    ]
    return rows, config


def described(arg, a):
    """Kind, dtype and bytes of an arg's payload ``a``, or of one row of it."""
    built = isinstance(arg, (KrausChannel, DensityMatrix, PureState))
    kind = type(arg).__name__ if built else "number"
    a = np.ascontiguousarray(a)
    return kind, a.dtype, a.tobytes()


def block_stacks(trials, size):
    """The stack lengths of ``trials`` random trials: each block's rows in
    stacks of ``size``, the last of a block or of the run cut short."""
    return [
        min(size, end - start)
        for first in range(0, trials, BLOCK)
        for end in [min(first + BLOCK, trials)]
        for start in range(first, end, size)
    ]


class TestDraws:
    """Drawn per block and built per stack, each margin arg has the bytes the
    public constructors give one draw at a time."""

    @pytest.mark.parametrize("name", TRIAL_CHECKS)
    @pytest.mark.parametrize("shape", ["default", "other"])
    @pytest.mark.parametrize("past_a_block", [False, True])
    def test_stacked_draws_equal_the_public_constructors(
        self, monkeypatch, name, shape, past_a_block
    ):
        check = harness._TRIAL_CHECKS[name]
        overrides = OTHER_SHAPES[name] if shape == "other" else {}
        layout = SubsystemLayout(zip(check.labels, overrides.get("dims", check.parameters["dims"])))
        size = min(BLOCK, harness._stack_size(layout))
        # one full stack, or a full block and 7 trials of the next
        trials = BLOCK + 7 if past_a_block else size
        stacks, _ = runner_stacks(monkeypatch, name, seed=5, trials=trials, **overrides)
        lengths = [len(payload(args[0])) for args in stacks]
        assert lengths == block_stacks(trials, size)
        assert lengths[-1] == (7 if past_a_block else size)
        stacked, config = drawn_rows(monkeypatch, name, seed=5, trials=trials, **overrides)
        one_at_a_time = [
            [described(arg, payload(arg)) for arg in args]
            for args in public_args(name, 5, layout, config, trials)
        ]
        assert stacked == one_at_a_time

    @pytest.mark.parametrize("name, expected", [
        # default stack budgets of 64, 50, 113 and 16 trials
        ("duality", [64, 64, 7]),
        ("bound", [50, 14, 50, 14, 7]),
        ("concavity", [64, 64, 7]),
        ("subadditivity", [16] * 8 + [7]),
    ])  # fmt: skip
    def test_no_stack_spans_two_blocks(self, monkeypatch, name, expected):
        stacks, _ = runner_stacks(monkeypatch, name, trials=2 * BLOCK + 7)
        assert [len(payload(args[0])) for args in stacks] == expected

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (2, 3)])
    def test_ginibre_and_haar_pure_states_keep_their_bytes(self, dims):
        # against each constructor's one-draw arithmetic restated: numpy's norm
        # of the vector, then the phase of its first component above TAU_SUPP
        layout = SubsystemLayout(zip("ABC", dims))
        d = layout.total_dim
        for seed in range(100):
            rng = generator(seed)
            g = (rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))) / np.sqrt(2.0)
            m = g @ g.conj().T
            rho = random_density_matrix(d, rank=2, seed=seed, layout=layout)
            assert rho.entries.tobytes() == (m / np.trace(m).real).tobytes()
            rng = generator(seed)
            v = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
            v /= np.linalg.norm(v)
            pivot = next(x for x in v if abs(x) > TAU_SUPP)
            expected = v * (pivot.conjugate() / abs(pivot))
            assert random_pure_state(layout, seed=seed).amplitudes.tobytes() == expected.tobytes()

    def test_the_haar_pure_build_needs_no_numpy_2_function(self, monkeypatch):
        # pyproject allows numpy >= 1.24, which has no np.vecdot
        layout = SubsystemLayout(zip("ABC", (2, 2, 2)))
        before = [random_pure_state(layout, seed=seed).amplitudes for seed in range(5)]
        monkeypatch.delattr(np, "vecdot", raising=False)
        after = [random_pure_state(layout, seed=seed).amplitudes for seed in range(5)]
        assert [a.tobytes() for a in after] == [b.tobytes() for b in before]

    @pytest.mark.parametrize("dim_in, dim_out, env_dim", [(3, 3, 3), (2, 3, 2), (3, 2, 2)])
    def test_haar_channels_keep_their_bytes(self, dim_in, dim_out, env_dim):
        # against the one-draw arithmetic restated: QR, then the phase fix of R
        for seed in range(100):
            rng = generator(seed)
            shape = (dim_out * env_dim, dim_in)
            g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
            q, r = np.linalg.qr(g, mode="reduced")
            diag = np.diagonal(r).copy()
            diag[np.abs(diag) < TAU_SUPP] = 1.0
            v = q * (diag.conjugate() / np.abs(diag))
            expected = np.ascontiguousarray(v.reshape(dim_out, env_dim, dim_in).swapaxes(0, 1))
            got = random_channel(dim_in, dim_out, env_dim, seed=seed).kraus_ops
            assert got.tobytes() == expected.tobytes()

    def test_the_mixed_sweep_input_keeps_its_bytes(self):
        # the 576-dimensional state that perfbench's mixed-eigen-sweep writes at
        # seed 1, against the constructor's arithmetic restated for one draw
        layout = SubsystemLayout([("A", 24), ("B", 24)])
        rng = generator(1)
        g = (rng.standard_normal((576, 576)) + 1j * rng.standard_normal((576, 576))) / np.sqrt(2.0)
        m = g @ g.conj().T
        expected = m / np.trace(m).real
        got = random_density_matrix(576, seed=1, layout=layout).entries
        assert got.tobytes() == expected.tobytes()


class TestSeeding:
    """Random trial i is row i % BLOCK of block i // BLOCK, drawn whole from the
    master seed's child stream with spawn key (block,)."""

    def test_the_block_generator_is_the_masters_spawned_child(self):
        for master in (0, 7, 2**40):
            for block, child in enumerate(np.random.SeedSequence(master).spawn(3)):
                expected = np.random.Generator(np.random.PCG64(child)).standard_normal(8)
                got = block_generator(master, block).standard_normal(8)
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ["duality", "bound"])
    def test_no_two_masters_draw_a_common_trial(self, monkeypatch, name):
        # the first 500 trials of masters 0..15; under master XOR i, masters 0
        # and 7 shared 496 of them
        seen = {}
        for master in range(16):
            rows, _ = drawn_rows(monkeypatch, name, seed=master, trials=500)
            for i, row in enumerate(rows):
                assert seen.setdefault(repr(row), (master, i)) == (master, i)
        assert len(seen) == 16 * 500

    @pytest.mark.parametrize("name", TRIAL_CHECKS)
    def test_a_trials_numbers_do_not_depend_on_the_trial_count(self, monkeypatch, name):
        everything, _ = drawn_rows(monkeypatch, name, seed=3, trials=500)
        assert len(everything) == 500
        for trials in (1, BLOCK, BLOCK + 1):
            assert drawn_rows(monkeypatch, name, seed=3, trials=trials)[0] == everything[:trials]

    @pytest.mark.parametrize("master", range(16))
    def test_no_random_trial_replays_the_fixed_trials_stream(self, monkeypatch, master):
        # SeedSequence((master, 0)) hashes to SeedSequence(master), whose stream
        # generator(master) the named fixed trials draw from
        stream = generator(master).standard_normal(4).tobytes()
        tuple_seeded = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master, 0))))
        assert tuple_seeded.standard_normal(4).tobytes() == stream
        layout = SubsystemLayout(zip("ABC", (2, 2, 2)))
        fixed = haar_pure_state(generator(master), layout)
        (first,), _ = drawn_rows(monkeypatch, "duality", seed=master, trials=1)
        assert first != [described(fixed, payload(fixed))]


class TestStackBudget:
    def test_default_stack_sizes(self):
        sizes = {
            name: harness._stack_size(SubsystemLayout(zip(check.labels, check.parameters["dims"])))
            for name, check in harness._TRIAL_CHECKS.items()
            if check.draw
        }
        # 4096 entries over D x D per trial
        assert sizes == {
            "duality": 64,
            "bound": 50,
            "coherent-duality": 50,
            "monotonicity": 64,
            "concavity": 113,
            "subadditivity": 16,
            "formula-standard": 113,
            "formula-coherent": 113,
        }

    def test_a_budget_below_one_trial_still_stacks_one(self, monkeypatch):
        monkeypatch.setattr(harness, "_STACK_ENTRIES", 1)
        assert harness._stack_size(SubsystemLayout([("A", 5)])) == 1

    @pytest.mark.parametrize("name", TRIAL_CHECKS)
    @pytest.mark.parametrize("size", [1, 5])
    def test_reports_do_not_depend_on_the_stack_size(self, monkeypatch, name, size):
        expected = report_to_dict(run_check(name, seed=3, trials=17))
        # a tiny budget: `size` trials on the check's default layout
        dim = math.prod(harness._TRIAL_CHECKS[name].parameters["dims"])
        monkeypatch.setattr(harness, "_STACK_ENTRIES", size * dim**2)
        assert report_to_dict(run_check(name, seed=3, trials=17)) == expected

    @pytest.mark.parametrize("budget", [None, 5 * 81])
    def test_bound_solves_each_matrix_once_per_stack(self, monkeypatch, solve_calls, budget):
        if budget is not None:
            monkeypatch.setattr(harness, "_STACK_ENTRIES", budget)
        run_check("bound", trials=64)
        # 64 trials on the default 3 x 3: two stacks (50 and 14) at the default
        # budget, thirteen at five trials each
        stacks = math.ceil(64 / harness._stack_size(SubsystemLayout([("A", 3), ("C", 3)])))
        assert stacks == (2 if budget is None else 13)
        # per stack: H(C|A)'s two 3 x 3 marginals and 9 x 9 joint, whose target
        # spectrum also gives H(rho_C), for the random trials and one product
        # state on the default 3 x 3; the pure Bell pair is read off its Schmidt
        # coefficients and solves nothing
        assert Counter((name, shape[-1]) for name, shape, _ in solve_calls) == {
            ("eigh", 3): 2 * (stacks + 1),
            ("eigh", 9): stacks + 1,
        }

    def test_the_bell_pair_is_read_off_its_schmidt_coefficients(self, solve_calls):
        run_check("bound", trials=3)
        # the Bell pair is the only trial with 2 x 2 marginals, and solves none
        assert {call[1][-1] for call in solve_calls} == {3, 9}

    def test_formula_coherent_solves_no_purification_sized_matrix(self, solve_calls):
        # the purifications of the 6 x 6 draws live on 2 x 3 x 6 = 36 dimensions
        # and are taken as built: no 36 x 36 projector is solved, and the largest
        # eigensolve is the 12 x 12 marginal on A and the reference
        run_check("formula-coherent")
        assert all(36 not in shape for _, shape, _ in solve_calls)
        assert max(shape[-1] for name, shape, _ in solve_calls if name != "svd") == 12

    @pytest.mark.parametrize("name", sorted(harness.CHECKS))
    def test_each_default_check_peaks_below_1_5_mb(self, name):
        # larger stacks must not creep into the suite's peak memory: the largest
        # peak, formula-coherent's, is about 1.4 MB at seed 1
        # a short run first, so first-use imports are not counted
        short = {"trials": 1} if "trials" in harness._TRIAL_CHECKS[name].parameters else {}
        run_check(name, seed=1, **short)
        tracemalloc.start()
        try:
            run_check(name, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


def _stack(*states):
    return DensityMatrix(np.stack([s.entries for s in states]), states[0].layout)


def _pure_stack(*states):
    return PureState(np.stack([s.amplitudes.astype(complex) for s in states]), states[0].layout)


class TestPerRow:
    def test_one_indefinite_row_raises_with_its_eigenvalue(self):
        good = random_density_matrix(2, seed=1)
        bad = DensityMatrix(np.diag([1.25, -0.25]), single("A", 2))
        with pytest.raises(InvalidStateError) as alone:
            clamped_spectrum(bad)
        with pytest.raises(InvalidStateError, match=r"-2\.500e-01") as stacked:
            clamped_spectrum(_stack(good, bad, good))
        assert str(stacked.value) == str(alone.value)

    def test_one_non_trace_preserving_channel_raises(self):
        good = random_channel(2, 2, 2, seed=3)
        bad = KrausChannel([1.1 * k for k in good.kraus_ops])
        stack = KrausChannel(np.stack([good.kraus_ops, bad.kraus_ops, good.kraus_ops], axis=1))
        assert validate_channel(stack).violations[0].magnitude == bad.completeness_defect()
        with pytest.raises(InvalidChannelError):
            complementary(stack)
        rho = _stack(*(random_density_matrix(2, seed=s) for s in range(3)))
        with pytest.raises(InvalidChannelError):
            harness._coherent_duality_margin(rho, stack)

    def test_purification_of_rows_with_different_ranks(self):
        full = random_density_matrix(3, seed=4)
        pure = random_pure_state(single("A", 3), seed=5).as_density()
        psi = _purification(clamped_spectrum(_stack(full, pure, full)))
        assert psi.shape == (3, 3, 3)
        for row, state in enumerate((full, pure, full)):
            alone = _purification(clamped_spectrum(state))
            rank = alone.shape[1]
            assert np.array_equal(psi[row, :, :rank], alone)
            assert not psi[row, :, rank:].any()

    def test_channel_information_of_rows_with_different_ranks(self, solve_calls):
        states = (
            random_density_matrix(3, seed=4),
            random_pure_state(single("A", 3), seed=5).as_density(),
            random_density_matrix(3, seed=6, rank=2),
        )
        channel = random_channel(3, 2, 2, seed=7)
        info, w = _information_and_spectrum(_stack(*states), channel)
        # the input is solved once; each rank's factor (1, 2, rank, 2) is read at
        # its own rank, not padded: its 2 x 2 Gram matrix values only, and one SVD
        # of each unfolding, B rows (2, 2 rank) and R rows (rank, 4)
        assert solve_calls == [("eigh", (3, 3, 3), True)] + [
            call
            for rank in (3, 1, 2)
            for call in (
                ("eigvalsh", (1, 2, 2), True),
                ("svd", (1, 2, 2 * rank), True),
                ("svd", (1, rank, 4), True),
            )
        ]
        for row, state in enumerate(states):
            info_alone, w_alone = _information_and_spectrum(state, channel)
            assert info[row] == info_alone
            assert np.array_equal(w[row], w_alone)
        assert list(coherent_information(_stack(*states), channel)) == [
            coherent_information(state, channel) for state in states
        ]

    def test_pure_stack_is_read_off_schmidt_coefficients_only_if_every_row_is(
        self, solve_calls
    ):
        layout = bell(3).layout
        c = np.array([1.0, 1j]) @ generator(8).standard_normal((2, 3))
        diagonal = PureState(np.diag(c / np.linalg.norm(c)).ravel(), layout)
        haar = random_pure_state(layout, seed=5)
        # rows all Schmidt-diagonal: read off their coefficients, as each alone
        rows = (bell(3), diagonal)
        stacked = conditional_entropy(_pure_stack(*rows), "A", "B")
        assert solve_calls == []
        assert list(stacked) == [conditional_entropy(row, "A", "B") for row in rows]
        # one other row sends the whole stack through the factor's SVD, which
        # may move a Schmidt-diagonal row in the last bit
        rows = (bell(3), haar)
        stacked = conditional_entropy(_pure_stack(*rows), "A", "B")
        assert [name for name, _, _ in solve_calls] == ["eigvalsh", "svd"]
        assert stacked[1] == conditional_entropy(haar, "A", "B")
        assert stacked[0] == pytest.approx(-math.log(3.0), abs=1e-15)

    def test_stack_mixing_real_and_complex_rows_is_solved_as_complex(self):
        real = bell(2).as_density()
        mixed = random_density_matrix(4, seed=6, layout=real.layout)
        stack = _stack(real, mixed)
        w, u = clamped_spectrum(stack)
        assert np.iscomplexobj(u)
        for row, state in enumerate((real, mixed)):
            assert np.allclose(w[row], clamped_spectrum(state)[0], atol=1e-14)
        h = conditional_entropy(stack, "A", "B")
        assert h[0] == pytest.approx(-math.log(2.0), abs=1e-12)
        assert h[1] == pytest.approx(conditional_entropy(mixed, "A", "B"), abs=1e-12)
