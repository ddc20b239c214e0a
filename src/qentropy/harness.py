"""Randomized property checks with reproducible, replayable reports.

Each check draws seeded random states (and channels where relevant), measures
a margin per trial, and aggregates into a :class:`PropertyReport`. Margins
are raw slack values with no tolerance folded in: for an inequality
``lhs <= rhs`` the margin is ``rhs - lhs``; for an identity the margin is
``-|residual|``. A report passes iff its worst margin is at least
``-tolerance``, so equalities and boundary saturations pass while genuine
violations fail.

Every check is one entry of a table, run by one runner: the entry declares
its parameters and their defaults, its named fixed trials, its random draw
and its margin. A trial is a list of points, each one tuple of margin args:
a random trial is one point, and a named fixed trial is one point or, like
the continuity check's schedule, many, which the entry folds into the
trial's margin. One loop, :func:`_evaluate`, cuts every list of points into
stacks, as many as a fixed budget of matrix entries holds, and builds each
stack's margin args with every state stacked on a leading axis; a stack
yields the same margins as its points one by one. A report's ``trials``
counts the points evaluated. :func:`run_check` is the only place that fills,
validates, coerces and records parameters, and one assembler builds every
report.

Random trials are drawn a block at a time (see :mod:`.rng`): random trial i
is row ``i % BLOCK`` of block ``i // BLOCK``, whose generator is the master
seed's child stream ``block_generator(seed, i // BLOCK)``. An entry's draw
makes one generator call per margin argument, by the draw function beside the
argument's builder in ``states`` or ``channels``, and returns a build that
turns a row slice of the block into a stack: the builder that the public
constructor (``ginibre_state``, ``haar_pure_state``, ``haar_channel``) runs
on one draw runs once per stack, and no stack spans two blocks. Named fixed
trials draw from ``generator(seed)``, are built as states when they are
listed, and are stacked by :func:`_stacked`.

Reproducibility contract: a random trial's numbers depend on the master seed
and its index i alone, not on the trial count; every report embeds its full
effective config, whose ``seeding`` names the derivation (:data:`.rng.SEEDING`),
and re-running a config reproduces the report exactly (see
:func:`replay_report`, which replays a sweep's too). Stacking is not part of
the config: it changes no arithmetic, so a report does not depend on the
stack size.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Sequence, TypeAlias

import numpy as np

from .catalog import bell, build_state, ghz
from .channels import (
    KrausChannel,
    _haar_channel,
    _haar_channel_pairs,
    complementary,
    coherent_information,
    conditional_entropy_via_coherent_info,
    haar_channel,
    purify,
)
from .entropy import (
    _conditional_entropy,
    conditional_entropy,
    conditional_entropy_standard,
)
from .errors import InvalidStateError, PreconditionError, as_integer
from .fileio import load_state
from .rng import BLOCK, SEEDING, block_generator, generator
from .states import (
    DensityMatrix,
    PureState,
    State,
    SubsystemLayout,
    _ginibre,
    _ginibre_pairs,
    _haar_pure,
    _haar_pure_pairs,
    as_density,
    ginibre_state,
    haar_pure_state,
    tensor,
    validate,
)
from .tolerances import SATURATION_BAND
from .truncation import (
    ProjectorMode,
    _validate_schedule,
    conditional_entropy_sweep,
    diagonal_schedule,
)


def resolve_state(spec: str) -> State:
    """Build a state from a catalog spec string, or load it from a JSON file.

    Anything that names an existing file (or ends in .json) is treated as a
    state document and validated; everything else goes through the catalog
    grammar ``name:key=value,...`` and comes back as :func:`build_state`
    builds it, so a pure family stays a :class:`~.states.PureState`.
    """
    if os.path.exists(spec) or spec.endswith(".json"):
        rho = load_state(spec)
        report = validate(rho)
        if not report.ok:
            raise InvalidStateError(f"{spec}: invalid state: {report.describe()}")
        return rho
    return build_state(spec)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one randomized property check.

    ``worst_margin`` is the most-violating raw slack over all trials
    (negative would mean violation beyond rounding); ``worst_seed`` names the
    trial that produced it, so a failure can be reproduced in isolation: a
    random trial's index i, or the master seed for a named fixed trial.
    ``config`` is the full effective configuration; feeding it back through
    :func:`replay_report` regenerates this report identically.
    """

    property: str
    trials: int
    seed: int
    tolerance: float
    worst_margin: float
    worst_seed: int
    verdict: str
    config: dict[str, Any]
    saturated: tuple[dict[str, Any], ...] = ()
    records: tuple[dict[str, Any], ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass
class _Trial:
    label: str
    seed: int
    margin: float
    values: dict[str, Any]
    points: int = 1


def _assemble(config: dict[str, Any], trials: Sequence[_Trial]) -> PropertyReport:
    worst = min(trials, key=lambda t: t.margin)
    # only named fixed trials are scanned and kept: identity checks have every
    # random margin near zero, which is agreement, not a boundary touch
    saturated = tuple(
        {"trial": t.label, "margin": t.margin}
        for t in trials
        if not t.label.isdigit() and abs(t.margin) <= SATURATION_BAND
    )
    records = tuple(
        {"trial": t.label, "seed": t.seed, "margin": t.margin, **t.values}
        for t in trials
        if not t.label.isdigit() or t is worst
    )
    tolerance = config["tolerance"]
    return PropertyReport(
        property=config["property"],
        trials=sum(t.points for t in trials),
        seed=config["seed"],
        tolerance=tolerance,
        worst_margin=float(worst.margin),
        worst_seed=int(worst.seed),
        verdict="pass" if worst.margin >= -tolerance else "fail",
        config=config,
        saturated=saturated,
        records=records,
    )


_Rng: TypeAlias = "np.random.Generator"  # a string, so importing does not load numpy.random
_Config = dict[str, Any]
_Named = tuple[str, list[tuple[Any, ...]]]
# the margin args of a row slice of points, each stacked across the slice
_Build = Callable[[slice], Iterable[Any]]


def _one_point(points: Sequence[_Trial]) -> tuple[float, dict[str, Any]]:
    (point,) = points
    return point.margin, point.values


@dataclass(frozen=True)
class _TrialCheck:
    """One property check, as data.

    ``parameters`` maps each parameter the check takes to its default, in
    config order. ``fixed(rng, layout, config)`` lists the named fixed trials
    as ``(label, points)`` pairs, drawing from ``generator(seed)`` in order,
    and ``fold(points)`` gives a named trial's margin and values from its
    evaluated points. ``draw(rng, layout, config)`` draws one block of random
    trials from ``block_generator(seed, block)``, one call per margin arg in
    a fixed order, and returns its :data:`_Build`. ``margin(*args)`` returns
    the raw slack and the values recorded with it, one of each per point when
    every arg is stacked across points. The layout pairs ``labels`` with the
    ``dims`` parameter, and is None without it.
    """

    parameters: dict[str, Any]
    margin: Callable[..., tuple[Any, dict[str, Any]]]
    labels: tuple[str, ...] = ()
    draw: Callable[[_Rng, SubsystemLayout, _Config], _Build] | None = None
    fixed: Callable[[_Rng, SubsystemLayout, _Config], list[_Named]] = lambda rng, layout, cfg: []
    fold: Callable[[Sequence[_Trial]], tuple[float, dict[str, Any]]] = _one_point


def _part(layout: SubsystemLayout, *labels: str) -> SubsystemLayout:
    return SubsystemLayout([(lab, layout.dim_of(lab)) for lab in labels])


def _ginibre_block(rng: _Rng, layout: SubsystemLayout, config: _Config) -> _Build:
    pairs = _ginibre_pairs(rng, layout, rows=BLOCK)
    return lambda rows: (_ginibre(pairs[rows], layout),)


def _haar_pure_block(rng: _Rng, layout: SubsystemLayout, config: _Config) -> _Build:
    pairs = _haar_pure_pairs(rng, layout, rows=BLOCK)
    return lambda rows: (_haar_pure(pairs[rows], layout),)


def _duality_margin(state: PureState) -> tuple[float, dict[str, float]]:
    """H(C|A) + H(C|B) = 0 for pure states on A x B x C; margin -|sum|."""
    h_ca = conditional_entropy(state, "C", "A")
    h_cb = conditional_entropy(state, "C", "B")
    return -abs(h_ca + h_cb), {"h_c_given_a": h_ca, "h_c_given_b": h_cb}


def _duality_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # a product pure state, where both terms vanish individually
    parts = [haar_pure_state(rng, _part(layout, lab)) for lab in layout.labels]
    product_amp = parts[0].amplitudes
    for part in parts[1:]:
        product_amp = np.kron(product_amp, part.amplitudes)
    return [("product", [(PureState(product_amp, layout),)])]


def _bound_margin(rho: State) -> tuple[float, dict[str, float]]:
    """|H(C|A)| <= H(rho_C) on A x C; margin H(rho_C) - |H(C|A)|."""
    given, target = rho.layout.labels
    h_cond, h_c = _conditional_entropy(rho, target, given)
    return h_c - abs(h_cond), {"h_target": h_c, "cond_entropy": h_cond}


def _bound_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # both saturate: a maximally entangled pair from below, a product from above
    first = ginibre_state(rng, _part(layout, "A"))
    product = tensor(first, ginibre_state(rng, _part(layout, "C")))
    return [("bell", [(bell(2),)]), ("product", [(product,)])]


def _monotonicity_margin(rho: State) -> tuple[float, dict[str, float]]:
    """H(A|BC) <= H(A|B) on A x B x C; margin H(A|B) - H(A|BC)."""
    h_ab = conditional_entropy(rho, "A", "B")
    h_abc = conditional_entropy(rho, "A", ("B", "C"))
    return h_ab - h_abc, {"h_a_given_b": h_ab, "h_a_given_bc": h_abc}


def _monotonicity_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # GHZ, where the gap is exactly ln 2, and a trivial (1-dimensional)
    # conditioner, where the two sides are equal
    trivial = SubsystemLayout(_part(layout, "A", "B").subsystems + (("C", 1),))
    return [("ghz", [(ghz(3, 2),)]), ("trivial-conditioner", [(ginibre_state(rng, trivial),)])]


def _concavity_margin(
    rho1: DensityMatrix, rho2: DensityMatrix, alpha: float
) -> tuple[float, dict[str, float]]:
    """H(A|B) of a mixture dominates the mixture of H(A|B); margin is the excess."""
    weight = np.asarray(alpha)[..., None, None]
    mix = DensityMatrix(weight * rho1.entries + (1.0 - weight) * rho2.entries, rho1.layout)
    h_mix = conditional_entropy(mix, "A", "B")
    h1 = conditional_entropy(rho1, "A", "B")
    h2 = conditional_entropy(rho2, "A", "B")
    return h_mix - alpha * h1 - (1.0 - alpha) * h2, {
        "alpha": alpha,
        "h_mix": h_mix,
        "h_first": h1,
        "h_second": h2,
    }


def _concavity_draw(rng: _Rng, layout: SubsystemLayout, config: _Config) -> _Build:
    # the mixing weights, then the first states, then the second
    alpha = rng.uniform(size=BLOCK)
    first = _ginibre_pairs(rng, layout, rows=BLOCK)
    second = _ginibre_pairs(rng, layout, rows=BLOCK)
    return lambda rows: (_ginibre(first[rows], layout), _ginibre(second[rows], layout), alpha[rows])


def _concavity_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # the equality cases alpha = 0 and rho1 = rho2
    first, second = ginibre_state(rng, layout), ginibre_state(rng, layout)
    return [("alpha-zero", [(first, second, 0.0)]), ("equal-states", [(first, first, 0.37)])]


def _subadditivity_margin(rho: DensityMatrix) -> tuple[float, dict[str, float]]:
    """Three subadditivity relations on A x B x C x D; margin is the worst of

    * ``H(A|C) + H(B|D) - H(AB|CD)`` (pairwise subadditivity),
    * ``H(A|CD) + H(B|CD) - H(AB|CD)`` (shared-conditioner intermediate),
    * ``-|chain residual|`` for the identity
      H(AB|CD) = H(A|CD) + H(B|CD) - (H(A|CD) - H(A|BCD)).
    """
    h_ab_cd = conditional_entropy(rho, ("A", "B"), ("C", "D"))
    h_a_c = conditional_entropy(rho, "A", "C")
    h_b_d = conditional_entropy(rho, "B", "D")
    h_a_cd = conditional_entropy(rho, "A", ("C", "D"))
    h_b_cd = conditional_entropy(rho, "B", ("C", "D"))
    h_a_bcd = conditional_entropy(rho, "A", ("B", "C", "D"))
    pairwise = h_a_c + h_b_d - h_ab_cd
    shared = h_a_cd + h_b_cd - h_ab_cd
    chain = -abs(h_ab_cd - h_a_cd - h_b_cd + (h_a_cd - h_a_bcd))
    return np.minimum(np.minimum(pairwise, shared), chain), {
        "pairwise_margin": pairwise,
        "shared_margin": shared,
        "chain_residual_margin": chain,
    }


def _subadditivity_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # rho_AC x rho_BD, the equality case of the pairwise relation
    ac = ginibre_state(rng, _part(layout, "A", "C"))
    bd = ginibre_state(rng, _part(layout, "B", "D"))
    return [("product", [(tensor(ac, bd),)])]


def _coherent_duality_margin(rho: State, channel: KrausChannel) -> tuple[float, dict[str, float]]:
    """I_c(rho, channel) + I_c(rho, complementary channel) = 0; margin -|sum|."""
    ic = coherent_information(rho, channel)
    ic_comp = coherent_information(rho, complementary(channel))
    return -abs(ic + ic_comp), {"coherent_info": ic, "coherent_info_complement": ic_comp}


def _channel(rng: _Rng, layout: SubsystemLayout, config: _Config) -> KrausChannel:
    # layout is (input A) x (output B) of the channel
    return haar_channel(rng, layout.dim_of("A"), layout.dim_of("B"), config["env_dim"])


def _coherent_duality_draw(rng: _Rng, layout: SubsystemLayout, config: _Config) -> _Build:
    # the states, then the channels; haar_channel has checked the channel's
    # dimensions in the fixed trials, which run first
    single_a = _part(layout, "A")
    states = _ginibre_pairs(rng, single_a, rows=BLOCK)
    dims = layout.dim_of("A"), layout.dim_of("B"), config["env_dim"]
    channels = _haar_channel_pairs(rng, *dims, rows=BLOCK)
    return lambda rows: (_ginibre(states[rows], single_a), _haar_channel(channels[rows], *dims))


def _coherent_duality_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # the identity channel (terms H(rho) and -H(rho)) and a pure input (both vanish)
    single_a = _part(layout, "A")
    identity = (ginibre_state(rng, single_a), KrausChannel([np.eye(single_a.total_dim)]))
    pure = (haar_pure_state(rng, single_a), _channel(rng, layout, config))
    return [("identity-channel", [identity]), ("pure-state", [pure])]


def _formula_standard_margin(rho: DensityMatrix) -> tuple[float, dict[str, float]]:
    """Relative-entropy and entropy-difference forms of H(C|A) agree on full-support states."""
    via_relative = conditional_entropy(rho, "C", "A")
    via_difference = conditional_entropy_standard(rho, "C", "A")
    return -abs(via_relative - via_difference), {
        "relative_form": via_relative,
        "difference_form": via_difference,
    }


def _formula_coherent_margin(rho: DensityMatrix) -> tuple[float, dict[str, float]]:
    """The coherent-information route to H(C|A), through a purification, agrees."""
    direct = conditional_entropy(rho, "C", "A")
    via_channel = conditional_entropy_via_coherent_info(purify(rho), "C", "A")
    return -abs(direct - via_channel), {"direct": direct, "channel_route": via_channel}


def _continuity_margin(base: DensityMatrix, eps: float, h_base: float) -> tuple[float, dict]:
    """Minus |H(target|given)(mixed) - h_base|, for the base mixed with the maximally
    mixed state at weight eps; the first label is the target and the rest given."""
    weight = np.asarray(eps)[..., None, None]
    dim = base.layout.total_dim
    mixed = DensityMatrix((1.0 - weight) * base.entries + weight * (np.eye(dim) / dim), base.layout)
    labels = base.layout.labels
    deviation = abs(conditional_entropy(mixed, labels[0], labels[1:]) - h_base)
    return -deviation, {"eps": eps, "base_cond_entropy": h_base}


def _continuity_fixed(rng: _Rng, layout: None, config: _Config) -> list[_Named]:
    # the base (a catalog spec or a state file) at eps = 2^-n for n = 1..steps;
    # the schedule is deterministic, so the seed is carried only for config uniformity
    base = as_density(resolve_state(config["base"]))
    labels = base.layout.labels
    if len(labels) < 2:
        raise PreconditionError(f"base state must be multipartite, got labels {labels}")
    h_base = conditional_entropy(base, labels[0], labels[1:])
    return [("schedule", [(base, 2.0**-n, h_base) for n in range(1, config["steps"] + 1)])]


def _continuity_fold(points: Sequence[_Trial]) -> tuple[float, dict[str, Any]]:
    """Continuity along the schedule: the worse of minus the final deviation, so
    the deviation must end below tolerance, and the smallest consecutive
    decrease, so any rise beyond tolerance also fails."""
    deviations = [[p.values["eps"], -p.margin] for p in points]
    shrink = min(prev - nxt for (_, prev), (_, nxt) in zip(deviations, deviations[1:]))
    values = {"base_cond_entropy": points[0].values["base_cond_entropy"], "deviations": deviations}
    return min(-deviations[-1][1], shrink), values


_TRIAL_CHECKS: dict[str, _TrialCheck] = {
    "duality": _TrialCheck(
        {"dims": (2, 2, 2), "trials": 500, "seed": 0, "tolerance": 1e-7}, _duality_margin,
        labels=("A", "B", "C"), draw=_haar_pure_block, fixed=_duality_fixed,
    ),
    "bound": _TrialCheck(
        {"dims": (3, 3), "trials": 1000, "seed": 0, "tolerance": 1e-8}, _bound_margin,
        labels=("A", "C"), draw=_ginibre_block, fixed=_bound_fixed,
    ),
    "coherent-duality": _TrialCheck(
        {"dims": (3, 3), "trials": 300, "seed": 0, "tolerance": 1e-7, "env_dim": 3},
        _coherent_duality_margin, labels=("A", "B"), draw=_coherent_duality_draw,
        fixed=_coherent_duality_fixed,
    ),
    "monotonicity": _TrialCheck(
        {"dims": (2, 2, 2), "trials": 500, "seed": 0, "tolerance": 1e-8}, _monotonicity_margin,
        labels=("A", "B", "C"), draw=_ginibre_block, fixed=_monotonicity_fixed,
    ),
    "concavity": _TrialCheck(
        {"dims": (2, 3), "trials": 500, "seed": 0, "tolerance": 1e-8}, _concavity_margin,
        labels=("A", "B"), draw=_concavity_draw, fixed=_concavity_fixed,
    ),
    "subadditivity": _TrialCheck(
        {"dims": (2, 2, 2, 2), "trials": 300, "seed": 0, "tolerance": 1e-7}, _subadditivity_margin,
        labels=("A", "B", "C", "D"), draw=_ginibre_block, fixed=_subadditivity_fixed,
    ),
    "formula-standard": _TrialCheck(
        {"dims": (2, 3), "trials": 500, "seed": 0, "tolerance": 1e-8}, _formula_standard_margin,
        labels=("A", "C"), draw=_ginibre_block,
    ),
    "formula-coherent": _TrialCheck(
        {"dims": (2, 3), "trials": 500, "seed": 0, "tolerance": 1e-7}, _formula_coherent_margin,
        labels=("A", "C"), draw=_ginibre_block,
    ),
    "continuity": _TrialCheck(
        {"base": "werner:p=0.5", "steps": 20, "seed": 0, "tolerance": 1e-6}, _continuity_margin,
        fixed=_continuity_fixed, fold=_continuity_fold,
    ),
}  # fmt: skip


# the complex entries one stack may hold, D x D per point on a D-dimensional
# layout: the per-call cost is paid once per stack, and a stack's matrices
# stay small whatever the check's dimension or the schedule's length
_STACK_ENTRIES = 4096


def _stack_size(layout: SubsystemLayout) -> int:
    """How many points on ``layout`` one stack evaluates."""
    return max(1, _STACK_ENTRIES // layout.total_dim**2)


def _stacked(column: Sequence[Any]) -> Any:
    """One margin argument across several named points, stacked on a leading
    axis: their states or numbers."""
    first = column[0]
    if isinstance(first, DensityMatrix):
        return DensityMatrix(np.stack([arg.entries for arg in column]), first.layout)
    if isinstance(first, PureState):
        return PureState(np.stack([arg.amplitudes for arg in column]), first.layout)
    if isinstance(first, KrausChannel):
        return KrausChannel(np.stack([arg.kraus_ops for arg in column], axis=1))
    return np.array(column)


def _evaluate(
    check: _TrialCheck, build: _Build, named: Sequence[tuple[str, int]], size: int
) -> list[_Trial]:
    """The points ``named`` by (label, seed), in stacks of at most ``size``:
    ``build(rows)`` gives a stack's margin args for its slice of ``named``,
    and each value column of a stack is read in one call."""
    trials = []
    for start in range(0, len(named), size):
        rows = slice(start, min(start + size, len(named)))
        margins, values = check.margin(*build(rows))
        columns = zip(*(np.asarray(c, dtype=float).tolist() for c in (margins, *values.values())))
        trials += [
            _Trial(label, seed, margin, dict(zip(values, row)))
            for (label, seed), (margin, *row) in zip(named[rows], columns, strict=True)
        ]
    return trials


def _run_trials(config: _Config) -> PropertyReport:
    """Run a table entry: its fixed trials, then its random trials a block at a time."""
    check = _TRIAL_CHECKS[config["property"]]
    seed = config["seed"]
    dims = config.get("dims")
    layout = None if dims is None else SubsystemLayout(zip(check.labels, dims, strict=True))
    results = []
    for label, points in check.fixed(generator(seed), layout, config):
        # a named trial's points stack by the layout of their first arg
        named, size = [(label, seed)] * len(points), _stack_size(points[0][0].layout)
        evaluated = _evaluate(check, lambda rows: map(_stacked, zip(*points[rows])), named, size)
        results.append(_Trial(label, seed, *check.fold(evaluated), points=len(points)))
    if check.draw is not None:
        # random trial i is row i % BLOCK of block i // BLOCK, and is labelled by i
        trials, size = config["trials"], min(BLOCK, _stack_size(layout))
        for first in range(0, trials, BLOCK):
            build = check.draw(block_generator(seed, first // BLOCK), layout, config)
            named = [(str(i), i) for i in range(first, min(first + BLOCK, trials))]
            results += _evaluate(check, build, named, size)
    return _assemble(config, results)


def report_to_dict(report: PropertyReport) -> dict[str, Any]:
    """Flatten a report for serialization: its fields plus ``units``, the
    tuples as lists; feed through json_ready before dumping."""
    doc = asdict(report)
    doc.update(units="nats", saturated=list(doc["saturated"]), records=list(doc["records"]))
    return doc


# each entry runs a complete config, as run_check builds it
CHECKS: dict[str, Callable[[_Config], PropertyReport]] = dict.fromkeys(_TRIAL_CHECKS, _run_trials)
# one coercion per parameter, applied to defaults and overrides alike; it is
# passed the value and the parameter's name
_COERCE: dict[str, Callable[[Any, str], Any]] = {
    "dims": lambda dims, key: [as_integer(d, key) for d in dims],
    "trials": as_integer,
    "seed": as_integer,
    "env_dim": as_integer,
    "steps": as_integer,
    "tolerance": lambda value, key: float(value),
    "base": lambda value, key: str(value),
}
_MINIMUM = {"trials": 1, "steps": 2, "env_dim": 1, "seed": 0}
# 1 - 2^-n rounds to 1.0 in float64 past n = 53, so a continuity point there is its base
_MAXIMUM = {"steps": 53}


def run_check(name: str, **overrides: Any) -> PropertyReport:
    """Run one named property check with keyword overrides of its defaults.

    Overrides of None are dropped. The report's ``config`` is the property
    name plus every parameter the check takes, coerced to its recorded type,
    plus ``seeding``: :data:`.rng.SEEDING`, the one trial derivation, which
    is also the only ``seeding`` override accepted.
    Counts, the seed and dims follow :func:`~.errors.as_integer`: an integral
    float such as 3.0 reads as 3, while a fraction, a bool or a non-number
    raises :class:`~.errors.ParseError`. An override the check does not
    take, another ``seeding``, a count below its minimum or above its
    maximum, the wrong number of dims, or a negative or non-finite tolerance
    raises :class:`PreconditionError`.
    """
    if name not in CHECKS:
        raise PreconditionError(f"unknown property {name!r}; have {sorted(CHECKS)}")
    declared = _TRIAL_CHECKS[name].parameters
    overrides = {k: v for k, v in overrides.items() if v is not None}
    seeding = overrides.pop("seeding", SEEDING)
    if seeding != SEEDING:
        raise PreconditionError(
            f"seeding must be {SEEDING!r}, the one way trials are drawn; got {seeding!r}"
        )
    unknown = sorted(set(overrides) - set(declared))
    if unknown:
        raise PreconditionError(
            f"property {name!r} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(sorted(declared))}"
        )
    params = {**declared, **overrides}
    config = {"property": name, **{k: _COERCE[k](v, k) for k, v in params.items()}}
    config["seeding"] = SEEDING
    for key, low in _MINIMUM.items():
        if key in config and config[key] < low:
            raise PreconditionError(f"{key} must be at least {low}, got {params[key]}")
    for key, high in _MAXIMUM.items():
        if key in config and config[key] > high:
            raise PreconditionError(f"{key} must be at most {high}, got {params[key]}")
    dims = config.get("dims")
    if dims is not None and (len(dims) != len(declared["dims"]) or min(dims) < 1):
        raise PreconditionError(f"{name!r} needs {len(declared['dims'])} positive dims, got {dims}")
    tolerance = config["tolerance"]
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise PreconditionError(f"tolerance must be finite and nonnegative, got {tolerance}")
    return CHECKS[name](config)


# the fields of a converge document's config, as run_converge records them
_SWEEP_CONFIG = ("state", "target", "given", "schedule", "mode")


def replay_report(config: dict[str, Any]) -> PropertyReport | dict[str, Any]:
    """Re-run a check report's or a converge document's embedded config; the
    report, or the sweep document, matches the original.

    A config with a ``property`` field is a check's, and must name its trial
    derivation in ``seeding`` (:func:`run_check` accepts only the current
    one); any other must hold exactly a sweep's fields. Otherwise
    :class:`PreconditionError` is raised.
    """
    config = dict(config)
    if "property" in config:
        if config.get("seeding") is None:
            raise PreconditionError(
                f"check config has no 'seeding' field, so its random trials were not "
                f"drawn as {SEEDING!r} draws them and cannot be reproduced"
            )
        return run_check(config.pop("property"), **config)
    if set(config) != set(_SWEEP_CONFIG):
        raise PreconditionError(
            f"config has no 'property' field, and a sweep config has exactly "
            f"{', '.join(_SWEEP_CONFIG)}; got {', '.join(sorted(config)) or 'no field'}"
        )
    state, target, given, schedule, mode = (config[key] for key in _SWEEP_CONFIG)
    return run_converge(state, target, given, schedule=schedule, mode=mode)


def run_suite(seed: int = 0, properties: Sequence[str] | None = None) -> list[PropertyReport]:
    """Run the named checks (default: all, in a fixed order) at their default configs."""
    names = list(CHECKS) if properties is None else list(properties)
    return [run_check(name, seed=seed) for name in names]


def run_converge(
    state_spec: str = "tmsv:nbar=1,cutoff=30",
    target: str | Sequence[str] = "A",
    given: str | Sequence[str] = "B",
    min_rank: int = 5,
    max_rank: int | None = None,
    stride: int = 1,
    schedule: Sequence[tuple[int, int]] | None = None,
    mode: ProjectorMode = "computational",
) -> dict[str, Any]:
    """Run a truncation convergence sweep on a catalog or file state.

    Returns a document with the effective config, the per-step table (as
    :class:`~.truncation.SweepPoint` objects under ``"points"``), and a
    summary comparing the final step against the conditional entropy of the
    full state. Without an explicit ``schedule``, a diagonal (n, n) schedule
    runs from ``min_rank`` to ``max_rank`` (default: the smaller factor
    dimension) with the given stride. Ranks, bounds and stride follow
    :func:`~.errors.as_integer`.

    The state is a :class:`~.states.State`: a pure catalog state is swept
    from its amplitudes, never densified. The base value is the sweep's own
    full-rank step, H(target|given) of the state itself: the last point when
    the schedule ends at full rank, otherwise one more step that the table
    does not list.
    """
    rho = resolve_state(state_spec)
    target_labels, given_labels, _ = rho.layout.split(target, given)
    full = tuple(math.prod(map(rho.layout.dim_of, side)) for side in (target_labels, given_labels))
    if schedule is None:
        top = min(full) if max_rank is None else as_integer(max_rank, "max_rank")
        schedule = diagonal_schedule(min(as_integer(min_rank, "min_rank"), top), top, stride)
    pairs = _validate_schedule(schedule, full)
    # a schedule that stops short of full rank gets one more step
    extra = [full] if pairs[-1] != full else []
    points = conditional_entropy_sweep(rho, target_labels, given_labels, pairs + extra, mode=mode)
    base_value = points[-1].cond_entropy_nats
    points = points[: len(pairs)]
    final = next((p for p in reversed(points) if not p.skipped), None)
    summary: dict[str, Any] = {
        "base_cond_entropy_nats": base_value,
        "steps": len(points),
        "skipped_steps": sum(1 for p in points if p.skipped),
    }
    if final is not None:
        summary["final_rank_A"] = final.rank_a
        summary["final_rank_B"] = final.rank_b
        summary["final_lambda"] = final.lam
        summary["final_cond_entropy_nats"] = final.cond_entropy_nats
        gap = final.cond_entropy_nats - base_value
        summary["final_gap_to_base"] = abs(gap) if math.isfinite(gap) else math.inf
    config = {
        "state": str(state_spec),
        "target": list(target_labels),
        "given": list(given_labels),
        "schedule": [[n, k] for n, k in pairs],
        "mode": str(mode),
    }
    return {"kind": "sweep", "config": config, "summary": summary, "points": points}


__all__ = [
    "PropertyReport",
    "CHECKS",
    "report_to_dict",
    "resolve_state",
    "run_check",
    "replay_report",
    "run_suite",
    "run_converge",
]
