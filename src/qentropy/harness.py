"""Randomized property checks with reproducible, replayable reports.

Each check draws seeded random states (and channels where relevant), measures
a margin per trial, and aggregates into a :class:`PropertyReport`. Margins
are raw slack values with no tolerance folded in: for an inequality
``lhs <= rhs`` the margin is ``rhs - lhs``; for an identity the margin is
``-|residual|``. A report passes iff its worst margin is at least
``-tolerance``, so equalities and boundary saturations pass while genuine
violations fail.

The trial-based checks are entries of one table (layout labels, defaults,
named fixed trials, per-trial draw, margin) run by one runner; the
continuity check follows a deterministic schedule and builds its own report.

Reproducibility contract: trial i uses seed ``master_seed XOR i``, every
report embeds its full effective config, and re-running a config reproduces
the report exactly (see :func:`replay_report`).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence, TypeAlias

import numpy as np

from .catalog import bell, build_state, ghz
from .channels import (
    KrausChannel,
    complementary,
    coherent_information,
    conditional_entropy_via_coherent_info,
    haar_channel,
    purify,
)
from .entropy import (
    conditional_entropy,
    conditional_entropy_standard,
    von_neumann_entropy,
)
from .errors import InvalidStateError, PreconditionError
from .rng import generator, trial_seed
from .states import (
    DensityMatrix,
    PureState,
    SubsystemLayout,
    ginibre_state,
    haar_pure_state,
    partial_trace,
    tensor,
)
from .tolerances import SATURATION_BAND
from .truncation import ProjectorMode, conditional_entropy_sweep


def resolve_state(spec: str) -> DensityMatrix:
    """Build a state from a catalog spec string, or load it from a JSON file.

    Anything that names an existing file (or ends in .json) is treated as a
    state document and validated; everything else goes through the catalog
    grammar ``name:key=value,...``.
    """
    import os

    from .fileio import load_state
    from .states import validate

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
    (negative would mean violation beyond rounding); ``worst_seed`` is the
    trial seed that produced it, so a failure can be reproduced in isolation.
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


def _assemble(name: str, config: dict[str, Any], trials: Sequence[_Trial]) -> PropertyReport:
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
        property=name,
        trials=len(trials),
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
_Args = tuple[Any, ...]
_Named = tuple[str, _Args]


@dataclass(frozen=True)
class _TrialCheck:
    """One trial-based property check, as data.

    ``fixed(rng, layout, config)`` lists the named fixed trials as
    ``(label, args)`` pairs, drawing from ``generator(seed)`` in order;
    ``draw(rng, layout, config)`` gives random trial i's args from its own
    ``generator(trial_seed(seed, i))``; ``margin(*args)`` returns the raw
    slack and the values recorded with it. The layout pairs ``labels`` with
    the effective dims.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    trials: int
    tolerance: float
    margin: Callable[..., tuple[float, dict[str, Any]]]
    draw: Callable[[_Rng, SubsystemLayout, _Config], _Args]
    fixed: Callable[[_Rng, SubsystemLayout, _Config], list[_Named]] = lambda rng, layout, cfg: []
    env_dim: int | None = None

    def defaults(self) -> dict[str, Any]:
        out = {"dims": self.dims, "trials": self.trials, "seed": 0, "tolerance": self.tolerance}
        if self.env_dim is not None:
            out["env_dim"] = self.env_dim
        return out


def _part(layout: SubsystemLayout, *labels: str) -> SubsystemLayout:
    return SubsystemLayout([(lab, layout.dim_of(lab)) for lab in labels])


def _ginibre(rng: _Rng, layout: SubsystemLayout, config: _Config) -> _Args:
    return (ginibre_state(rng, layout),)


def _haar_pure(rng: _Rng, layout: SubsystemLayout, config: _Config) -> _Args:
    return (haar_pure_state(rng, layout),)


def _duality_margin(state: PureState) -> tuple[float, dict[str, float]]:
    """H(C|A) + H(C|B) = 0 for pure states on A x B x C; margin -|sum|."""
    rho = state.as_density()
    h_ca = conditional_entropy(partial_trace(rho, ("A", "C")), "C", "A")
    h_cb = conditional_entropy(partial_trace(rho, ("B", "C")), "C", "B")
    return -abs(h_ca + h_cb), {"h_c_given_a": h_ca, "h_c_given_b": h_cb}


def _duality_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # a product pure state, where both terms vanish individually
    parts = [haar_pure_state(rng, _part(layout, lab)) for lab in layout.labels]
    product_amp = parts[0].amplitudes
    for part in parts[1:]:
        product_amp = np.kron(product_amp, part.amplitudes)
    return [("product", (PureState(product_amp, layout),))]


def _bound_margin(rho: DensityMatrix) -> tuple[float, dict[str, float]]:
    """|H(C|A)| <= H(rho_C) on A x C; margin H(rho_C) - |H(C|A)|."""
    target = rho.layout.labels[-1]
    given = rho.layout.labels[0]
    h_c = von_neumann_entropy(partial_trace(rho, target))
    h_cond = conditional_entropy(rho, target, given)
    return h_c - abs(h_cond), {"h_target": h_c, "cond_entropy": h_cond}


def _bound_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # both saturate: a maximally entangled pair from below, a product from above
    first = ginibre_state(rng, _part(layout, "A"))
    product = tensor(first, ginibre_state(rng, _part(layout, "C")))
    return [("bell", (bell(2).as_density(),)), ("product", (product,))]


def _monotonicity_margin(rho: DensityMatrix) -> tuple[float, dict[str, float]]:
    """H(A|BC) <= H(A|B) on A x B x C; margin H(A|B) - H(A|BC)."""
    h_ab = conditional_entropy(partial_trace(rho, ("A", "B")), "A", "B")
    h_abc = conditional_entropy(rho, "A", ("B", "C"))
    return h_ab - h_abc, {"h_a_given_b": h_ab, "h_a_given_bc": h_abc}


def _monotonicity_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # GHZ, where the gap is exactly ln 2, and a trivial (1-dimensional)
    # conditioner, where the two sides are equal
    trivial = SubsystemLayout(_part(layout, "A", "B").subsystems + (("C", 1),))
    return [
        ("ghz", (ghz(3, 2).as_density(),)),
        ("trivial-conditioner", (ginibre_state(rng, trivial),)),
    ]


def _concavity_margin(
    rho1: DensityMatrix, rho2: DensityMatrix, alpha: float
) -> tuple[float, dict[str, float]]:
    """H(A|B) of a mixture dominates the mixture of H(A|B); margin is the excess."""
    mix = DensityMatrix(alpha * rho1.entries + (1.0 - alpha) * rho2.entries, rho1.layout)
    h_mix = conditional_entropy(mix, "A", "B")
    h1 = conditional_entropy(rho1, "A", "B")
    h2 = conditional_entropy(rho2, "A", "B")
    return h_mix - alpha * h1 - (1.0 - alpha) * h2, {
        "alpha": alpha,
        "h_mix": h_mix,
        "h_first": h1,
        "h_second": h2,
    }


def _concavity_draw(rng: _Rng, layout: SubsystemLayout, config: _Config) -> _Args:
    alpha = float(rng.uniform())
    return ginibre_state(rng, layout), ginibre_state(rng, layout), alpha


def _concavity_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # the equality cases alpha = 0 and rho1 = rho2
    first, second = ginibre_state(rng, layout), ginibre_state(rng, layout)
    return [("alpha-zero", (first, second, 0.0)), ("equal-states", (first, first, 0.37))]


def _subadditivity_margin(rho: DensityMatrix) -> tuple[float, dict[str, float]]:
    """Three subadditivity relations on A x B x C x D; margin is the worst of

    * ``H(A|C) + H(B|D) - H(AB|CD)`` (pairwise subadditivity),
    * ``H(A|CD) + H(B|CD) - H(AB|CD)`` (shared-conditioner intermediate),
    * ``-|chain residual|`` for the identity
      H(AB|CD) = H(A|CD) + H(B|CD) - (H(A|CD) - H(A|BCD)).
    """
    h_ab_cd = conditional_entropy(rho, ("A", "B"), ("C", "D"))
    h_a_c = conditional_entropy(partial_trace(rho, ("A", "C")), "A", "C")
    h_b_d = conditional_entropy(partial_trace(rho, ("B", "D")), "B", "D")
    h_a_cd = conditional_entropy(partial_trace(rho, ("A", "C", "D")), "A", ("C", "D"))
    h_b_cd = conditional_entropy(partial_trace(rho, ("B", "C", "D")), "B", ("C", "D"))
    h_a_bcd = conditional_entropy(rho, "A", ("B", "C", "D"))
    pairwise = h_a_c + h_b_d - h_ab_cd
    shared = h_a_cd + h_b_cd - h_ab_cd
    chain = -abs(h_ab_cd - h_a_cd - h_b_cd + (h_a_cd - h_a_bcd))
    return min(pairwise, shared, chain), {
        "pairwise_margin": pairwise,
        "shared_margin": shared,
        "chain_residual_margin": chain,
    }


def _subadditivity_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # rho_AC x rho_BD, the equality case of the pairwise relation
    ac = ginibre_state(rng, _part(layout, "A", "C"))
    bd = ginibre_state(rng, _part(layout, "B", "D"))
    return [("product", (tensor(ac, bd),))]


def _coherent_duality_margin(
    rho: DensityMatrix, channel: KrausChannel
) -> tuple[float, dict[str, float]]:
    """I_c(rho, channel) + I_c(rho, complementary channel) = 0; margin -|sum|."""
    ic = coherent_information(rho, channel)
    ic_comp = coherent_information(rho, complementary(channel))
    return -abs(ic + ic_comp), {"coherent_info": ic, "coherent_info_complement": ic_comp}


def _channel(rng: _Rng, layout: SubsystemLayout, config: _Config) -> KrausChannel:
    # layout is (input A) x (output B) of the channel
    return haar_channel(rng, layout.dim_of("A"), layout.dim_of("B"), config["env_dim"])


def _coherent_duality_draw(rng: _Rng, layout: SubsystemLayout, config: _Config) -> _Args:
    return ginibre_state(rng, _part(layout, "A")), _channel(rng, layout, config)


def _coherent_duality_fixed(rng: _Rng, layout: SubsystemLayout, config: _Config) -> list[_Named]:
    # the identity channel (terms H(rho) and -H(rho)) and a pure input (both vanish)
    single_a = _part(layout, "A")
    identity = (ginibre_state(rng, single_a), KrausChannel([np.eye(single_a.total_dim)]))
    pure = haar_pure_state(rng, single_a).as_density()
    return [("identity-channel", identity), ("pure-state", (pure, _channel(rng, layout, config)))]


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


_TRIAL_CHECKS: dict[str, _TrialCheck] = {
    "duality": _TrialCheck(
        labels=("A", "B", "C"), dims=(2, 2, 2), trials=500, tolerance=1e-7,
        margin=_duality_margin, draw=_haar_pure, fixed=_duality_fixed,
    ),
    "bound": _TrialCheck(
        labels=("A", "C"), dims=(3, 3), trials=1000, tolerance=1e-8,
        margin=_bound_margin, draw=_ginibre, fixed=_bound_fixed,
    ),
    "coherent-duality": _TrialCheck(
        labels=("A", "B"), dims=(3, 3), trials=300, tolerance=1e-7, env_dim=3,
        margin=_coherent_duality_margin, draw=_coherent_duality_draw,
        fixed=_coherent_duality_fixed,
    ),
    "monotonicity": _TrialCheck(
        labels=("A", "B", "C"), dims=(2, 2, 2), trials=500, tolerance=1e-8,
        margin=_monotonicity_margin, draw=_ginibre, fixed=_monotonicity_fixed,
    ),
    "concavity": _TrialCheck(
        labels=("A", "B"), dims=(2, 3), trials=500, tolerance=1e-8,
        margin=_concavity_margin, draw=_concavity_draw, fixed=_concavity_fixed,
    ),
    "subadditivity": _TrialCheck(
        labels=("A", "B", "C", "D"), dims=(2, 2, 2, 2), trials=300, tolerance=1e-7,
        margin=_subadditivity_margin, draw=_ginibre, fixed=_subadditivity_fixed,
    ),
    "formula-standard": _TrialCheck(
        labels=("A", "C"), dims=(2, 3), trials=500, tolerance=1e-8,
        margin=_formula_standard_margin, draw=_ginibre,
    ),
    "formula-coherent": _TrialCheck(
        labels=("A", "C"), dims=(2, 3), trials=500, tolerance=1e-7,
        margin=_formula_coherent_margin, draw=_ginibre,
    ),
}  # fmt: skip


def _run_trials(name: str, **overrides: Any) -> PropertyReport:
    """Run a table entry: its fixed trials, then random trial i from ``trial_seed(seed, i)``."""
    check = _TRIAL_CHECKS[name]
    params = {**check.defaults(), **overrides}
    seed = int(params["seed"])
    config = {
        "property": name,
        "dims": [int(d) for d in params["dims"]],
        "trials": int(params["trials"]),
        "seed": seed,
        "tolerance": float(params["tolerance"]),
    }
    if check.env_dim is not None:
        config["env_dim"] = int(params["env_dim"])
    layout = SubsystemLayout(zip(check.labels, config["dims"], strict=True))
    results = [
        _Trial(label, seed, *check.margin(*args))
        for label, args in check.fixed(generator(seed), layout, config)
    ]
    for i in range(config["trials"]):
        ts = trial_seed(seed, i)
        args = check.draw(generator(ts), layout, config)
        results.append(_Trial(str(i), ts, *check.margin(*args)))
    return _assemble(name, config, results)


def check_continuity_smoke(
    base: str = "werner:p=0.5",
    steps: int = 20,
    seed: int = 0,
    tolerance: float = 1e-6,
) -> PropertyReport:
    """Conditional entropy is continuous along a shrinking mixing schedule.

    Mixes the base state with the maximally mixed state at eps = 2^-n for
    n = 1..steps and tracks |H(target|given)(mixed) - H(target|given)(base)|.
    The margin is the worse of (a) minus the final deviation, so the check
    passes only if the deviation ends below tolerance, and (b) the smallest
    consecutive decrease, so any rise beyond tolerance also fails. The
    schedule is deterministic; the seed is carried only for config uniformity.
    :func:`run_check` validates the parameters (``steps`` at least 2).
    """
    steps = int(steps)
    rho0 = build_state(base)
    labels = rho0.layout.labels
    if len(labels) < 2:
        raise PreconditionError(f"base state must be multipartite, got labels {labels}")
    target, given = labels[0], labels[1:]
    config = {
        "property": "continuity",
        "base": str(base),
        "steps": steps,
        "seed": int(seed),
        "tolerance": float(tolerance),
    }
    dim = rho0.layout.total_dim
    sigma = np.eye(dim) / dim
    h_base = conditional_entropy(rho0, target, given)
    deviations = []
    for n in range(1, steps + 1):
        eps = 2.0**-n
        mixed = DensityMatrix((1.0 - eps) * rho0.entries + eps * sigma, rho0.layout)
        h_mixed = conditional_entropy(mixed, target, given)
        deviations.append((eps, abs(h_mixed - h_base)))
    final_margin = -deviations[-1][1]
    shrink_margin = min(
        prev - nxt for (_, prev), (_, nxt) in zip(deviations, deviations[1:])
    )
    margin = min(final_margin, shrink_margin)
    record = {
        "trial": "schedule",
        "seed": int(seed),
        "margin": margin,
        "base_cond_entropy": h_base,
        "deviations": [[eps, dev] for eps, dev in deviations],
    }
    verdict = "pass" if margin >= -tolerance else "fail"
    return PropertyReport(
        property="continuity",
        trials=steps,
        seed=int(seed),
        tolerance=float(tolerance),
        worst_margin=float(margin),
        worst_seed=int(seed),
        verdict=verdict,
        config=config,
        saturated=(),
        records=(record,),
    )


def report_to_dict(report: PropertyReport) -> dict[str, Any]:
    """Flatten a report for serialization; feed through json_ready before dumping."""
    return {
        "property": report.property,
        "verdict": report.verdict,
        "trials": report.trials,
        "seed": report.seed,
        "tolerance": report.tolerance,
        "worst_margin": report.worst_margin,
        "worst_seed": report.worst_seed,
        "units": "nats",
        "config": report.config,
        "saturated": list(report.saturated),
        "records": list(report.records),
    }


CHECKS: dict[str, Callable[..., PropertyReport]] = {
    **{name: partial(_run_trials, name) for name in _TRIAL_CHECKS},
    "continuity": check_continuity_smoke,
}

# the keywords each check takes, with their defaults
_PARAMETERS: dict[str, dict[str, Any]] = {
    **{name: check.defaults() for name, check in _TRIAL_CHECKS.items()},
    "continuity": {
        k: p.default for k, p in inspect.signature(check_continuity_smoke).parameters.items()
    },
}
_MINIMUM = {"trials": 1, "steps": 2, "env_dim": 1, "seed": 0}


def run_check(name: str, **overrides: Any) -> PropertyReport:
    """Run one named property check with keyword overrides of its defaults.

    Overrides of None are dropped. An override the check does not take, a
    count below its minimum, the wrong number of dims, or a negative or
    non-finite tolerance raises :class:`PreconditionError`.
    """
    if name not in CHECKS:
        raise PreconditionError(f"unknown property {name!r}; have {sorted(CHECKS)}")
    declared = _PARAMETERS[name]
    overrides = {k: v for k, v in overrides.items() if v is not None}
    unknown = sorted(set(overrides) - set(declared))
    if unknown:
        raise PreconditionError(
            f"property {name!r} does not take {', '.join(unknown)}; "
            f"it takes {', '.join(sorted(declared))}"
        )
    params = {**declared, **overrides}
    for key, low in _MINIMUM.items():
        if key in params and int(params[key]) < low:
            raise PreconditionError(f"{key} must be at least {low}, got {params[key]}")
    if "dims" in overrides:
        dims = overrides["dims"] = tuple(int(d) for d in overrides["dims"])
        if len(dims) != len(declared["dims"]) or min(dims) < 1:
            raise PreconditionError(
                f"{name!r} needs {len(declared['dims'])} positive dims, got {list(dims)}"
            )
    tolerance = float(params["tolerance"])
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise PreconditionError(f"tolerance must be finite and nonnegative, got {tolerance}")
    return CHECKS[name](**overrides)


def replay_report(config: dict[str, Any]) -> PropertyReport:
    """Re-run a check from a report's embedded config; output matches the original."""
    config = dict(config)
    name = config.pop("property", None)
    if name is None:
        raise PreconditionError("config has no 'property' field")
    return run_check(name, **config)


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
    dimension) with the given stride.
    """
    rho = resolve_state(state_spec)
    target_labels = rho.layout.normalize_labels(target)
    given_labels = rho.layout.normalize_labels(given)
    if schedule is None:
        from .truncation import diagonal_schedule

        dim_t = int(np.prod([rho.layout.dim_of(lab) for lab in target_labels]))
        dim_g = int(np.prod([rho.layout.dim_of(lab) for lab in given_labels]))
        top = min(dim_t, dim_g) if max_rank is None else int(max_rank)
        schedule = diagonal_schedule(min(int(min_rank), top), top, int(stride))
    points = conditional_entropy_sweep(rho, target_labels, given_labels, schedule, mode=mode)
    base_value = conditional_entropy(rho, target_labels, given_labels)
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
        "schedule": [[int(n), int(k)] for n, k in schedule],
        "mode": str(mode),
    }
    return {"kind": "sweep", "config": config, "summary": summary, "points": points}


__all__ = [
    "PropertyReport",
    "CHECKS",
    "report_to_dict",
    "resolve_state",
    "check_continuity_smoke",
    "run_check",
    "replay_report",
    "run_suite",
    "run_converge",
]
