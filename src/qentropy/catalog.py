"""Named reference states with closed-form entropic behavior.

A pure family's builder returns a :class:`PureState`, any other a
:class:`DensityMatrix`, and :func:`build_state` returns what the
family builds: every entropy and every sweep takes a pure family as its
amplitudes, and densifies it nowhere. Infinite families (thermal,
two-mode squeezed vacuum) are truncated at a Fock cutoff and renormalized;
their analytic tail-mass helpers quantify what the truncation discarded,
which is what convergence sweeps measure numerically.

:data:`CATALOG` maps each family name to its builder. Catalog grammar for
the command line: ``name:key=value,key=value`` with integer, float, or
bare-string values, e.g. ``tmsv:nbar=1,cutoff=30``; the accepted keys are
the builder's parameters.
"""

from __future__ import annotations

import inspect
import math
import string
from typing import Callable

import numpy as np

from .errors import ParseError, PreconditionError, QEntropyError, as_integer
from .states import DensityMatrix, PureState, State, SubsystemLayout


def g_function(nbar: float) -> float:
    """Entropy in nats of an untruncated thermal state with mean occupation nbar.

    g(nbar) = (nbar + 1) ln(nbar + 1) - nbar ln(nbar), with g(0) = 0.
    """
    nbar = float(nbar)
    if nbar < 0:
        raise PreconditionError(f"mean occupation must be nonnegative, got {nbar}")
    if nbar == 0.0:
        return 0.0
    return (nbar + 1.0) * math.log(nbar + 1.0) - nbar * math.log(nbar)


def thermal_tail_mass(nbar: float, cutoff: int) -> float:
    """Probability mass of the untruncated thermal state at or above the cutoff.

    The occupation distribution is geometric with ratio q = nbar/(nbar+1),
    so the tail is q**cutoff.
    """
    if nbar < 0:
        raise PreconditionError(f"mean occupation must be nonnegative, got {nbar}")
    if nbar == 0.0:
        return 0.0
    q = nbar / (nbar + 1.0)
    return q ** as_integer(cutoff, "cutoff")


def tmsv_tail_mass(nbar: float, cutoff: int) -> float:
    """Schmidt-weight mass of the untruncated two-mode squeezed vacuum above the cutoff.

    The Schmidt weights are geometric with ratio tanh^2 r = nbar / (nbar + 1),
    so this coincides with the thermal tail at the same mean occupation.
    """
    return thermal_tail_mass(nbar, cutoff)


def bell(dim: int = 2) -> PureState:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> on labels A, B:
    H(A) = ln d, H(A|B) = -ln d and I(A:B) = 2 ln d."""
    dim = as_integer(dim, "dim")
    if dim < 2:
        raise PreconditionError(f"local dimension must be at least 2, got {dim}")
    layout = SubsystemLayout([("A", dim), ("B", dim)])
    amp = np.zeros(dim * dim)
    amp[np.arange(dim) * (dim + 1)] = 1.0 / math.sqrt(dim)
    return PureState(amp, layout)


def ghz(parties: int = 3, dim: int = 2) -> PureState:
    """(|0..0> + .. + |d-1..d-1>)/sqrt(d) on ``parties`` subsystems labeled A, B, C, ...:
    pairwise marginals are classical, so H(C|A) = 0, while H(A|rest) = -ln d."""
    parties, dim = as_integer(parties, "parties"), as_integer(dim, "dim")
    if parties < 2:
        raise PreconditionError(f"need at least 2 parties, got {parties}")
    if parties > 26:
        raise PreconditionError(f"at most 26 parties supported, got {parties}")
    if dim < 2:
        raise PreconditionError(f"local dimension must be at least 2, got {dim}")
    layout = SubsystemLayout([(string.ascii_uppercase[i], dim) for i in range(parties)])
    amp = np.zeros(dim**parties)
    stride = (dim**parties - 1) // (dim - 1)  # |kk...k> sits at k * (d^{p-1} + .. + 1)
    amp[np.arange(dim) * stride] = 1.0 / math.sqrt(dim)
    return PureState(amp, layout)


def classical_correlated(dim: int = 2) -> DensityMatrix:
    """Uniform classical correlation sum_i |ii><ii| / d on labels A, B:
    H(A|B) = 0 and I(A:B) = ln d."""
    dim = as_integer(dim, "dim")
    if dim < 2:
        raise PreconditionError(f"local dimension must be at least 2, got {dim}")
    layout = SubsystemLayout([("A", dim), ("B", dim)])
    m = np.zeros((dim * dim, dim * dim))
    idx = np.arange(dim) * (dim + 1)
    m[idx, idx] = 1.0 / dim
    return DensityMatrix(m, layout)


def werner(p: float = 0.5) -> DensityMatrix:
    """Singlet fraction mixture p |psi-><psi-| + (1-p) I/4 on labels A, B, p in [0, 1].

    The joint spectrum is (1+3p)/4 once and (1-p)/4 three times; H(A|B) runs
    from ln 2 at p = 0 to -ln 2 at p = 1.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise PreconditionError(f"mixing parameter must lie in [0, 1], got {p}")
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    m = p * (singlet[:, None] * singlet) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(m, SubsystemLayout([("A", 2), ("B", 2)]))


def thermal_fock(nbar: float = 1.0, cutoff: int = 30) -> DensityMatrix:
    """Thermal state truncated to the first ``cutoff`` Fock levels and renormalized.

    Occupation probabilities are geometric, p_n proportional to q^n with
    q = nbar / (nbar + 1). Single subsystem labeled A. The discarded tail of
    the untruncated distribution is :func:`thermal_tail_mass`, and the entropy
    tends to g(nbar) (:func:`g_function`) as the cutoff grows.
    """
    nbar, cutoff = float(nbar), as_integer(cutoff, "cutoff")
    if nbar < 0:
        raise PreconditionError(f"mean occupation must be nonnegative, got {nbar}")
    if cutoff < 1:
        raise PreconditionError(f"cutoff must be at least 1, got {cutoff}")
    if nbar == 0.0:
        probs = np.zeros(cutoff)
        probs[0] = 1.0
    else:
        q = nbar / (nbar + 1.0)
        probs = q ** np.arange(cutoff)
        probs /= probs.sum()
    return DensityMatrix(np.diag(probs), SubsystemLayout([("A", cutoff)]))


def _nbar_from_params(nbar: float | None, r: float | None) -> float:
    if (nbar is None) == (r is None):
        raise PreconditionError("give exactly one of nbar (mean occupation) or r (squeezing)")
    if r is not None:
        return float(math.sinh(float(r)) ** 2)
    return float(nbar)


def tmsv(nbar: float | None = None, r: float | None = None, cutoff: int = 30) -> PureState:
    """Two-mode squeezed vacuum truncated to ``cutoff`` Fock levels per mode.

    The untruncated state is sum_n c_n |n, n> with c_n proportional to
    tanh^n r; parameterize by either the squeezing r or the mean occupation
    per mode nbar = sinh^2 r. Truncation keeps n < cutoff and renormalizes,
    so the result is exactly pure; its marginals equal the truncated thermal
    state at the same nbar. Labels A, B. Untruncated, the Schmidt weights are
    (1 - t^2) t^(2n) with t = tanh r and H(A|B) = -g(nbar) (:func:`g_function`);
    :func:`tmsv_tail_mass` is the weight the cutoff discards.
    """
    occ = _nbar_from_params(nbar, r)
    cutoff = as_integer(cutoff, "cutoff")
    if cutoff < 1:
        raise PreconditionError(f"cutoff must be at least 1, got {cutoff}")
    if occ < 0:
        raise PreconditionError(f"mean occupation must be nonnegative, got {occ}")
    t = math.sqrt(occ / (occ + 1.0))  # tanh r
    weights = t ** np.arange(cutoff)
    weights /= np.linalg.norm(weights)
    layout = SubsystemLayout([("A", cutoff), ("B", cutoff)])
    amp = np.zeros(cutoff * cutoff)
    amp[np.arange(cutoff) * (cutoff + 1)] = weights
    return PureState(amp, layout)


CATALOG: dict[str, Callable[..., State]] = {
    "bell": bell,
    "ghz": ghz,
    "classical": classical_correlated,
    "werner": werner,
    "thermal": thermal_fock,
    "tmsv": tmsv,
}


def _parse_value(text: str) -> int | float | str:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_state_spec(spec: str) -> tuple[str, dict[str, int | float | str]]:
    """Split ``name:key=value,key=value`` into a catalog name and parameters."""
    spec = spec.strip()
    name, sep, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise ParseError(f"empty state name in {spec!r}")
    params: dict[str, int | float | str] = {}
    if sep and rest.strip():
        for item in rest.split(","):
            parts = item.split("=")
            if len(parts) != 2:
                raise ParseError(f"malformed parameter {item!r} in {spec!r}; expected key=value")
            key, value = parts[0].strip(), parts[1].strip()
            if not key or not value:
                raise ParseError(f"malformed parameter {item!r} in {spec!r}; expected key=value")
            if key in params:
                raise ParseError(f"duplicate parameter {key!r} in {spec!r}")
            params[key] = _parse_value(value)
    return name, params


def build_state(spec: str) -> State:
    """Build a catalog state from its textual spec, validating name and parameters.

    The state is the one its family builds: a :class:`PureState` for a pure
    family, never densified; :func:`~.states.as_density` gives its density
    matrix where one is needed.
    """
    name, params = parse_state_spec(spec)
    if name not in CATALOG:
        raise ParseError(f"unknown state family {name!r}; have {sorted(CATALOG)}")
    builder = CATALOG[name]
    accepts = list(inspect.signature(builder).parameters)
    unknown = set(params) - set(accepts)
    if unknown:
        raise ParseError(f"unknown parameters {sorted(unknown)} for {name!r}; accepts {accepts}")
    non_finite = [k for k, v in params.items() if isinstance(v, float) and not math.isfinite(v)]
    if non_finite:
        raise ParseError(f"non-finite parameters {non_finite} for {name!r} in {spec!r}")
    try:
        return builder(**params)
    except QEntropyError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad parameters for {name!r}: {exc}") from exc


__all__ = [
    "CATALOG",
    "bell",
    "ghz",
    "classical_correlated",
    "werner",
    "thermal_fock",
    "tmsv",
    "g_function",
    "thermal_tail_mass",
    "tmsv_tail_mass",
    "parse_state_spec",
    "build_state",
]
