"""The three benchmark workloads: their inputs, CLI invocations and oracles.

Every oracle here is computed without the qentropy code under test: closed
forms for the two-mode squeezed vacuum, plain numpy on the input file for
the mixed state, and the verdicts the property suite reports about itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

TMSV_NBAR = 1.0
TMSV_CUTOFF = 30
TMSV_MIN_RANK = 5
MIXED_DIM = 24  # per factor: the joint state is 576 x 576
MIXED_MIN_RANK = 5
SUITE_CHECKS = 9

TOL_POINT = 1e-10
TOL_LIMIT = 1e-6
TOL_BASE = 1e-8


@dataclass
class Outcome:
    """Operations checked in one invocation's output, and the work it did."""

    attempted: int = 0
    failed: int = 0
    work: float = 0.0
    problems: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)


def _num(value: Any) -> float:
    """A JSON number or qentropy's "inf"/"-inf"/"nan" string; None reads as nan."""
    return math.nan if value is None else float(value)


def truncated_geometric_entropy(q: float, n: int) -> float:
    """Shannon entropy (nats) of p_k proportional to q^k on k = 0..n-1."""
    weights = [q**k for k in range(n)]
    total = math.fsum(weights)
    return -math.fsum(w / total * math.log(w / total) for w in weights)


def _entropy_nats(w: np.ndarray) -> float:
    w = w[w > 0.0]
    return float(-np.sum(w * np.log(w)))


def conditional_entropy_oracle(state_file: Path) -> float:
    """H(A|B) = H(AB) - H(B) of a two-factor state file, in plain numpy."""
    doc = json.loads(state_file.read_text())
    da, db = (int(d) for d in doc["dims"])
    data = np.asarray(doc["data"], dtype=np.float64)
    rho = data[..., 0] + 1j * data[..., 1]
    rho = (rho + rho.conj().T) / 2.0
    rho_b = np.einsum("abac->bc", rho.reshape(da, db, da, db))
    return _entropy_nats(np.linalg.eigvalsh(rho)) - _entropy_nats(np.linalg.eigvalsh(rho_b))


class Workload:
    name: str
    work_unit: str
    setup_repeats: int

    def build_inputs(self, seed: int, tmp: Path) -> None:
        """Write the workload's input files; runs in a fresh interpreter."""

    def argv(self, seed: int, tmp: Path, out: Path) -> list[str]:
        raise NotImplementedError

    def warmup_argv(self, seed: int, tmp: Path, out: Path) -> list[str]:
        """A cheap invocation that loads the same code paths, run untimed first."""
        raise NotImplementedError

    def prepare_oracle(self, seed: int, tmp: Path) -> None:
        """Compute anything the checks need once; runs after measuring."""

    def check(self, rc: int, out: Path) -> Outcome:
        raise NotImplementedError


def _sweep_doc(rc: int, out: Path, expected: int, outcome: Outcome) -> list[dict] | None:
    json_path = out.with_suffix(".json")
    if rc != 0 or not json_path.exists():
        for _ in range(expected):
            outcome.record(False, f"converge exited {rc}")
        return None
    doc = json.loads(json_path.read_text())
    points = doc["points"]
    csv_rows = out.with_suffix(".csv").read_text().count("\n") - 1
    if len(points) != expected or csv_rows != expected:
        outcome.record(False, f"{len(points)} JSON / {csv_rows} CSV points, expected {expected}")
    return points


class TmsvSweep(Workload):
    name = "tmsv-sweep"
    work_unit = "sweep point"
    setup_repeats = 9

    def argv(self, seed: int, tmp: Path, out: Path) -> list[str]:
        return ["converge", "--no-timestamp", "--out", str(out)]

    def warmup_argv(self, seed: int, tmp: Path, out: Path) -> list[str]:
        return ["converge", "--state", "tmsv:nbar=1,cutoff=8", "--no-timestamp", "--out", str(out)]

    def check(self, rc: int, out: Path) -> Outcome:
        ranks = list(range(TMSV_MIN_RANK, TMSV_CUTOFF + 1))
        outcome = Outcome()
        points = _sweep_doc(rc, out, len(ranks), outcome)
        if points is None:
            return outcome
        q = TMSV_NBAR / (TMSV_NBAR + 1.0)
        by_rank = {p["rank_A"]: p for p in points if p["rank_A"] == p["rank_B"]}
        for n in ranks:
            p = by_rank.get(n)
            if p is None:
                outcome.record(False, f"rank {n}: missing")
                continue
            value, diff = _num(p["cond_entropy_nats"]), _num(p["diff"])
            err = abs(value + truncated_geometric_entropy(q, n))
            ok = err <= TOL_POINT and abs(diff) <= TOL_POINT
            if n == TMSV_CUTOFF:
                ok = ok and abs(value + 2.0 * math.log(2.0)) <= TOL_LIMIT
            outcome.record(ok, f"rank {n}: value error {err:.3e}, diff {diff:.3e}")
        outcome.work = len(points)
        return outcome


class MixedEigenSweep(Workload):
    name = "mixed-eigen-sweep"
    work_unit = "sweep point"
    setup_repeats = 3

    def __init__(self) -> None:
        self.oracle_base: float | None = None

    @staticmethod
    def state_file(tmp: Path) -> Path:
        return tmp / "mixed_state.json"

    def build_inputs(self, seed: int, tmp: Path) -> None:
        from qentropy.fileio import save_state
        from qentropy.states import SubsystemLayout, random_density_matrix

        layout = SubsystemLayout([("A", MIXED_DIM), ("B", MIXED_DIM)])
        rho = random_density_matrix(MIXED_DIM * MIXED_DIM, seed=seed, layout=layout)
        save_state(self.state_file(tmp), rho)

    def argv(self, seed: int, tmp: Path, out: Path) -> list[str]:
        return [
            "converge",
            "--state",
            str(self.state_file(tmp)),
            "--mode",
            "eigenbasis",
            "--no-timestamp",
            "--out",
            str(out),
        ]

    def warmup_argv(self, seed: int, tmp: Path, out: Path) -> list[str]:
        return [
            "converge", "--state", "werner:p=0.5", "--mode", "eigenbasis",
            "--min-rank", "1", "--no-timestamp", "--out", str(out),
        ]  # fmt: skip

    def prepare_oracle(self, seed: int, tmp: Path) -> None:
        self.oracle_base = conditional_entropy_oracle(self.state_file(tmp))

    def check(self, rc: int, out: Path) -> Outcome:
        ranks = list(range(MIXED_MIN_RANK, MIXED_DIM + 1))
        outcome = Outcome()
        points = _sweep_doc(rc, out, len(ranks), outcome)
        if points is None:
            return outcome
        summary = json.loads(out.with_suffix(".json").read_text())["summary"]
        base = _num(summary["base_cond_entropy_nats"])
        base_err = abs(base - self.oracle_base)
        by_rank = {p["rank_A"]: p for p in points if p["rank_A"] == p["rank_B"]}
        for n in ranks:
            p = by_rank.get(n)
            if p is None:
                outcome.record(False, f"rank {n}: missing")
                continue
            value, diff = _num(p["cond_entropy_nats"]), _num(p["diff"])
            ok = math.isfinite(value) and diff >= -TOL_POINT
            if n == MIXED_DIM:
                ok = ok and abs(value - base) <= TOL_POINT and base_err <= TOL_BASE
            outcome.record(
                ok, f"rank {n}: value {value!r}, diff {diff:.3e}, base error {base_err:.3e}"
            )
        outcome.work = len(points)
        return outcome


class PropertySuite(Workload):
    name = "property-suite"
    work_unit = "property trial"
    setup_repeats = 9

    def argv(self, seed: int, tmp: Path, out: Path) -> list[str]:
        return ["check", "--no-timestamp", "--seed", str(seed), "--out", str(out.with_suffix(".json"))]

    def warmup_argv(self, seed: int, tmp: Path, out: Path) -> list[str]:
        return ["check", "--no-timestamp", "--property", "coherent-duality", "--trials", "20",
                "--seed", str(seed), "--out", str(out.with_suffix(".json"))]  # fmt: skip

    def check(self, rc: int, out: Path) -> Outcome:
        outcome = Outcome()
        json_path = out.with_suffix(".json")
        if rc not in (0, 1) or not json_path.exists():
            for _ in range(SUITE_CHECKS):
                outcome.record(False, f"check exited {rc}")
            return outcome
        reports = json.loads(json_path.read_text())["reports"]
        for rep in reports:
            outcome.record(
                rep["verdict"] == "pass",
                f"{rep['property']}: {rep['verdict']}, worst margin {rep['worst_margin']!r}",
            )
        for _ in range(SUITE_CHECKS - len(reports)):
            outcome.record(False, "report missing")
        if (rc == 0) != (outcome.failed == 0):
            outcome.record(False, f"exit code {rc} disagrees with the verdicts")
        outcome.work = sum(int(rep["trials"]) for rep in reports)
        return outcome


WORKLOADS: dict[str, Workload] = {w.name: w for w in (TmsvSweep(), MixedEigenSweep(), PropertySuite())}
