"""Write every trial of every property check, for a per-trial comparison.

    PYTHONPATH=<old>/src python3 tools/trial_margins.py OLD_TRIALS
    PYTHONPATH=<new>/src python3 tools/trial_margins.py NEW_TRIALS
    python3 tools/compare_outputs.py OLD_TRIALS NEW_TRIALS

A report keeps only its worst random trial, and in an identity check that
trial is the argmax of rounding noise: a change that moves rounding can move
``worst_seed`` while every trial still agrees. This tool shows whether they
do. It runs each check of ``harness._TRIAL_CHECKS`` at its defaults for seeds
0 and 7 with ``harness._assemble`` wrapped in this process, and writes
``CHECK-seedSEED.json`` to OUTDIR: the report's config and, for every trial
the assembler received, its label, seed, margin and values; the continuity
check's one trial, its schedule, carries every point's deviation. Trials
keep their order, so ``tools/compare_outputs.py`` compares them field by
field. BLAS is pinned to one thread before numpy loads, so eigensolves round
the same way on every run.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SEEDS = (0, 7)


def write_trials(outdir: str, name: str, seed: int, **overrides: Any) -> str:
    """Run check ``name`` at ``seed`` with ``overrides`` of its defaults and write
    its config and every trial to OUTDIR; returns the file's path."""
    from qentropy import harness

    seen: list = []
    assemble = harness._assemble

    def recording(config, trials):
        seen.extend(trials)
        return assemble(config, trials)

    harness._assemble = recording
    try:
        report = harness.run_check(name, seed=seed, **overrides)
    finally:
        harness._assemble = assemble
    trials = [{"trial": t.label, "seed": t.seed, "margin": t.margin, **t.values} for t in seen]
    path = os.path.join(outdir, f"{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config": report.config, "trials": trials}, indent=1) + "\n")
    return path


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    # before anything loads numpy: threaded eigensolves may round differently
    os.environ.update(PINNED_THREADS)
    from qentropy.harness import _TRIAL_CHECKS

    os.makedirs(argv[0], exist_ok=True)
    for name in _TRIAL_CHECKS:
        for seed in SEEDS:
            write_trials(argv[0], name, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
