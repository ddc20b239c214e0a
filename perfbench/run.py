"""qentropy benchmark runner: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload tmsv-sweep --seed 1 --seconds 30 --trace 0

Each workload runs ``qentropy.cli.main(argv)`` in this process, in a closed
loop with one client, for ``--seconds`` seconds (at least one invocation;
the last one may run past the limit). Set-up runs in fresh interpreters.
Every invocation's output is checked against an oracle afterwards.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` alternates plain and traced invocations and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller result file with provenance is kept
under ``.perfbench-out/results/``; inputs and outputs go to a temporary
directory under ``.perfbench-out/`` that is removed on exit. Exit code 0
means every output was correct.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before anything loads numpy: threaded eigensolves
# on a small shared machine spread far more from run to run. Set-up children
# inherit the same environment.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import ModuleType  # noqa: E402
from typing import Any, Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
SETUP_TIMEOUT_S = 120

# name -> (unit, better); BENCHMARK.json lists the same metrics
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def load_cli() -> ModuleType:
    """Import qentropy.cli from this checkout's sources, and only from there."""
    if not (SRC / "qentropy" / "__init__.py").is_file():
        raise SystemExit(f"error: no qentropy sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qentropy.cli

    if Path(qentropy.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: imported qentropy from {qentropy.cli.__file__}, not {SRC}")
    return qentropy.cli


def provenance(seed: int) -> dict[str, Any]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "pinned_threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "seed": seed,
    }


def time_setup(workload: Any, seed: int, tmp: Path, repeats: int, warm: bool) -> list[float]:
    """Wall time of each fresh-interpreter set-up (import + write inputs)."""
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    cmd = [
        sys.executable, str(HERE / "make_inputs.py"),
        "--workload", workload.name, "--seed", str(seed), "--dir", str(tmp),
    ]  # fmt: skip
    if warm:  # fill the bytecode and file caches once, untimed
        _run_child(cmd + ["--import-only"], env)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _run_child(cmd, env)
        times.append(time.perf_counter() - start)
    return times


def _run_child(cmd: list[str], env: dict[str, str]) -> None:
    # Capturing the output makes run() wait on the pipes, which wakes as soon
    # as the child exits; waiting with a timeout alone polls in 50 ms steps.
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"error: set-up exited {done.returncode}: {' '.join(cmd)}")


@dataclass
class Invocation:
    rc: int
    wall_s: float
    out: Path


class Invoker:
    """Runs one CLI invocation per call, each with its own output directory."""

    def __init__(self, cli: ModuleType, seed: int, tmp: Path):
        self.cli, self.seed, self.tmp = cli, seed, tmp
        self.count = 0

    def __call__(self, make_argv: Callable[[int, Path, Path], list[str]]) -> Invocation:
        self.count += 1
        out_dir = self.tmp / f"inv{self.count}"
        out_dir.mkdir()
        out = out_dir / "out"
        argv = make_argv(self.seed, self.tmp, out)
        gc.collect()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = self.cli.main(argv)  # attribute lookup, so a traced main is seen
        return Invocation(rc, time.perf_counter() - start, out)


def bytes_written(inv: Invocation) -> int:
    return sum(p.stat().st_size for p in inv.out.parent.iterdir())


def check_all(workload: Any, invocations: list[Invocation]) -> tuple[int, int, float, list[str]]:
    attempted = failed = 0
    work = 0.0
    problems: list[str] = []
    for inv in invocations:
        outcome = workload.check(inv.rc, inv.out)
        attempted += outcome.attempted
        failed += outcome.failed
        work += outcome.work
        problems += outcome.problems
        shutil.rmtree(inv.out.parent)
    return attempted, failed, work, problems


def run_plain(cli: ModuleType, workload: Any, seed: int, seconds: float, tmp: Path) -> dict:
    setup = time_setup(workload, seed, tmp, workload.setup_repeats, warm=True)
    invoke = Invoker(cli, seed, tmp)
    shutil.rmtree(invoke(workload.warmup_argv).out.parent)
    runs: list[Invocation] = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(invoke(workload.argv))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.prepare_oracle(seed, tmp)
    walls = [r.wall_s for r in runs]
    attempted, failed, work, problems = check_all(workload, runs)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "work_per_s": work / sum(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": setup, "wall_s": walls}
    return dict(metrics=metrics, units=END_TO_END, samples=samples,
                attempted=attempted, failed=failed, problems=problems)  # fmt: skip


def run_traced(cli: ModuleType, workload: Any, seed: int, seconds: float, tmp: Path, stem: Path) -> dict:
    from layers import PER_LAYER, instrument, layer_metrics
    from spans import Patcher, SpanRecorder

    time_setup(workload, seed, tmp, 1, warm=False)
    invoke = Invoker(cli, seed, tmp)
    shutil.rmtree(invoke(workload.warmup_argv).out.parent)
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    per_invocation: list[dict[str, float]] = []
    first: SpanRecorder | None = None
    start = time.perf_counter()
    last_pair = 0.0
    # stop before a pair that would end past the limit, but run at least one
    while not traced or time.perf_counter() - start + last_pair <= seconds:
        pair_start = time.perf_counter()
        plain.append(invoke(workload.argv))
        recorder = SpanRecorder()
        with Patcher() as patcher:
            instrument(recorder, patcher)
            traced.append(invoke(workload.argv))
        row = layer_metrics(recorder)
        row["fileio.bytes_written"] = bytes_written(traced[-1])
        per_invocation.append(row)
        if first is None:
            first = recorder
        last_pair = time.perf_counter() - pair_start
    spans_file = stem.with_suffix(".spans.csv.gz")
    first.write_csv_gz(str(spans_file))
    workload.prepare_oracle(seed, tmp)
    plain_walls = [r.wall_s for r in plain]
    traced_walls = [r.wall_s for r in traced]
    attempted, failed, _, problems = check_all(workload, plain + traced)
    metrics = {
        key: statistics.fmean(row[key] for row in per_invocation)
        for key in PER_LAYER
        if key != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    samples = {"wall_s": plain_walls, "traced_wall_s": traced_walls}
    units = {key: PER_LAYER[key] for key in metrics}
    return dict(metrics=metrics, units=units, samples=samples, attempted=attempted,
                failed=failed, problems=problems, spans_file=spans_file.name)  # fmt: skip


def report(workload: Any, args: argparse.Namespace, result: dict, prov: dict, result_file: Path) -> None:
    attempted, failed = result["attempted"], result["failed"]
    counts = {k: len(v) for k, v in result["samples"].items()}
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  samples {counts}")
    for key, value in result["metrics"].items():
        print(f"  {key:<46} {value:>16.6g} {result['units'][key][0]}")
    print(f"  {'error_rate':<46} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} checked operations failed)")  # fmt: skip
    for problem in result["problems"][:5]:
        print(f"  problem: {problem}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"result file {result_file.relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cli = load_cli()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    stem = results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_ROOT))
    try:
        if args.trace:
            result = run_traced(cli, workload, args.seed, args.seconds, tmp, stem)
        else:
            result = run_plain(cli, workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    prov = provenance(args.seed)
    correct = result["failed"] == 0
    result_file = stem.with_suffix(".json")
    record = {"workload": workload.name, "trace": args.trace, "seconds": args.seconds,
              "work_unit": workload.work_unit, "correct": correct, "provenance": prov,
              "error_rate": result["failed"] / result["attempted"], **result}  # fmt: skip
    record["units"] = {k: v[0] for k, v in result["units"].items()}
    result_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    report(workload, args, result, prov, result_file)
    metrics = {k: {"value": v, "unit": result["units"][k][0]} for k, v in result["metrics"].items()}
    summary = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}  # fmt: skip
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
