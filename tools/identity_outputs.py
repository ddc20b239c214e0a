"""Write the outputs of a fixed list of qentropy invocations: one run per tree
proves that a change moved no output.

    PYTHONPATH=<old>/src python3 tools/identity_outputs.py OLD_OUT
    PYTHONPATH=<new>/src python3 tools/identity_outputs.py NEW_OUT
    diff -r OLD_OUT NEW_OUT                           # byte identity
    python3 tools/compare_outputs.py OLD_OUT NEW_OUT  # or the agreement bound

Each entry NAME of :data:`INVOCATIONS` runs ``qentropy.cli.main`` of the
``qentropy`` on ``sys.path`` in this process, in OUTDIR with relative paths
only, after the same ``qentropy`` writes the seeded input files. It writes
``NAME.stdout``, ``NAME.stderr`` and ``NAME.exit``, argparse's own exits
included (help text with exit 0, a usage error with exit 2), its ``--out``
files, and:

- ``NAME.trials`` if a check reached the report assembler: per report, in
  order, its config and every trial's label, seed, margin and values. A
  report keeps only its worst random trial, the argmax of rounding noise in
  an identity check; this file shows whether every trial still agrees.
- ``NAME.replay`` for a check report or a sweep on stdout or in its
  ``OUT.json``: ``reproduced`` if re-running its configs renders it again,
  else the first field, in document order, that differs, or the error the
  replay raised. The assembler is restored first, so the replay adds
  nothing to ``NAME.trials``.

An invocation that raises is recorded with exit code 1, as the command line
would end, and its traceback goes to this tool's stderr; the tool exits 1
once every file is written, since a traceback in a new invocation has no old
output to differ from. BLAS is pinned to one thread before numpy loads, so
eigensolves round alike on every run, and ``COLUMNS`` to 80, so argparse
wraps help text alike in every terminal.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from typing import Any

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "COLUMNS": "80",
}

# the seeded input files, written by _write_inputs
STATE_24X24 = "rand576.json"
STATE_24X24_INDENTED = "rand576-indent2.json"
STATE_HUGE_INT = "huge-int.json"
STATE_3PARTY = "rand24.json"
STATE_LEADING = "leading5x4.json"
STATE_DIAGONAL = "diagonal3x4.json"
STATE_MANY_SUBSYSTEMS = "many40.json"
CHANNEL = "channel.json"

_TRIAL_PROPERTIES = (
    "duality",
    "bound",
    "coherent-duality",
    "monotonicity",
    "concavity",
    "subadditivity",
    "formula-standard",
    "formula-coherent",
)
_EIGEN = ("--mode", "eigenbasis", "--min-rank", "1")
_EIGEN_STATES = {
    "werner": "werner:p=0.5",
    "bell": "bell",
    "bell3": "bell:dim=3",
    "classical": "classical",
}


def _check(*args: str) -> list[str]:
    return ["check", *args, "--no-timestamp"]


def _converge(*args: str) -> list[str]:
    # --out NAME follows, added below INVOCATIONS
    return ["converge", *args, "--no-timestamp"]


def _compute(*args: str) -> list[str]:
    return ["compute", *args, "--no-timestamp"]


# name -> argv; every name is also the stem of its output files
INVOCATIONS: dict[str, list[str]] = {
    "check-seed0": _check("--seed", "0"),
    "check-seed7-csv": _check("--seed", "7", "--format", "csv"),
    **{
        f"check-{prop}": _check("--property", prop, "--trials", "3", "--seed", "7")
        for prop in _TRIAL_PROPERTIES
    },
    "check-continuity-bell": _check("--property", "continuity", "--base", "bell"),
    # a full-rank file base on 24 dims: the schedule runs in stacks of 4096 // 24^2 = 7
    "check-continuity-rand24": _check("--property", "continuity", "--base", STATE_3PARTY),
    # the deepest schedule, and one past it: 1 - 2^-54 rounds to 1.0, an exit 2
    "check-continuity-steps53": _check("--property", "continuity", "--steps", "53"),
    "check-continuity-steps60": _check("--property", "continuity", "--steps", "60"),
    "check-duality-dims": _check("--property", "duality", "--dims", "3,2,2"),
    "check-coherent-env": _check("--property", "coherent-duality", "--env-dim", "2"),
    # a partial last block, on shapes other than the defaults: a block of 64
    # trials stacks min(64, 4096 // D^2) at a time, all 64 at D = 6 and D = 4
    "check-formula-coherent-stack": _check(
        "--property", "formula-coherent", "--trials", "120", "--dims", "3,2", "--seed", "5"
    ),
    "check-coherent-duality-stack": _check(
        "--property", "coherent-duality", "--trials", "120", "--dims", "2,3", "--env-dim", "2",
        "--seed", "5",
    ),
    # an alpha and two states per trial, each drawn for a block of 64 trials in one call
    "check-concavity-stack": _check(
        "--property", "concavity", "--trials", "120", "--dims", "3,2", "--seed", "5"
    ),
    # exactly one block, on a block edge: at dims 2,3 one stack of all 64
    # trials, its mixing weights sliced from a full block
    "check-concavity-block64": _check("--property", "concavity", "--trials", "64", "--seed", "5"),
    "check-subadditivity-stack": _check(
        "--property", "subadditivity", "--trials", "260", "--dims", "1,2,2,1", "--seed", "5"
    ),
    "converge-tmsv": _converge(),
    "converge-tmsv-short": _converge(
        "--state", "tmsv:nbar=2,cutoff=12", "--max-rank", "8", "--mode", "eigenbasis"
    ),
    **{
        f"converge-{stem}": _converge("--state", state, *_EIGEN)
        for stem, state in _EIGEN_STATES.items()
    },
    # computational-mode sweeps whose original marginals are diagonal: tied
    # (classical) and deep (tmsv) leading blocks
    "converge-classical-computational": _converge("--state", "classical:dim=3", "--min-rank", "1"),
    "converge-tmsv-deep": _converge("--state", "tmsv:nbar=10,cutoff=60", "--min-rank", "40"),
    # Schmidt weights 2^-(k+1) fall below 1e-11 from rank 37 on
    "converge-tmsv-nbar1-60": _converge("--state", "tmsv:nbar=1,cutoff=60", "--min-rank", "36"),
    # the Schmidt-diagonal factor held as its coefficients, in the eigenbasis
    # family after its rotation
    "converge-tmsv-deep-eigen": _converge(
        "--state", "tmsv:nbar=10,cutoff=400", "--mode", "eigenbasis", "--min-rank", "395"
    ),
    # diagonal, unsorted and non-degenerate marginals: the eigenbasis family
    # sorts each one and gathers the state by index
    "converge-diagonal-eigen": _converge("--state", STATE_DIAGONAL, *_EIGEN),
    # marginals diagonal in their leading blocks only, so solved at every rank
    "converge-leading-diagonal": _converge("--state", STATE_LEADING, "--min-rank", "1"),
    # the sweep table as CSV on stdout
    "converge-tmsv-csv": _converge(
        "--state", "tmsv:nbar=2,cutoff=12", "--max-rank", "8", "--format", "csv"
    ),
    "converge-ghz": _converge(
        "--state", "ghz:parties=3", "--target", "A", "--given", "B,C", "--min-rank", "1"
    ),
    "converge-ghz-eigen": _converge(
        "--state", "ghz:parties=3", "--target", "A", "--given", "B,C", *_EIGEN
    ),
    # C in neither set: the pure state's purifier
    "converge-ghz-purifier": _converge(
        "--state", "ghz:parties=3", "--target", "A", "--given", "B", "--min-rank", "1"
    ),
    "converge-ghz-purifier-eigen": _converge(
        "--state", "ghz:parties=3", "--target", "A", "--given", "B", *_EIGEN
    ),
    "converge-rand576": _converge("--state", STATE_24X24, "--mode", "eigenbasis"),
    # the same state with a two-space indent: both layouts must load to the same entries
    "converge-rand576-indent2": _converge("--state", STATE_24X24_INDENTED, "--mode", "eigenbasis"),
    "converge-rand24": _converge(
        "--state", STATE_3PARTY, "--target", "A,C", "--given", "B", *_EIGEN
    ),
    # computational mode on reordered labels: marginals with off-diagonal entries,
    # traced off the grouped block and solved by the tilde step
    "converge-rand24-computational": _converge(
        "--state", STATE_3PARTY, "--target", "A,C", "--given", "B", "--min-rank", "1"
    ),
    "compute-condent-werner": _compute("condent", "werner:p=0.5"),
    "compute-relent-werner": _compute("relent", "werner:p=0.3", "werner:p=0.6"),
    "compute-relent-bell": _compute("relent", "bell", "classical"),
    # orthogonal supports: the leak verdict reads inf
    "compute-relent-orthogonal": _compute("relent", "bell", "werner:p=1"),
    # one state from its two files: a values-only solve of rho at dimension 576
    "compute-relent-rand576-self": _compute("relent", STATE_24X24, STATE_24X24_INDENTED),
    "compute-entropy-thermal": _compute("entropy", "thermal:nbar=2,cutoff=40"),
    # the vacuum: q = 0, so every level past the first has probability 0
    "compute-entropy-thermal-vacuum": _compute("entropy", "thermal:nbar=0,cutoff=5"),
    # an entry no float can hold: a parse error, not a traceback
    "compute-entropy-huge-int": _compute("entropy", STATE_HUGE_INT),
    "compute-condent-rand24": _compute("condent", STATE_3PARTY, "--target", "B", "--given", "A,C"),
    # C in neither set: traced out of the density matrix
    "compute-condent-rand24-rest": _compute(
        "condent", STATE_3PARTY, "--target", "B", "--given", "A"
    ),
    "compute-mutinfo-rand24": _compute("mutinfo", STATE_3PARTY, "--target", "A", "--given", "B,C"),
    "compute-mutinfo-channel": _compute(
        "mutinfo", "werner:p=0.5", "--channel", CHANNEL, "--out", "compute-mutinfo-channel.json"
    ),
    "compute-cohinfo-channel": _compute("cohinfo", "werner:p=0.5", "--channel", CHANNEL),
    # a pure input: its purification has a rank-1 reference
    "compute-cohinfo-pure": _compute("cohinfo", "bell", "--channel", CHANNEL),
    # pure catalog states, read off their amplitudes; the cutoff stays small
    # enough for a route that densifies the state to run as well
    "compute-condent-tmsv": _compute("condent", "tmsv:nbar=1,cutoff=30"),
    # a deep one, read off its Schmidt coefficients alone
    "compute-condent-tmsv-deep": _compute("condent", "tmsv:nbar=10,cutoff=400"),
    "compute-condent-bell3": _compute("condent", "bell:dim=3"),
    "compute-entropy-bell": _compute("entropy", "bell"),
    "compute-mutinfo-ghz": _compute("mutinfo", "ghz:parties=3", "--target", "A", "--given", "B,C"),
    # B in neither set: the pure state's purifier
    "compute-condent-ghz-purifier": _compute(
        "condent", "ghz:parties=3", "--target", "C", "--given", "A"
    ),
    # more matrix axes than numpy has: an error line, not a traceback
    "compute-condent-many-subsystems": _compute("condent", STATE_MANY_SUBSYSTEMS),
    # the catalog's error lines: a key its builder does not take, a family it
    # does not have, and both parameterizations of the squeezing at once
    "compute-entropy-bell-unknown-key": _compute("entropy", "bell:cutoff=3"),
    "compute-condent-tmsv-unknown-key": _compute("condent", "tmsv:nbar=1,eta=0.7"),
    "compute-entropy-unknown-family": _compute("entropy", "squeezed-cat"),
    "compute-condent-tmsv-nbar-and-r": _compute("condent", "tmsv:nbar=1,r=1"),
    # argparse's own exits: help text on stdout with exit 0, a usage error with exit 2
    "help": ["--help"],
    "help-check": ["check", "--help"],
    "help-converge": ["converge", "--help"],
    "help-compute": ["compute", "--help"],
    "usage-check-trials": ["check", "--trials", "x"],
    "usage-converge-mode": ["converge", "--mode", "nope"],
}  # fmt: skip
# every sweep writes NAME.json and NAME.csv beside NAME.stdout
INVOCATIONS.update(
    {name: [*argv, "--out", name] for name, argv in INVOCATIONS.items() if argv[0] == "converge"}
)


def _write_inputs() -> None:
    import numpy as np

    from qentropy.channels import random_channel
    from qentropy.fileio import save_channel, save_state
    from qentropy.states import DensityMatrix, SubsystemLayout, random_density_matrix

    square = SubsystemLayout((("A", 24), ("B", 24)))
    save_state(STATE_24X24, random_density_matrix(576, seed=201, layout=square))
    with open(STATE_24X24, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(STATE_24X24_INDENTED, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    with open(STATE_HUGE_INT, "w", encoding="utf-8") as fh:
        fh.write(
            '{"kind":"density_matrix","labels":["A"],"dims":[2],'
            f'"data":[[[{10**400},0],[0,0]],[[0,0],[0,0]]]}}\n'
        )
    three = SubsystemLayout((("A", 3), ("B", 4), ("C", 2)))
    save_state(STATE_3PARTY, random_density_matrix(24, seed=5, layout=three))
    save_channel(CHANNEL, random_channel(4, 3, 2, seed=11))
    # a diagonal state on A = 0..2, B = 0..1, mixed half and half with a full-rank
    # state on A = 3, 4 and B = 2, 3: each marginal is diagonal in its leading block
    head = np.zeros((5, 4))
    head[:3, :2] = np.random.default_rng(3).dirichlet(np.ones(6)).reshape(3, 2)
    tail = np.kron(np.eye(5)[:, 3:], np.eye(4)[:, 2:])
    inner = random_density_matrix(4, seed=13).entries
    entries = 0.5 * np.diag(head.ravel()) + 0.5 * tail @ inner @ tail.T
    save_state(STATE_LEADING, DensityMatrix(entries, SubsystemLayout((("A", 5), ("B", 4)))))
    # a diagonal state on A = 0..2, B = 0..3 whose marginals are neither sorted nor tied
    weights = np.random.default_rng(17).dirichlet(np.ones(12))
    diagonal = DensityMatrix(np.diag(weights), SubsystemLayout((("A", 3), ("B", 4))))
    save_state(STATE_DIAGONAL, diagonal)
    many = SubsystemLayout((f"S{i}", 1) for i in range(40))
    save_state(STATE_MANY_SUBSYSTEMS, DensityMatrix(np.ones((1, 1)), many))


_MISSING = object()


def _first_difference(old: Any, new: Any, path: str) -> str | None:
    """The path of the first field, in sorted-key order, where ``new`` differs from ``old``."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = sorted(old.keys() | new.keys())
        prefix = f"{path}." if path else ""
        pairs = [(prefix + key, old.get(key, _MISSING), new.get(key, _MISSING)) for key in keys]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
    else:
        # repr, so -0.0 differs from 0.0 and 1 from 1.0
        return None if repr(old) == repr(new) else path or "(document)"
    return next(filter(None, (_first_difference(a, b, where) for where, a, b in pairs)), None)


def replay(text: str) -> str:
    """``reproduced`` if re-running the configs a check report's or a converge
    document's JSON ``text`` embeds renders the same document, else the first
    field that differs, or the error the replay raised."""
    from qentropy.fileio import dumps_document, sweep_rows
    from qentropy.harness import replay_report, report_to_dict

    doc = json.loads(text)
    try:
        if doc["kind"] == "check":
            reports = [replay_report(report["config"]) for report in doc["reports"]]
            dicts = [report_to_dict(report) for report in reports]
            again = {"kind": "check", "all_pass": all(r.passed for r in reports), "reports": dicts}
        else:
            sweep = replay_report(doc["config"])
            again = {**sweep, "points": sweep_rows(sweep["points"])}
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}\n"
    return f"{_first_difference(doc, json.loads(dumps_document(again)), '') or 'reproduced'}\n"


def _document(args: list[str], stdout: str) -> str:
    """The JSON document a run produced: stdout, else the ``OUT.json`` beside it."""
    path = f"{args[args.index('--out') + 1]}.json" if "--out" in args else ""
    if stdout.startswith("{") or not os.path.isfile(path):
        return stdout
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def write_outputs(name: str, args: list[str]) -> bool:
    """Run one invocation in the working directory and write its NAME.* files;
    returns whether it raised."""
    from qentropy import harness
    from qentropy.cli import main as qentropy_main

    reports: list[dict[str, Any]] = []
    assemble = harness._assemble

    def recording(config, trials):
        rows = [{"trial": t.label, "seed": t.seed, "margin": t.margin, **t.values} for t in trials]
        reports.append({"config": config, "trials": rows})
        return assemble(config, trials)

    out, err, raised = io.StringIO(), io.StringIO(), False
    harness._assemble = recording
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qentropy_main(args)
    except SystemExit as exc:  # argparse's own exits
        code = exc.code
    except Exception:
        # raised after the redirects closed: the traceback is the tool's own
        traceback.print_exc()
        code, raised = 1, True
    finally:
        harness._assemble = assemble
    outputs = {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": f"{code}\n"}
    if reports:
        outputs["trials"] = json.dumps(reports, indent=1) + "\n"
    document = _document(args, outputs["stdout"]) if code in (0, 1) else ""
    if document.startswith("{") and json.loads(document)["kind"] in ("check", "sweep"):
        outputs["replay"] = replay(document)
    for suffix, text in outputs.items():
        with open(f"{name}.{suffix}", "w", encoding="utf-8") as fh:
            fh.write(text)
    return raised


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    # before anything loads numpy: threaded eigensolves may round differently
    os.environ.update(PINNED_ENV)
    # a relative PYTHONPATH such as src must keep resolving after the chdir
    sys.path[:] = [os.path.abspath(entry) for entry in sys.path]
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    _write_inputs()
    raised = [write_outputs(name, args) for name, args in INVOCATIONS.items()]
    return 1 if any(raised) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
