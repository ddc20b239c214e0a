"""Write the outputs of a fixed list of qentropy invocations, for a byte-identity diff.

    PYTHONPATH=<old>/src python3 tools/identity_outputs.py OLD_OUT
    PYTHONPATH=<new>/src python3 tools/identity_outputs.py NEW_OUT
    diff -r OLD_OUT NEW_OUT
    python3 tools/compare_outputs.py OLD_OUT NEW_OUT

``diff -r`` proves byte identity; where a change may move rounding,
``tools/compare_outputs.py`` checks the outputs against its agreement bound.

Runs ``qentropy.cli.main`` of the ``qentropy`` found on ``sys.path`` in this
process, once per entry of :data:`INVOCATIONS`, with OUTDIR as the working
directory and relative paths only, so no output embeds a directory name.
The seeded input files are written first, by the same ``qentropy``. For
invocation NAME it writes ``NAME.stdout``, ``NAME.stderr`` and ``NAME.exit``,
so an exit-2 ``error:`` line is compared too; files named by ``--out`` land
in OUTDIR beside them. An invocation that raises instead of returning is
recorded with exit code 1, as the command line would end, and its traceback
goes to this tool's own stderr. BLAS is pinned to one thread
before numpy loads, so eigensolves round the same way on every run.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import traceback

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# the seeded input files, written by _write_inputs
STATE_24X24 = "rand576.json"
STATE_24X24_INDENTED = "rand576-indent2.json"
STATE_HUGE_INT = "huge-int.json"
STATE_3PARTY = "rand24.json"
STATE_LEADING = "leading5x4.json"
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
_EIGEN_STATES = {"werner": "werner:p=0.5", "bell": "bell", "classical": "classical"}


def _check(*args: str) -> list[str]:
    return ["check", *args, "--no-timestamp"]


def _converge(stem: str, *args: str) -> list[str]:
    # the sweep writes STEM.json and STEM.csv beside STEM.stdout
    return ["converge", *args, "--no-timestamp", "--out", stem]


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
    "check-duality-dims": _check("--property", "duality", "--dims", "3,2,2"),
    "check-coherent-env": _check("--property", "coherent-duality", "--env-dim", "2"),
    # a partial last stack, on shapes other than the defaults: 4096 // D^2
    # trials per stack, 113 at D = 6 and 256 at D = 4
    "check-formula-coherent-stack": _check(
        "--property", "formula-coherent", "--trials", "120", "--dims", "3,2", "--seed", "5"
    ),
    "check-coherent-duality-stack": _check(
        "--property", "coherent-duality", "--trials", "120", "--dims", "2,3", "--env-dim", "2",
        "--seed", "5",
    ),
    "check-subadditivity-stack": _check(
        "--property", "subadditivity", "--trials", "260", "--dims", "1,2,2,1", "--seed", "5"
    ),
    "converge-tmsv": _converge("converge-tmsv"),
    "converge-tmsv-short": _converge(
        "converge-tmsv-short", "--state", "tmsv:nbar=2,cutoff=12", "--max-rank", "8",
        "--mode", "eigenbasis",
    ),
    **{
        f"converge-{stem}": _converge(f"converge-{stem}", "--state", state, *_EIGEN)
        for stem, state in _EIGEN_STATES.items()
    },
    # computational-mode sweeps whose original marginals are diagonal: tied
    # (classical) and deep (tmsv) leading blocks
    "converge-classical-computational": _converge(
        "converge-classical-computational", "--state", "classical:dim=3", "--min-rank", "1"
    ),
    "converge-tmsv-deep": _converge(
        "converge-tmsv-deep", "--state", "tmsv:nbar=10,cutoff=60", "--min-rank", "40"
    ),
    # the Schmidt-diagonal factor held as its coefficients, in the eigenbasis
    # family after its rotation
    "converge-tmsv-deep-eigen": _converge(
        "converge-tmsv-deep-eigen", "--state", "tmsv:nbar=10,cutoff=400", "--mode",
        "eigenbasis", "--min-rank", "395",
    ),
    # marginals diagonal in their leading blocks only, so solved at every rank
    "converge-leading-diagonal": _converge(
        "converge-leading-diagonal", "--state", STATE_LEADING, "--min-rank", "1"
    ),
    # the sweep table as CSV on stdout
    "converge-tmsv-csv": _converge(
        "converge-tmsv-csv", "--state", "tmsv:nbar=2,cutoff=12", "--max-rank", "8",
        "--format", "csv",
    ),
    "converge-ghz": _converge(
        "converge-ghz", "--state", "ghz:parties=3", "--target", "A", "--given", "B,C",
        "--min-rank", "1",
    ),
    "converge-ghz-eigen": _converge(
        "converge-ghz-eigen", "--state", "ghz:parties=3", "--target", "A", "--given", "B,C",
        *_EIGEN,
    ),
    # C in neither set: the pure state's purifier
    "converge-ghz-purifier": _converge(
        "converge-ghz-purifier", "--state", "ghz:parties=3", "--target", "A", "--given", "B",
        "--min-rank", "1",
    ),
    "converge-ghz-purifier-eigen": _converge(
        "converge-ghz-purifier-eigen", "--state", "ghz:parties=3", "--target", "A", "--given",
        "B", *_EIGEN,
    ),
    "converge-rand576": _converge(
        "converge-rand576", "--state", STATE_24X24, "--mode", "eigenbasis"
    ),
    # the same state with a two-space indent: both layouts must load to the same entries
    "converge-rand576-indent2": _converge(
        "converge-rand576-indent2", "--state", STATE_24X24_INDENTED, "--mode", "eigenbasis"
    ),
    "converge-rand24": _converge(
        "converge-rand24", "--state", STATE_3PARTY, "--target", "A,C", "--given", "B", *_EIGEN
    ),
    # computational mode on reordered labels: marginals with off-diagonal entries,
    # traced off the grouped block and solved by the tilde step
    "converge-rand24-computational": _converge(
        "converge-rand24-computational", "--state", STATE_3PARTY, "--target", "A,C",
        "--given", "B", "--min-rank", "1"
    ),
    "compute-condent-werner": _compute("condent", "werner:p=0.5"),
    "compute-relent-werner": _compute("relent", "werner:p=0.3", "werner:p=0.6"),
    "compute-relent-bell": _compute("relent", "bell", "classical"),
    # orthogonal supports: the leak verdict reads inf
    "compute-relent-orthogonal": _compute("relent", "bell", "werner:p=1"),
    # one state from its two files: a values-only solve of rho at dimension 576
    "compute-relent-rand576-self": _compute("relent", STATE_24X24, STATE_24X24_INDENTED),
    "compute-entropy-thermal": _compute("entropy", "thermal:nbar=2,cutoff=40"),
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
}  # fmt: skip


def _write_inputs() -> None:
    import json

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
    many = SubsystemLayout((f"S{i}", 1) for i in range(40))
    save_state(STATE_MANY_SUBSYSTEMS, DensityMatrix(np.ones((1, 1)), many))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    # before anything loads numpy: threaded eigensolves may round differently
    os.environ.update(PINNED_THREADS)
    from qentropy.cli import main as qentropy_main

    # a relative PYTHONPATH such as src must keep resolving after the chdir
    sys.path[:] = [os.path.abspath(entry) for entry in sys.path]
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    _write_inputs()
    for name, args in INVOCATIONS.items():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qentropy_main(args)
        except Exception:
            # raised after the redirects closed: the traceback is the tool's own
            traceback.print_exc()
            code = 1
        outputs = {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": f"{code}\n"}
        for suffix, text in outputs.items():
            with open(f"{name}.{suffix}", "w", encoding="utf-8") as fh:
                fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
