"""Set-up step of one benchmark run, in a fresh interpreter.

Imports ``qentropy.cli`` (what a user's first command pays for) and writes
the workload's input files. The parent times this whole process, from
interpreter start to exit, as ``setup_s``.

    python3 perfbench/make_inputs.py --workload NAME --seed N --dir TMP [--import-only]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import qentropy.cli  # noqa: F401  (the import is part of what set-up measures)

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args()
    if not args.import_only:
        WORKLOADS[args.workload].build_inputs(args.seed, Path(args.dir))


if __name__ == "__main__":
    main()
