"""Command-line interface: property checks, convergence sweeps, one-off computations.

Exit codes: 0 on success (all checks passed), 1 when a property check fails,
2 on usage, parse, or validation errors. All JSON output is deterministic
(sorted keys, repr floats); pass --no-timestamp to make runs byte-identical.

Every command ends in :func:`_finish`, the one home of the output contract:
it stamps the document unless --no-timestamp and writes each of the
command's files (:func:`_files`) before printing, so a failed write prints
nothing.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from datetime import datetime, timezone
from typing import Any, Callable, Sequence

from .catalog import CATALOG
from .channels import (
    channel_mutual_information,
    coherent_information,
    require_valid_channel,
)
from .entropy import (
    _min_supported,
    _relative_entropy,
    conditional_entropy,
    nats_to_bits,
    mutual_information_states,
    von_neumann_entropy,
)
from .errors import QEntropyError
from .fileio import _csv_table, dumps_document, load_channel, sweep_rows, sweep_to_csv
from .harness import CHECKS, report_to_dict, resolve_state, run_check, run_converge
from .states import State
from .truncation import PROJECTOR_MODES

# the optional inputs each quantity takes besides its state: every combination it accepts
_COMPUTE_INPUTS: dict[str, tuple[tuple[str, ...], ...]] = {
    "entropy": ((),),
    "relent": (("sigma",),),
    "condent": ((), ("target", "given")),
    "mutinfo": ((), ("target", "given"), ("channel",)),
    "cohinfo": (("channel",),),
}
QUANTITIES = tuple(_COMPUTE_INPUTS)
_INPUT_NAMES = {
    "sigma": "a second state SIGMA",
    "channel": "--channel",
    "target": "--target",
    "given": "--given",
}
# the check flags that override a single property's parameters
_CHECK_OVERRIDES = ("trials", "tolerance", "dims", "env_dim", "base", "steps")
_TRACED = "; labels in neither --target nor --given are traced out"

REPORT_CSV_COLUMNS = (
    "property",
    "verdict",
    "trials",
    "seed",
    "tolerance",
    "worst_margin",
    "worst_seed",
)


class _UsageError(QEntropyError):
    """Raised for flag combinations argparse itself cannot reject."""


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a comma list of integers, got {text!r}")


def _parse_labels(text: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise _UsageError(f"expected a comma list of subsystem labels, got {text!r}")
    return labels


def _files(args: argparse.Namespace) -> dict[str, str]:
    """The command's files, each path mapped to the format written there."""
    if args.command == "converge":
        return {args.out + ".json": "json", args.out + ".csv": "csv"}
    return {args.out: args.format} if args.out else {}


def _require_writable(args: argparse.Namespace) -> None:
    """Raise the error that writing one of the command's files later would
    raise, without touching it.

    Catches an existing directory, a missing parent directory and missing
    write permission before any work is done; nothing is created or truncated.
    """
    for path in _files(args):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def _finish(
    args: argparse.Namespace, doc: dict[str, Any], csv: Callable[[], str] | None = None
) -> None:
    """Stamp ``doc`` unless --no-timestamp, write each of the command's files,
    then print the chosen format; ``csv`` renders the command's CSV table.
    Only the formats a file or stdout receives are rendered, each once."""
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    files = _files(args)
    render = {"json": lambda: dumps_document(doc), "csv": csv}
    texts = {fmt: render[fmt]() for fmt in dict.fromkeys([*files.values(), args.format])}
    for path, fmt in files.items():
        with open(path, "w") as fh:
            fh.write(texts[fmt])
    sys.stdout.write(texts[args.format])


def _cmd_check(args: argparse.Namespace) -> int:
    overrides = {
        key: getattr(args, key) for key in _CHECK_OVERRIDES if getattr(args, key) is not None
    }
    if args.property == "all":
        if overrides:
            raise _UsageError(
                "per-property overrides (--trials/--tolerance/--dims/--env-dim/"
                "--base/--steps) require a single --property"
            )
        names = list(CHECKS)
    else:
        names = [args.property]
    _require_writable(args)

    reports = [run_check(name, seed=args.seed, **overrides) for name in names]
    dicts = [report_to_dict(rep) for rep in reports]
    all_pass = all(rep.passed for rep in reports)
    doc = {"kind": "check", "all_pass": all_pass, "reports": dicts}
    _finish(args, doc, csv=lambda: _csv_table(REPORT_CSV_COLUMNS, dicts))
    return 0 if all_pass else 1


def _cmd_converge(args: argparse.Namespace) -> int:
    _require_writable(args)
    result = run_converge(
        state_spec=args.state,
        target=_parse_labels(args.target),
        given=_parse_labels(args.given),
        min_rank=args.min_rank,
        max_rank=args.max_rank,
        stride=args.stride,
        mode=args.mode,
    )
    points = result["points"]
    _finish(args, {**result, "points": sweep_rows(points)}, csv=lambda: sweep_to_csv(points))
    return 0


def _describe(form: tuple[str, ...]) -> str:
    names = [_INPUT_NAMES[key] for key in form]
    if len(names) > 1:
        return " and ".join(names) + " together"
    return names[0] if names else "the state alone"


def _split_labels(
    rho: State, args: argparse.Namespace
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if args.target is not None:
        return _parse_labels(args.target), _parse_labels(args.given)
    labels = rho.layout.labels
    if len(labels) < 2:
        raise _UsageError(
            f"state has a single subsystem {labels}; pass a multipartite state "
            "or use the entropy quantity"
        )
    return (labels[0],), labels[1:]


def _cmd_compute(args: argparse.Namespace) -> int:
    quantity = args.quantity
    forms = _COMPUTE_INPUTS[quantity]
    passed = tuple(key for key in _INPUT_NAMES if getattr(args, key) is not None)
    if passed not in forms:
        got = ", ".join(_INPUT_NAMES[key] for key in passed) or "no other input"
        raise _UsageError(
            f"{quantity} takes {' or '.join(_describe(form) for form in forms)}; got {got}"
        )
    _require_writable(args)
    rho = resolve_state(args.state)
    inputs: dict[str, Any] = {"state": args.state}
    extras: dict[str, Any] = {}
    if args.channel is not None:
        channel = load_channel(args.channel)
        require_valid_channel(channel)
        inputs["channel"] = args.channel

    if quantity == "entropy":
        value = von_neumann_entropy(rho)
    elif quantity == "relent":
        sigma = resolve_state(args.sigma)
        inputs["sigma"] = args.sigma
        value, w_sigma = _relative_entropy(rho, sigma)
        extras["min_supported_sigma_eigenvalue"] = _min_supported(w_sigma)
    elif quantity == "cohinfo":
        value = coherent_information(rho, channel)
    elif args.channel is not None:
        value = channel_mutual_information(rho, channel)
    elif quantity == "condent":
        target, given = _split_labels(rho, args)
        inputs["target"], inputs["given"] = list(target), list(given)
        value = conditional_entropy(rho, target, given)
    else:
        target, given = _split_labels(rho, args)
        inputs["parts"] = [list(target), list(given)]
        value = mutual_information_states(rho, target, given)

    units = "nats"
    if args.bits:
        value = nats_to_bits(value)
        units = "bits"
    doc: dict[str, Any] = {
        "kind": "compute",
        "quantity": quantity,
        "value": value,
        "units": units,
        "inputs": inputs,
    }
    doc.update(extras)
    _finish(args, doc)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qentropy",
        description=(
            "Entropic quantities for multipartite quantum states: randomized "
            "property checks, truncation convergence sweeps, and one-off "
            "computations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check",
        help="run randomized property checks and report margins",
        description=(
            "Run one property check or the whole suite. A check passes iff its "
            "worst raw margin is at least -tolerance. Exit code 1 signals a "
            "failed property."
        ),
    )
    check.add_argument(
        "--property",
        default="all",
        choices=["all", *CHECKS],
        help="which property to check (default: all)",
    )
    check.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    check.add_argument("--trials", type=int, help="override trial count (single property only)")
    check.add_argument(
        "--dims",
        type=_parse_dims,
        help="override subsystem dimensions, e.g. 2,2,2 (single property only)",
    )
    check.add_argument(
        "--tolerance", type=float, help="override pass tolerance (single property only)"
    )
    check.add_argument(
        "--env-dim", type=int, help="override channel environment dimension (coherent-duality)"
    )
    check.add_argument("--base", help="override base state, spec or file (continuity)")
    check.add_argument("--steps", type=int, help="override schedule length (continuity)")
    check.add_argument("--out", help="also write the payload to this file")

    converge = sub.add_parser(
        "converge",
        help="run a finite-rank truncation convergence sweep",
        description=(
            "Truncate a bipartition of the state to growing ranks and track the "
            "conditional entropy. Writes OUT.csv and OUT.json, and prints the "
            "selected format to stdout."
        ),
    )
    converge.add_argument(
        "--state",
        default="tmsv:nbar=1,cutoff=30",
        help="catalog spec or state file (default tmsv:nbar=1,cutoff=30)",
    )
    converge.add_argument("--target", default="A", help="comma list of target labels (default A)")
    converge.add_argument(
        "--given", default="B", help=f"comma list of conditioning labels (default B){_TRACED}"
    )
    converge.add_argument("--min-rank", type=int, default=5, help="first retained rank (default 5)")
    converge.add_argument(
        "--max-rank", type=int, help="last retained rank (default: full factor dimension)"
    )
    converge.add_argument("--stride", type=int, default=1, help="rank step (default 1)")
    converge.add_argument(
        "--mode",
        choices=list(PROJECTOR_MODES),
        default="computational",
        help="projector family (default computational)",
    )
    converge.add_argument("--out", default="sweep", help="output base path (default sweep)")

    compute = sub.add_parser(
        "compute",
        help="compute one entropic quantity for given states or channels",
        description=(
            "Quantities: entropy (von Neumann), relent (relative entropy, may be "
            "inf), condent (conditional entropy, finite for a valid state), mutinfo (between "
            "subsystem groups, or of a state through --channel), cohinfo "
            "(coherent information through --channel). States are catalog specs "
            "like werner:p=0.7 or JSON files; see the catalog: "
            + ", ".join(sorted(CATALOG))
        ),
    )
    compute.add_argument("quantity", choices=QUANTITIES)
    compute.add_argument("state", help="catalog spec or state file")
    compute.add_argument("sigma", nargs="?", help="second state (relent only)")
    compute.add_argument("--channel", help="channel file (mutinfo/cohinfo)")
    compute.add_argument("--target", help="comma list of target labels")
    compute.add_argument("--given", help=f"comma list of conditioning labels{_TRACED}")
    compute.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    compute.add_argument("--out", help="also write the payload to this file")
    compute.set_defaults(format="json")  # compute prints JSON only

    # the output flags, last in each command's help
    for command, written in ((check, "printed and written to --out"), (converge, "printed")):
        command.add_argument(
            "--format", choices=["json", "csv"], default="json",
            help=f"format {written} (default json)",
        )  # fmt: skip
    for command in (check, converge, compute):
        command.add_argument(
            "--no-timestamp", action="store_true",
            help="omit the timestamp for byte-identical output",
        )  # fmt: skip
    return parser


_COMMANDS = {"check": _cmd_check, "converge": _cmd_converge, "compute": _cmd_compute}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (QEntropyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
