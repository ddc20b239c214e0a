"""Command-line interface: property checks, convergence sweeps, one-off computations.

Exit codes: 0 on success (all checks passed), 1 when a property check fails,
2 on usage, parse, or validation errors. All JSON output is deterministic
(sorted keys, repr floats); pass --no-timestamp to make runs byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from datetime import datetime, timezone
from typing import Any, Sequence

from .catalog import CATALOG
from .channels import (
    channel_mutual_information,
    coherent_information,
    require_valid_channel,
)
from .entropy import (
    conditional_entropy,
    min_supported_eigenvalue,
    nats_to_bits,
    mutual_information_states,
    relative_entropy,
    von_neumann_entropy,
)
from .errors import QEntropyError
from .fileio import dumps_document, load_channel, save_sweep_csv, sweep_rows, sweep_to_csv
from .harness import CHECKS, report_to_dict, resolve_state, run_check, run_converge
from .states import DensityMatrix
from .truncation import PROJECTOR_MODES

QUANTITIES = ("entropy", "relent", "condent", "mutinfo", "cohinfo")

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


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"--dims must be a comma list of integers, got {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise _UsageError(f"--dims entries must be positive, got {text!r}")
    return dims


def _parse_labels(text: str) -> tuple[str, ...]:
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise _UsageError(f"expected a comma list of subsystem labels, got {text!r}")
    return labels


def _emit(payload: str, out: str | None) -> None:
    # the file first, so a failed write leaves stdout empty
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    sys.stdout.write(payload)


def _reports_csv(reports: list[dict[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_CSV_COLUMNS)
    for rep in reports:
        writer.writerow(
            [repr(v) if isinstance(v, float) else v for v in (rep[c] for c in REPORT_CSV_COLUMNS)]
        )
    return buf.getvalue()


def _cmd_check(args: argparse.Namespace) -> int:
    overrides: dict[str, Any] = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.tolerance is not None:
        overrides["tolerance"] = args.tolerance
    if args.dims is not None:
        overrides["dims"] = _parse_dims(args.dims)
    if args.env_dim is not None:
        overrides["env_dim"] = args.env_dim
    if args.base is not None:
        overrides["base"] = args.base
    if args.steps is not None:
        overrides["steps"] = args.steps

    if args.property == "all":
        if overrides:
            raise _UsageError(
                "per-property overrides (--trials/--tolerance/--dims/--env-dim/"
                "--base/--steps) require a single --property"
            )
        names = list(CHECKS)
    else:
        names = [args.property]

    reports = [run_check(name, seed=args.seed, **overrides) for name in names]
    dicts = [report_to_dict(rep) for rep in reports]
    all_pass = all(rep.passed for rep in reports)
    if args.format == "csv":
        payload = _reports_csv(dicts)
    else:
        doc: dict[str, Any] = {"kind": "check", "all_pass": all_pass, "reports": dicts}
        if not args.no_timestamp:
            doc["timestamp"] = _timestamp()
        payload = dumps_document(doc)
    _emit(payload, args.out)
    return 0 if all_pass else 1


def _cmd_converge(args: argparse.Namespace) -> int:
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
    doc: dict[str, Any] = {
        "kind": "sweep",
        "config": result["config"],
        "summary": result["summary"],
        "points": sweep_rows(points),
    }
    if not args.no_timestamp:
        doc["timestamp"] = _timestamp()
    json_payload = dumps_document(doc)
    base = args.out
    with open(base + ".json", "w") as fh:
        fh.write(json_payload)
    save_sweep_csv(base + ".csv", points)
    _emit(sweep_to_csv(points) if args.format == "csv" else json_payload, None)
    return 0


def _default_split(rho: DensityMatrix) -> tuple[tuple[str, ...], tuple[str, ...]]:
    labels = rho.layout.labels
    if len(labels) < 2:
        raise _UsageError(
            f"state has a single subsystem {labels}; pass a multipartite state "
            "or use the entropy quantity"
        )
    return (labels[0],), labels[1:]


def _split_labels(
    rho: DensityMatrix, args: argparse.Namespace
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    if args.target is None and args.given is None:
        return _default_split(rho)
    if args.target is None or args.given is None:
        raise _UsageError("--target and --given must be given together")
    return _parse_labels(args.target), _parse_labels(args.given)


def _cmd_compute(args: argparse.Namespace) -> int:
    quantity = args.quantity
    rho = resolve_state(args.state)
    inputs: dict[str, Any] = {"state": args.state}
    extras: dict[str, Any] = {}

    if quantity == "entropy":
        if args.sigma is not None:
            raise _UsageError("entropy takes a single state")
        value = von_neumann_entropy(rho)
    elif quantity == "relent":
        if args.sigma is None:
            raise _UsageError("relent needs two states: relent RHO SIGMA")
        sigma = resolve_state(args.sigma)
        inputs["sigma"] = args.sigma
        value = relative_entropy(rho, sigma)
        extras["min_supported_sigma_eigenvalue"] = min_supported_eigenvalue(sigma)
    elif quantity == "condent":
        if args.sigma is not None:
            raise _UsageError("condent takes a single state")
        target, given = _split_labels(rho, args)
        inputs["target"], inputs["given"] = list(target), list(given)
        value = conditional_entropy(rho, target, given)
    elif quantity == "mutinfo":
        if args.sigma is not None:
            raise _UsageError("mutinfo takes a single state")
        if args.channel is not None:
            channel = load_channel(args.channel)
            require_valid_channel(channel)
            inputs["channel"] = args.channel
            value = channel_mutual_information(rho, channel)
        else:
            target, given = _split_labels(rho, args)
            inputs["parts"] = [list(target), list(given)]
            value = mutual_information_states(rho, target, given)
    elif quantity == "cohinfo":
        if args.sigma is not None:
            raise _UsageError("cohinfo takes a single state")
        if args.channel is None:
            raise _UsageError("cohinfo needs --channel")
        channel = load_channel(args.channel)
        require_valid_channel(channel)
        inputs["channel"] = args.channel
        value = coherent_information(rho, channel)
    else:  # unreachable behind argparse choices
        raise _UsageError(f"unknown quantity {quantity!r}")

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
    if not args.no_timestamp:
        doc["timestamp"] = _timestamp()
    _emit(dumps_document(doc), args.out)
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
        "--dims", help="override subsystem dimensions, e.g. 2,2,2 (single property only)"
    )
    check.add_argument(
        "--tolerance", type=float, help="override pass tolerance (single property only)"
    )
    check.add_argument(
        "--env-dim", type=int, help="override channel environment dimension (coherent-duality)"
    )
    check.add_argument("--base", help="override base state spec (continuity)")
    check.add_argument("--steps", type=int, help="override schedule length (continuity)")
    check.add_argument("--out", help="also write the payload to this file")
    check.add_argument("--format", choices=["json", "csv"], default="json")
    check.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp for byte-identical output"
    )

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
        "--given", default="B", help="comma list of conditioning labels (default B)"
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
    converge.add_argument("--format", choices=["json", "csv"], default="json")
    converge.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp for byte-identical output"
    )

    compute = sub.add_parser(
        "compute",
        help="compute one entropic quantity for given states or channels",
        description=(
            "Quantities: entropy (von Neumann), relent (relative entropy, may be "
            "inf), condent (conditional entropy, may be -inf), mutinfo (between "
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
    compute.add_argument("--given", help="comma list of conditioning labels")
    compute.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    compute.add_argument("--out", help="also write the payload to this file")
    compute.add_argument(
        "--no-timestamp", action="store_true", help="omit the timestamp for byte-identical output"
    )

    return parser


_COMMANDS = {"check": _cmd_check, "converge": _cmd_converge, "compute": _cmd_compute}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (QEntropyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
