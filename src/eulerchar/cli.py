"""Command-line front end.

Subcommands:
  series        graded dimension series of H*(G; F)
  swan          per-degree table of e_n, mu_n, mu'_n
  bounds        q_{2n} interval, exact values, verdict
  qs4           rational homology 4-sphere feasibility (bounds at n = 2)
  oracle-check  closed forms vs cohomology computed from a free resolution
  reproduce     regenerate the package's reference values, PASS/FAIL per row

Exit codes: 0 success / all pass, 1 usage error, 2 computation error,
3 reproduction or verification failure.  Output is deterministic; the
--format json payload carries every number the text output shows.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__
from .errors import EulerCharError, SpecError
from .groupspec import GroupSpec, parse_spec
from .qbounds import q_bound_report
from .series import is_prime
from .swan import series_bundle, swan_report, verify_series

SCHEMA = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def prime(text: str) -> int:
    """argparse type of --p: a prime characteristic."""
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not a prime")
    return value


def non_negative(text: str) -> int:
    """argparse type of --nmax: a degree >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def positive(text: str) -> int:
    """argparse type of swan --nmax and --memory-budget: an integer >= 1."""
    value = non_negative(text)
    if value == 0:
        raise argparse.ArgumentTypeError("0 is not positive")
    return value


def half_dimension(text: str) -> int:
    """argparse type of bounds --n: the q_{2n} bounds are assembled for n >= 2."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{value} is below 2, the least n with q_{{2n}} bounds")
    return value


def _spec_argument(parser):
    parser.add_argument("spec", help="group spec, e.g. 1, C(6), E(3,2), U(5,3,1,4), Usd(5,4;1,2), J(3), Prod(C(2),C(3)), Q(8), Table(path)")


def _metadata_arguments(parser):
    """The declared exceptionality that swan, bounds and qs4 read; the period, d(G) and solvability come from the group."""
    parser.add_argument("--exceptional", choices=["yes", "no"], default=None, help="declare exceptionality of periodic free resolutions")


def _build_spec(args) -> GroupSpec:
    spec = parse_spec(args.spec)
    return spec if args.exceptional is None else replace(spec, exceptional=args.exceptional == "yes")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eulerchar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"eulerchar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="dimension series of H*(G; F)")
    _spec_argument(p)
    p.add_argument("--p", type=prime, default=None, help="characteristic; omit for all fields")
    p.add_argument("--nmax", type=non_negative, default=6)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--memory-budget", type=positive, default=None)
    p.set_defaults(run=cmd_series)

    p = sub.add_parser("swan", help="e_n and Swan invariants per degree")
    _spec_argument(p)
    _metadata_arguments(p)
    p.add_argument("--nmax", type=positive, default=4)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--memory-budget", type=positive, default=None)
    p.set_defaults(run=cmd_swan)

    for name in ("bounds", "qs4"):
        p = sub.add_parser(name, help="q_{2n} bounds and verdict" if name == "bounds" else "rational homology 4-sphere verdict")
        _spec_argument(p)
        _metadata_arguments(p)
        if name == "bounds":
            p.add_argument("--n", type=half_dimension, default=2, help="half-dimension n >= 2 (bounds q_{2n})")
        else:
            p.set_defaults(n=2)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--memory-budget", type=positive, default=None)
        p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("oracle-check", help="closed forms vs a free resolution")
    _spec_argument(p)
    p.add_argument("--p", type=prime, required=True)
    p.add_argument("--nmax", type=non_negative, default=3)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--memory-budget", type=positive, default=None)
    p.set_defaults(run=cmd_oracle_check)

    p = sub.add_parser("reproduce", help="regenerate the reference values")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(run=cmd_reproduce)
    return parser


def _report(command: str, payload: dict) -> dict:
    return {"schema": SCHEMA, "version": __version__, "command": command, **payload}


def _emit(report: dict, fmt: str, lines) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_series(args) -> int:
    spec = parse_spec(args.spec)
    fields = None if args.p is None else [args.p]  # None: Q and every prime dividing |G|
    rows = []
    lines = [f"dimension series of {spec}, degrees 0..{args.nmax}"]
    for series in series_bundle(spec, args.nmax, memory_budget=args.memory_budget, fields=fields).values():
        rows.append({"field": series.field_name, "dims": list(series.dims)})
        lines.append(f"  {series.field_name:>4}: " + " ".join(str(d) for d in series.dims))
    report = _report("series", {"spec": str(spec), "nmax": args.nmax, "series": rows})
    _emit(report, args.format, lines)
    return 0


def cmd_swan(args) -> int:
    spec = _build_spec(args)
    rep = swan_report(spec, args.nmax, memory_budget=args.memory_budget)
    rows = []
    header = "mu'_n"
    lines = [f"Swan invariants of {spec}", f"  {'n':>2} {'e_n':>5} {'mu_n':>5} {header:>6}  exceptional"]
    for row in rep.rows:
        rows.append(
            {
                "n": row.n,
                "e_n": row.e_n,
                "mu_n": row.mu_n,
                "mu_prime_n": row.mu_prime_n,
                "exceptional": row.exceptional.value,
                "notes": list(row.notes),
            }
        )
        fmt = lambda v: "?" if v is None else str(v)
        lines.append(f"  {row.n:>2} {fmt(row.e_n):>5} {fmt(row.mu_n):>5} {fmt(row.mu_prime_n):>6}  {row.exceptional.value}")
        for note in row.notes:
            lines.append(f"       note: {note}")
    report = _report("swan", {"spec": str(spec), "nmax": args.nmax, "rows": rows})
    _emit(report, args.format, lines)
    return 0


def cmd_bounds(args) -> int:
    spec = _build_spec(args)
    n = args.n
    qb = q_bound_report(spec, n, memory_budget=args.memory_budget)
    payload = {
        "spec": str(spec),
        "n": n,
        "lower": qb.lower,
        "upper": qb.upper,
        "exact": qb.exact,
        "verdict": {"kind": qb.verdict.kind.value, "reason": qb.verdict.reason},
        "citations": list(qb.citations),
        "notes": list(qb.notes),
        "annotations": qb.annotations,
    }
    upper = "?" if qb.upper is None else qb.upper
    lines = [
        f"bounds on q_{2 * n}({spec})",
        f"  interval: [{qb.lower}, {upper}]",
    ]
    if qb.exact is not None:
        lines.append(f"  exact: {qb.exact}")
    lines.append(f"  verdict: {qb.verdict.kind.value} ({qb.verdict.reason})")
    if qb.annotations:
        lines.append(f"  annotation: q4({qb.annotations['name']}) = {qb.annotations['q4']}")
    lines.append("  citations: " + ", ".join(qb.citations))
    for note in qb.notes:
        lines.append(f"  note: {note}")
    report = _report(args.command, payload)
    _emit(report, args.format, lines)
    return 0


def cmd_oracle_check(args) -> int:
    spec = parse_spec(args.spec)
    rows = verify_series(spec, args.p, args.nmax, memory_budget=args.memory_budget)
    payload_rows = [
        {"n": r.n, "closed_form": r.closed_form, "oracle": r.oracle, "match": r.match} for r in rows
    ]
    lines = [f"oracle check for {spec} over F{args.p}", f"  {'n':>2} {'closed':>7} {'oracle':>7}  match"]
    for r in rows:
        lines.append(f"  {r.n:>2} {r.closed_form:>7} {r.oracle:>7}  {'yes' if r.match else 'NO'}")
    all_match = all(r.match for r in rows)
    lines.append(f"  result: {'all match' if all_match else 'MISMATCH'}")
    report = _report(
        "oracle-check",
        {"spec": str(spec), "p": args.p, "nmax": args.nmax, "rows": payload_rows, "all_match": all_match},
    )
    _emit(report, args.format, lines)
    return 0 if all_match else 3


# ---------------------------------------------------------------------------
# reproduce


def cmd_reproduce(args) -> int:
    from .reference import reference_rows
    rows = reference_rows()

    def render(value):
        if isinstance(value, bool):
            return "yes" if value else "no"
        return str(value)

    lines = ["reference-value reproduction"]
    for r in rows:
        status = "PASS" if r["pass"] else "FAIL"
        lines.append(f"  [{status}] {r['name']}: {render(r['computed'])}" + ("" if r["pass"] else f" (expected {render(r['expected'])})"))
    n_pass = sum(r["pass"] for r in rows)
    lines.append(f"  {n_pass}/{len(rows)} rows pass")
    payload_rows = [
        {**r, "computed": _jsonable(r["computed"]), "expected": _jsonable(r["expected"])} for r in rows
    ]
    report = _report("reproduce", {"rows": payload_rows, "passed": n_pass, "total": len(rows)})
    _emit(report, args.format, lines)
    return 0 if n_pass == len(rows) else 3


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except EulerCharError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
