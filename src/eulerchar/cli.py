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

from . import __version__
from .characters import exterior_power, graded_character, mun_semidirect, twisted_euler
from .errors import EulerCharError, SpecError
from .groupspec import Cyclic, ElementaryAbelian, Frobenius, GroupSpec, Quaternion, SemidirectIsotypic, frobenius_exponents, parse_spec, realize
from .qbounds import KNOWN_EXACT_Q4, euler_sign_check, q_bound_report
from .resolution import verify_series
from .series import is_prime
from .swan import compute_en, compute_mun, field_series, series_bundle, swan_report

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
    parser.add_argument("--d", type=int, default=None, help="declare the minimal generator count d(G)")
    parser.add_argument("--period", type=int, default=None, help="declare an even cohomological period")
    parser.add_argument("--solvable", choices=["yes", "no"], default=None, help="declare solvability")
    parser.add_argument("--exceptional", choices=["yes", "no"], default=None, help="declare exceptionality of periodic free resolutions")


def _build_spec(args) -> GroupSpec:
    spec = parse_spec(args.spec)
    meta = {}
    if args.d is not None:
        meta["d"] = args.d
    if args.period is not None:
        meta["period"] = args.period
    if args.solvable is not None:
        meta["solvable"] = args.solvable == "yes"
    if args.exceptional is not None:
        meta["exceptional"] = args.exceptional == "yes"
    return spec.with_meta(**meta) if meta else spec


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eulerchar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"eulerchar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="dimension series of H*(G; F)")
    _spec_argument(p)
    p.add_argument("--p", type=prime, default=None, help="characteristic; omit for all fields")
    p.add_argument("--nmax", type=non_negative, default=6)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("swan", help="e_n and Swan invariants per degree")
    _spec_argument(p)
    p.add_argument("--nmax", type=positive, default=4)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--memory-budget", type=positive, default=None)

    for name in ("bounds", "qs4"):
        p = sub.add_parser(name, help="q_{2n} bounds and verdict" if name == "bounds" else "rational homology 4-sphere verdict")
        _spec_argument(p)
        if name == "bounds":
            p.add_argument("--n", type=half_dimension, default=2, help="half-dimension n >= 2 (bounds q_{2n})")
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--memory-budget", type=positive, default=None)

    p = sub.add_parser("oracle-check", help="closed forms vs a free resolution")
    _spec_argument(p)
    p.add_argument("--p", type=prime, required=True)
    p.add_argument("--nmax", type=non_negative, default=3)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--memory-budget", type=positive, default=None)

    p = sub.add_parser("reproduce", help="regenerate the reference values")
    p.add_argument("--format", choices=["text", "json"], default="text")
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
    spec = _build_spec(args)
    if args.p is None:
        bundle = series_bundle(spec, args.nmax).values()  # Q and every prime dividing |G|
    else:
        bundle = [field_series(spec, args.p, args.nmax)]
    rows = []
    lines = [f"dimension series of {spec}, degrees 0..{args.nmax}"]
    for series in bundle:
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


def cmd_bounds(args, command: str = "bounds", n: int | None = None) -> int:
    spec = _build_spec(args)
    n = n if n is not None else args.n
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
    report = _report(command, payload)
    _emit(report, args.format, lines)
    return 0


def cmd_oracle_check(args) -> int:
    spec = _build_spec(args)
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


def _reproduce_rows() -> list[dict]:
    rows: list[dict] = []

    def row(name, computed, expected):
        rows.append(
            {
                "name": name,
                "computed": computed,
                "expected": expected,
                "pass": computed == expected,
            }
        )

    # the order-12 realization of J(2) is the alternating group A4
    g = realize(Frobenius(2))
    row("J(2) realization: order", g.order, 12)
    row("J(2) realization: nonabelian", not g.is_abelian(), True)
    row("J(2) realization: element orders", sorted(set(g.element_orders())), [1, 2, 3])

    row("J(2) eigenvalue exponents", frobenius_exponents(2).items(), [(1, 1), (2, 1)])
    row("J(3) eigenvalue exponents", frobenius_exponents(3).items(), [(1, 1), (2, 1), (4, 1)])

    # character decompositions in degree two
    n2 = frobenius_exponents(2)
    row("pairwise-sum decomposition of {1,2} mod 3", exterior_power(n2, 2).items(), [(0, 1)])
    row("exponent doubling of {1,2} mod 3", n2.scaled(2).items(), [(1, 1), (2, 1)])
    n3 = frobenius_exponents(3)
    row("degree-2 character = doubling + pairwise sums (J(3))",
        graded_character(n3, 2, 2).items(),
        n3.scaled(2).union(exterior_power(n3, 2)).items())

    # elementary abelian polynomial laws at odd primes
    for p in (3, 5):
        for poly_name, degree, expected_fn in (
            ("q4 lower (mu2 - mu1) = (k^2-3k+4)/2", (2, 1), lambda k: (k * k - 3 * k + 4) // 2),
            ("q4 upper 2*mu2 = k^2-k+2", (2, None), lambda k: k * k - k + 2),
            ("q6 lower (mu3 - mu2) = (k^3-3k^2+8k-12)/6", (3, 2), lambda k: (k**3 - 3 * k**2 + 8 * k - 12) // 6),
            ("q6 upper 2*mu3 = (k^3+5k-6)/3", (3, None), lambda k: (k**3 + 5 * k - 6) // 3),
            ("q8 lower (mu4 - mu3) = (k^4-2k^3+11k^2-34k+48)/24", (4, 3), lambda k: (k**4 - 2 * k**3 + 11 * k**2 - 34 * k + 48) // 24),
            ("q8 upper 2*mu4 = (k^4+2k^3+11k^2-14k+24)/12", (4, None), lambda k: (k**4 + 2 * k**3 + 11 * k**2 - 14 * k + 24) // 12),
        ):
            n, prev = degree
            computed = []
            for k in range(1, 9):
                spec = ElementaryAbelian(p, k)
                value = compute_mun(spec, n).mu
                if prev is not None:
                    value -= compute_mun(spec, prev).mu
                else:
                    value *= 2
                computed.append(value)
            row(f"E(p,k) p={p}, k=1..8: {poly_name}", computed, [expected_fn(k) for k in range(1, 9)])

    # the J_k series: high-rank fundamental groups of rational homology 4-spheres
    def e2(spec):
        return compute_en(series_bundle(spec, 2).values(), 2)

    row("mu_2(J(2))", mun_semidirect(n2, 2, 2), 2)
    row("e_2(J(2))", e2(Frobenius(2)), 3)
    row("mu_2(J(k)), k=3..10", [mun_semidirect(frobenius_exponents(k), 2, 2) for k in range(3, 11)], [1] * 8)
    row("mu_4(A4) via the character formula", mun_semidirect(n2, 2, 4), 1)

    for k in range(3, 9):
        exps = frobenius_exponents(k)
        m = exps.m
        local = twisted_euler(exps, 2, 2)  # the twist r of these rows is L(-r)
        support = sorted(r for r in range(1, m) if local[-r % m] != 0)
        expected = sorted({(-(1 << i) - (1 << j)) % m for i in range(k) for j in range(i + 1, k)})
        row(f"J({k}): twists with nonzero local Euler value", support, expected)
        row(f"J({k}): those local values all equal 1", sorted({local[-r % m] for r in support}), [1])

    # isotypic semidirect products at p = 5
    for k in range(2, 7):
        free = SemidirectIsotypic(5, k, 1, 4)   # squared action fixed-point free
        order2 = SemidirectIsotypic(5, k, 1, 2)  # eigenvalue of order two
        row(f"U_{k} (2a != 0): e_2", e2(free), 2)
        row(f"U_{k} (2a != 0): mu_2", mun_semidirect(free.exponents(), 5, 2), k * (k - 1) // 2)
        row(f"U_{k} (2a != 0): mu_2 - mu_1", compute_mun(free, 2).mu - compute_mun(free, 1).mu, k * (k - 3) // 2)
        row(f"U_{k} (2a = 0): e_2", e2(order2), k * (k - 1) // 2 + 2)
        row(f"U_{k} (2a = 0): mu_2", mun_semidirect(order2.exponents(), 5, 2), k * (k - 1) // 2 + 1)
        qb = q_bound_report(free, 2)
        row(f"U_{k} (2a != 0): q4 interval", [qb.lower, qb.upper], [max(2, k * (k - 3) // 2), k * (k - 1)])
        qb = q_bound_report(order2, 2)
        row(f"U_{k} (2a = 0): q4 lower", qb.lower, k * (k - 1) // 2 + 2)
        row(f"U_{k} (2a = 0): q4 upper", qb.upper, k * (k - 1) + 2)

    # feasibility verdicts
    for p in (2, 3, 5):
        for k in (4, 5):
            row(f"E({p},{k}) cannot be a QS4 group", q_bound_report(ElementaryAbelian(p, k), 2).verdict.kind.value, "impossible")
    for k in (5, 6):
        row(f"U_{k} (2a != 0) cannot be a QS4 group", q_bound_report(SemidirectIsotypic(5, k, 1, 4), 2).verdict.kind.value, "impossible")
    for k in (2, 3):
        row(f"U_{k} (2a = 0) cannot be a QS4 group", q_bound_report(SemidirectIsotypic(5, k, 1, 2), 2).verdict.kind.value, "impossible")
    for k in (3, 4, 5, 6):
        row(f"J({k}) is a QS4 group", q_bound_report(Frobenius(k), 2).verdict.kind.value, "realizable")
    row("U_2 (2a != 0) is a QS4 group", q_bound_report(SemidirectIsotypic(5, 2, 1, 4), 2).verdict.kind.value, "realizable")

    # periodicity: exact values
    for m in (2, 3, 6):
        spec = Cyclic(m).with_meta(period=2)
        row(f"C({m}) period 2: q4", q_bound_report(spec, 2).exact, 2)
        row(f"C({m}) period 2: q6", q_bound_report(spec, 3).exact, 0)
    q8spec = Quaternion(8).with_meta(period=4, exceptional=False, d=2, solvable=True)
    row("Q(8) period 4: q4", q_bound_report(q8spec, 2).exact, 2)
    row("Q(8) period 4: q6", q_bound_report(q8spec, 3).exact, 0)
    c7 = Cyclic(7).with_meta(period=6)  # 2 divides 6, so 6 is also a period of C(7)
    row("declared period 6: q8", q_bound_report(c7, 4).exact, 2)
    row("declared period 6: q10", q_bound_report(c7, 5).exact, 0)

    # higher-dimensional obstruction for rank-3 elementary abelian groups
    qb = q_bound_report(ElementaryAbelian(3, 3), 4)
    row("q8(E(3,3)) lower bound >= 3", qb.lower >= 3, True)
    row("E(3,3) cannot be a QS8 group", qb.verdict.kind.value, "impossible")

    # A4 = J(2): computed interval and annotated exact values
    qb = q_bound_report(Frobenius(2), 2)
    row("q4(A4) computed interval", [qb.lower, qb.upper], [3, 4])
    row("q4(A4) annotation", qb.annotations.get("q4"), KNOWN_EXACT_Q4["A4"])
    row("q4(A5) annotation", KNOWN_EXACT_Q4["A5"], 4)

    # solvable generator count feeding mu_1
    row("mu_1(U_3) = 3 for the faithful isotypic action", compute_mun(SemidirectIsotypic(5, 3, 1, 4), 1).mu, 3)

    # sign rule for Euler characteristics
    row("chi = 2 admissible at n = 2", euler_sign_check(2, 2), True)
    row("chi = 2 inadmissible at n = 3", euler_sign_check(3, 2), False)
    row("chi = 0 admissible at n = 3", euler_sign_check(3, 0), True)
    return rows


def cmd_reproduce(args) -> int:
    rows = _reproduce_rows()

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
        if args.command == "series":
            return cmd_series(args)
        if args.command == "swan":
            return cmd_swan(args)
        if args.command == "bounds":
            return cmd_bounds(args)
        if args.command == "qs4":
            return cmd_bounds(args, command="qs4", n=2)
        if args.command == "oracle-check":
            return cmd_oracle_check(args)
        if args.command == "reproduce":
            return cmd_reproduce(args)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except EulerCharError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
