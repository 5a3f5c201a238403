"""Seeded workloads, independent reference values and answer checks.

A run is a sequence of rounds. A round is a fixed multiset of cost classes
(family, |G|, n, p); the seed only picks the member of each class
(parameters, exponents, table relabeling), so rounds from different seeds
cost about the same. The seed also shuffles closed_forms. The oracle rounds
keep one fixed order (see spread): with a seeded order the allocator's
history moved the peak RSS of oracle_twisted by 20%.
The program sees only the generated spec strings, table files and modules.

Every group generated here exists: each semidirect exponent multiset is
stable under r -> p*r mod m (the m | p-1 families and J(k) are).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("closed_forms", "oracle_trivial", "oracle_twisted")


@dataclass
class Query:
    """One call into the program and what its answer must satisfy."""

    kind: str  # "bounds" (q_bound_report), "verify" (verify_series), "mun" (compute_mun with modules)
    text: str  # spec string handed to parse_spec
    n: int  # degree; n_max for "verify"
    cls: str  # cost class
    primes: tuple[int, ...]  # coefficient primes the oracle would use
    p: int | None = None
    modules: list | None = None
    expect_error: str | None = None  # error type the program raises today
    expected: dict = field(default_factory=dict)


def rank_path(p: int) -> str:
    return "gf2" if p == 2 else "gf3" if p == 3 else "dense"


def run_query(api, q: Query, budget: int):
    """The timed call. `api` is the eulerchar package, looked up at call time."""
    spec = api.parse_spec(q.text)
    if q.kind == "bounds":
        return api.q_bound_report(spec, q.n, memory_budget=budget)
    if q.kind == "verify":
        return api.verify_series(spec, q.p, q.n, memory_budget=budget)
    return api.compute_mun(spec, q.n, modules=q.modules, memory_budget=budget)


# ---------------------------------------------------------------------------
# Independent references


def prime_factors(n: int) -> tuple[int, ...]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def require_exists(p: int, m: int, exps) -> None:
    """(Z/p)^k x| Z/m with these eigenvalue exponents exists over F_p."""
    if Counter(a % m for a in exps) != Counter(p * a % m for a in exps):
        raise ValueError(f"exponents {exps} mod {m} are not stable under multiplication by {p}")


def graded_counts(m: int, exps, n: int) -> list[list[int]]:
    """counts[t][r]: multiplicity of the character r in H^t((Z/p)^k; F_p), p odd.

    Exterior on degree-one generators with characters exps, polynomial on
    their Bocksteins (same characters) in degree two.
    """
    counts = [[0] * m for _ in range(n + 1)]
    counts[0][0] = 1
    for a in exps:
        for t in range(n, 0, -1):
            row, src = counts[t], counts[t - 1]
            for r in range(m):
                row[(r + a) % m] += src[r]
        for t in range(2, n + 1):
            row, src = counts[t], counts[t - 2]
            for r in range(m):
                row[(r + a) % m] += src[r]
    return counts


def swan_mu(m: int, exps, n: int) -> int:
    """mu_n of (Z/p)^k x| Z/m for odd p, m | p-1, over its m linear simple modules."""
    counts = graded_counts(m, exps, n)
    best = max(sum((-1) ** (n - t) * counts[t][r] for t in range(n + 1)) for r in range(m))
    return max(1 if n % 2 == 0 else 0, best)


def euler_term(dims, n: int) -> int:
    """h^n - 2 (h^{n-1} - h^{n-2} + ... +- h^0) for one coefficient field."""
    return dims[n] - 2 * sum((-1) ** (n - 1 - i) * dims[i] for i in range(n))


def rational_dims(n: int) -> list[int]:
    return [1] + [0] * n


def quaternion_dims(order: int, p: int, n: int) -> list[int]:
    """Period-4 pattern (1, r, r, 1, ...) of H^*(Q(4N); F_p) for p | 4N."""
    r = 0 if p != 2 else 2 if (order // 4) % 2 == 0 else 1
    return [1 if t % 4 in (0, 3) else r for t in range(n + 1)]


def quaternion_en(order: int, n: int) -> int:
    fields = [quaternion_dims(order, p, n) for p in prime_factors(order)]
    return max(euler_term(d, n) for d in [rational_dims(n)] + fields)


def elementary_expected(p: int, k: int, n: int) -> dict:
    """q_{2n}(E(p,k)) interval from the paper's polynomials (odd p, n = 2..4)."""
    two_mu = {
        2: k * k - k + 2,
        3: (k**3 + 5 * k - 6) // 3,
        4: (k**4 + 2 * k**3 + 11 * k**2 - 14 * k + 24) // 12,
    }
    diff = {
        2: (k * k - 3 * k + 4) // 2,
        3: (k**3 - 3 * k**2 + 8 * k - 12) // 6,
        4: (k**4 - 2 * k**3 + 11 * k**2 - 34 * k + 48) // 24,
    }
    dims = [row[0] for row in graded_counts(1, [0] * k, n)]
    e_n = max(euler_term(rational_dims(n), n), euler_term(dims, n))
    return {"lower": max(e_n, diff[n]), "upper": two_mu[n]}


def isotypic_expected(k: int, m: int) -> dict:
    """q_4 of U(5,k,a,m): m = 4 has 2a != 0, m = 2 has an order-two eigenvalue (k >= 2)."""
    if m == 4:
        return {"lower": max(2, k * (k - 3) // 2), "upper": k * (k - 1)}
    return {"lower": k * (k - 1) // 2 + 2, "upper": k * (k - 1) + 2}


# ---------------------------------------------------------------------------
# closed_forms: q_bound_report on closed-form families, never the oracle

CLOSED_PRIMES = (3, 5, 7, 11, 13)
PER_FAMILY = 26  # queries per family and degree; J(k) adds one per (k, n)


def _units(m: int) -> list[int]:
    return [a for a in range(m) if math.gcd(a, m) == 1]


def _cyclic(rng, n):
    return f"C({rng.randint(2, 64)})", {}


def _elementary(rng, n):
    p, k = rng.choice((2, 3, 5, 7)), rng.randint(1, 8)
    return f"E({p},{k})", elementary_expected(p, k, n) if p > 2 and n <= 4 else {}


def _product(rng, n):
    kind = rng.randrange(3)
    if kind == 0:
        return f"Prod(E(3,{rng.randint(1, 3)}),E(3,{rng.randint(1, 3)}))", {}
    if kind == 1:
        return f"Prod(E(3,{rng.randint(1, 3)}),C({rng.randint(2, 30)}))", {}
    return f"Prod(C({rng.randint(2, 30)}),C({rng.randint(2, 30)}))", {}


def _isotypic(rng, n):
    p = rng.choice(CLOSED_PRIMES)
    m = rng.choice([d for d in range(2, p) if (p - 1) % d == 0])
    a, k = rng.choice(_units(m)), rng.randint(1, 6)
    require_exists(p, m, [a] * k)
    expected = isotypic_expected(k, m) if p == 5 and n == 2 and k >= 2 else {}
    return f"U({p},{k},{a},{m})", expected


def _semidirect(rng, n):
    p = rng.choice(CLOSED_PRIMES + (31,))
    m = rng.choice([d for d in range(2, p) if (p - 1) % d == 0])
    exps = [rng.randrange(m) for _ in range(rng.randint(1, 5))]
    require_exists(p, m, exps)
    return f"Usd({p},{m};{','.join(map(str, exps))})", {}


FAMILIES = (("C", _cyclic), ("E", _elementary), ("Prod", _product), ("U", _isotypic), ("Usd", _semidirect))


def closed_forms_round(rng, small: bool) -> list[Query]:
    degrees = range(2, 5) if small else range(2, 9)
    ks = range(1, 5) if small else range(1, 15)
    per_family = 4 if small else PER_FAMILY
    queries = []
    for n in degrees:
        for k in ks:
            require_exists(2, 2**k - 1, [1 << i for i in range(k)])
            expected = {"upper": 2} if k >= 3 and n == 2 else {}
            queries.append(Query("bounds", f"J({k})", n, f"bounds J({k}) n={n}", (), expected=expected))
        for family, draw in FAMILIES:
            for _ in range(per_family):
                text, expected = draw(rng, n)
                queries.append(Query("bounds", text, n, f"bounds {family} n={n}", (), expected=expected))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# oracle_trivial: bar oracle with trivial coefficients over F2 and F3

QUATERNION_QUERIES = [(o, 2) for o in (8, 12, 16, 24, 32, 36, 48, 64)] + [(o, 3) for o in (8, 12, 16)]
QUATERNION_BUDGET_PROBES = [(32, 3)]  # BudgetError after ~0.4 s of work
# table source -> relabelings per round; each table is queried at n = 2 and n = 3.
# The counts put the latency percentiles inside blocks of like-cost queries
# (p50 among the order-9 tables at n = 2, p90 among them at n = 3), so that a
# relabeling that shifts one query's cost does not move them.
TABLE_SOURCES = {
    "C(4)": 8, "E(2,2)": 8, "C(6)": 8, "U(3,1,1,2)": 8, "C(8)": 8, "E(2,3)": 8,
    "Prod(C(2),C(4))": 8, "C(9)": 6, "E(3,2)": 6, "J(2)": 1, "Prod(C(2),C(6))": 1,
}
VERIFY_JOBS = [
    ("C(2)", 2), ("C(3)", 3), ("C(4)", 2), ("C(6)", 2), ("C(6)", 3), ("E(2,2)", 2), ("E(2,3)", 2),
    ("E(3,2)", 3), ("U(3,1,1,2)", 2), ("U(3,1,1,2)", 3), ("Prod(C(2),C(4))", 2), ("C(8)", 2),
    ("C(9)", 3), ("J(2)", 2),
]
VERIFY_NMAX = 3


def write_relabeled_table(api, source: str, rng, path: str) -> int:
    """Realize `source`, conjugate its table by a seeded permutation fixing 0, write it to `path`."""
    mul = api.realize(api.parse_spec(source)).mul
    order = len(mul)
    perm = [0] + rng.sample(range(1, order), order - 1)
    new = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            new[perm[a]][perm[b]] = perm[int(mul[a][b])]
    with open(path, "w") as fh:
        fh.write(f"{order}\n")
        fh.writelines(" ".join(map(str, row)) + "\n" for row in new)
    return order


def oracle_trivial_round(api, rng, small: bool, workdir: str, tag: str) -> list[Query]:
    quaternions = [(8, 2), (12, 2), (8, 3)] if small else QUATERNION_QUERIES
    sources = {"C(4)": 1, "E(2,2)": 1, "C(6)": 1} if small else TABLE_SOURCES
    jobs = VERIFY_JOBS[:2] if small else VERIFY_JOBS
    queries = []
    for order, n in quaternions + QUATERNION_BUDGET_PROBES:
        error = "BudgetError" if (order, n) in QUATERNION_BUDGET_PROBES else None
        queries.append(
            Query("bounds", f"Q({order})", n, f"bounds Q({order}) n={n}", prime_factors(order),
                  expect_error=error, expected={"e_n": quaternion_en(order, n)})
        )
    for source, copies in sources.items():
        for i in range(copies):
            path = os.path.join(workdir, f"{tag}-{len(queries)}.tbl")
            order = write_relabeled_table(api, source, rng, path)
            for n in (2, 3):
                queries.append(
                    Query("bounds", f"Table({path})", n, f"bounds Table[{source}] n={n}", prime_factors(order),
                          expected={"e_n_of": source})
                )
    for text, p in jobs:
        queries.append(Query("verify", text, VERIFY_NMAX, f"verify {text} p={p}", (p,), p=p))
    return spread(queries)


# ---------------------------------------------------------------------------
# oracle_twisted: Swan formula on the m character modules of Usd(p,m;...)

# (p, m, k, copies at n = 1) with m | p-1 and |G| = p^k m <= 64. The n = 1
# copies put the latency median inside the block of like-cost queries at
# orders 39, 50 and 54. Degree 2 stops at |G| = 22 (18 for p = 3): order 42
# at n = 2 takes 92 s, order 54 over F3 takes 8 s.
TWISTED_GROUPS = [
    (3, 2, 1, 4), (3, 2, 2, 4), (3, 2, 3, 7), (5, 2, 1, 4), (5, 4, 1, 4), (5, 2, 2, 7), (7, 2, 1, 4),
    (7, 3, 1, 4), (7, 6, 1, 5), (11, 2, 1, 4), (11, 5, 1, 5), (13, 2, 1, 4), (13, 3, 1, 7), (13, 4, 1, 5),
]
TWISTED_HEAVY = 2  # copies per round of classes taking about a second or more
TWISTED_LIGHT = 5
# (p, m, k, n, copies) of the typed refusals today: the dense p >= 5 cochains
# exceed the 2 GiB budget. The p90 falls among the copies of order 20 at n = 3.
TWISTED_PROBES = [(13, 4, 1, 2, 3), (11, 5, 1, 2, 3), (5, 4, 1, 3, 5), (7, 3, 1, 3, 1)]


def twisted_exponents(rng, m: int, k: int) -> list[int]:
    """A seeded member of the class (1, 2, ..., k) mod m: scaled by a unit, permuted.

    The members are isomorphic groups, so their cost is the same.
    """
    unit = rng.choice(_units(m))
    exps = [unit * i % m for i in range(1, k + 1)]
    rng.shuffle(exps)
    return exps


def twisted_classes(small: bool) -> list[tuple[int, int, int, int, int, str | None]]:
    """(p, m, k, n, copies, expected error) per cost class."""
    out = []
    for p, m, k, copies in TWISTED_GROUPS:
        order = p**k * m
        if small and order > 22:
            continue
        out.append((p, m, k, 1, 1 if small else copies, None))
        if order <= (18 if p == 3 else 22):
            heavy = order >= 20
            if not (small and heavy):
                out.append((p, m, k, 2, 1 if small else TWISTED_HEAVY if heavy else TWISTED_LIGHT, None))
        if order <= 10 and not (small and order > 6):
            out.append((p, m, k, 3, 1 if small else TWISTED_HEAVY if order == 10 else TWISTED_LIGHT, None))
    probes = [(13, 4, 1, 2, 1)] if small else TWISTED_PROBES
    out += [(p, m, k, n, copies, "BudgetError") for p, m, k, n, copies in probes]
    return out


def oracle_twisted_round(api, rng, small: bool) -> list[Query]:
    queries = []
    for p, m, k, n, copies, error in twisted_classes(small):
        for _ in range(copies):
            exps = twisted_exponents(rng, m, k)
            require_exists(p, m, exps)
            text = f"Usd({p},{m};{','.join(map(str, exps))})"
            spec = api.parse_spec(text)
            group = api.realize(spec)
            modules = [api.semidirect_character_module(spec, beta, group) for beta in range(m)]
            queries.append(
                Query("mun", text, n, f"mun Usd(p={p},m={m},k={k}) |G|={p**k * m} n={n}", (p,),
                      modules=modules, expect_error=error, expected={"mu": swan_mu(m, exps, n)})
            )
    return spread(queries)


def spread(queries: list[Query]) -> list[Query]:
    """A fixed order that spreads every cost class evenly over the round.

    Copy i of a class with c copies sits at (i + offset) / c; the offsets of
    successive classes follow the golden ratio, so classes with one copy
    (the heaviest queries) land apart as well. The host's speed drifts over
    seconds, so each latency percentile then averages over the whole run.
    """
    groups: dict[str, list[Query]] = {}
    for q in queries:
        groups.setdefault(q.cls, []).append(q)
    keyed = []
    for j, group in enumerate(groups.values()):
        offset = j * 0.6180339887 % 1
        keyed += [((i + offset) / len(group), j, q) for i, q in enumerate(group)]
    return [q for *_, q in sorted(keyed, key=lambda t: t[:2])]


def make_round(api, workload: str, seed: int, index: int, workdir: str, small: bool = False) -> list[Query]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "closed_forms":
        return closed_forms_round(rng, small)
    if workload == "oracle_trivial":
        return oracle_trivial_round(api, rng, small, workdir, f"r{index}")
    if workload == "oracle_twisted":
        return oracle_twisted_round(api, rng, small)
    raise ValueError(f"unknown workload {workload}")


# ---------------------------------------------------------------------------
# Checks, run outside the timed and traced region


class Checker:
    def __init__(self, api):
        self.api = api
        self._source_en: dict[tuple[str, int], int] = {}

    def source_en(self, source: str, n: int) -> int:
        """e_n of a closed-form spec, read from the CLI's `swan` JSON."""
        key = (source, n)
        if key not in self._source_en:
            rows = cli_json(self.api, ["swan", source, "--nmax", str(n)])["rows"]
            self._source_en[key] = next(r["e_n"] for r in rows if r["n"] == n)
        return self._source_en[key]

    def check(self, q: Query, result) -> str | None:
        """None if the answer is right, else the reason it is not."""
        if q.kind == "mun":
            return None if result.mu == q.expected["mu"] else f"mu {result.mu} != {q.expected['mu']}"
        if q.kind == "verify":
            if len(result) != q.n + 1 or not all(r.match for r in result):
                return "oracle disagrees with the closed form: " + str([(r.n, r.closed_form, r.oracle) for r in result])
            return None
        lower, upper = result.lower, result.upper
        if upper is not None and lower > upper:
            return f"inverted interval [{lower}, {upper}]"
        if q.n % 2 == 0 and lower < 2:
            return f"lower {lower} < 2 at even n"
        if upper is not None and upper < (2 if q.n % 2 == 0 else 0):
            return f"upper {upper} below twice the parity floor on mu"
        expected = dict(q.expected)
        if "e_n_of" in expected:
            expected["e_n"] = self.source_en(expected.pop("e_n_of"), q.n)
        for key, want in expected.items():
            got = lower if key in ("lower", "e_n") else upper
            # a report without mu_n has lower = e_n; with mu_n, e_n only bounds it
            ok = got >= want if key == "e_n" and upper is not None else got == want
            if not ok:
                return f"{key}: got {got}, expected {want}"
        return None


def cli_json(api, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = api.cli.main(argv + ["--format", "json"])
    report = json.loads(out.getvalue())
    report["exit_code"] = code
    return report


def run_level_checks(api, workload: str) -> dict[str, str]:
    """Whole-program checks made once per run: name -> "pass", "skipped: ..." or "FAIL: ..."."""
    if workload == "closed_forms":
        report = cli_json(api, ["reproduce"])
        ok = report["exit_code"] == 0 and report["passed"] == report["total"] >= 110
        return {"reproduce": f"{'pass' if ok else 'FAIL'}: {report['passed']}/{report['total']} rows"}
    if workload == "oracle_trivial":
        return {"quaternion_pattern": quaternion_pattern_check(api)}
    return {}


def quaternion_pattern_check(api) -> str:
    """The oracle's h^0..h^3 of Q(8) and Q(12) follow the period-4 pattern."""
    missing = [name for name in ("FpModule", "cochain_cohomology_dim") if not hasattr(api, name)]
    if missing:
        return f"skipped: eulerchar has no {', '.join(missing)}"
    for order in (8, 12):
        group = api.realize(api.parse_spec(f"Q({order})"))
        for p in prime_factors(order):
            module = api.FpModule.trivial(p, order)
            dims = [api.cochain_cohomology_dim(group, module, t).h for t in range(4)]
            if dims != quaternion_dims(order, p, 3):
                return f"FAIL: Q({order}) over F{p}: {dims} != {quaternion_dims(order, p, 3)}"
    return "pass: Q(8) over F2, Q(12) over F2 and F3"
