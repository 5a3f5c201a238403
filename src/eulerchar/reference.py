"""The package's reference values, recomputed: the rows of `eulerchar reproduce`.

Each row names one value from the paper or from a closed form, the value
the package computes now and the value expected.  The CLI imports this
module only when `reproduce` runs.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .characters import alternating_sum, graded_characters
from .groupspec import Quaternion, elementary_spec, frobenius_spec, isotypic_spec, parse_spec, realize
from .qbounds import KNOWN_EXACT_Q4, euler_sign_check, q_bound_report
from .swan import compute_en, compute_mun, series_bundle


def reference_rows() -> list[dict]:
    """One row per reference value: name, computed, expected and whether they agree."""
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
    g = realize(frobenius_spec(2))
    row("J(2) realization: order", g.order, 12)
    row("J(2) realization: nonabelian", not g.is_abelian(), True)
    row("J(2) realization: element orders", sorted(set(g.element_orders())), [1, 2, 3])

    # characters of Z/m, as sorted (residue, multiplicity) pairs
    j2, j3 = frobenius_spec(2), frobenius_spec(3)
    row("J(2) eigenvalue exponents", sorted(Counter(j2.exps).items()), [(1, 1), (2, 1)])
    row("J(3) eigenvalue exponents", sorted(Counter(j3.exps).items()), [(1, 1), (2, 1), (4, 1)])

    # character decompositions in degree two
    def doubled(spec):
        return Counter(2 * a % spec.m for a in spec.exps)

    def pairwise(spec):
        return Counter((a + b) % spec.m for a, b in combinations(spec.exps, 2))

    row("pairwise-sum decomposition of {1,2} mod 3", sorted(pairwise(j2).items()), [(0, 1)])
    row("exponent doubling of {1,2} mod 3", sorted(doubled(j2).items()), [(1, 1), (2, 1)])
    row("degree-2 character = doubling + pairwise sums (J(3))",
        sorted(graded_characters(j3.m, j3.exps, 2, 2)[2].items()),
        sorted((doubled(j3) + pairwise(j3)).items()))

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
                spec = elementary_spec(p, k)
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

    row("mu_2(J(2))", compute_mun(frobenius_spec(2), 2).mu, 2)
    row("e_2(J(2))", e2(frobenius_spec(2)), 3)
    row("mu_2(J(k)), k=3..10", [compute_mun(frobenius_spec(k), 2).mu for k in range(3, 11)], [1] * 8)
    row("mu_4(A4) via the character formula", compute_mun(frobenius_spec(2), 4).mu, 1)

    for k in range(3, 9):
        spec = frobenius_spec(k)
        m = spec.m
        graded = graded_characters(m, spec.exps, 2, 2)
        local = [alternating_sum([degree[beta] for degree in graded], 2) for beta in range(m)]  # the twist r of these rows is L(-r)
        support = sorted(r for r in range(1, m) if local[-r % m] != 0)
        expected = sorted({(-(1 << i) - (1 << j)) % m for i in range(k) for j in range(i + 1, k)})
        row(f"J({k}): twists with nonzero local Euler value", support, expected)
        row(f"J({k}): those local values all equal 1", sorted({local[-r % m] for r in support}), [1])

    # isotypic semidirect products at p = 5
    for k in range(2, 7):
        free = isotypic_spec(5, k, 1, 4)   # squared action fixed-point free
        order2 = isotypic_spec(5, k, 1, 2)  # eigenvalue of order two
        row(f"U_{k} (2a != 0): e_2", e2(free), 2)
        row(f"U_{k} (2a != 0): mu_2", compute_mun(free, 2).mu, k * (k - 1) // 2)
        row(f"U_{k} (2a != 0): mu_2 - mu_1", compute_mun(free, 2).mu - compute_mun(free, 1).mu, k * (k - 3) // 2)
        row(f"U_{k} (2a = 0): e_2", e2(order2), k * (k - 1) // 2 + 2)
        row(f"U_{k} (2a = 0): mu_2", compute_mun(order2, 2).mu, k * (k - 1) // 2 + 1)
        qb = q_bound_report(free, 2)
        row(f"U_{k} (2a != 0): q4 interval", [qb.lower, qb.upper], [max(2, k * (k - 3) // 2), k * (k - 1)])
        qb = q_bound_report(order2, 2)
        row(f"U_{k} (2a = 0): q4 lower", qb.lower, k * (k - 1) // 2 + 2)
        row(f"U_{k} (2a = 0): q4 upper", qb.upper, k * (k - 1) + 2)

    # feasibility verdicts
    for p in (2, 3, 5):
        for k in (4, 5):
            row(f"E({p},{k}) cannot be a QS4 group", q_bound_report(elementary_spec(p, k), 2).verdict.kind.value, "impossible")
    for k in (5, 6):
        row(f"U_{k} (2a != 0) cannot be a QS4 group", q_bound_report(isotypic_spec(5, k, 1, 4), 2).verdict.kind.value, "impossible")
    for k in (2, 3):
        row(f"U_{k} (2a = 0) cannot be a QS4 group", q_bound_report(isotypic_spec(5, k, 1, 2), 2).verdict.kind.value, "impossible")
    for k in (3, 4, 5, 6):
        row(f"J({k}) is a QS4 group", q_bound_report(frobenius_spec(k), 2).verdict.kind.value, "realizable")
    row("U_2 (2a != 0) is a QS4 group", q_bound_report(isotypic_spec(5, 2, 1, 4), 2).verdict.kind.value, "realizable")

    # periodicity: exact values, the period read off the group
    for m in (2, 3, 6):
        row(f"C({m}) period 2: q4", q_bound_report(parse_spec(f"C({m})"), 2).exact, 2)
        row(f"C({m}) period 2: q6", q_bound_report(parse_spec(f"C({m})"), 3).exact, 0)
    q8spec = Quaternion(8, exceptional=False)
    row("Q(8) period 4: q4", q_bound_report(q8spec, 2).exact, 2)
    row("Q(8) period 4: q6", q_bound_report(q8spec, 3).exact, 0)
    # C(7) has period 2, which divides 6, so 6 is also a period of C(7)
    row("declared period 6: q8", q_bound_report(parse_spec("C(7)"), 4).exact, 2)
    row("declared period 6: q10", q_bound_report(parse_spec("C(7)"), 5).exact, 0)

    # higher-dimensional obstruction for rank-3 elementary abelian groups
    qb = q_bound_report(elementary_spec(3, 3), 4)
    row("q8(E(3,3)) lower bound >= 3", qb.lower >= 3, True)
    row("E(3,3) cannot be a QS8 group", qb.verdict.kind.value, "impossible")

    # A4 = J(2): computed interval and annotated exact values
    qb = q_bound_report(frobenius_spec(2), 2)
    row("q4(A4) computed interval", [qb.lower, qb.upper], [3, 4])
    row("q4(A4) annotation", qb.annotations.get("q4"), KNOWN_EXACT_Q4["A4"])
    row("q4(A5) annotation", KNOWN_EXACT_Q4["A5"], 4)

    # solvable generator count feeding mu_1
    row("mu_1(U_3) = 3 for the faithful isotypic action", compute_mun(isotypic_spec(5, 3, 1, 4), 1).mu, 3)

    # sign rule for Euler characteristics
    row("chi = 2 admissible at n = 2", euler_sign_check(2, 2), True)
    row("chi = 2 inadmissible at n = 3", euler_sign_check(3, 2), False)
    row("chi = 0 admissible at n = 3", euler_sign_check(3, 0), True)
    return rows
