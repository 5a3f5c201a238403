"""Acceptance criteria, one test per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import time
from random import Random

from eulerchar import (
    CharMultiset,
    Cyclic,
    ElementaryAbelian,
    FpModule,
    Frobenius,
    Product,
    Quaternion,
    Semidirect,
    SemidirectIsotypic,
    Trivial,
    VerdictKind,
    annotation_for,
    cochain_cohomology_dim,
    compute_en,
    compute_mun,
    frobenius_exponents,
    mun_semidirect,
    parse_spec,
    q_bound_report,
    qs4_verdict,
    realize,
    series_bundle,
    twisted_euler,
    verify_series,
)


def _report(name):
    print(f"PASS {name}")


def _e2(spec):
    return compute_en(series_bundle(spec, 2).values(), 2)


def test_criterion_1_elementary_abelian_polynomials():
    start = time.time()
    for p in (3, 5):
        for k in range(1, 9):
            spec = ElementaryAbelian(p, k)
            mu = {n: compute_mun(spec, n).mu for n in (1, 2, 3, 4)}
            assert mu[2] - mu[1] == (k * k - 3 * k + 4) // 2
            assert 2 * mu[2] == k * k - k + 2
            assert mu[3] - mu[2] == (k**3 - 3 * k**2 + 8 * k - 12) // 6
            assert 2 * mu[3] == (k**3 + 5 * k - 6) // 3
            assert mu[4] - mu[3] == (k**4 - 2 * k**3 + 11 * k**2 - 34 * k + 48) // 24
            assert 2 * mu[4] == (k**4 + 2 * k**3 + 11 * k**2 - 14 * k + 24) // 12
    elapsed = time.time() - start
    assert elapsed < 1.0, f"polynomial checks took {elapsed:.2f}s"
    _report("criterion 1: elementary abelian mu-difference and 2*mu polynomials (p in {3,5}, k = 1..8)")


def test_criterion_2_frobenius_family():
    start = time.time()
    assert mun_semidirect(frobenius_exponents(2), 2, 2) == 2
    assert _e2(Frobenius(2)) == 3
    for k in range(3, 11):
        assert mun_semidirect(frobenius_exponents(k), 2, 2) == 1, k
    for k in range(3, 11):
        chars = frobenius_exponents(k)
        m = chars.m
        local = twisted_euler(chars, 2, 2)  # the twist r is the module L(-r)
        expected_support = {(-(1 << i) - (1 << j)) % m for i in range(k) for j in range(i + 1, k)}
        for r in range(1, m):
            value = local[-r % m]
            if r in expected_support:
                assert value == 1, (k, r, value)
            else:
                assert value == 0, (k, r, value)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"Frobenius-family checks took {elapsed:.2f}s"
    _report("criterion 2: mu_2(J_k) values and the exact support of the local Euler contributions")


def test_criterion_3_isotypic_formulas():
    p = 5
    for k in range(2, 7):
        free = SemidirectIsotypic(p, k, 1, 4)  # 2a != 0 mod m
        assert _e2(free) == 2
        assert mun_semidirect(free.exponents(), p, 2) == k * (k - 1) // 2
        qb = q_bound_report(free, 2)
        assert (qb.lower, qb.upper) == (max(2, k * (k - 3) // 2), k * (k - 1))

        order2 = SemidirectIsotypic(p, k, 1, 2)  # 2a = 0 mod m
        assert _e2(order2) == k * (k - 1) // 2 + 2
        assert mun_semidirect(order2.exponents(), p, 2) == k * (k - 1) // 2 + 1
        qb = q_bound_report(order2, 2)
        assert qb.lower == k * (k - 1) // 2 + 2
    _report("criterion 3: isotypic semidirect e_2, mu_2, and q_4 intervals (p = 5, k = 2..6)")


def test_criterion_4_feasibility_verdicts():
    for p in (2, 3, 5):
        for k in (4, 5, 6):
            assert qs4_verdict(ElementaryAbelian(p, k)).verdict.kind is VerdictKind.IMPOSSIBLE_QS
    for k in (5, 6, 7):
        assert qs4_verdict(SemidirectIsotypic(5, k, 1, 4)).verdict.kind is VerdictKind.IMPOSSIBLE_QS
    for k in (2, 3, 4):
        assert qs4_verdict(SemidirectIsotypic(5, k, 1, 2)).verdict.kind is VerdictKind.IMPOSSIBLE_QS
    for k in range(3, 9):
        assert qs4_verdict(Frobenius(k)).verdict.kind is VerdictKind.REALIZABLE_QS
    small = SemidirectIsotypic(5, 2, 1, 4)
    assert compute_mun(small, 2).mu == 1
    assert qs4_verdict(small).verdict.kind is VerdictKind.REALIZABLE_QS
    _report("criterion 4: rational homology 4-sphere verdicts (obstructions and realizability)")


def test_criterion_5_periodicity_exact_values():
    for m in (2, 3, 7, 12):
        spec = Cyclic(m).with_meta(period=2)
        assert q_bound_report(spec, 2).exact == 2
        assert q_bound_report(spec, 3).exact == 0
    q8 = Quaternion(8).with_meta(period=4, exceptional=False, d=2, solvable=True)
    assert q_bound_report(q8, 2).exact == 2
    assert q_bound_report(q8, 3).exact == 0
    # 2 divides 6, so 6 is honestly a declared period for C(7)
    period6 = Cyclic(7).with_meta(period=6)
    assert q_bound_report(period6, 4).exact == 2
    assert q_bound_report(period6, 5).exact == 0
    _report("criterion 5: exact q values for declared periods (cyclic, quaternion, period 6)")


def test_criterion_6_oracle_equivalence():
    start = time.time()
    jobs = [(f"C({m})", p, 3) for m in (2, 3, 4, 6) for p in (2, 3)]
    jobs += [("E(2,2)", 2, 3), ("E(2,3)", 2, 3), ("E(3,2)", 3, 3)]
    jobs += [("J(2)", 2, 3), ("J(2)", 3, 3)]
    jobs += [("C(2)", 2, 4), ("C(4)", 2, 4), ("E(2,2)", 2, 4)]
    for text, p, nmax in jobs:
        rows = verify_series(parse_spec(text), p, nmax)
        assert all(r.match for r in rows), (text, p, [(r.n, r.closed_form, r.oracle) for r in rows])
    elapsed = time.time() - start
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(f"criterion 6: oracle equals closed forms on the acceptance list ({elapsed:.1f}s)")


def _random_spec(rng: Random):
    family = rng.randrange(6)
    if family == 0:
        return Cyclic(rng.randrange(2, 31))
    if family == 1:
        return ElementaryAbelian(rng.choice((2, 3, 5, 7)), rng.randrange(1, 5))
    if family == 2:
        return Product(
            ElementaryAbelian(3, rng.randrange(1, 3)),
            ElementaryAbelian(3, rng.randrange(1, 3)),
        )
    # only groups that exist: exponent multisets stable under a -> p*a mod m
    if family == 3:
        m = rng.choice((2, 3, 4, 6, 7, 9))
        p = rng.choice([q for q in (3, 5, 7, 11, 13, 19, 29) if (q - 1) % m == 0])
        units = [a for a in range(1, m) if _gcd(a, m) == 1] or [0]
        return SemidirectIsotypic(p, rng.randrange(1, 5), rng.choice(units), m)
    if family == 4:
        m = rng.choice((2, 3, 4, 5, 8))
        p = rng.choice([q for q in (3, 5, 7) if m % q != 0])
        exps = []
        for _ in range(rng.randrange(1, 5)):
            orbit = [rng.randrange(m)]
            while p * orbit[-1] % m != orbit[0]:
                orbit.append(p * orbit[-1] % m)
            if len(exps) + len(orbit) <= 4:
                exps += orbit
        return Semidirect(p, tuple(exps), m)
    return Frobenius(rng.randrange(1, 9))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_criterion_7_property_checks():
    rng = Random(20260810)
    for _ in range(500):
        spec = _random_spec(rng)
        n = rng.choice((2, 3, 4))
        qb = q_bound_report(spec, n)
        if qb.upper is not None:
            assert qb.lower <= qb.upper, (spec, n, qb)
        if n % 2 == 0:
            assert qb.lower >= 2, (spec, n, qb)
        res = compute_mun(spec, n)
        floor = 1 if n % 2 == 0 else 0
        assert res.mu >= floor, (spec, n)
        assert res.mu_prime <= res.mu
    # relabeling invariance of the oracle on ten scrambles of A4
    a4 = realize(Frobenius(2))
    base = cochain_cohomology_dim(a4, FpModule.trivial(2, 12), 2).h
    for _ in range(10):
        perm = [0] + rng.sample(range(1, 12), 11)
        h = cochain_cohomology_dim(a4.relabel(perm), FpModule.trivial(2, 12), 2).h
        assert h == base
    _report("criterion 7: interval, parity, floor, and relabeling properties (500 random specs)")


def test_criterion_8_a4_degree_four_and_annotations():
    assert mun_semidirect(frobenius_exponents(2), 2, 4) == 1
    qb = qs4_verdict(Frobenius(2))
    assert (qb.lower, qb.upper) == (3, 4)
    assert qb.annotations["q4"] == 4
    from eulerchar import KNOWN_EXACT_Q4

    assert KNOWN_EXACT_Q4["A4"] == 4 and KNOWN_EXACT_Q4["A5"] == 4
    _report("criterion 8: mu_4(A4) = 1 and the annotated exact values next to the computed interval")
