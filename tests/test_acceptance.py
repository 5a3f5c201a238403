"""Acceptance criteria, exact tolerances.

The values of `eulerchar reproduce` are checked once, one test per row of
`reference.reference_rows()`; the criterion tests keep only what no row
holds.  Run with `pytest tests/test_acceptance.py -v -s` to see one PASS
line per criterion.
"""

import time
from random import Random

import pytest

from eulerchar import (
    Cyclic,
    FpModule,
    Product,
    Semidirect,
    Trivial,
    VerdictKind,
    annotation_for,
    cochain_cohomology_dim,
    compute_mun,
    parse_spec,
    q_bound_report,
    realize,
    verify_series,
)
from eulerchar.characters import alternating_sum, graded_characters
from eulerchar.groupspec import elementary_spec, frobenius_spec, isotypic_spec
from eulerchar.reference import reference_rows

REFERENCE_ROWS = reference_rows()


def _report(name):
    print(f"PASS {name}")


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=[row["name"] for row in REFERENCE_ROWS])
def test_reference_row(row):
    assert row["pass"], row


def test_criterion_1_elementary_abelian_polynomials():
    # the polynomial values are reference rows; this bounds their cost
    start = time.time()
    for p in (3, 5):
        for k in range(1, 9):
            for n in (1, 2, 3, 4):
                compute_mun(elementary_spec(p, k), n)
    elapsed = time.time() - start
    assert elapsed < 1.0, f"polynomial checks took {elapsed:.2f}s"
    _report("criterion 1: the elementary abelian mu_1..mu_4 behind the polynomial rows (p in {3,5}, k = 1..8) in under 1 s")


def test_criterion_2_frobenius_family():
    start = time.time()
    for k in range(3, 11):
        compute_mun(frobenius_spec(k), 2)  # timed; the values are reference rows
    for k in (9, 10):  # the rows cover k = 3..8
        spec = frobenius_spec(k)
        m = spec.m
        graded = graded_characters(m, spec.exps, 2, 2)
        local = [alternating_sum([degree[beta] for degree in graded], 2) for beta in range(m)]  # the twist r is the module L(-r)
        expected_support = {(-(1 << i) - (1 << j)) % m for i in range(k) for j in range(i + 1, k)}
        for r in range(1, m):
            value = local[-r % m]
            if r in expected_support:
                assert value == 1, (k, r, value)
            else:
                assert value == 0, (k, r, value)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"Frobenius-family checks took {elapsed:.2f}s"
    _report("criterion 2: the exact support of the local Euler contributions of J(9) and J(10)")


def test_criterion_4_feasibility_verdicts():
    # beyond the rows' ranks: E(p, 6), U_7 (2a != 0), U_4 (2a = 0), J(7) and J(8)
    for p in (2, 3, 5):
        assert q_bound_report(elementary_spec(p, 6), 2).verdict.kind is VerdictKind.IMPOSSIBLE_QS
    assert q_bound_report(isotypic_spec(5, 7, 1, 4), 2).verdict.kind is VerdictKind.IMPOSSIBLE_QS
    assert q_bound_report(isotypic_spec(5, 4, 1, 2), 2).verdict.kind is VerdictKind.IMPOSSIBLE_QS
    for k in (7, 8):
        assert q_bound_report(frobenius_spec(k), 2).verdict.kind is VerdictKind.REALIZABLE_QS
    _report("criterion 4: rational homology 4-sphere verdicts (obstructions and realizability)")


def test_criterion_5_periodicity_exact_values():
    for m in (7, 12):  # the rows cover C(2), C(3) and C(6)
        spec = Cyclic(m)
        assert spec.known_period() == 2
        assert q_bound_report(spec, 2).exact == 2
        assert q_bound_report(spec, 3).exact == 0
    _report("criterion 5: exact q values for C(7) and C(12) of period 2")


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
        return elementary_spec(rng.choice((2, 3, 5, 7)), rng.randrange(1, 5))
    if family == 2:
        return Product(
            elementary_spec(3, rng.randrange(1, 3)),
            elementary_spec(3, rng.randrange(1, 3)),
        )
    # only groups that exist: exponent multisets stable under a -> p*a mod m
    if family == 3:
        m = rng.choice((2, 3, 4, 6, 7, 9))
        p = rng.choice([q for q in (3, 5, 7, 11, 13, 19, 29) if (q - 1) % m == 0])
        units = [a for a in range(1, m) if _gcd(a, m) == 1] or [0]
        return isotypic_spec(p, rng.randrange(1, 5), rng.choice(units), m)
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
    return frobenius_spec(rng.randrange(1, 9))


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
    a4 = realize(frobenius_spec(2))
    base = cochain_cohomology_dim(a4, FpModule.trivial(2, 12), 2).h
    for _ in range(10):
        perm = [0] + rng.sample(range(1, 12), 11)
        h = cochain_cohomology_dim(a4.relabel(perm), FpModule.trivial(2, 12), 2).h
        assert h == base
    _report("criterion 7: interval, parity, floor, and relabeling properties (500 random specs)")


def test_criterion_8_a4_degree_four_and_annotations():
    # the rows hold mu_4(A4), the interval and the annotation equal to KNOWN_EXACT_Q4["A4"]
    from eulerchar import KNOWN_EXACT_Q4

    assert KNOWN_EXACT_Q4["A4"] == 4
    _report("criterion 8: the annotated exact value q4(A4) = 4")
