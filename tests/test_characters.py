import math
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

from eulerchar import (
    CharMultiset,
    EulerCharError,
    Frobenius,
    Semidirect,
    SemidirectIsotypic,
    compute_en,
    compute_mun,
    exterior_power,
    frobenius_exponents,
    graded_character,
    series_bundle,
    series_elementary_abelian,
    swan_formula,
    symmetric_power,
    twisted_euler,
)
from eulerchar import characters
from eulerchar.characters import alternating_sum, graded_characters, twisted_series


def ms(m, *elements):
    return CharMultiset.from_elements(m, elements)


def local_euler(chars, p, r):
    """The degree-2 sum h^2 - h^1 + h^0 against the twist r, from its terms.

    h^0 is 1 at r = 0; h^2 holds the pairwise sums, and for p = 2 also the
    squares (exponents doubled), less the degree-one classes of h^1; for odd
    p the Bocksteins in h^2 cancel h^1.  The twist r is the module L(-r).
    """
    value = exterior_power(chars, 2).multiplicity(-r) + (1 if r % chars.m == 0 else 0)
    if p == 2:
        value += chars.scaled(2).multiplicity(-r) - chars.multiplicity(-r)
    return value


def e2(spec):
    return compute_en(series_bundle(spec, 2).values(), 2)


def test_tensor():
    assert ms(3, 1, 2).tensor(ms(3, 0)) == ms(3, 1, 2)
    assert ms(3, 1, 2).tensor(ms(3, 1)) == ms(3, 2, 0)
    assert ms(3, 1, 1).tensor(ms(3, 2)) == ms(3, 0, 0)
    assert ms(4, 1, 2).tensor(ms(4, 1, 3)).dim == 4
    with pytest.raises(EulerCharError):
        ms(3, 1).tensor(ms(4, 1))


def test_exterior_square():
    assert exterior_power(ms(3, 1, 2), 2) == ms(3, 0)
    assert exterior_power(ms(7, 1, 2, 4), 2) == ms(7, 3, 5, 6)
    assert exterior_power(ms(5, 2), 2) == CharMultiset(5)
    # brute force against index pairs, repeats included
    rng = Random(7)
    for _ in range(20):
        m = rng.randrange(1, 12)
        elems = [rng.randrange(m) for _ in range(rng.randrange(0, 6))]
        expect = CharMultiset.from_elements(m, (a + b for a, b in combinations(elems, 2)))
        assert exterior_power(CharMultiset.from_elements(m, elems), 2) == expect


def test_squares_double_the_exponents():
    # in characteristic 2 the Bockstein image of a degree-one class is its square
    assert ms(3, 1, 2).scaled(2) == ms(3, 2, 1)
    assert ms(7, 1, 2, 4).scaled(2) == ms(7, 2, 4, 1)


def test_invariants_dim():
    assert CharMultiset(5, {0: 2, 3: 1}).invariants_dim() == 2
    assert ms(3, 1, 2).invariants_dim() == 0
    assert CharMultiset(1, {0: 1}).invariants_dim() == 1


def test_dimension_bookkeeping():
    rng = Random(11)
    for _ in range(25):
        m = rng.randrange(1, 10)
        a = CharMultiset.from_elements(m, (rng.randrange(m) for _ in range(rng.randrange(1, 5))))
        b = CharMultiset.from_elements(m, (rng.randrange(m) for _ in range(rng.randrange(1, 5))))
        assert a.tensor(b).dim == a.dim * b.dim
        assert exterior_power(a, 2).dim == math.comb(a.dim, 2)


def test_powers_against_brute_force():
    rng = Random(13)
    for _ in range(15):
        m = rng.randrange(1, 9)
        elems = [rng.randrange(m) for _ in range(rng.randrange(1, 5))]
        chars = CharMultiset.from_elements(m, elems)
        for s in range(0, 4):
            expect = CharMultiset.from_elements(m, (sum(c) for c in combinations(elems, s)))
            assert exterior_power(chars, s) == expect
            expect = CharMultiset.from_elements(m, (sum(c) for c in combinations_with_replacement(elems, s)))
            assert symmetric_power(chars, s) == expect


def test_graded_character_structure():
    n2 = frobenius_exponents(2)
    assert graded_character(n2, 2, 0) == CharMultiset(3, {0: 1})
    # degree two over F_2: squares plus pairwise sums
    assert graded_character(n2, 2, 2) == ms(3, 2, 1, 0)
    # degree two at odd p: Bockstein image plus pairwise sums
    chars = ms(5, 1, 3)
    assert graded_character(chars, 3, 2) == chars.union(exterior_power(chars, 2))


def test_graded_character_total_dimension():
    rng = Random(17)
    for _ in range(10):
        m = rng.choice([1, 2, 3, 4, 5, 7])
        p = rng.choice([q for q in (2, 3, 5) if m % q != 0])
        k = rng.randrange(1, 6)
        chars = CharMultiset.from_elements(m, (rng.randrange(m) for _ in range(k)))
        for n in range(0, 9):
            expected = series_elementary_abelian(p, k, p, n).dims[n]
            assert graded_character(chars, p, n).dim == expected


def test_graded_characters_against_brute_force():
    # degree t of H*((Z/p)^k; F_p): monomials in the degree-one slots for
    # p = 2; for odd p an exterior monomial of degree s times a symmetric
    # one of degree (t - s) / 2 in the Bocksteins, which carry the same
    # characters
    rng = Random(29)
    for p in (2, 3, 5, 7, 13):
        for k in range(6):
            for _ in range(3):
                m = rng.choice([q for q in range(1, 16) if q % p])
                elems = [rng.randrange(m) for _ in range(k)]
                graded = graded_characters(CharMultiset.from_elements(m, elems), p, 8)
                assert len(graded) == 9
                for t in range(9):
                    if p == 2:
                        sums = [sum(c) for c in combinations_with_replacement(elems, t)]
                    else:
                        sums = [
                            sum(a) + sum(b)
                            for s in range(t % 2, t + 1, 2)
                            for a in combinations(elems, s)
                            for b in combinations_with_replacement(elems, (t - s) // 2)
                        ]
                    assert graded[t] == CharMultiset.from_elements(m, sums), (p, m, elems, t)


def test_twisted_euler_builds_one_power_table_per_kind(monkeypatch):
    # one symmetric table at p = 2; one exterior and one symmetric at odd p
    built = []
    power_table = characters._power_table

    def counted(chars, top, exterior):
        built.append((top, exterior))
        return power_table(chars, top, exterior)

    monkeypatch.setattr(characters, "_power_table", counted)
    for chars, p, n, tables in (
        (frobenius_exponents(4), 2, 7, [(7, False)]),
        (ms(6, 1, 5, 5), 7, 7, [(7, True), (3, False)]),
        (ms(4, 1, 3), 5, 0, [(0, True), (0, False)]),
    ):
        built.clear()
        twisted_euler(chars, p, n)
        assert built == tables, (p, n)
        built.clear()
        graded_character(chars, p, n)
        assert built == tables, (p, n)


def test_twisted_euler_j2():
    assert twisted_euler(frobenius_exponents(2), 2, 2)[0] == 2


def test_twisted_euler_isotypic():
    # k copies of a with 2a != 0, the twist the negated double: C(k,2) invariants
    for k in range(2, 7):
        chars = CharMultiset(4, {1: k})
        assert twisted_euler(chars, 5, 2)[-2 % 4] == k * (k - 1) // 2
        order2 = CharMultiset(2, {1: k})
        assert twisted_euler(order2, 5, 2)[0] == k * (k - 1) // 2 + 1


def test_twisted_euler_twist_invariance():
    rng = Random(19)
    for _ in range(40):
        m = rng.randrange(1, 13)
        units = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
        unit = rng.choice(units)
        p = rng.choice([q for q in (2, 3, 5, 7) if m % q != 0])
        chars = CharMultiset.from_elements(m, (rng.randrange(m) for _ in range(rng.randrange(1, 5))))
        beta = rng.randrange(m)
        assert twisted_euler(chars, p, 2)[-beta % m] == twisted_euler(chars.scaled(unit), p, 2)[-beta * unit % m]


def test_appendix_b_cancellation_pattern():
    for k in range(3, 9):
        chars = frobenius_exponents(k)
        m = chars.m
        local = twisted_euler(chars, 2, 2)
        doubles = {(-(1 << i) - (1 << j)) % m for i in range(k) for j in range(i + 1, k)}
        singles = {(-(1 << i)) % m for i in range(k)}
        assert len(doubles) == k * (k - 1) // 2  # the pairwise values are distinct
        for r in range(1, m):
            value = local[-r % m]
            assert value in (0, 1)
            assert (value == 1) == (r in doubles)
        # at r = -2^l the degree-one and squared contributions cancel
        for r in singles:
            squares = chars.scaled(2).multiplicity(-r)
            degree_one = chars.multiplicity(-r)
            assert squares >= 1 and degree_one >= 1
            assert local[-r % m] == 0


def test_mu2_values():
    assert compute_mun(Frobenius(2), 2).mu == 2
    for k in range(3, 9):
        assert compute_mun(Frobenius(k), 2).mu == 1
    for k in range(2, 7):
        assert compute_mun(SemidirectIsotypic(5, k, 1, 4), 2).mu == k * (k - 1) // 2
        assert compute_mun(SemidirectIsotypic(5, k, 1, 2), 2).mu == k * (k - 1) // 2 + 1


def test_e2_values():
    assert e2(Frobenius(2)) == 3
    for k in range(2, 7):
        assert e2(SemidirectIsotypic(5, k, 1, 4)) == 2
        assert e2(SemidirectIsotypic(5, k, 1, 2)) == k * (k - 1) // 2 + 2


def test_mun_matches_mu2_and_a4_degree_four():
    # degree 2 against its terms written out by hand, over every twist
    rng = Random(23)
    for _ in range(25):
        m = rng.choice([1, 2, 3, 4, 5, 7, 9])
        p = rng.choice([q for q in (2, 3, 5) if m % q != 0])
        chars = CharMultiset.from_elements(m, (rng.randrange(m) for _ in range(rng.randrange(1, 5))))
        assert twisted_euler(chars, p, 2) == [local_euler(chars, p, -beta) for beta in range(m)]
        simples = [(1, dims) for dims in twisted_series(chars, p, 2).values()]
        assert max(1, swan_formula(2, simples)) == max(1, *(local_euler(chars, p, r) for r in range(m)))
    assert compute_mun(Frobenius(2), 4).mu == 1


def test_mun_trivial_complement_matches_pgroup_sums():
    # m = 1: the alternating partial sums of the elementary abelian series
    for p, k, n in [(2, 2, 3), (3, 2, 4), (5, 3, 2)]:
        series = series_elementary_abelian(p, k, p, n)
        assert twisted_series(CharMultiset(1, {0: k}), p, n) == {0: list(series.dims)}
        floor = 1 if n % 2 == 0 else 0
        assert compute_mun(Semidirect(p, (0,) * k, 1), n).mu == max(floor, alternating_sum(series.dims, n))


def test_gcd_precondition():
    with pytest.raises(EulerCharError):
        twisted_euler(ms(4, 1), 2, 2)
    with pytest.raises(EulerCharError):
        twisted_series(ms(9, 1), 3, 2)
