import math
from collections import Counter
from itertools import combinations, combinations_with_replacement
from random import Random

import pytest

from eulerchar import (
    EulerCharError,
    Semidirect,
    compute_en,
    compute_mun,
    parse_spec,
    series_bundle,
    series_elementary_abelian,
    swan_formula,
)
from eulerchar.groupspec import frobenius_spec, isotypic_spec
from eulerchar import characters
from eulerchar.characters import (
    MAX_ENUMERATION_MODULUS,
    alternating_sum,
    graded_characters,
    orbit_series,
)


def residues(m, elements):
    """A character of Z/m from its exponents: residue -> multiplicity."""
    return Counter(e % m for e in elements)


def exterior(m, exps, s):
    """The character of the s-th exterior power, brute force over index subsets."""
    return residues(m, (sum(c) for c in combinations(exps, s)))


def symmetric(m, exps, s):
    """The character of the s-th symmetric power, brute force over index multisets."""
    return residues(m, (sum(c) for c in combinations_with_replacement(exps, s)))


def brute_degree(m, exps, p, t):
    """The character of H^t((Z/p)^k; F_p), brute force over monomials in the index slots.

    p = 2: polynomial on the degree-one classes, so S^t.  Odd p: an exterior
    monomial of degree s times a polynomial one of degree (t - s) / 2 in the
    Bocksteins, which carry the same characters.
    """
    if p == 2:
        return symmetric(m, exps, t)
    return residues(m, (
        sum(a) + sum(b)
        for s in range(t % 2, t + 1, 2)
        for a in combinations(exps, s)
        for b in combinations_with_replacement(exps, (t - s) // 2)
    ))


def twist_series(m, exps, p, n):
    """{beta: h^0..h^n(G; L(beta))} over the twists with cohomology, read off graded_characters."""
    graded = graded_characters(m, exps, p, n)
    support = dict.fromkeys(beta for degree in graded for beta in degree)
    return {beta: [degree[beta] for degree in graded] for beta in support}


def twist_euler(m, exps, p, n):
    """Entry beta: the alternating sum h^n - ... +- h^0 of G with coefficients L(beta)."""
    graded = graded_characters(m, exps, p, n)
    return [alternating_sum([degree[beta] for degree in graded], n) for beta in range(m)]


def local_euler(m, exps, p, r):
    """The degree-2 sum h^2 - h^1 + h^0 against the twist r, from its terms.

    h^0 is 1 at r = 0; h^2 holds the pairwise sums, and for p = 2 also the
    squares (exponents doubled), less the degree-one classes of h^1; for odd
    p the Bocksteins in h^2 cancel h^1.  The twist r is the module L(-r).
    """
    value = residues(m, (a + b for a, b in combinations(exps, 2)))[-r % m] + (1 if r % m == 0 else 0)
    if p == 2:
        value += residues(m, (2 * a for a in exps))[-r % m] - residues(m, exps)[-r % m]
    return value


def e2(spec):
    return compute_en(series_bundle(spec, 2).values(), 2)


def test_exterior_square():
    # at odd p, degree two is the exterior square plus the Bockstein image, which is degree one
    def square(m, exps):
        return graded_characters(m, exps, 13, 2)[2] - residues(m, exps)

    assert square(3, (1, 2)) == exterior(3, (1, 2), 2) == {0: 1}
    assert square(7, (1, 2, 4)) == exterior(7, (1, 2, 4), 2) == residues(7, (3, 5, 6))
    assert square(5, (2,)) == exterior(5, (2,), 2) == {}
    # against index pairs, repeats included
    rng = Random(7)
    for _ in range(20):
        m = rng.randrange(1, 12)
        elems = [rng.randrange(m) for _ in range(rng.randrange(0, 6))]
        expect = residues(m, (a + b for a, b in combinations(elems, 2)))
        assert graded_characters(m, elems, 13, 2)[2] == residues(m, elems) + expect


def test_dimension_bookkeeping():
    # slots are distinct even when exponents repeat: Lambda^s has total
    # multiplicity C(k, s) and S^j has C(k + j - 1, j), so degree t has
    # C(k + t - 1, t) at p = 2 and the sum of C(k, s) C(k + j - 1, j) over
    # s + 2j = t at odd p
    rng = Random(11)
    for _ in range(25):
        m = rng.randrange(1, 10)
        exps = sorted(rng.randrange(m) for _ in range(rng.randrange(1, 5)))
        k = len(exps)
        for p in [q for q in (2, 11) if m % q]:
            graded = graded_characters(m, exps, p, 4)
            for t in range(5):
                if p == 2:
                    expect = math.comb(k + t - 1, t)
                else:
                    expect = sum(math.comb(k, t - 2 * j) * math.comb(k + j - 1, j) for j in range(t // 2 + 1))
                assert sum(graded[t].values()) == expect, (m, exps, p, t)


def test_powers_against_brute_force():
    # degree s is S^s at p = 2 (m odd), and Lambda^s plus the Bockstein terms at odd p
    rng = Random(13)
    for _ in range(15):
        m = rng.randrange(1, 9)
        elems = [rng.randrange(m) for _ in range(rng.randrange(1, 5))]
        for s in range(0, 4):
            # the terms with a Bockstein: S^1 in degree 2, Lambda^1 (x) S^1 over index pairs in degree 3
            bocksteins = [Counter(), Counter(), residues(m, elems), residues(m, (a + b for a in elems for b in elems))][s]
            assert graded_characters(m, elems, 11, s)[s] == exterior(m, elems, s) + bocksteins
            if m % 2:  # degree s of H*((Z/2)^k; F_2) is S^s, read at p = 2 where m is odd
                assert graded_characters(m, elems, 2, s)[s] == symmetric(m, elems, s)


def test_graded_character_structure():
    assert graded_characters(3, (1, 2), 2, 0)[0] == {0: 1}
    # degree two over F_2: squares plus pairwise sums
    assert graded_characters(3, (1, 2), 2, 2)[2] == residues(3, (2, 1, 0))
    # degree two at odd p: Bockstein image plus pairwise sums
    exps = (1, 3)
    assert graded_characters(5, exps, 3, 2)[2] == residues(5, exps) + exterior(5, exps, 2)


def test_graded_character_total_dimension():
    rng = Random(17)
    for _ in range(10):
        m = rng.choice([1, 2, 3, 4, 5, 7])
        p = rng.choice([q for q in (2, 3, 5) if m % q != 0])
        k = rng.randrange(1, 6)
        exps = [rng.randrange(m) for _ in range(k)]
        for n in range(0, 9):
            expected = series_elementary_abelian(p, k, p, n).dims[n]
            assert sum(graded_characters(m, exps, p, n)[n].values()) == expected


def test_graded_characters_against_brute_force():
    # every degree to 8 against the monomials in the degree-one slots (and
    # their Bocksteins at odd p); at 11 and 31 every m | p - 1, up to 30,
    # the moduli of the semidirect specs that realize over F_p
    rng = Random(29)
    cases = [(p, rng.choice([q for q in range(1, 16) if q % p])) for p in (2, 3, 5, 7, 13) for _ in range(3)]
    cases += [(p, m) for p in (11, 31) for m in range(1, p) if (p - 1) % m == 0]
    for p, m in cases:
        for k in range(6):
            elems = [rng.randrange(m) for _ in range(k)]
            graded = graded_characters(m, elems, p, 8)
            assert len(graded) == 9
            for t in range(9):
                # a degree is a plain Counter with residues in [0, m) and positive counts
                assert type(graded[t]) is Counter
                assert all(0 <= r < m and c > 0 for r, c in graded[t].items()), (p, m, elems, t)
                assert graded[t] == brute_degree(m, elems, p, t), (p, m, elems, t)


def test_graded_characters_walk_the_slots_in_residue_order():
    # every degree lists its residues in the order the ascending slots
    # reach them, whatever order the exponents come in, so the records
    # and their Counters do not depend on how a spec lists its exponents
    rng = Random(31)
    for _ in range(20):
        m = rng.choice([5, 7, 9, 15])
        p = rng.choice([q for q in (2, 11, 13) if m % q])
        exps = [rng.randrange(m) for _ in range(rng.randrange(1, 5))]
        ordered = graded_characters(m, sorted(exps), p, 6)
        shuffled = graded_characters(m, rng.sample(exps, len(exps)), p, 6)
        assert [list(degree.items()) for degree in shuffled] == [list(degree.items()) for degree in ordered]
        assert orbit_series(m, exps, p, 6) == orbit_series(m, sorted(exps), p, 6)


def test_graded_characters_fill_one_table_in_one_walk_over_the_exponents(monkeypatch):
    # one Counter per degree 0..n per call, and each exponent read once;
    # exponent a then adds degree d - step into degree d once per pass: an
    # ascending pass at p = 2 (step 1), and at odd p a descending exterior
    # pass (step 1) followed by an ascending Bockstein pass (step 2)
    built, walked, read = [], [], []

    class Table(Counter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def items(self):
            walked.append(self)
            return super().items()

    class Exponent(int):
        def __mod__(self, m):
            read.append(int(self))
            return int(self) % m

    monkeypatch.setattr(characters, "Counter", Table)
    j4 = frobenius_spec(4)
    for m, exps, p, n in ((j4.m, j4.exps, 2, 7), (6, (1, 5, 5), 7, 7), (6, (5, 1), 7, 1), (4, (1, 3), 5, 0)):
        if p == 2:
            one_pass = list(range(n))
        else:
            one_pass = list(range(n - 1, -1, -1)) + list(range(n - 1))
        for kernel in (graded_characters, orbit_series):
            for log in (built, walked, read):
                log.clear()
            kernel(m, tuple(map(Exponent, exps)), p, n)
            assert len(built) == n + 1 and sorted(read) == sorted(exps), (kernel.__name__, p, n)
            if kernel is graded_characters:
                degrees = [next(d for d, degree in enumerate(built) if degree is counter) for counter in walked]
                assert degrees == one_pass * len(exps), (p, n)


def test_local_euler_j2():
    assert twist_euler(3, (1, 2), 2, 2)[0] == 2


def test_local_euler_isotypic():
    # k copies of a with 2a != 0, the twist the negated double: C(k,2) invariants
    for k in range(2, 7):
        assert twist_euler(4, (1,) * k, 5, 2)[-2 % 4] == k * (k - 1) // 2
        assert twist_euler(2, (1,) * k, 5, 2)[0] == k * (k - 1) // 2 + 1


def test_local_euler_twist_invariance():
    # relabelling the generator of C by a unit multiplies every exponent and twist by it
    rng = Random(19)
    for _ in range(40):
        m = rng.randrange(1, 13)
        units = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
        unit = rng.choice(units)
        p = rng.choice([q for q in (2, 3, 5, 7) if m % q != 0])
        exps = [rng.randrange(m) for _ in range(rng.randrange(1, 5))]
        relabelled = [a * unit % m for a in exps]
        beta = rng.randrange(m)
        assert twist_euler(m, exps, p, 2)[-beta % m] == twist_euler(m, relabelled, p, 2)[-beta * unit % m]


def test_appendix_b_cancellation_pattern():
    for k in range(3, 9):
        spec = frobenius_spec(k)
        m = spec.m
        local = twist_euler(m, spec.exps, 2, 2)
        doubles = {(-(1 << i) - (1 << j)) % m for i in range(k) for j in range(i + 1, k)}
        singles = {(-(1 << i)) % m for i in range(k)}
        assert len(doubles) == k * (k - 1) // 2  # the pairwise values are distinct
        for r in range(1, m):
            value = local[-r % m]
            assert value in (0, 1)
            assert (value == 1) == (r in doubles)
        # at r = -2^l the degree-one and squared contributions cancel
        for r in singles:
            squares = residues(m, (2 * a for a in spec.exps))[-r % m]
            degree_one = residues(m, spec.exps)[-r % m]
            assert squares >= 1 and degree_one >= 1
            assert local[-r % m] == 0


def test_mu2_values():
    assert compute_mun(frobenius_spec(2), 2).mu == 2
    for k in range(3, 9):
        assert compute_mun(frobenius_spec(k), 2).mu == 1
    for k in range(2, 7):
        assert compute_mun(isotypic_spec(5, k, 1, 4), 2).mu == k * (k - 1) // 2
        assert compute_mun(isotypic_spec(5, k, 1, 2), 2).mu == k * (k - 1) // 2 + 1


def test_e2_values():
    assert e2(frobenius_spec(2)) == 3
    for k in range(2, 7):
        assert e2(isotypic_spec(5, k, 1, 4)) == 2
        assert e2(isotypic_spec(5, k, 1, 2)) == k * (k - 1) // 2 + 2


def test_mun_matches_mu2_and_a4_degree_four():
    # degree 2 against its terms written out by hand, over every twist
    rng = Random(23)
    for _ in range(25):
        m = rng.choice([1, 2, 3, 4, 5, 7, 9])
        p = rng.choice([q for q in (2, 3, 5) if m % q != 0])
        exps = [rng.randrange(m) for _ in range(rng.randrange(1, 5))]
        assert twist_euler(m, exps, p, 2) == [local_euler(m, exps, p, -beta) for beta in range(m)]
        simples = [(1, dims) for dims in twist_series(m, exps, p, 2).values()]
        assert max(1, swan_formula(2, simples)) == max(1, *(local_euler(m, exps, p, r) for r in range(m)))
    assert compute_mun(frobenius_spec(2), 4).mu == 1


def test_mun_in_high_degrees_against_monomials():
    # mu_n for n = 5..8, where m | p - 1, against a Swan sum over the
    # monomials of H*((Z/p)^k; F_p): every simple is a twist, and the
    # simples at the primes of m (cyclic series) never pass the parity floor
    for text in ("Usd(5,4;1,2)", "Usd(7,6;1,2,4)", "Usd(13,4;1,1,3)", "Usd(11,10;1,3,7,9)", "Usd(31,30;1,7,11,13,17)"):
        spec = parse_spec(text)
        m, p = spec.m, spec.p
        degrees = [brute_degree(m, spec.exps, p, t) for t in range(9)]
        for n in range(5, 9):
            best = max(sum((-1) ** (n - t) * degrees[t][beta] for t in range(n + 1)) for beta in range(m))
            assert compute_mun(spec, n).mu == max(1 if n % 2 == 0 else 0, best), (text, n)


def test_mun_trivial_complement_matches_pgroup_sums():
    # m = 1: the alternating partial sums of the elementary abelian series
    for p, k, n in [(2, 2, 3), (3, 2, 4), (5, 3, 2)]:
        series = series_elementary_abelian(p, k, p, n)
        assert twist_series(1, (0,) * k, p, n) == {0: list(series.dims)}
        assert orbit_series(1, (0,) * k, p, n) == [(1, list(series.dims))]
        floor = 1 if n % 2 == 0 else 0
        assert compute_mun(Semidirect(p, (0,) * k, 1), n).mu == max(floor, alternating_sum(series.dims, n))


def test_gcd_precondition():
    # graded_characters checks its inputs, and every reader of it refuses the same ones
    past_cap = 2**21 - 1
    assert past_cap > MAX_ENUMERATION_MODULUS
    refusals = [
        (4, (1,), 2, 2, "coprime"),  # p divides m
        (9, (1,), 3, 2, "coprime"),
        (3, (1,), 2, -1, "degree must be >= 0"),
        (4, (1,), 5, -2, "degree must be >= 0"),
        (past_cap, (1,), 2, 2, "enumeration cap"),
    ]
    for kernel in (graded_characters, orbit_series, twist_series, twist_euler):
        for m, exps, p, n, reason in refusals:
            with pytest.raises(EulerCharError, match=reason):
                kernel(m, exps, p, n)
