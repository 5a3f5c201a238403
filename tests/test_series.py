import math

import pytest

from eulerchar import (
    DimSeries,
    EulerCharError,
    TruncationError,
    parse_spec,
    series_cyclic,
    series_elementary_abelian,
    series_bundle,
    trivial_series,
    verify_series,
)


def test_series_cyclic():
    assert series_cyclic(2, 2, 4).dims == (1, 1, 1, 1, 1)
    assert series_cyclic(3, 2, 3).dims == (1, 0, 0, 0)
    assert series_cyclic(6, None, 2).dims == (1, 0, 0)
    assert series_cyclic(6, 2, 3).dims == (1, 1, 1, 1)
    assert series_cyclic(1, 5, 2).dims == (1, 0, 0)


def test_series_elementary_abelian():
    assert series_elementary_abelian(3, 2, 3, 3).dims == (1, 2, 3, 4)
    assert series_elementary_abelian(2, 3, 2, 2).dims == (1, 3, 6)
    assert series_elementary_abelian(5, 0, 5, 2).dims == (1, 0, 0)
    assert series_elementary_abelian(5, 3, 3, 4).dims == (1, 0, 0, 0, 0)
    assert series_elementary_abelian(5, 3, None, 2).dims == (1, 0, 0)


def test_product_record_convolution():
    # Kunneth: the product's trivial entry is the convolution of the factors' trivial series
    assert parse_spec("Prod(C(2),C(2))").simple_series(2, 2) == [(1, [1, 2, 3])]
    assert parse_spec("Prod(C(2),1)").fp_series(2, 2).dims == series_cyclic(2, 2, 2).dims


def test_kunneth_power_identity():
    # k-fold product of a cyclic group reproduces the closed form
    for p in (2, 3):
        for k in (1, 2, 3, 4):
            text = "1"
            for _ in range(k):
                text = f"Prod({text},C({p}))"
            assert parse_spec(text).fp_series(p, 6).dims == series_elementary_abelian(p, k, p, 6).dims


def test_kunneth_associativity_commutativity():
    # the records agree entry for entry, up to order, at every prime
    for a, b, c in [("E(3,1)", "E(3,2)", "C(9)"), ("Usd(3,2;1)", "E(2,2)", "Usd(5,4;1,2)")]:
        left = parse_spec(f"Prod(Prod({a},{b}),{c})")
        right = parse_spec(f"Prod({a},Prod({b},{c}))")
        for p in left.primes():
            assert sorted(left.simple_series(p, 5)) == sorted(right.simple_series(p, 5)), (a, b, c, p)
        ab, ba = parse_spec(f"Prod({a},{b})"), parse_spec(f"Prod({b},{a})")
        for p in ab.primes():
            assert sorted(ab.simple_series(p, 5)) == sorted(ba.simple_series(p, 5)), (a, b, p)


def test_generating_identity_odd_p():
    # sum dims[n] t^n = (1+t)^k / (1-t^2)^k, coefficient-wise
    p, n_max = 5, 8
    for k in (1, 2, 3, 4):
        series = series_elementary_abelian(p, k, p, n_max)
        # multiply the series by (1-t^2)^k and compare with (1+t)^k
        minus = [math.comb(k, j) * (-1) ** j for j in range(k + 1)]  # (1-t^2)^k coefficients at t^{2j}
        for n in range(n_max + 1):
            lhs = 0
            for j in range(min(k, n // 2) + 1):
                lhs += minus[j] * series.dims[n - 2 * j]
            rhs = math.comb(k, n) if n <= k else 0
            assert lhs == rhs


def test_series_semidirect_invariants_a4():
    # the trivial entry of the record of J(2) = A4 at 2 is its invariant series
    a4 = parse_spec("J(2)")
    assert a4.simple_series(2, 2)[0] == (1, [1, 0, 1])
    assert series_bundle(a4, 4)[2].dims == (1, 0, 1, 2, 1)


def test_series_semidirect_trivial_complement_is_elementary_abelian():
    # J(1) = (Z/2) x| Z/1
    assert series_bundle(parse_spec("J(1)"), 4)[2].dims == series_elementary_abelian(2, 1, 2, 4).dims


def test_series_semidirect_isotypic_degree_one_vanishes():
    assert series_bundle(parse_spec("U(5,3,1,4)"), 1, fields=[5])[5].dims[1] == 0


def test_closed_form_dispatch():
    def dims(text, field, n_max=3):
        return series_bundle(parse_spec(text), n_max, fields=[field])[field].dims

    assert dims("Prod(E(3,1),E(3,1))", 3) == (1, 2, 3, 4)
    assert dims("J(2)", 3) == (1, 1, 1, 1)
    assert dims("J(2)", 5) == (1, 0, 0, 0)
    assert dims("C(6)", None, 2) == (1, 0, 0)


def test_series_requests_need_a_prime_field():
    for text, field in [("C(6)", 6), ("C(2)", 1), ("C(2)", 4), ("E(2,2)", 0), ("Prod(C(2),C(3))", 6)]:
        with pytest.raises(EulerCharError, match="prime field"):
            series_bundle(parse_spec(text), 3, fields=[field])
        with pytest.raises(EulerCharError, match="prime field"):
            verify_series(parse_spec(text), field, 3)


def test_series_requests_need_a_nonnegative_degree():
    # one check for every family, the trivial group and those without a closed form included
    for text in ("1", "C(2)", "E(2,2)", "U(5,2,1,4)", "J(2)", "Prod(C(2),C(3))", "Q(8)"):
        with pytest.raises(EulerCharError, match="n_max must be >= 0"):
            series_bundle(parse_spec(text), -1)
        with pytest.raises(EulerCharError, match="n_max must be >= 0"):
            verify_series(parse_spec(text), 2, -1)
    assert series_bundle(parse_spec("1"), 0) == {None: trivial_series(None, 0)}


def test_series_validation():
    with pytest.raises(EulerCharError):
        DimSeries(2, (2, 1))
    with pytest.raises(EulerCharError):
        DimSeries(2, (1, -1))
    with pytest.raises(TruncationError):
        DimSeries(2, (1, 1)).dim(5)
