import math
import random
from dataclasses import replace

import numpy as np
import pytest

from eulerchar import (
    BudgetError,
    DimSeries,
    EulerCharError,
    Exceptionality,
    FpModule,
    Quaternion,
    SpecError,
    TruncationError,
    UnsupportedFamilyError,
    compute_en,
    compute_mun,
    en_value,
    parse_spec,
    realize,
    semidirect_character_module,
    series_bundle,
    series_cyclic,
    series_elementary_abelian,
    swan_formula,
    swan_report,
    trivial_series,
)
from eulerchar import groupspec
from eulerchar.characters import graded_characters
from eulerchar.resolution import Resolution, check_against
from eulerchar.groupspec import ConcreteGroup, cyclic_spec, elementary_spec
from test_resolution import _family_specs_up_to_64


def test_en_rational_baseline():
    q = trivial_series(None, 5)
    assert en_value(q, 2) == 2
    assert en_value(q, 3) == -2
    assert en_value(q, 4) == 2


def test_compute_en_requires_rational_series():
    f2 = series_cyclic(2, 2, 4)
    with pytest.raises(EulerCharError):
        compute_en([f2], 2)
    assert compute_en([trivial_series(None, 4), f2], 2) == 2


def test_en_examples():
    # elementary abelian at odd p: the F_p expression is (k^2-3k+4)/2
    for k in range(1, 9):
        fp = series_elementary_abelian(3, k, 3, 2)
        assert en_value(fp, 2) == (k * k - 3 * k + 4) // 2
        bundle = [trivial_series(None, 2), fp]
        assert compute_en(bundle, 2) == max(2, (k * k - 3 * k + 4) // 2)
    # trivial group
    assert compute_en([trivial_series(None, 2), trivial_series(2, 2)], 2) == 2
    # A4
    bundle = series_bundle(parse_spec("J(2)"), 2)
    assert compute_en(bundle.values(), 2) == 3


def test_en_truncation_error():
    with pytest.raises(TruncationError):
        en_value(series_cyclic(2, 2, 2), 3)


def test_swan_formula_values():
    for p in (3, 5):
        ones = series_cyclic(p, p, 6).dims
        for n in range(1, 6):
            assert swan_formula(n, [(1, ones)]) == (1 if n % 2 == 0 else 0)
            assert compute_mun(cyclic_spec(p), n).mu == (1 if n % 2 == 0 else 0)
    assert swan_formula(2, [(1, series_elementary_abelian(2, 2, 2, 2).dims)]) == 2
    # no floors: the trivial group's alternating sums
    assert swan_formula(3, [(1, trivial_series(3, 4).dims)]) == -1
    assert swan_formula(2, [(1, trivial_series(3, 4).dims)]) == 1
    # the max over simples of the sum divided by dim S, rounded up
    assert swan_formula(2, [(2, (0, 1, 2)), (3, (0, 3, 0))]) == 1  # ceil(1/2), ceil(-3/3)
    assert swan_formula(2, [(2, (0, 3, 0)), (1, (0, 2, 0))]) == -1  # ceil(-3/2), -2


def test_pgroup_identity_en_vs_mu_difference():
    # for p-groups the F_p part of e_n telescopes to mu_n - mu_{n-1};
    # the rational baseline can exceed it at small rank
    for p, k in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 4)]:
        spec = elementary_spec(p, k)
        series = series_elementary_abelian(p, k, p, 6)
        for n in range(2, 6):
            diff = compute_mun(spec, n).mu - compute_mun(spec, n - 1).mu
            q_baseline = 2 if n % 2 == 0 else -2
            expected = max(diff, q_baseline)
            got = compute_en([trivial_series(None, 6), series], n)
            assert got == expected
    # the documented small-rank case: e_2(E_2) = 2 > mu_2 - mu_1 = 1
    spec = elementary_spec(3, 2)
    series = series_elementary_abelian(3, 2, 3, 2)
    assert compute_mun(spec, 2).mu - compute_mun(spec, 1).mu == 1
    assert compute_en([trivial_series(None, 2), series], 2) == 2


def test_product_record_is_the_kunneth_pairing():
    # one entry per pair of the factors' entries at p, trivial x trivial first: dims multiply,
    # series convolve; a factor of order prime to p contributes its trivial simple only
    assert parse_spec("Prod(E(2,1),C(4))").simple_series(2, 3) == [(1, [1, 2, 3, 4])]
    assert parse_spec("Prod(1,E(5,2))").simple_series(5, 2) == [(1, (1, 2, 3))]  # E(5,2)'s own record
    mixed = parse_spec("Prod(E(2,1),E(3,1))")
    # a factor of order prime to p leaves the other factor's record as it is
    assert mixed.simple_series(2, 3) == mixed.simple_series(3, 3) == [(1, (1, 1, 1, 1))]
    assert mixed.fp_series(2, 3).dims == mixed.fp_series(3, 3).dims == (1, 1, 1, 1)
    bundle = series_bundle(mixed, 3)
    assert {field: series.dims for field, series in bundle.items()} == {None: (1, 0, 0, 0), 2: (1, 1, 1, 1), 3: (1, 1, 1, 1)}
    # S3 x S3 at 3: the trivial and sign simples of each factor, paired
    assert parse_spec("Usd(3,2;1)").simple_series(3, 3) == [(1, [1, 0, 0, 1]), (1, [0, 1, 1, 0])]
    assert parse_spec("Prod(Usd(3,2;1),Usd(3,2;1))").simple_series(3, 3) == [
        (1, [1, 0, 0, 2]), (1, [0, 1, 1, 0]), (1, [0, 1, 1, 0]), (1, [0, 0, 1, 2]),
    ]
    # A4 x A4 at 2: the orbit {1, 2} of each factor pairs to one entry of dim 4, two F_2-simples of
    # dim 2 with equal cohomology, so the Swan ratio is each twist's; at 3 only the trivial simples
    a4 = parse_spec("Prod(J(2),J(2))")
    assert a4.simple_series(2, 4) == [
        (1, [1, 0, 2, 4, 3]), (2, [0, 2, 2, 4, 10]), (2, [0, 2, 2, 4, 10]), (4, [0, 0, 4, 8, 12]),
    ]
    assert a4.simple_series(3, 4) == [(1, [1, 2, 3, 4, 5])]
    # Q(8) keeps no record at 2, so neither does its product; at 3 it has order prime to p
    assert parse_spec("Prod(Q(8),C(2))").fp_series(2, 3) is None
    assert parse_spec("Prod(Q(8),C(2))").simple_series(2, 3) is None
    assert parse_spec("Prod(Q(8),C(3))").simple_series(3, 3) == [(1, (1, 1, 1, 1))]


def _linear_characters(spec, p):
    """The one-dimensional F_pG-modules this test builds, as their values per element index.

    A Semidirect at its own prime with m | p - 1: every L(beta)
    (semidirect_character_module), which are all its F_p-simples.  C(m), a
    Semidirect with no exponents: every character with values in F_p.  A
    product: the factors' characters multiplied, as the Kronecker product of
    1 x 1 actions, on the index i |K| + j of (i, j).  Elsewhere the trivial
    one.
    """
    order = spec.order()
    if isinstance(spec, groupspec.Product):
        nr = spec.right.order()
        return [
            [left[idx // nr] * right[idx % nr] % p for idx in range(order)]
            for left in _linear_characters(spec.left, p)
            for right in _linear_characters(spec.right, p)
        ]
    if isinstance(spec, groupspec.Semidirect) and not spec.exps:
        m = math.gcd(spec.m, p - 1)
        zeta = groupspec.unit_of_order(p, m)
        return [[pow(zeta, beta * idx, p) for idx in range(order)] for beta in range(m)]
    if isinstance(spec, groupspec.Semidirect) and spec.p == p:
        group = realize(spec)
        return [semidirect_character_module(spec, beta, group).matrices[:, 0, 0].tolist() for beta in range(spec.m)]
    return [[1] * order]


def test_product_records_equal_the_engine_on_kronecker_modules():
    # at every prime dividing |G|, the record's entries with cohomology up to degree 3 are the series
    # the engine finds on the Kronecker products of the factors' characters
    for text in ("Prod(Usd(3,2;1),Usd(3,2;1))", "Prod(Usd(3,2;1),C(4))", "Prod(E(2,2),Usd(3,2;1))",
                 "Prod(Usd(5,2;1),C(2))", "Prod(Usd(3,2;1,1),C(2))", "Prod(C(2),C(6))",
                 "Prod(Prod(C(2),Usd(3,2;1)),C(3))"):
        spec = parse_spec(text)
        group = realize(spec)
        for p in spec.primes():
            modules = [FpModule(p, [[[value]] for value in chi]) for chi in _linear_characters(spec, p)]
            engine = [(1, list(dims)) for dims in Resolution(group, p).cohomology_dims(modules, 3)]
            record = [(dim, list(dims)) for dim, dims in spec.simple_series(p, 3) if any(dims)]
            assert sorted(e for e in engine if any(e[1])) == sorted(record), (text, p)


def test_trivial_complement_is_a_pgroup():
    # (Z/p)^k x| Z/1 is (Z/p)^k: the p-group path, and never exceptional;
    # for k >= 2 it is not periodic at all, so a declared exceptional pair is refused
    for text, p in [("J(1)", 2), ("Usd(3,1;0,0)", 3), ("U(5,2,0,1)", 5)]:
        spec = parse_spec(text)
        simples = [(dim, tuple(dims)) for dim, dims in spec.simple_series(p, 4)]
        assert simples == parse_spec(f"E({p},{spec.k})").simple_series(p, 4), text
        for n in (1, 2, 3):
            assert compute_mun(spec, n).mu == compute_mun(parse_spec(f"E({p},{spec.k})"), n).mu
        declared = replace(spec, exceptional=True)
        if spec.k >= 2:
            assert spec.known_period() is None, text
            for n in (1, 2, 3):
                with pytest.raises(EulerCharError, match="only a periodic group can be exceptional"):
                    compute_mun(declared, n)
        else:
            assert spec.known_period() == 2, text
            with pytest.raises(EulerCharError, match="never exceptional"):
                compute_mun(declared, 3)


def test_the_trivial_group_is_never_exceptional():
    # the trivial group has no period, however it is spelled, so no pair is exceptional: undeclared
    # or declared not exceptional it reads the trivial group's sums, and a declared exceptional
    # pair is refused in every degree
    for text in ("1", "C(1)", "E(2,0)", "Prod(1,1)"):
        spec = parse_spec(text)
        assert spec.known_period() is None, text
        for n in (1, 2, 3, 4, 5):
            alternating = -1 if n % 2 else 1  # (-1)^n h^0, the alternating sum with h^0 = 1 alone
            for declared in (spec, replace(spec, exceptional=False)):
                res = compute_mun(declared, n)
                assert (res.mu, res.mu_prime, res.exceptional) == (alternating, alternating, Exceptionality.NO), (text, n)
            with pytest.raises(EulerCharError, match="only a periodic group can be exceptional"):
                compute_mun(replace(spec, exceptional=True), n)


def test_no_resolution_when_the_field_does_not_divide_the_order():
    # Maschke: H^n(G; F_p) = 0 for n > 0 when p does not divide |G|; a
    # one-byte budget shows that no resolution is built
    for text, p in [("Q(8)", 3), ("Q(12)", 5), ("Q(64)", 7)]:
        spec = parse_spec(text)
        assert series_bundle(spec, 6, memory_budget=1, fields=[p])[p].dims == (1, 0, 0, 0, 0, 0, 0)
        group = realize(spec)
        with pytest.raises(BudgetError):
            Resolution(group, p, memory_budget=1).cohomology_dims([FpModule.trivial(p, group.order)], 6)[0]
    with pytest.raises(BudgetError):
        series_bundle(parse_spec("Q(8)"), 6, memory_budget=1, fields=[2])


def test_series_bundle_realizes_the_spec_once(tmp_path, monkeypatch):
    # two primes without a closed form: F_2 and F_3 resolve one realized
    # group, each on its quotient G / O_p'(G); the spec's table is built
    # once and first, and the only later tables are those quotients, proper
    # ones, at most one per prime; a second call on the same spec reads the
    # group it keeps (GroupSpec.group) and builds only the quotients again
    perm = np.concatenate([[0], np.random.default_rng(6).permutation(np.arange(1, 6))])
    relabeled = realize(parse_spec("C(6)")).relabel(perm)
    path = tmp_path / "c6.tbl"
    path.write_text("6\n" + "\n".join(" ".join(map(str, row)) for row in relabeled.mul.tolist()) + "\n")
    texts = [f"Table({path})", "Q(12)"]
    specs = [parse_spec(text) for text in texts]
    expected = [{field: series_bundle(spec, 5, fields=[field])[field] for field in (None, 2, 3)} for spec in specs]
    assert expected[0] == series_bundle(parse_spec("C(6)"), 5)  # the closed forms of C(6)
    built, quotients = [], []
    init, quotient_of = ConcreteGroup.__init__, ConcreteGroup.p_prime_quotient

    def counted(self, mul):
        built.append(self)
        init(self, mul)

    def recorded(self, p):
        quotient = quotient_of(self, p)
        quotients.append((self, p, quotient))
        return quotient

    monkeypatch.setattr(ConcreteGroup, "__init__", counted)
    monkeypatch.setattr(ConcreteGroup, "p_prime_quotient", recorded)
    for text, series, orders in zip(texts, expected, ([6, 2, 3], [12, 4, 6])):
        spec = parse_spec(text)
        built.clear()
        quotients.clear()
        assert series_bundle(spec, 5) == series
        assert [group.order for group in built] == orders, spec
        group = built[0]
        assert spec.group is group
        assert [(g, p) for g, p, _ in quotients] == [(group, 2), (group, 3)], spec
        proper = [quotient for _, _, quotient in quotients if quotient is not group]
        assert built[1:] == proper, spec
        assert all(group.order % quotient.order == 0 for quotient in proper), spec
        built.clear()
        assert series_bundle(spec, 5) == series
        assert [group.order for group in built] == orders[1:], spec


def test_compute_mun_families():
    assert compute_mun(parse_spec("1"), 2).mu == 1
    assert compute_mun(parse_spec("1"), 3).mu == -1
    assert compute_mun(parse_spec("C(12)"), 2).mu == 1
    assert compute_mun(parse_spec("C(12)"), 3).mu == 0
    assert compute_mun(parse_spec("E(3,2)"), 2).mu == 2  # (k^2-k+2)/2
    assert compute_mun(parse_spec("E(3,3)"), 2).mu == 4
    assert compute_mun(parse_spec("Prod(E(3,1),E(3,1))"), 2).mu == 2
    assert compute_mun(parse_spec("J(2)"), 2).mu == 2
    assert compute_mun(parse_spec("J(2)"), 4).mu == 1
    for k in range(3, 11):
        assert compute_mun(parse_spec(f"J({k})"), 2).mu == 1
    assert compute_mun(parse_spec("U(5,3,1,4)"), 2).mu == 3
    assert compute_mun(parse_spec("U(5,3,1,4)"), 1).mu == 3  # solvable family: d - 1 = k
    assert compute_mun(parse_spec("Usd(5,4;1,1,1)"), 2).mu == 3


def test_zero_generators_only_for_the_trivial_group(tmp_path):
    # every nontrivial group needs a generator, so only the trivial group reads d = 0 and mu_1 = -1,
    # off its record or off its table
    for text in ("J(2)", "Q(8)", "C(2)", "Prod(1,C(3))"):
        spec = parse_spec(text)
        assert compute_mun(spec, 1).mu + 1 >= 1, text
    trivial_table = tmp_path / "trivial.tbl"
    trivial_table.write_text("1\n0\n")
    for text in ("1", "C(1)", "Prod(1,1)", f"Table({trivial_table})"):
        spec = parse_spec(text)
        assert compute_mun(spec, 1).mu + 1 == 0 and spec.known_period() is None, text


def test_trivial_group_module_path_agrees_with_family_path():
    # the parity floors hold for nontrivial G only, on both paths
    trivial = parse_spec("1")
    for n in range(1, 5):
        family = compute_mun(trivial, n).mu
        assert family == (1 if n % 2 == 0 else -1)
        assert compute_mun(trivial, n, modules=[FpModule.trivial(2, 1)]).mu == family, n


def test_compute_mun_metadata_paths(tmp_path):
    # a spec with no Swan record reads mu_1 off d(G) and solvability of the realized group
    res = compute_mun(parse_spec("Q(12)"), 1)
    assert (res.mu, res.mu_prime, res.notes) == (1, 1, ("mu_1 = d(G) - 1 = 1 (solvable)",))
    assert compute_mun(parse_spec("Prod(Q(8),E(2,1))"), 1).mu == 2  # d = 3
    # past MAX_ORDER nothing is realized and there is no path: a typed refusal, a None row in a report
    big = parse_spec("Prod(Q(8),E(3,2))")
    with pytest.raises(UnsupportedFamilyError, match="no mu_n path at n = 1"):
        compute_mun(big, 1)
    # a prime order past MAX_ORDER is cyclic without being realized
    c67 = tmp_path / "c67.tbl"
    c67.write_text("67\n")  # the header alone: the body is never read
    assert compute_mun(parse_spec(f"Table({c67})"), 1).notes == ("mu_1 = d(G) - 1 = 0 (cyclic, d = 1)",)
    # a record needs no group: d(J(3)) = 2, and the realized group agrees
    spec = parse_spec("J(3)")
    assert compute_mun(spec, 1).mu == 1 and "group" not in vars(spec)
    assert realize(spec).generator_count() == 2


def test_compute_mun_declared_period_paths():
    # a period is not declared: Q(4n) has no Swan record, and its period 4 comes from the group
    with pytest.raises(TypeError):
        replace(Quaternion(8), period=4)
    assert {Quaternion(n4).known_period() for n4 in (8, 12, 56)} == {4}
    q8 = Quaternion(8, exceptional=False)
    res = compute_mun(q8, 2)  # 4 divides n + 2
    assert (res.mu, res.notes) == (1, ("period 4 divides n + 2: a periodic resolution gives mu_n = 1",))
    res = compute_mun(q8, 3)  # 4 divides n + 1, declared non-exceptional
    assert (res.mu, res.mu_prime, res.exceptional) == (0, 0, Exceptionality.NO)
    assert res.notes == ("period 4 divides n + 1 with a periodic free resolution: mu_n = 0",)
    res = compute_mun(Quaternion(8), 3)  # undeclared, but of prime-power order
    assert (res.mu, res.mu_prime, res.exceptional) == (0, 0, Exceptionality.NO)
    res = compute_mun(Quaternion(12), 3)
    assert (res.mu, res.mu_prime, res.exceptional) == (1, 1, Exceptionality.UNKNOWN)
    assert res.notes == ("period 4 divides n + 1; mu_n is 0 or 1 depending on undeclared exceptionality",)
    declared = Quaternion(56, exceptional=True)
    res = compute_mun(declared, 3)
    assert (res.mu, res.mu_prime, res.exceptional) == (1, 0, Exceptionality.DECLARED)
    with pytest.raises(UnsupportedFamilyError):
        compute_mun(Quaternion(8), 4)  # 4 divides neither 5 nor 6
    no_period = parse_spec("Prod(Q(8),C(2))")  # C_2 x C_2, and no Swan record
    assert no_period.known_period() is None
    with pytest.raises(UnsupportedFamilyError, match="no mu_n path at n = 2"):
        compute_mun(no_period, 2)


def test_cyclic_never_exceptional():
    assert cyclic_spec(5).known_period() == 2
    res = compute_mun(cyclic_spec(5), 3)
    assert (res.mu, res.mu_prime, res.exceptional) == (0, 0, Exceptionality.NO)


def test_never_exceptional_beyond_the_family(tmp_path):
    # groups of prime-power order, a period of 2 (G is then cyclic), a
    # cyclic table and a product of cyclic factors of coprime orders refuse
    # a declared exceptional pair in every degree the period reaches, before
    # the degree is checked
    tables = {}
    for text in ("C(6)", "C(8)", "Usd(3,2;1)", "C(66)"):
        group = realize(parse_spec(text))
        perm = np.concatenate([[0], np.random.default_rng(11).permutation(np.arange(1, group.order))])
        path = tmp_path / f"{text}.tbl"
        path.write_text(f"{group.order}\n" + "\n".join(" ".join(map(str, row)) for row in group.relabel(perm).mul.tolist()) + "\n")
        tables[text] = parse_spec(f"Table({path})")
    refused = {
        tables["C(6)"]: 2,
        tables["C(8)"]: 2,
        Quaternion(8): 4,
        parse_spec("Prod(C(3),C(5))"): 2,
        parse_spec("Prod(Prod(C(3),C(5)),E(7,1))"): 2,
    }
    for spec, period in refused.items():
        assert spec.known_period() == period, spec
        for n in (n for n in range(1, 8) if (n + 1) % period == 0):
            with pytest.raises(EulerCharError, match="never exceptional"):
                compute_mun(replace(spec, exceptional=True), n)
    # a non-cyclic table of order 6 keeps its declaration, as does Q(12)
    assert tables["Usd(3,2;1)"].known_period() == Quaternion(12).known_period() == 4
    for spec in (tables["Usd(3,2;1)"], Quaternion(12)):
        res = compute_mun(replace(spec, exceptional=True), 3)
        assert (res.mu, res.mu_prime, res.exceptional) == (1, 0, Exceptionality.DECLARED), spec
    # so does a product of coprime orders with a factor that is not cyclic
    assert parse_spec("Prod(C(3),Q(8))").known_period() == 4
    res = compute_mun(replace(parse_spec("Prod(C(3),Q(8))"), exceptional=True), 3)
    assert (res.mu, res.mu_prime, res.exceptional) == (1, 0, Exceptionality.DECLARED)
    # undeclared, the same facts settle it
    res = compute_mun(tables["C(6)"], 5)
    assert (res.mu, res.mu_prime, res.exceptional) == (0, 0, Exceptionality.NO)
    res = compute_mun(tables["Usd(3,2;1)"], 3)
    assert (res.mu, res.mu_prime, res.exceptional) == (1, 1, Exceptionality.UNKNOWN)
    for text in ("Prod(C(3),C(5))", "C(15)"):
        res = compute_mun(parse_spec(text), 3)
        assert (res.mu, res.mu_prime, res.exceptional) == (0, 0, Exceptionality.NO)
    res = compute_mun(parse_spec("Prod(C(3),Q(8))"), 3)
    assert (res.mu, res.mu_prime, res.exceptional) == (1, 1, Exceptionality.UNKNOWN)
    # a table beyond MAX_ORDER is not realized, so it has no period and no mu_n path above 1
    big = tables["C(66)"]
    assert big.known_period() is None and "group" not in vars(big)
    with pytest.raises(UnsupportedFamilyError, match="no mu_n path at n = 5"):
        compute_mun(big, 5)


def test_declared_period_refused_where_the_spec_shows_a_pp_subgroup():
    # C_p x C_p has no periodic cohomology, and neither has any group containing it; a period is
    # never declared, on these specs or any other
    with pytest.raises(TypeError):
        replace(parse_spec("E(3,2)"), period=4)
    shown = ["E(3,2)", "E(2,3)", "U(5,2,1,4)", "Usd(7,3;0,0)", "Usd(5,4;1,2)", "J(2)", "Prod(C(3),C(3))",
             "Prod(C(3),C(6))", "Prod(C(2),Q(8))", "Prod(C(5),E(3,2))", "Prod(Prod(C(3),C(5)),C(5))"]
    periodic = {"C(12)": 2, "E(3,1)": 2, "Q(8)": 4, "Q(24)": 4, "U(7,1,1,3)": 6, "Usd(7,3;0)": 2, "J(1)": 2,
                "Prod(C(3),C(5))": 2, "Prod(C(3),Q(8))": 4, "Prod(Q(8),U(7,1,1,3))": 12}
    assert {text: parse_spec(text).known_period() for text in shown + list(periodic)} == {**dict.fromkeys(shown), **periodic}
    for text in shown:
        # no period: a declared exceptional pair is refused in any degree, and a pair declared not
        # exceptional reads what an undeclared one does
        spec = parse_spec(text)
        for n in (1, 3, 5):
            with pytest.raises(EulerCharError, match="only a periodic group can be exceptional"):
                compute_mun(replace(spec, exceptional=True), n)
            try:
                res = compute_mun(spec, n)
            except UnsupportedFamilyError as exc:  # Prod(C(2),Q(8)) keeps no Swan record
                with pytest.raises(UnsupportedFamilyError, match=str(exc)):
                    compute_mun(replace(spec, exceptional=False), n)
                continue
            assert compute_mun(replace(spec, exceptional=False), n) == res, (text, n)
            assert res.exceptional is Exceptionality.NO, (text, n)


def test_exceptional_declaration_validation():
    # C(5) of period 2 and the 2-group Q(8) of period 4, in degrees where the period divides n + 1
    for spec, degrees in ((cyclic_spec(5), (1, 3, 5)), (Quaternion(8), (3, 7))):
        for n in degrees:
            with pytest.raises(EulerCharError, match="never exceptional"):
                compute_mun(replace(spec, exceptional=True), n)


def test_swan_floors():
    for text in ["C(6)", "E(2,3)", "E(5,2)", "J(3)", "U(5,2,1,4)", "Usd(7,3;1,2)"]:
        spec = parse_spec(text)
        for n in range(2, 6):
            res = compute_mun(spec, n)
            floor = 1 if n % 2 == 0 else 0
            assert res.mu >= floor, (text, n)
            assert res.mu_prime <= res.mu


def test_oracle_module_path():
    # Q8 is a 2-group: the trivial module is the only simple one, so the
    # supplied-module Swan formula must reproduce the periodic values
    spec = parse_spec("Q(8)")
    g = realize(spec)
    modules = [FpModule.trivial(2, 8)]
    assert compute_mun(spec, 2, modules=modules).mu == 1
    assert compute_mun(spec, 3, modules=modules).mu == 0


def test_oracle_module_path_with_ceiling():
    # full simple-module list of S3 = U(3,1,1,2): trivial and standard
    # (2-dimensional) over F_2, trivial and sign over F_3; the oracle path
    # must agree with the character path, exercising the ceiling by dim M
    from eulerchar import semidirect_character_module

    spec = parse_spec("U(3,1,1,2)")
    g = realize(spec)
    modules = [
        FpModule.trivial(2, 6),
        _standard_f2_module_of_s3(g),
        FpModule.trivial(3, 6),
        semidirect_character_module(spec, 1, g),
    ]
    assert compute_mun(spec, 2, modules=modules).mu == compute_mun(spec, 2).mu == 1
    assert compute_mun(spec, 3, modules=modules).mu == compute_mun(spec, 3).mu


def test_oracle_module_order_does_not_change_mu():
    # mu_n is a max over the modules; the engine takes the twisted ones first
    from eulerchar import semidirect_character_module

    s3 = parse_spec("U(3,1,1,2)")
    g = realize(s3)
    cases = [(s3, [FpModule.trivial(2, 6), _standard_f2_module_of_s3(g), FpModule.trivial(3, 6),
                   semidirect_character_module(s3, 1, g)])]
    for text in ("Usd(5,4;1)", "Usd(7,3;1)"):
        spec = parse_spec(text)
        group = realize(spec)
        cases.append((spec, [semidirect_character_module(spec, beta, group) for beta in range(spec.m)]))
    for spec, modules in cases:
        shuffled = list(modules)
        random.Random(7).shuffle(shuffled)
        for n in (1, 2, 3):
            mu = compute_mun(spec, n, modules=modules).mu
            assert compute_mun(spec, n, modules=modules[::-1]).mu == mu, (spec, n)
            assert compute_mun(spec, n, modules=shuffled).mu == mu, (spec, n)
            if n > 1:
                assert mu == compute_mun(spec, n).mu, (spec, n)


def test_empty_module_list_is_refused_before_realizing():
    # C(128) is beyond the largest realized order; the list is checked first
    with pytest.raises(EulerCharError, match="empty module list"):
        compute_mun(parse_spec("C(128)"), 2, modules=[])


def _standard_f2_module_of_s3(g):
    """Sum-zero subspace of the permutation module on the three involutions."""
    involutions = [x for x, o in enumerate(g.element_orders()) if o == 2]
    assert len(involutions) == 3
    position = {x: i for i, x in enumerate(involutions)}
    # basis f1 = e0+e1, f2 = e1+e2; ei+ej expands as:
    pair_vec = {
        frozenset({0, 1}): (1, 0),
        frozenset({1, 2}): (0, 1),
        frozenset({0, 2}): (1, 1),
    }
    mats = np.zeros((g.order, 2, 2), dtype=np.int64)
    for a in range(g.order):
        conj = {
            i: position[g.mul[g.mul[a, x], g.inv[a]]]
            for i, x in enumerate(involutions)
        }
        for col, (i, j) in enumerate(((0, 1), (1, 2))):
            vec = pair_vec[frozenset({conj[i], conj[j]})]
            mats[a, 0, col] = vec[0]
            mats[a, 1, col] = vec[1]
    module = FpModule(2, mats)
    check_against(g, [module])
    return module


def test_swan_report_rows():
    rep = swan_report(parse_spec("J(2)"), 4)
    assert [r.n for r in rep.rows] == [1, 2, 3, 4]
    row1, row2, _, row4 = rep.rows
    assert (row2.e_n, row2.mu_n, row2.mu_prime_n) == (3, 2, 2)
    assert (row4.e_n, row4.mu_n) == (2, 1)
    assert (row1.e_n, row1.mu_n, row1.mu_prime_n) == (-1, 1, 1)  # d(A4) - 1, off the record
    # without a record mu_1 comes from the realized group; a degree with no path is reported
    # as unavailable, not an exception, in a note that does not quote the spec
    # Q(12) reads mu_2 and mu_3 off its period 4
    row1, row2, row3, row4 = swan_report(parse_spec("Q(12)"), 4).rows
    assert row1.mu_n == 1 and row1.notes == ("mu_1 = d(G) - 1 = 1 (solvable)",)
    assert (row2.mu_n, row2.notes) == (1, ("period 4 divides n + 2: a periodic resolution gives mu_n = 1",))
    assert (row3.mu_n, row3.exceptional) == (1, Exceptionality.UNKNOWN)
    assert row4.mu_n is None and row4.notes == ("no mu_n path at n = 4",)


def test_swan_report_rows_equal_per_degree_reads():
    # the report reads the simples once, at its top degree; each row equals
    # compute_mun at its own degree, and a degree that raises is a None row
    specs = []
    for text in _family_specs_up_to_64():
        try:
            spec = parse_spec(text)
        except SpecError:
            continue  # no such group
        if all(spec.simple_series(p, 1) is not None for p in spec.primes()):
            specs.append(spec)
    assert len(specs) > 300
    specs += [parse_spec("U(13,4,1,4)"), parse_spec("Usd(31,30;1,7,11,13,17)")]
    for spec in specs:
        rows = swan_report(spec, 6).rows
        for n, row in enumerate(rows, start=1):
            try:
                res = compute_mun(spec, n)
                expected = (res.mu, res.mu_prime, res.exceptional, res.notes)
            except UnsupportedFamilyError as exc:
                expected = (None, None, Exceptionality.NO, (str(exc),))
            assert (row.mu_n, row.mu_prime_n, row.exceptional, row.notes) == expected, (spec, n)


def test_mu1_of_a_cyclic_group_does_not_depend_on_its_spelling(tmp_path):
    # C(21), Usd(7,3;0) and Prod(C(3),C(7)) are one group: d(G) = 1 gives mu_1 = 0 without declared metadata
    specs = []
    for text in _family_specs_up_to_64():
        try:
            spec = parse_spec(text)
        except SpecError:
            continue  # no such group
        if spec.known_period() == 2:  # for G != 1, period 2 means cyclic
            specs.append(spec)
    assert len(specs) == 294
    for spec in specs:
        assert compute_mun(spec, 1).mu == 0, spec
    # products read the Kunneth record as C(21) reads its own; a spelling without a Swan record
    # (a cyclic table) reads mu_1 off its period 2; Usd(7,3;0) reads its record, as at n = 2
    for text in ("Prod(C(3),C(7))", "Prod(C(2),Usd(7,3;0))"):
        assert compute_mun(parse_spec(text), 1).notes == compute_mun(parse_spec("C(21)"), 1).notes == (), text
    c6 = tmp_path / "c6.tbl"
    c6.write_text("\n".join(["6"] + [" ".join(map(str, row)) for row in realize(parse_spec("C(6)")).mul.tolist()]) + "\n")
    table = parse_spec(f"Table({c6})")
    assert table.swan_record(1) is None and table.known_period() == 2
    assert compute_mun(table, 1).notes == ("period 2 divides n + 1 with a periodic free resolution: mu_n = 0",)
    semidirect = parse_spec("Usd(7,3;0)")
    assert compute_mun(semidirect, 1).notes == compute_mun(semidirect, 2).notes == (
        "contributions at primes dividing |C| are bounded by the parity floors",
    )


def test_character_tables_are_read_once_per_report(monkeypatch):
    # orbit_series is the one character-table pass behind a Semidirect record
    calls = []
    orbit_series = groupspec.orbit_series

    def counted(*args):
        calls.append(args)
        return orbit_series(*args)

    monkeypatch.setattr(groupspec, "orbit_series", counted)
    swan_report(parse_spec("U(13,4,1,4)"), 8)
    assert len(calls) <= 2  # e_n's trivial series and the Swan simples
    calls.clear()
    compute_mun(parse_spec("U(5,3,1,4)"), 1)  # mu_1 = d(G) - 1 reads the record at n = 1
    assert calls == [(4, (1, 1, 1), 5, 1)]


def _frobenius_orbit(beta, p, m):
    orbit, member = [beta], beta * p % m
    while member != beta:
        orbit.append(member)
        member = member * p % m
    return orbit


def test_semidirect_records_list_frobenius_orbits():
    # at its vector prime a Semidirect record has one entry per
    # Frobenius orbit O of twists with cohomology: (|O|, |O| times each
    # member's multiplicities in graded_characters), the trivial orbit
    # first, and the Swan formula reads the same mu_n off the orbits as
    # off the twists
    specs = []
    for text in _family_specs_up_to_64():
        try:
            spec = parse_spec(text)
        except SpecError:
            continue  # no such group
        if isinstance(spec, groupspec.Semidirect):
            specs.append(spec)
    # the sweep holds J(1..3) and Usd(2,7;1,2,4)
    specs += [parse_spec(text) for text in [f"J({k})" for k in range(4, 15)] + ["Usd(2,7;1,2,4,3,6,5)"]]
    split = 0
    for spec in specs:
        p, m = spec.p, spec.m
        graded = graded_characters(m, spec.exps, p, 8)
        twists = {beta: [degree[beta] for degree in graded] for degree in graded for beta in degree}
        record = [(dim, list(dims)) for dim, dims in spec.simple_series(p, 8)]  # m = 1 keeps the closed form's tuples
        assert record[0] == (1, twists[0]), spec
        expected, seen = [], set()
        for beta, dims in twists.items():
            if beta in seen:
                continue
            orbit = _frobenius_orbit(beta, p, m)
            assert all(twists.get(gamma) == dims for gamma in orbit), (spec, beta)
            seen.update(orbit)
            expected.append((len(orbit), [len(orbit) * d for d in dims]))
        assert seen == twists.keys(), spec  # the support is a union of orbits
        assert sorted(record) == sorted(expected), spec
        split += len(record) < len(twists)
        per_twist = [(1, dims) for dims in twists.values()]
        for n in range(1, 9):
            assert swan_formula(n, record) == swan_formula(n, per_twist), (spec, n)
    assert len(specs) > 200 and split > 20
