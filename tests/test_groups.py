import math
import random
import re

import numpy as np
import pytest

from eulerchar import (
    ConcreteGroup,
    Cyclic,
    GroupSpec,
    Product,
    Quaternion,
    RealizeError,
    Semidirect,
    SpecError,
    TableGroup,
    Trivial,
    UnsupportedFamilyError,
    parse_spec,
    q_bound_report,
    realize,
    series_bundle,
    trivial_series,
    verify_series,
)
from eulerchar import groupspec
from eulerchar.groupspec import FAMILIES, PRIMITIVE_POLY, elementary_spec, frobenius_spec, isotypic_spec
from test_resolution import _family_specs_up_to_64


# --- grammar ---------------------------------------------------------------

def test_parse_spec_families():
    assert parse_spec("1") == Trivial()
    assert parse_spec("C(6)") == Cyclic(6)
    assert parse_spec("E(3,2)") == elementary_spec(3, 2)
    assert parse_spec("U(5,3,1,4)") == isotypic_spec(5, 3, 1, 4)
    assert parse_spec("Usd(5,4;1,2)") == Semidirect(5, (1, 2), 4)
    assert parse_spec("J(4)") == frobenius_spec(4)
    assert parse_spec("Prod(C(2),C(3))") == Product(Cyclic(2), Cyclic(3))
    assert parse_spec("Q(8)") == Quaternion(8)
    assert parse_spec("Table(/tmp/foo.tbl)") == TableGroup("/tmp/foo.tbl")
    assert parse_spec(" Prod( E(2,1) , J(2) ) ") == Product(elementary_spec(2, 1), frobenius_spec(2))


def test_parse_spec_errors_carry_position():
    with pytest.raises(SpecError):
        parse_spec("U(5,3;2,4)")  # semicolon is not part of the U production
    with pytest.raises(SpecError, match="elementary abelian base 4 is not prime"):
        parse_spec("E(4,2)")
    with pytest.raises(SpecError, match="rank must be >= 0, got -1"):
        elementary_spec(3, -1)  # the grammar reads no sign
    with pytest.raises(SpecError):
        parse_spec("Usd(5,4;1,7)")  # exponent out of [0, 4)
    with pytest.raises(SpecError):
        parse_spec("U(3,2,1,3)")  # gcd(p, m) != 1
    with pytest.raises(SpecError):
        parse_spec("U(5,2,2,4)")  # eigenvalue of order 2 < m = 4: not faithful
    with pytest.raises(SpecError):
        parse_spec("C(3) extra")
    with pytest.raises(SpecError):
        parse_spec("Z(3)")
    err = None
    try:
        parse_spec("E(3 2)")
    except SpecError as exc:
        err = exc
    assert err is not None and err.position is not None


def test_spec_round_trip_strings():
    for text in ["1", "C(6)", "E(3,2)", "U(5,3,1,4)", "Usd(5,4;1,2)", "J(4)", "Prod(C(2),C(3))", "Q(8)"]:
        assert str(parse_spec(text)) == text


# per grammar head, the family its reader returns and examples, each
# realizable within the resolution engine's order limit; a new family or
# spelling adds its own
FAMILY_EXAMPLES = {
    "1": (Trivial, ["1"]),
    "C": (Cyclic, ["C(1)", "C(6)"]),
    "E": (Semidirect, ["E(2,0)", "E(3,2)"]),
    "U": (Semidirect, ["U(5,1,1,4)", "U(7,1,2,3)"]),
    "Usd": (Semidirect, ["Usd(5,4;1)", "Usd(3,2;0,1)", "Usd(3,1;0,0)", "Usd(2,3;1,2)", "Usd(2,7;1,2,4)"]),
    "J": (Semidirect, ["J(1)", "J(3)"]),
    "Prod": (Product, ["Prod(C(2),J(2))", "Prod(1,E(2,2))"]),
    "Q": (Quaternion, ["Q(8)", "Q(12)"]),
    "Table": (TableGroup, ["Table({q8})"]),
}


def test_every_family_implements_the_protocol(tmp_path):
    assert set(FAMILY_EXAMPLES) == set(FAMILIES)
    # one class per family, and every family has a head
    assert {family for family, _ in FAMILY_EXAMPLES.values()} == set(GroupSpec.__subclasses__())
    q8 = tmp_path / "q8.tbl"
    q8.write_text("\n".join(["8"] + [" ".join(map(str, row)) for row in realize(Quaternion(8)).mul.tolist()]) + "\n")
    for head, (family, texts) in FAMILY_EXAMPLES.items():
        for text in texts:
            text = text.format(q8=q8)
            spec = parse_spec(text)
            assert type(spec) is family and str(spec) == text
            assert realize(spec).order == spec.order()
            assert series_bundle(spec, 3, fields=[None]) == {None: trivial_series(None, 3)}, text  # Maschke
            for p in spec.primes():
                # the record lists the trivial module first; its series is the one verify_series checks
                simples, series = spec.simple_series(p, 3), spec.fp_series(p, 3)
                if simples is not None:
                    dim, dims = simples[0]
                    assert (dim, dims[0]) == (1, 1) and series.dims == tuple(dims), (text, p)
                if series is None:
                    with pytest.raises(UnsupportedFamilyError, match=re.escape(f"no closed-form series for {spec}")):
                        verify_series(spec, p, 3)
                else:
                    assert all(row.match for row in verify_series(spec, p, 3)), (text, p)


# --- realizations ----------------------------------------------------------

def test_rank_zero_semidirect_is_cyclic():
    # Z/m, even where m does not divide p - 1
    z3 = Semidirect(5, (), 3)
    assert z3.known_cyclic() and z3.known_d() == 1
    assert realize(z3).element_orders() == [1, 3, 3]


def test_realize_cyclic():
    g = realize(Cyclic(4))
    assert g.order == 4
    assert g.multiply(1, 3) == 0
    assert g.element_orders() == [1, 4, 2, 4]


def test_realize_frobenius_2_is_a4():
    g = realize(frobenius_spec(2))
    assert g.order == 12
    assert not g.is_abelian()
    assert sorted(set(g.element_orders())) == [1, 2, 3]
    assert g.center_size() == 1


def test_realize_elementary_abelian():
    g = realize(elementary_spec(2, 3))
    assert g.order == 8
    assert g.is_abelian()
    assert sorted(set(g.element_orders())) == [1, 2]


def test_order_formulas():
    cases = [
        (Cyclic(12), 12),
        (elementary_spec(3, 4), 81),
        (isotypic_spec(5, 2, 1, 4), 100),
        (Semidirect(5, (1, 2), 4), 100),
        (frobenius_spec(3), 56),
        (Product(Cyclic(2), frobenius_spec(2)), 24),
        (Quaternion(16), 16),
    ]
    for spec, expected in cases:
        assert spec.order() == expected
    for spec in (Cyclic(12), elementary_spec(3, 2), frobenius_spec(3), Quaternion(8)):
        if spec.order() <= 128:
            assert realize(spec).order == spec.order()


def test_realize_product_census_matches_known_groups():
    prod = realize(Product(Cyclic(2), Cyclic(3)))
    c6 = realize(Cyclic(6))
    assert sorted(prod.element_orders()) == sorted(c6.element_orders())
    assert prod.center_size() == c6.center_size()
    # nonabelian factor: center and orders still those of the direct product
    p2 = realize(Product(Cyclic(2), frobenius_spec(2)))
    assert p2.order == 24
    assert p2.center_size() == 2 * 1


def test_realize_semidirect_needs_realizable_eigenvalues():
    realize(isotypic_spec(5, 2, 1, 4))  # 4 | 5-1
    with pytest.raises(SpecError):
        isotypic_spec(5, 2, 1, 3)  # 3 does not divide 4: no such group


def test_usd_spellings_of_frobenius_groups_realize_as_j():
    # the exponents {2^i} mod 2^k - 1 realize by the companion matrix of J(k), as a set
    a4 = realize(parse_spec("Usd(2,3;1,2)"))
    assert np.array_equal(a4.mul, realize(parse_spec("J(2)")).mul)
    assert set(a4.element_orders()) == {1, 2, 3}
    for text in ("Usd(2,7;1,2,4)", "Usd(2,7;4,1,2)"):
        assert np.array_equal(realize(parse_spec(text)).mul, realize(parse_spec("J(3)")).mul), text
    # the conjugates of u^3 are another orbit: no table for them
    with pytest.raises(RealizeError, match="no element of order 7 in F_2"):
        realize(parse_spec("Usd(2,7;3,6,5)"))


def test_semidirect_groups_that_do_not_exist_are_rejected():
    # eigenvalues over F_p are closed under Frobenius, so the exponent
    # multiset must be stable under a -> p*a mod m
    for text in ("U(5,2,1,3)", "Usd(3,4;1)", "Usd(3,4;1,3,3)", "Usd(2,7;1,2)"):
        with pytest.raises(SpecError):
            parse_spec(text)
    for text in ("Usd(3,4;1,3)", "Usd(2,3;1,2)", "Usd(2,7;1,2,4)", "Usd(5,4;0)", "U(7,2,1,3)"):
        parse_spec(text)  # unions of orbits exist


def test_realize_order_guard():
    with pytest.raises(RealizeError):
        realize(elementary_spec(2, 5), max_order=16)


def test_quaternion_q8_structure():
    g = realize(Quaternion(8))
    assert g.order == 8
    assert not g.is_abelian()
    assert sorted(g.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert g.center_size() == 2


def test_frobenius_action_fixed_point_free():
    for k in (2, 3, 4):
        spec = frobenius_spec(k)
        g = realize(spec)
        m = spec.m
        # elements (v, 0) form E_k at indices v*m; conjugation by the cyclic
        # generator (0, 1) must move every nonzero vector
        gen = 1  # index of (0, u)
        gen_inv = int(g.inv[gen])
        for vec in range(1, 2**k):
            moved = g.multiply(g.multiply(gen, vec * m), gen_inv)
            assert moved != vec * m


def test_table_group_round_trip(tmp_path):
    g = realize(Cyclic(3))
    path = tmp_path / "c3.tbl"
    lines = ["3"] + [" ".join(str(int(x)) for x in row) for row in g.mul]
    path.write_text("\n".join(lines) + "\n")
    loaded = realize(TableGroup(str(path)))
    assert np.array_equal(loaded.mul, g.mul)
    assert TableGroup(str(path)).order() == 3


def test_table_file_is_opened_once_for_its_header_and_once_for_its_body(tmp_path, monkeypatch):
    # the order is read once per spec and kept: q_bound_report asks for it
    # from primes, realize and the mu_n path, then load_table reads the body
    g = realize(parse_spec("C(9)"))
    path = tmp_path / "c9.tbl"
    path.write_text(f"{g.order}\n" + "\n".join(" ".join(map(str, row)) for row in g.mul.tolist()) + "\n")
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(groupspec, "open", counting_open, raising=False)
    spec = parse_spec(f"Table({path})")
    report = q_bound_report(spec, 2)
    assert opened == [str(path)] * 2
    assert (report.lower, report.upper) == (2, None)
    # realize's order guard reads only the header, before the body
    opened.clear()
    with pytest.raises(RealizeError, match="exceeds max_order"):
        realize(parse_spec(f"Table({path})"), max_order=8)
    assert opened == [str(path)]


def test_concrete_group_rejects_bad_tables():
    with pytest.raises(RealizeError):
        ConcreteGroup([[0, 1], [1, 1]])  # rows not permutations
    with pytest.raises(RealizeError):
        ConcreteGroup([[1, 0], [0, 1]])  # identity not at index 0
    # non-associative latin square with identity at 0
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(RealizeError):
        ConcreteGroup(bad)


def test_concrete_group_says_whether_rows_or_columns_fail():
    with pytest.raises(RealizeError, match="rows of the table are not permutations"):
        ConcreteGroup([[0, 1], [1, 1]])
    # every row a permutation, column 1 is (1, 0, 0)
    with pytest.raises(RealizeError, match="columns of the table are not permutations"):
        ConcreteGroup([[0, 1, 2], [1, 0, 2], [2, 0, 1]])


def _random_loop(rng, n):
    """A random Latin square with identity 0, filled cell by cell with backtracking."""
    table = [[0] * n for _ in range(n)]
    table[0] = list(range(n))
    for a in range(n):
        table[a][0] = a
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        a, b = cells[k]
        used = set(table[a][:b]) | {table[x][b] for x in range(a)}
        for value in rng.sample(range(n), n):
            if value not in used:
                table[a][b] = value
                if fill(k + 1):
                    return True
        return False

    assert fill(0)
    return table


def _associative(table):
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]] for a in range(n) for b in range(n) for c in range(n))


def test_associativity_check_agrees_with_brute_force_on_random_loops():
    # the construction checks (x b) y = x (b y) for generators b only
    rng = random.Random(20261018)
    groups = [realize(parse_spec(text)) for text in ("C(4)", "E(2,2)", "C(6)", "U(3,1,1,2)", "Q(8)", "E(2,3)")]
    tables = [_random_loop(rng, n) for n in range(2, 9) for _ in range(40)]
    for group in groups:
        perm = [0] + rng.sample(range(1, group.order), group.order - 1)
        tables.append(group.relabel(perm).mul.tolist())
    verdicts = set()
    for table in tables:
        expected = _associative(table)
        try:
            ConcreteGroup(table)
            accepted = True
        except RealizeError as exc:
            assert "not associative" in str(exc)
            accepted = False
        assert accepted == expected, table
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_frobenius_exponents_values():
    assert (frobenius_spec(2).m, frobenius_spec(2).exps) == (3, (1, 2))
    assert (frobenius_spec(3).m, frobenius_spec(3).exps) == (7, (1, 2, 4))
    assert (frobenius_spec(1).m, frobenius_spec(1).exps) == (1, (0,))


# --- the built-in polynomial table -----------------------------------------

def _gf2_mulmod(a, b, f, k):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> k) & 1:
            a ^= f
    return r


def _gf2_powmod(a, e, f, k):
    r = 1
    while e:
        if e & 1:
            r = _gf2_mulmod(r, a, f, k)
        a = _gf2_mulmod(a, a, f, k)
        e >>= 1
    return r


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_primitive_polynomial_table():
    for k, f in PRIMITIVE_POLY.items():
        assert f >> k == 1, "polynomial must be monic of degree k"
        if k == 1:
            assert f == 0b11
            continue
        n = (1 << k) - 1
        assert _gf2_powmod(2, n, f, k) == 1
        for q in _prime_factors(n):
            assert _gf2_powmod(2, n // q, f, k) != 1
    assert set(PRIMITIVE_POLY) == set(range(1, 17))


def test_frobenius_invariants_independent_of_polynomial_choice():
    # realizations over alternative primitive polynomials give the same
    # cohomology dimensions, so mu_2 does not depend on the choice
    from eulerchar import FpModule, cochain_cohomology_dim
    from eulerchar.groupspec import ConcreteGroup, _companion_matrix_gf2, _semidirect_table
    from eulerchar.resolution import Resolution

    alternatives = {3: 0b1101, 4: 0b11001}  # x^3+x^2+1, x^4+x^3+1
    for k, poly in alternatives.items():
        assert _gf2_powmod(2, (1 << k) - 1, poly, k) == 1
        for q in _prime_factors((1 << k) - 1):
            assert _gf2_powmod(2, ((1 << k) - 1) // q, poly, k) != 1
        default = realize(frobenius_spec(k))
        alt = ConcreteGroup(_semidirect_table(2, _companion_matrix_gf2(poly, k), 2**k - 1))
        assert alt.order == default.order
        assert sorted(alt.element_orders()) == sorted(default.element_orders())
        for p in (2, 3):
            h1 = [Resolution(g, p).cohomology_dims(FpModule.trivial(p, g.order), 1)[1] for g in (alt, default)]
            assert h1[0] == h1[1]
    # order 56 still fits the oracle in low degrees: dimensions agree too
    default = realize(frobenius_spec(3))
    alt = ConcreteGroup(_semidirect_table(2, _companion_matrix_gf2(0b1101, 3), 7))
    triv = FpModule.trivial(2, 56)
    for n in (0, 1):
        assert (
            cochain_cohomology_dim(default, triv, n).h
            == cochain_cohomology_dim(alt, triv, n).h
        )


def test_metadata_attachment():
    spec = Cyclic(7).with_meta(period=2, solvable=True, d=1)
    assert spec.meta.period == 2
    assert spec.meta.d == 1
    assert parse_spec("C(7)") == Cyclic(7)  # metadata not part of equality of parse result
    with pytest.raises(SpecError):
        Cyclic(7).with_meta(period=3)  # periods are even
    with pytest.raises(SpecError):
        Cyclic(7).with_meta(d=-1)


def test_declared_d_must_agree_with_the_spec():
    # d(G) = 1 + the Swan sum at n = 1 wherever the family keeps a record: d(1) = 0, d = 1 for a
    # cyclic group, d = k for (Z/p)^k, d = k + 1 for a faithful isotypic action, 2 for A4
    for text, shown in (("1", 0), ("C(1)", 0), ("C(7)", 1), ("Usd(7,3;0)", 1), ("E(3,0)", 0), ("E(3,2)", 2),
                        ("Usd(3,1;0,0)", 2), ("U(7,4,0,1)", 4), ("U(5,3,1,4)", 4), ("Usd(5,4;3,3)", 3),
                        ("J(2)", 2), ("Usd(5,4;1,2)", 2), ("Usd(5,4;2,2)", 3), ("Prod(E(3,1),E(3,1))", 2)):
        spec = parse_spec(text)
        assert spec.known_d() == shown and spec.with_meta(d=shown).meta.d == shown, text
        with pytest.raises(SpecError, match=f"spec shows d = {shown}"):
            spec.with_meta(d=shown + 1)
    # unsettled: a declaration is taken as it stands
    q8 = parse_spec("Q(8)")
    assert q8.known_d() is None and q8.with_meta(d=2).meta.d == 2


def _smallest_generating_tuple(group):
    """d(G) by search on the table: the least t such that some t elements generate G.

    Level t holds subgroups generated by t elements.  <H, g> is skipped
    when g already lies in some <H, g'> of the same level, as then it is
    contained in that one; every t-generated subgroup stays inside a kept
    one, so G is reached at the level d(G).
    """
    mul = group.mul.tolist()

    def generated(gens):
        members, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = mul[x][g]
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return frozenset(members)

    level = {frozenset({0}): ()}
    for t in range(group.order):
        if any(len(sub) == group.order for sub in level):
            return t
        following = {}
        for sub, gens in level.items():
            reached = set(sub)
            for g in range(group.order):
                if g not in reached:
                    extended = generated(gens + (g,))
                    reached |= extended
                    following.setdefault(extended, gens + (g,))
        level = following


def test_known_d_is_the_smallest_generating_tuple():
    # d(G) = 1 + the Swan sum at n = 1 over the record, against a search on the
    # table, for every realizable semidirect spec of the census and J(4)
    checked = 0
    for text in _family_specs_up_to_64() + ["J(4)"]:
        try:
            spec = parse_spec(text)
            if not isinstance(spec, groupspec.Semidirect):
                continue
            group = realize(spec)
        except (SpecError, RealizeError):
            continue  # no such group, or a non-split action realize() does not build
        assert spec.known_d() == _smallest_generating_tuple(group), text
        checked += 1
    assert checked == 174
