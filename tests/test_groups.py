import dataclasses
import math
import random
import re

import numpy as np
import pytest

from eulerchar import (
    ConcreteGroup,
    GroupSpec,
    Product,
    Quaternion,
    RealizeError,
    Semidirect,
    SpecError,
    TableGroup,
    UnsupportedFamilyError,
    compute_mun,
    parse_spec,
    q_bound_report,
    realize,
    series_bundle,
    trivial_series,
    verify_series,
)
from eulerchar import cli, groupspec
from eulerchar.groupspec import FAMILIES, PRIMITIVE_POLY, cyclic_spec, elementary_spec, frobenius_spec, isotypic_spec
from test_resolution import _family_specs_up_to_64


# --- grammar ---------------------------------------------------------------

def test_parse_spec_families():
    # 1 and C(m) are Z/m with no exponents, over the least prime not dividing m
    assert parse_spec("1") == parse_spec("C(1)") == cyclic_spec(1) == Semidirect(2, (), 1)
    assert parse_spec("C(6)") == cyclic_spec(6) == Semidirect(5, (), 6)
    assert parse_spec("C(30)") == Semidirect(7, (), 30) and parse_spec("C(2000000)") == Semidirect(3, (), 2000000)
    assert parse_spec("E(3,2)") == elementary_spec(3, 2)
    assert parse_spec("U(5,3,1,4)") == isotypic_spec(5, 3, 1, 4)
    assert parse_spec("Usd(5,4;1,2)") == Semidirect(5, (1, 2), 4)
    assert parse_spec("J(4)") == frobenius_spec(4)
    assert parse_spec("Prod(C(2),C(3))") == Product(cyclic_spec(2), cyclic_spec(3))
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
    with pytest.raises(SpecError, match="cyclic order must be >= 1, got 0"):
        parse_spec("C(0)")
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
    "1": (Semidirect, ["1"]),
    "C": (Semidirect, ["C(1)", "C(6)"]),
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
    assert z3.known_period() == 2 and compute_mun(z3, 1).mu + 1 == 1
    assert realize(z3).element_orders() == [1, 3, 3]


def test_realize_cyclic():
    g = realize(cyclic_spec(4))
    assert g.order == 4
    assert g.mul[1, 3] == 0
    assert g.element_orders() == [1, 4, 2, 4]
    # 1 and C(m) realize as the Semidirect table with no vector part: the table of Z/m itself
    for text, m in [("1", 1)] + [(f"C({m})", m) for m in range(1, 65)]:
        idx = np.arange(m, dtype=np.int64)
        table = realize(parse_spec(text)).mul
        assert table.dtype == np.int64 and np.array_equal(table, (idx[:, None] + idx[None, :]) % m), text


def test_realize_frobenius_2_is_a4():
    g = realize(frobenius_spec(2))
    assert g.order == 12
    assert not g.is_abelian()
    assert sorted(set(g.element_orders())) == [1, 2, 3]
    assert (g.mul == g.mul.T).all(axis=1).sum() == 1


def test_realize_elementary_abelian():
    g = realize(elementary_spec(2, 3))
    assert g.order == 8
    assert g.is_abelian()
    assert sorted(set(g.element_orders())) == [1, 2]


def test_order_formulas():
    cases = [
        (cyclic_spec(12), 12),
        (elementary_spec(3, 4), 81),
        (isotypic_spec(5, 2, 1, 4), 100),
        (Semidirect(5, (1, 2), 4), 100),
        (frobenius_spec(3), 56),
        (Product(cyclic_spec(2), frobenius_spec(2)), 24),
        (Quaternion(16), 16),
    ]
    for spec, expected in cases:
        assert spec.order() == expected
    for spec in (cyclic_spec(12), elementary_spec(3, 2), frobenius_spec(3), Quaternion(8)):
        if spec.order() <= 128:
            assert realize(spec).order == spec.order()


def test_realize_product_census_matches_known_groups():
    prod = realize(Product(cyclic_spec(2), cyclic_spec(3)))
    c6 = realize(cyclic_spec(6))
    assert sorted(prod.element_orders()) == sorted(c6.element_orders())
    assert (prod.mul == prod.mul.T).all(axis=1).sum() == (c6.mul == c6.mul.T).all(axis=1).sum()
    # nonabelian factor: center and orders still those of the direct product
    p2 = realize(Product(cyclic_spec(2), frobenius_spec(2)))
    assert p2.order == 24
    assert (p2.mul == p2.mul.T).all(axis=1).sum() == 2 * 1


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
    assert (g.mul == g.mul.T).all(axis=1).sum() == 2


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
            moved = g.mul[g.mul[gen, vec * m], gen_inv]
            assert moved != vec * m


def test_table_group_round_trip(tmp_path):
    g = realize(cyclic_spec(3))
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
    assert (report.lower, report.upper, report.exact) == (2, 2, 2)  # C(9) has period 2
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
            h1 = [Resolution(g, p).cohomology_dims([FpModule.trivial(p, g.order)], 1)[0][1] for g in (alt, default)]
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
    spec = dataclasses.replace(cyclic_spec(7), exceptional=False)
    assert spec.exceptional is False and cyclic_spec(7).exceptional is None
    assert parse_spec("C(7)") == cyclic_spec(7)  # metadata not part of equality of parse result
    assert Quaternion(8, exceptional=True).exceptional is True
    # exceptionality is the one declaration; the period, d(G) and solvability come from the group
    assert [f.name for f in dataclasses.fields(GroupSpec)] == ["exceptional"]
    for name, value in (("period", 2), ("period", 3), ("d", 1), ("solvable", True), ("meta", None)):
        with pytest.raises(TypeError):
            dataclasses.replace(cyclic_spec(7), **{name: value})
    with pytest.raises(TypeError):
        dataclasses.replace(spec, period=4)
    assert spec.known_period() == cyclic_spec(7).known_period() == 2


def test_known_d_is_shown_by_the_spec():
    # d(G) = 1 + the Swan sum at n = 1 wherever the family keeps a record: d(1) = 0, d = 1 for a
    # cyclic group, d = k for (Z/p)^k, d = k + 1 for a faithful isotypic action, 2 for A4
    for text, shown in (("1", 0), ("C(1)", 0), ("C(7)", 1), ("Usd(7,3;0)", 1), ("E(3,0)", 0), ("E(3,2)", 2),
                        ("Usd(3,1;0,0)", 2), ("U(7,4,0,1)", 4), ("U(5,3,1,4)", 4), ("Usd(5,4;3,3)", 3),
                        ("J(2)", 2), ("Usd(5,4;1,2)", 2), ("Usd(5,4;2,2)", 3), ("Prod(E(3,1),E(3,1))", 2)):
        spec = parse_spec(text)
        assert spec.swan_record(1) is not None and compute_mun(spec, 1).mu + 1 == shown, text
        assert (spec.known_period() == 2) == (shown == 1), text  # for G != 1, period 2 means cyclic
        assert "group" not in vars(spec), text  # read off the record: nothing realized
    # no record: the realized group's own d(G), up to MAX_ORDER
    for text, shown in (("Q(8)", 2), ("Q(12)", 2), ("Q(64)", 2), ("Prod(Q(8),C(3))", 2), ("Prod(C(3),Q(8))", 2),
                        ("Prod(Q(8),E(2,1))", 3), ("Prod(Q(8),Q(8))", 4)):
        spec = parse_spec(text)
        assert spec.swan_record(1) is None and compute_mun(spec, 1).mu + 1 == shown and spec.known_period() != 2, text
    # past MAX_ORDER no group is realized; E(3,2) shows C_3 x C_3, so there is no period either
    big = parse_spec("Prod(Q(8),E(3,2))")
    assert big.order() > groupspec.MAX_ORDER and big.known_period() is None
    with pytest.raises(UnsupportedFamilyError, match="d\\(G\\) is read off groups of order <= 64"):
        compute_mun(big, 1)
    assert "group" not in vars(big)


def test_computed_d_is_at_least_h1_without_a_record():
    # d(G) >= dim Hom(G, F_p) = h^1(G; F_p): a product with a factor without a record (Q(8) at 2)
    # has no Swan record, and its realized d(G) is at least the h^1 its series shows at every prime
    for text in ("Prod(Q(8),C(3))", "Prod(Q(8),E(2,1))", "Prod(Q(12),C(5))", "Prod(Q(8),Q(8))", "Q(12)", "Q(24)"):
        spec = parse_spec(text)
        assert spec.swan_record(1) is None, text
        bundle = series_bundle(spec, 1)
        h1 = max(series.dims[1] for field, series in bundle.items() if field is not None)
        assert compute_mun(spec, 1).mu + 1 >= h1 >= 1, text
    # where h^1 is the whole story (an abelianization that needs d(G) generators) the two agree
    assert compute_mun(parse_spec("Prod(Q(8),E(2,1))"), 1).mu + 1 == series_bundle(parse_spec("Prod(Q(8),E(2,1))"), 1)[2].dims[1] == 3
    # with a record the product's d(G) is the record's, never below h^1 either
    known = parse_spec("Prod(C(2),C(6))")
    assert compute_mun(known, 1).mu + 1 == 2 == known.fp_series(2, 1).dims[1]
    # the CLI reads the same d: mu_1 = d(G) - 1
    assert cli.main(["swan", "Prod(Q(8),E(2,1))", "--nmax", "1"]) == 0


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
    # d(G) = 1 + the Swan sum at n = 1 over the record, against ConcreteGroup.generator_count
    # on the table of every realizable census group with a record and J(4), and against the
    # reference search above for the semidirect ones
    checked = semidirect = 0
    for text in _family_specs_up_to_64() + ["J(4)"]:
        try:
            spec = parse_spec(text)
            group = realize(spec)
        except (SpecError, RealizeError):
            continue  # no such group, or a non-split action realize() does not build
        if spec.swan_record(1) is None:
            continue
        assert compute_mun(spec, 1).mu + 1 == group.generator_count(), text
        checked += 1
        if isinstance(spec, groupspec.Semidirect):
            assert compute_mun(spec, 1).mu + 1 == _smallest_generating_tuple(group), text
            semidirect += 1
    assert (checked, semidirect) == (482, 238)


def test_generator_count_is_the_smallest_generating_tuple():
    # ConcreteGroup.generator_count against the reference search above, on the
    # quaternion groups (no Swan record) and on seeded relabelings of tables
    for n4 in range(8, 65, 4):
        group = realize(Quaternion(n4))
        assert group.generator_count() == _smallest_generating_tuple(group) == 2, n4
    rng = random.Random(35)
    for text in ("1", "C(12)", "E(2,3)", "J(2)", "Usd(3,2;1,1)", "Prod(C(2),C(6))", "Q(24)", "Prod(Q(8),C(3))", "E(2,5)"):
        group = realize(parse_spec(text))
        d = _smallest_generating_tuple(group)
        for _ in range(3):
            relabeled = group.relabel([0] + rng.sample(range(1, group.order), group.order - 1))
            assert relabeled.generator_count() == _smallest_generating_tuple(relabeled) == d, text


def _permutation_table(gens):
    """The multiplication table of the permutation group the tuples `gens` generate, identity at 0."""
    identity = tuple(range(len(gens[0])))
    elements, index = [identity], {identity: 0}
    for x in elements:  # grows while it is read
        for g in gens:
            y = tuple(x[i] for i in g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    return [[index[tuple(x[i] for i in y)] for y in elements] for x in elements]


def test_permutation_tables_read_d_and_solvability_off_the_group(tmp_path):
    # S4 = <(0 1), (0 1 2 3)> is solvable, A5 = <(0 1 2), (0 1 2 3 4)> is not; both have d = 2
    for name, gens, order, solvable, note in (
        ("s4", [(1, 0, 2, 3), (1, 2, 3, 0)], 24, True, "mu_1 = d(G) - 1 = 1 (solvable)"),
        ("a5", [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 60, False,
         "mu_1 <= d(G) - 1 = 1; exact value unknown for nonsolvable groups (upper bound used)"),
    ):
        table = _permutation_table(gens)
        path = tmp_path / f"{name}.tbl"
        path.write_text(f"{len(table)}\n" + "\n".join(" ".join(map(str, row)) for row in table) + "\n")
        spec = parse_spec(f"Table({path})")
        group = spec.group
        assert group.order == order and group.generator_count() == _smallest_generating_tuple(group) == 2, name
        assert group.is_solvable() is solvable and not group.is_abelian(), name
        assert compute_mun(spec, 1).mu + 1 == 2 and spec.known_period() is None, name  # both contain C_2 x C_2
        res = compute_mun(spec, 1)
        assert (res.mu, res.notes) == (1, (note,)), name
    # the derived series of solvable groups from the families reaches 1
    assert all(realize(parse_spec(text)).is_solvable() for text in ("1", "C(6)", "J(2)", "Q(24)", "Usd(5,4;1,2)", "E(2,4)"))


def test_known_period_is_the_realized_groups_period(tmp_path):
    # the families' closed forms against ConcreteGroup.period on the table of every realizable
    # census spec, Q(8) to Q(64) among them; then pinned values, read off the spec, its table, a
    # seeded relabeling and a Table spec of that relabeling
    checked = 0
    for text in _family_specs_up_to_64():
        try:
            spec = parse_spec(text)
            group = realize(spec)
        except (SpecError, RealizeError):
            continue  # no such group, or a non-split action realize() does not build
        assert spec.known_period() == group.period, text
        checked += 1
    assert checked == 496  # the trivial group among them
    rng = random.Random(36)
    for text, period in (("C(6)", 2), ("Q(8)", 4), ("Q(12)", 4), ("U(7,1,1,3)", 6), ("U(7,1,1,6)", 12),
                         ("E(2,2)", None), ("J(2)", None)):
        spec = parse_spec(text)
        group = realize(spec)
        relabeled = group.relabel([0] + rng.sample(range(1, group.order), group.order - 1))
        path = tmp_path / f"{text}.tbl"
        path.write_text(f"{group.order}\n" + "\n".join(" ".join(map(str, row)) for row in relabeled.mul.tolist()) + "\n")
        table = parse_spec(f"Table({path})")
        assert spec.known_period() == group.period == relabeled.period == table.known_period() == period, text
    assert parse_spec("1").known_period() is None and realize(parse_spec("1")).period is None


def test_the_period_of_sl2_over_f3_and_f5():
    # SL(2,p) acts freely on S^3 (p = 3: the binary tetrahedral group, p = 5: the binary icosahedral
    # group), so its period is 4: a quaternion Sylow 2-subgroup, and N/C of order 2 at the odd primes.
    # Built as permutations of the nonzero vectors of F_p^2, no family spells it.
    for p, order in ((3, 24), (5, 120)):
        vectors = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
        index = {v: i for i, v in enumerate(vectors)}
        gens = [tuple(index[((a * v[0] + b * v[1]) % p, (c * v[0] + d * v[1]) % p)] for v in vectors)
                for a, b, c, d in ((1, 1, 0, 1), (0, p - 1, 1, 0))]
        group = ConcreteGroup(_permutation_table(gens))
        assert group.order == order and not group.is_abelian()
        assert group.period == 4, p
