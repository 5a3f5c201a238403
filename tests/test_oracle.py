from itertools import product
from random import Random

import numpy as np
import pytest

from eulerchar import (
    BudgetError,
    EulerCharError,
    FpModule,
    cochain_cohomology_dim,
    fixed_space_dim,
    parse_spec,
    rank_mod_p,
    realize,
    semidirect_character_module,
    verify_series,
)
from eulerchar.characters import graded_characters
from eulerchar.oracle import _rank_gf3, coboundary_matrix
from eulerchar.resolution import check_against


# --- rank over F_p ----------------------------------------------------------

def test_rank_basics():
    eye5 = np.eye(5, dtype=int)
    for p in (2, 3, 5, 7):
        assert rank_mod_p(eye5, p) == 5
    zero = [[0, 0], [0, 0]]
    assert rank_mod_p(zero, 2) == 0
    ones = [[1, 1], [1, 1]]
    assert rank_mod_p(ones, 2) == 1


def test_rank_depends_on_characteristic():
    mat = [[2, 0], [0, 3]]
    assert rank_mod_p(mat, 2) == 1
    assert rank_mod_p(mat, 3) == 1
    assert rank_mod_p(mat, 5) == 2


def test_dense_rank_shares_no_code_with_the_engine(monkeypatch):
    # the p >= 5 ranks are the reference for echelon_mod_p, so they must not call it
    import eulerchar.oracle as oracle
    import eulerchar.resolution as resolution

    assert "echelon_mod_p" not in vars(oracle)

    def engine_eliminator(matrix, p):
        raise AssertionError("the bar reference called the engine's eliminator")

    monkeypatch.setattr(resolution, "echelon_mod_p", engine_eliminator)
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 5], [5, 10, 15]]
    assert [rank_mod_p(mat, p) for p in (5, 7, 11)] == [2, 2, 2]
    group = realize(parse_spec("C(5)"))
    assert cochain_cohomology_dim(group, FpModule.trivial(5, 5), 2).h == 1


def test_rank_random_against_fraction_free_reference():
    # reference: dense elimination over the rationals of the lifted matrix
    # restricted to p, done with python fractions
    from fractions import Fraction

    def reference_rank(rows, p):
        rows = [[Fraction(x % p) for x in row] for row in rows]
        rank = 0
        cols = len(rows[0]) if rows else 0
        r = 0
        for c in range(cols):
            piv = None
            for i in range(r, len(rows)):
                if rows[i][c] % p != 0:
                    piv = i
                    break
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(int(rows[r][c]), -1, p)
            rows[r] = [v * inv % p for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] % p:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
            rank += 1
            r += 1
        return rank

    rng = Random(5)
    for p in (2, 3, 5):
        for _ in range(15):
            nr, nc = rng.randrange(1, 8), rng.randrange(1, 8)
            rows = [[rng.randrange(p) for _ in range(nc)] for _ in range(nr)]
            assert rank_mod_p(rows, p) == reference_rank(rows, p)


def test_gf3_bitsliced_arithmetic():
    # all nine value pairs of the two-plane adder
    from eulerchar.oracle import _gf3_add

    def encode(v):
        return (1, 0) if v == 1 else (0, 1) if v == 2 else (0, 0)

    for x in range(3):
        for y in range(3):
            alo, ahi = encode(x)
            blo, bhi = encode(y)
            zlo, zhi = _gf3_add(alo, ahi, blo, bhi)
            assert (zlo, zhi) == encode((x + y) % 3)


# --- bar cochain dimensions --------------------------------------------------

def test_textbook_values():
    c2 = realize(parse_spec("C(2)"))
    triv = FpModule.trivial(2, 2)
    for n in range(4):
        assert cochain_cohomology_dim(c2, triv, n).h == 1
    c3 = realize(parse_spec("C(3)"))
    triv = FpModule.trivial(2, 3)
    assert cochain_cohomology_dim(c3, triv, 0).h == 1
    for n in (1, 2, 3):
        assert cochain_cohomology_dim(c3, triv, n).h == 0
    a4 = realize(parse_spec("J(2)"))
    assert cochain_cohomology_dim(a4, FpModule.trivial(2, 12), 2).h == 1


def test_rank_result_bookkeeping():
    g = realize(parse_spec("C(4)"))
    res = cochain_cohomology_dim(g, FpModule.trivial(2, 4), 2)
    assert res.dim_cochains == (4, 16, 64)
    assert res.h == 16 - res.rank_here - res.rank_prev
    res0 = cochain_cohomology_dim(g, FpModule.trivial(2, 4), 0)
    assert res0.rank_prev == 0 and res0.dim_cochains[0] == 0


def test_verify_series_acceptance_specs():
    for text, p, nmax in [("E(2,2)", 2, 4), ("E(3,2)", 3, 3), ("J(2)", 2, 3)]:
        rows = verify_series(parse_spec(text), p, nmax)
        assert all(r.match for r in rows), (text, [(r.closed_form, r.oracle) for r in rows])


def test_fixed_space_dimension_is_h0():
    for text, p in [("J(2)", 2), ("J(2)", 3), ("E(3,2)", 3), ("C(6)", 3)]:
        g = realize(parse_spec(text))
        triv = FpModule.trivial(p, g.order)
        assert fixed_space_dim(g, triv) == 1
        assert cochain_cohomology_dim(g, triv, 0).h == 1


def test_h1_matches_abelianization_rank():
    # h^1(G; F_p) = dim Hom(G, Z/p), the p-rank of G/[G, G]: C(6)/Z6, E(2,3),
    # A4/Z3 and Q(8)/(Z2 x Z2)
    for text, p, rank in [("C(6)", 2, 1), ("C(6)", 3, 1), ("E(2,3)", 2, 3), ("J(2)", 2, 0), ("J(2)", 3, 1), ("Q(8)", 2, 2)]:
        g = realize(parse_spec(text))
        h1 = cochain_cohomology_dim(g, FpModule.trivial(p, g.order), 1).h
        assert h1 == rank, text


def test_relabeling_invariance():
    rng = Random(31)
    a4 = realize(parse_spec("J(2)"))
    base = cochain_cohomology_dim(a4, FpModule.trivial(2, 12), 2).h
    for _ in range(10):
        perm = [0] + rng.sample(range(1, 12), 11)
        relabeled = a4.relabel(perm)
        h = cochain_cohomology_dim(relabeled, FpModule.trivial(2, 12), 2).h
        assert h == base


# --- twisted one-dimensional coefficients ------------------------------------

def test_character_module_is_a_module():
    spec = parse_spec("U(5,2,1,4)")
    g = realize(spec)
    for beta in range(4):
        semidirect_character_module(spec, beta, g)  # check_against runs inside


def test_twisted_dimensions_match_character_formula():
    # h^t(G; L(beta)) equals the multiplicity of beta in the degree-t
    # character of the cohomology of the vector part: the action on
    # degree-one cohomology is dual to the action on the group, which
    # negates exponents and turns the invariant count into a
    # multiplicity lookup.
    cases = ["U(3,1,1,2)", "U(7,1,1,3)", "U(3,2,1,2)", "U(5,1,1,4)", "U(3,3,1,2)"]
    for text in cases:
        spec = parse_spec(text)
        g = realize(spec)
        for beta in range(spec.m):
            module = semidirect_character_module(spec, beta, g)
            for t in range(3):
                expected = graded_characters(spec.m, spec.exps, spec.p, t)[t][beta]
                got = cochain_cohomology_dim(g, module, t).h
                assert got == expected, (text, beta, t)


def test_s3_sign_coefficients():
    # U(3,1,1,2) is the symmetric group on three letters; the sign
    # character over F_3 has one-dimensional h^1 and h^2
    spec = parse_spec("U(3,1,1,2)")
    g = realize(spec)
    sign = semidirect_character_module(spec, 1, g)
    dims = [cochain_cohomology_dim(g, sign, t).h for t in range(3)]
    assert dims == [0, 1, 1]


def test_swap_module_over_f3():
    # F_3[C(2)], the generator swapping the basis: h^0 is the fixed line and
    # h^1 = 0 (a free module).  Degree 0 builds rho(g) - 1, whose -1 entries
    # must not wrap in the module's unsigned storage
    g = realize(parse_spec("C(2)"))
    module = FpModule(3, [np.eye(2, dtype=np.int64), [[0, 1], [1, 0]]])
    assert [cochain_cohomology_dim(g, module, t).h for t in range(2)] == [1, 0]


def test_module_validation():
    g = realize(parse_spec("C(3)"))
    bad = np.stack([np.eye(1, dtype=int)] * 3)
    bad[1] = 2  # not a homomorphism to F_5 units of order dividing 3
    module = FpModule(5, bad)
    with pytest.raises(EulerCharError):
        check_against(g, [module])
    with pytest.raises(EulerCharError):
        FpModule(5, np.zeros((3, 1, 1), dtype=int))  # identity acts as zero


def test_memory_budget_enforced():
    g = realize(parse_spec("J(2)"))
    with pytest.raises(BudgetError):
        cochain_cohomology_dim(g, FpModule.trivial(2, 12), 3, memory_budget=1000)


def test_memory_estimate_bounds_the_measured_peak():
    # each d^k is reserved at _estimate_bytes before it is built; the
    # tracemalloc peak of a whole call stays under the estimate for d^n
    import tracemalloc

    from eulerchar.oracle import _estimate_bytes

    cases = [("J(2)", 2, 3, None), ("E(3,2)", 3, 3, None), ("U(3,1,1,2)", 3, 3, 1), ("U(5,1,1,4)", 5, 2, 1), ("C(5)", 5, 3, None)]
    for text, p, n, beta in cases:
        spec = parse_spec(text)
        g = realize(spec)
        module = FpModule.trivial(p, g.order) if beta is None else semidirect_character_module(spec, beta, g)
        tracemalloc.start()
        try:
            cochain_cohomology_dim(g, module, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _estimate_bytes(g.order, module.dim, n, p), text


def test_non_prime_fields_are_refused():
    matrix = [[2, 1], [1, 1]]
    for p in (0, 1, 4, 9):
        with pytest.raises(EulerCharError):
            FpModule(p, [np.eye(2, dtype=np.int64)])
        with pytest.raises(EulerCharError):
            rank_mod_p(matrix, p)
    with pytest.raises(EulerCharError):
        cochain_cohomology_dim(realize(parse_spec("C(2)")), FpModule.trivial(4, 2), 1)


def _coboundary_by_definition(g, module, n):
    """d^n as a dense matrix, evaluated (n+1)-tuple by (n+1)-tuple from the formula."""
    order, dim, rho = g.order, module.dim, module.matrices.astype(np.int64)
    eye = np.eye(dim, dtype=np.int64)
    d = np.zeros((order ** (n + 1) * dim, order**n * dim), dtype=np.int64)
    index = lambda tup: sum(x * order ** (len(tup) - 1 - e) for e, x in enumerate(tup))  # most significant first
    for w in product(range(order), repeat=n + 1):
        rows = d[index(w) * dim : (index(w) + 1) * dim]
        terms = [(w[1:], rho[w[0]])]
        terms += [(w[: pos - 1] + (g.mul[w[pos - 1], w[pos]],) + w[pos + 1 :], (-1) ** pos * eye) for pos in range(1, n + 1)]
        terms.append((w[:n], (-1) ** (n + 1) * eye))
        for tup, block in terms:
            rows[:, index(tup) * dim : (index(tup) + 1) * dim] += block
    return d % module.p


def test_coboundary_squares_to_zero():
    # the entries equal the coboundary formula evaluated tuple by tuple, and
    # d^{n+1} after d^n vanishes: columns of the composite are zero mod p.
    # The S_3 sign module over F_3 and the swap module of C(4) over F_2
    # compose the action term with a nontrivial rho(g)
    c4, s3 = realize(parse_spec("C(4)")), parse_spec("U(3,1,1,2)")
    cases = [(g, FpModule.trivial(p, g.order)) for g, p in [(c4, 2), (realize(parse_spec("E(3,1)")), 3), (realize(parse_spec("J(2)")), 2)]]
    swap = np.array([[0, 1], [1, 0]])
    cases += [(realize(s3), semidirect_character_module(s3, 1, realize(s3))),
              (c4, FpModule(2, [np.linalg.matrix_power(swap, k) for k in range(4)]))]
    assert [module.is_trivial for _, module in cases] == [True, True, True, False, False]
    for g, module in cases:
        dense = []
        for n in (0, 1, 2):
            cols, rows, values = coboundary_matrix(g, module, n)
            assert ((0 < values) & (values < module.p)).all()
            matrix = np.zeros((g.order ** (n + 1) * module.dim, g.order**n * module.dim), dtype=np.int64)
            matrix[rows, cols] = values
            assert np.array_equal(matrix, _coboundary_by_definition(g, module, n))
            dense.append(matrix)
        for n in (0, 1):
            assert not ((dense[n + 1] @ dense[n]) % module.p).any()
