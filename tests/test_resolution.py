"""The free-resolution engine against the bar-cochain reference and closed forms."""

import json

import numpy as np
import pytest

from eulerchar import (
    BudgetError,
    EulerCharError,
    FpModule,
    UnsupportedFamilyError,
    cochain_cohomology_dim,
    closed_form_series,
    compute_mun,
    graded_character,
    parse_spec,
    q_bound_report,
    realize,
    semidirect_character_module,
)
from eulerchar.cli import main
from eulerchar.groupspec import prime_factors
from eulerchar.oracle import SparseMatrix, rank_mod_p
from eulerchar.resolution import Resolution, _nullspace_mod_p, echelon_mod_p


def _specs_up_to_16():
    """Every realizable spec of order <= 16, products up to the order of their factors.

    E(p,1) is C(p) on another table; it appears alone but not as a factor.
    """
    leaves = [f"C({m})" for m in range(2, 17)]
    leaves += [f"E({p},{k})" for p in (2, 3) for k in (2, 3, 4) if p**k <= 16]
    specs = ["1"] + leaves + [f"E({p},1)" for p in (2, 3, 5, 7, 11, 13)]
    for i, a in enumerate(leaves):
        for b in leaves[i:]:
            if parse_spec(a).order() * parse_spec(b).order() <= 16:
                specs.append(f"Prod({a},{b})")
    specs += ["U(3,1,1,2)", "U(5,1,1,2)", "U(7,1,1,2)", "Usd(3,2;0)", "Usd(5,2;0)", "Usd(7,2;0)"]
    specs += ["Usd(2,1;0,0)", "Usd(3,1;0,0)", "J(1)", "J(2)", "Q(8)", "Q(12)", "Q(16)"]
    return specs


def _bar_degree(order, p):
    """Top degree compared with the bar reference.

    Its degree-3 ranks take 0.4-2 s per group from order 13 on (bitsets,
    p <= 3) and from order 10 on (dense, p >= 5); there the closed forms
    and the period pattern check degree 3 instead.
    """
    return 3 if order <= (12 if p <= 3 else 7) else 2


def test_engine_equals_bar_reference_on_small_groups():
    for text in _specs_up_to_16():
        spec = parse_spec(text)
        group = realize(spec)
        for p in prime_factors(group.order) or [2]:
            module = FpModule.trivial(p, group.order)
            engine = Resolution(group, p).cohomology_dims(module, 3)
            top = _bar_degree(group.order, p)
            bar = tuple(cochain_cohomology_dim(group, module, n).h for n in range(top + 1))
            assert engine[: top + 1] == bar, (text, p)
            try:
                closed = closed_form_series(spec, p, 3).dims
            except UnsupportedFamilyError:
                continue  # quaternion specs have no closed form
            assert engine == closed, (text, p)


def test_engine_equals_references_on_character_modules():
    # h^t(G; L(beta)) is the multiplicity of beta in the degree-t character
    # of the vector part's cohomology.  test_oracle checks the bar complex
    # against that formula in degrees <= 2 for the U(...) groups; the bar
    # complex checks here what that leaves out and is cheap
    bar_degree = {"U(3,1,1,2)": 3, "U(7,1,1,3)": -1, "U(5,1,1,4)": -1, "Usd(5,2;1)": 2}
    for text, top in bar_degree.items():
        spec = parse_spec(text)
        group = realize(spec)
        resolution = Resolution(group, spec.p)
        for beta in range(spec.m):
            module = semidirect_character_module(spec, beta, group)
            engine = resolution.cohomology_dims(module, 3)
            character = tuple(graded_character(spec.exponents(), spec.p, t).multiplicity(beta) for t in range(4))
            assert engine == character, (text, beta)
            bar = tuple(cochain_cohomology_dim(group, module, t).h for t in range(top + 1))
            assert engine[: top + 1] == bar, (text, beta)


def test_two_dimensional_module():
    # F_2[C4/C2]: the generator swaps the two cosets; by Shapiro's lemma
    # H^n(C4; M) = H^n(C2; F_2), one-dimensional in every degree
    group = realize(parse_spec("C(4)"))
    swap = np.array([[0, 1], [1, 0]])
    module = FpModule(2, [np.linalg.matrix_power(swap, g) for g in range(4)])
    engine = Resolution(group, 2).cohomology_dims(module, 3)
    assert engine == tuple(cochain_cohomology_dim(group, module, n).h for n in range(4)) == (1, 1, 1, 1)


def test_p_group_resolutions_are_minimal():
    for text, p in [("C(2)", 2), ("C(8)", 2), ("C(9)", 3), ("E(2,3)", 2), ("E(3,2)", 3), ("E(5,1)", 5),
                    ("Prod(C(2),C(4))", 2), ("Prod(E(2,2),C(4))", 2), ("Prod(C(3),C(9))", 3)]:
        spec = parse_spec(text)
        resolution = Resolution(realize(spec), p)
        resolution.extend(5)
        assert tuple(resolution.ranks) == closed_form_series(spec, p, 5).dims, text
    # Q(2^k) over F2: the period-4 pattern, Q(8) gives (1, 2, 2, 1, 1, ...)
    for order in (8, 16, 32, 64):
        resolution = Resolution(realize(parse_spec(f"Q({order})")), 2)
        resolution.extend(8)
        assert resolution.ranks == [1, 2, 2, 1] * 2 + [1], order


def test_order_one_group():
    group = realize(parse_spec("1"))
    for p in (2, 3, 5):
        resolution = Resolution(group, p)
        assert resolution.cohomology_dims(FpModule.trivial(p, 1), 4) == (1, 0, 0, 0, 0)
        resolution.extend(5)
        assert resolution.ranks == [1, 0, 0, 0, 0, 0]


def _relabeled(text, seed):
    """The realized table of `text` under a seeded relabeling that keeps the identity at 0."""
    group = realize(parse_spec(text))
    perm = np.concatenate([[0], np.random.default_rng(seed).permutation(np.arange(1, group.order))])
    return group.relabel(perm)


def test_trivial_top_degree_without_the_next_differential():
    # the top degree read off K_{n-1} / I K_{n-1} and the rows of K_{n-1},
    # with no generators chosen for K_{n-1}, against the rows of K_n on a
    # resolution that already has d_{n+1}
    groups = {text: realize(parse_spec(text)) for text in
              ("Q(8)", "Q(12)", "Q(24)", "J(2)", "U(3,1,1,2)", "C(6)", "E(2,3)")}
    groups["Q(12) relabeled"] = _relabeled("Q(12)", 1)
    groups["U(3,1,1,2) relabeled"] = _relabeled("U(3,1,1,2)", 2)
    for name, group in groups.items():
        for p in prime_factors(group.order):
            trivial = FpModule.trivial(p, group.order)
            full = Resolution(group, p)
            full.extend(6)
            expected = full.cohomology_dims(trivial, 5)
            assert len(full.images) == 6
            short = Resolution(group, p)
            for n_max in range(6):
                assert short.cohomology_dims(trivial, n_max) == expected[: n_max + 1], (name, p, n_max)
                assert len(short.images) == max(n_max - 1, 0)
            # a trivial module of dimension 2 is two copies of F_p
            double = FpModule(p, np.broadcast_to(np.eye(2, dtype=np.int64), (group.order, 2, 2)))
            assert Resolution(group, p).cohomology_dims(double, 3) == tuple(2 * h for h in expected[:4])


def _delta_rank(module, image):
    """rank of phi -> phi o d on M^r: block (j, i) is sum_g c_g rho(g), d(e_j) = sum_{i,g} c_g g e_i."""
    count, rank, _ = image.shape
    blocks = np.einsum("jig,gab->jaib", image, module.matrices.astype(np.int64))
    return len(echelon_mod_p(blocks.reshape(count * module.dim, rank * module.dim), module.p)[1])


def test_twisted_top_degree_without_the_next_differential():
    # Z^n read off the rows of K_n = im d_{n+1}, with d_{n+1} never built,
    # against dim M r_i - rank delta^{i+1} - rank delta^i on a resolution
    # that has d_{n+1}
    modules = []
    for text in ("Usd(5,4;1)", "Usd(7,3;1)"):
        spec = parse_spec(text)
        group = realize(spec)
        modules += [(text, group, semidirect_character_module(spec, beta, group)) for beta in range(spec.m)]
    group = realize(parse_spec("C(4)"))
    swap = np.array([[0, 1], [1, 0]])
    modules.append(("C(4) swap", group, FpModule(2, [np.linalg.matrix_power(swap, g) for g in range(4)])))
    for name, group, module in modules:
        full = Resolution(group, module.p)
        full.extend(4)
        deltas = [0] + [_delta_rank(module, image) for image in full.images]
        expected = tuple(module.dim * full.ranks[i] - deltas[i + 1] - deltas[i] for i in range(4))
        for n in range(4):
            fresh = Resolution(group, module.p)
            assert fresh.cohomology_dims(module, n) == expected[: n + 1], (name, n)
            # the trivial character takes the short path, one differential less
            assert len(fresh.images) == (max(n - 1, 0) if module.is_trivial else n), (name, n)


def test_budget_covers_the_twisted_kernel_rows_matrix():
    # Z^n of a twisted module is read off the rows of K_n: a block of
    # dim M x dim M per (kernel row, generator of F_n), reserved before it is built
    spec = parse_spec("Usd(5,4;1)")
    group = realize(spec)
    module = semidirect_character_module(spec, 1, group)
    resolution = Resolution(group, 5)
    expected = resolution.cohomology_dims(module, 2)
    needed = len(resolution.kernels[2]) * module.dim * resolution.ranks[2] * module.dim * 8
    resolution.budget = needed - 1
    with pytest.raises(BudgetError) as info:
        resolution.cohomology_dims(module, 2)
    assert (info.value.required_bytes, info.value.budget_bytes) == (needed, needed - 1)
    resolution.budget = needed
    assert resolution.cohomology_dims(module, 2) == expected


def test_module_actions_take_one_byte_per_entry_up_to_256():
    for p in (2, 3, 251):
        module = FpModule(p, [np.eye(2, dtype=np.int64), [[0, 1], [1, 0]]])
        assert module.matrices.itemsize == 1 and module.matrices.nbytes == 8, p
    assert FpModule(257, [[[1]], [[256]]]).matrices.itemsize == 2


def test_module_check_multiplies_without_wrapping():
    # over F_257 the entries take two bytes; 256 = -1 squares to 1, and
    # 256 * 256 = 65536 would wrap to 0 if the product stayed in uint16
    group = realize(parse_spec("C(2)"))
    FpModule(257, [[[1]], [[256]]]).check_against(group)
    with pytest.raises(EulerCharError, match="not multiplicative"):
        FpModule(257, [[[1]], [[255]]]).check_against(group)


def test_module_check_reaches_every_element():
    # the check multiplies by generators only; a fault at any other element
    # still shows, as the product of a generator with some element
    group = realize(parse_spec("E(3,4)"))
    outside = [g for g in range(1, group.order) if g not in group.generating_set]
    assert group.order == 81 and len(group.generating_set) == 4
    for g in (outside[0], outside[-1]):
        mats = np.ones((group.order, 1, 1), dtype=np.int64)
        mats[g] = 2
        with pytest.raises(EulerCharError, match="not multiplicative"):
            FpModule(3, mats).check_against(group)
    FpModule.trivial(3, group.order).check_against(group)
    # [[1, f], [0, 1]] is a homomorphism iff f is additive; f = v_0 v_1 is
    # additive along the generators 1 and 3 (unit vectors in v_3, v_2), not 9
    assert group.generating_set == [1, 3, 9, 27]
    vectors = np.array([[index // 3 ** (3 - i) % 3 for i in range(4)] for index in range(group.order)])
    mats = np.broadcast_to(np.eye(2, dtype=np.int64), (group.order, 2, 2)).copy()
    mats[:, 0, 1] = vectors[:, 0] * vectors[:, 1] % 3
    with pytest.raises(EulerCharError, match="at element 9"):
        FpModule(3, mats).check_against(group)


def test_resolution_differentials_compose_to_zero():
    # d_{n-1} d_n = 0 on every generator: the engine builds a complex
    for text, p in [("J(2)", 2), ("Q(12)", 3), ("U(5,1,1,4)", 5)]:
        group = realize(parse_spec(text))
        resolution = Resolution(group, p)
        resolution.extend(4)
        for n in range(1, 4):
            upper = resolution._boundary_matrix(n + 1)
            lower = resolution._boundary_matrix(n)
            assert not (lower @ upper % p).any(), (text, n)


def _shaped_matrices(rng, p):
    """Seeded random matrices, with the shapes elimination gets wrong most easily."""
    for _ in range(25):
        rows, cols = (int(x) for x in rng.integers(1, 12, size=2))
        density = rng.integers(0, 2, size=(rows, cols))
        yield rng.integers(0, p, size=(rows, cols)) * density
    yield np.zeros((4, 6), dtype=np.int64)
    yield np.zeros((1, 1), dtype=np.int64)
    base = rng.integers(0, p, size=(5, 7))
    yield np.concatenate([np.zeros((5, 3), dtype=np.int64), base], axis=1)  # zero leading columns
    yield np.concatenate([base, np.zeros((5, 3), dtype=np.int64)], axis=1)  # zero trailing columns
    yield np.concatenate([base, base, base[:2] * (p - 1)])  # duplicate and scaled rows
    yield np.concatenate([np.zeros((3, 2), dtype=np.int64), base[:3], np.zeros((3, 2), dtype=np.int64)], axis=1)


def test_echelon_pivots_and_nullspace():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5, 7):
        for matrix in _shaped_matrices(rng, p):
            reduced, pivots = echelon_mod_p(matrix, p)
            rank = len(pivots)
            assert reduced.shape == matrix.shape
            assert ((0 <= reduced) & (reduced < p)).all()
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            for row, col in enumerate(pivots):
                assert not reduced[row, :col].any()  # the pivot leads its row
                assert (reduced[:, col] == np.eye(matrix.shape[0], dtype=np.int64)[row]).all()
            assert not reduced[rank:].any()
            if p in (2, 3):
                # the bar reference's bitset eliminators are independent of echelon_mod_p
                assert rank == rank_mod_p(SparseMatrix.from_dense(matrix), p)
                both = np.concatenate([matrix, reduced])
                assert rank_mod_p(SparseMatrix.from_dense(both), p) == rank  # same row space
            kernel = _nullspace_mod_p(matrix, p)
            assert rank + kernel.shape[0] == matrix.shape[1]
            assert not (matrix @ kernel.T % p).any()
            if p in (2, 3) and kernel.shape[0]:
                assert rank_mod_p(SparseMatrix.from_dense(kernel), p) == kernel.shape[0]


def _greedy_generators(resolution, kernel):
    """The selection rule spelled out: re-echelon the whole span after every choice."""
    p, order = resolution.p, resolution.group.order
    dim, length = kernel.shape
    if resolution.minimal:
        shaped = kernel.reshape(dim, -1, order)
        rows = [(shaped[:, :, resolution.translate[s]] - shaped).reshape(dim, length) for s in resolution.group.generating_set]
        span = np.concatenate(rows)
    else:
        span = np.zeros((0, length), dtype=np.int64)
    chosen = []
    for index, vector in enumerate(kernel):
        if len(echelon_mod_p(np.concatenate([span, vector[None]]), p)[1]) > len(echelon_mod_p(span, p)[1]):
            chosen.append(index)
            span = np.concatenate([span, vector[None] if resolution.minimal else resolution._orbit(vector)])
    assert len(echelon_mod_p(span, p)[1]) == dim
    return chosen


def test_generators_are_the_greedy_choice():
    for text, p in [("Q(8)", 2), ("E(2,3)", 2), ("C(9)", 3), ("Q(12)", 2), ("Q(12)", 3), ("J(2)", 2),
                    ("U(3,1,1,2)", 3), ("Usd(5,4;1)", 5), ("Prod(C(2),C(3))", 2)]:
        resolution = Resolution(realize(parse_spec(text)), p)
        for top in range(4):
            kernel = _nullspace_mod_p(resolution._boundary_matrix(top), p)
            expected = kernel[_greedy_generators(resolution, kernel)]
            assert np.array_equal(resolution._generators(kernel), expected), (text, p, top)
            resolution.extend(top + 1)


@pytest.mark.parametrize(
    "text, p, ranks",
    [
        ("Q(8)", 2, (1, 2, 2, 1, 1, 2)),
        ("Q(12)", 2, (1, 2, 3, 4, 5, 6)),
        ("Q(12)", 3, (1, 2, 2, 2, 3, 4)),
        ("J(2)", 2, (1, 2, 3, 4, 5, 6)),
        ("J(2)", 3, (1, 2, 3, 4, 5, 6)),
        ("Usd(5,4;1)", 2, (1, 2, 2, 2, 2, 2)),
        ("Usd(5,4;1)", 5, (1, 2, 2, 2, 2, 2)),
    ],
)
def test_resolution_ranks_are_pinned(text, p, ranks):
    # r_0..r_5 fix the generator choice; outside p-groups r_n exceeds h^n
    # (J(2) = A4 has h^n(A4; F_2) = 1, 0, 1, 2, ...) and grows with n
    resolution = Resolution(realize(parse_spec(text)), p)
    resolution.extend(5)
    assert tuple(resolution.ranks) == ranks


def test_resolution_needs_a_prime_field():
    group = realize(parse_spec("C(4)"))
    for p in (0, 1, 4, 6):
        with pytest.raises(EulerCharError, match="prime field"):
            Resolution(group, p)


def test_budget_one_byte_below_the_first_matrix_raises():
    # the first matrix is the augmentation, one row of |G| int64 entries
    group = realize(parse_spec("C(4)"))
    first = 4 * 8
    with pytest.raises(BudgetError) as info:
        Resolution(group, 2, memory_budget=first - 1).cohomology_dims(FpModule.trivial(2, 4), 2)
    assert (info.value.required_bytes, info.value.budget_bytes) == (first, first - 1)
    with pytest.raises(BudgetError) as info:
        Resolution(group, 2, memory_budget=first).cohomology_dims(FpModule.trivial(2, 4), 2)
    assert info.value.required_bytes > first
    assert Resolution(group, 2, memory_budget=10_000).cohomology_dims(FpModule.trivial(2, 4), 2) == (1, 1, 1)


def test_budget_covers_the_coinvariant_matrix():
    # outside p-groups the short top degree eliminates I K_{n-1}, one block
    # of K's rows per generator; it is reserved before it is built
    group = realize(parse_spec("Prod(E(2,2),C(3))"))
    resolution = Resolution(group, 2)
    resolution.extend(3)
    needed = resolution.kernels[2].size * len(group.generating_set) * 8
    resolution.budget = needed - 1
    with pytest.raises(BudgetError) as info:
        resolution.cohomology_dims(FpModule.trivial(2, group.order), 3)
    assert (info.value.required_bytes, info.value.budget_bytes) == (needed, needed - 1)
    resolution.budget = needed
    assert resolution.cohomology_dims(FpModule.trivial(2, group.order), 3) == closed_form_series(
        parse_spec("Prod(E(2,2),C(3))"), 2, 3).dims


def test_budget_covers_the_kernel_rows_matrix():
    # on the short path rank delta^n is read off the rows of K_{n-1}: a block
    # of dim M x dim M per (kernel row, generator of F_{n-1}), reserved before
    # the I K matrix
    group = realize(parse_spec("Q(12)"))
    double = FpModule(2, np.broadcast_to(np.eye(2, dtype=np.int64), (group.order, 2, 2)))
    resolution = Resolution(group, 2)
    expected = resolution.cohomology_dims(double, 3)
    assert len(resolution.images) == 2
    needed = len(resolution.kernels[2]) * 2 * resolution.ranks[2] * 2 * 8
    resolution.budget = needed - 1
    with pytest.raises(BudgetError) as info:
        resolution.cohomology_dims(double, 3)
    assert (info.value.required_bytes, info.value.budget_bytes) == (needed, needed - 1)
    # at exactly that size the kernel rows pass and the larger I K matrix is refused
    resolution.budget = needed
    with pytest.raises(BudgetError) as info:
        resolution.cohomology_dims(double, 3)
    assert info.value.required_bytes > needed
    resolution.budget = 10 * info.value.required_bytes
    assert resolution.cohomology_dims(double, 3) == expected == (2, 2, 2, 2)  # twice H*(C(4); F_2)


def test_module_over_another_field_is_refused():
    group = realize(parse_spec("C(6)"))
    with pytest.raises(EulerCharError, match="resolution over F_2"):
        Resolution(group, 2).cohomology_dims(FpModule.trivial(3, 6), 1)


@pytest.mark.parametrize("order", [24, 32])
def test_quaternion_bounds_in_degree_three_answer(capsys, order):
    # once a budget refusal: e_3 from the period-4 pattern (1, r, r, 1) is -1
    assert main(["bounds", f"Q({order})", "--n", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower"] == -1 and report["upper"] is None
    assert q_bound_report(parse_spec(f"Q({order})"), 3).lower == -1


@pytest.mark.parametrize("text, n", [("Usd(13,4;1)", 2), ("Usd(5,4;1)", 3)])
def test_swan_formula_over_all_character_modules(text, n):
    # once a budget refusal: the Swan formula over the m linear simple
    # modules equals the character formula
    spec = parse_spec(text)
    group = realize(spec)
    modules = [semidirect_character_module(spec, beta, group) for beta in range(spec.m)]
    assert compute_mun(spec, n, modules=modules).mu == compute_mun(spec, n).mu == 1
