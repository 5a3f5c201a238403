"""The free-resolution engine against the bar-cochain reference and closed forms."""

import json
from itertools import combinations_with_replacement

import numpy as np
import pytest

from eulerchar import (
    BudgetError,
    ConcreteGroup,
    EulerCharError,
    FpModule,
    Product,
    Quaternion,
    cochain_cohomology_dim,
    compute_en,
    compute_mun,
    parse_spec,
    q_bound_report,
    realize,
    semidirect_character_module,
    series_bundle,
)
from eulerchar.characters import alternating_sum, graded_characters
from eulerchar.cli import main
from eulerchar.groupspec import PRIMITIVE_POLY, _companion_matrix_gf2, _quaternion_table, prime_factors, unit_of_order
from eulerchar.oracle import rank_mod_p
from eulerchar.resolution import Resolution, _mul_mod_p, _nullspace_mod_p, echelon_mod_p


def _boundary_matrix(resolution, n):
    """The full d_n as an F_p-matrix, rows (i, x) of F_{n-1}, columns (j, h) of F_n; the augmentation for n = 0.

    The engine never builds it: it is the reference for the kernels.
    """
    order = resolution.group.order
    if n == 0:
        return np.ones((1, order), dtype=np.int64)
    # column (j, h) is h d_n(e_j); shape (j, i, h, x) before the transpose
    moved = resolution.images[n - 1][:, :, resolution.translate]
    return moved.transpose(1, 3, 0, 2).reshape(resolution.ranks[n - 1] * order, resolution.ranks[n] * order)


def _orbit(resolution, vector):
    """The |G| translates h v of one full-length vector of F_n, as rows."""
    order = resolution.group.order
    return vector.reshape(-1, order)[:, resolution.translate].transpose(1, 0, 2).reshape(order, -1)


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

    Its degree-3 ranks take 0.5-5 s per group from order 13 on (bitsets,
    p <= 3: 1.4 s for C(16) over F_2, 5.0 s for C(15) over F_3) and 3-9 s
    from order 10 on (dense, p >= 5: C(10) over F_5, C(11) over F_11), on a
    2-vCPU host; there the closed forms and the period pattern check
    degree 3 instead.
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
            closed = spec.fp_series(p, 3)  # None: quaternion specs have no closed form
            assert closed is None or engine == closed.dims, (text, p)


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
            character = tuple(graded_characters(spec.m, spec.exps, spec.p, t)[t][beta] for t in range(4))
            assert engine == character, (text, beta)
            bar = tuple(cochain_cohomology_dim(group, module, t).h for t in range(top + 1))
            assert engine[: top + 1] == bar, (text, beta)


def test_graded_characters_pin_the_twist_convention():
    # the multiplicity of beta in degree t of graded_characters is
    # h^t(G; L(beta)) for the module L(beta) that
    # semidirect_character_module builds, not for its dual L(-beta), so
    # the alternating sum of beta's multiplicities is its Euler sum, and
    # a twist missing from a degree has no cohomology there: every
    # Usd(p,m;...) with m | p - 1, m > 1 and |G| <= 22
    checked = 0
    for p in (3, 5, 7, 11):
        for m in range(2, p):
            if (p - 1) % m:
                continue
            k = 1
            while p**k * m <= 22:
                for exps in combinations_with_replacement(range(m), k):
                    spec = parse_spec(f"Usd({p},{m};{','.join(map(str, exps))})")
                    group = realize(spec)
                    resolution = Resolution(group, p)
                    top = graded_characters(m, exps, p, 3)
                    for n in range(4):
                        graded = graded_characters(m, exps, p, n)
                        for beta in range(m):
                            dims = resolution.cohomology_dims(semidirect_character_module(spec, beta, group), n)
                            character = [degree[beta] for degree in graded]
                            assert alternating_sum(character, n) == alternating_sum(dims, n), (spec, n, beta)
                            assert list(dims) == character == [degree[beta] for degree in top[: n + 1]], (spec, n, beta)
                            checked += 1
                k += 1
    assert checked == 188


def test_frobenius_orbit_records_match_the_engine():
    # over F_2, J(k)'s complement acting by A^beta (A the companion matrix
    # of its table, the vector part acting trivially) is k/|O| copies of the
    # simple of beta's Frobenius orbit O = {beta 2^i mod m}; the record lists
    # that simple as (|O|, its dims), and beta's multiplicities in
    # graded_characters are the dims of L(beta), not of L(-beta): J(3) has (0, 3, 3, 3) on the orbit
    # {1, 2, 4} and (0, 0, 3, 6) on its negatives {3, 5, 6}
    for k, n in [(2, 4), (3, 3)]:
        spec = parse_spec(f"J({k})")
        group, m = realize(spec), spec.m
        action = _companion_matrix_gf2(PRIMITIVE_POLY[k], k)
        powers = [np.linalg.matrix_power(action, c) % 2 for c in range(m)]
        resolution = Resolution(group, 2)
        graded = graded_characters(m, spec.exps, 2, n)
        orbits = {}
        for beta in range(m):
            module = FpModule(2, [powers[beta * (g % m) % m] for g in range(group.order)])  # g % m is the complement part
            module.check_against(group)
            dims = resolution.cohomology_dims(module, n)
            assert list(dims) == [k * degree[beta] for degree in graded], (k, beta)
            orbit = frozenset(beta * 2**i % m for i in range(k))
            assert all(d * len(orbit) % k == 0 for d in dims), (k, beta)
            if any(dims):
                orbits[orbit] = (len(orbit), [d * len(orbit) // k for d in dims])
        assert sorted(spec.simple_series(2, n)) == sorted(orbits.values()), k
    assert sorted(parse_spec("J(3)").simple_series(2, 3)[1:]) == [(3, [0, 0, 3, 6]), (3, [0, 3, 3, 3])]


def test_nontrivial_simples_at_primes_dividing_the_complement_have_no_cohomology():
    # over F_q with q | m, the normal subgroup (Z/p)^k has order prime to q,
    # so only the trivial simple module has cohomology: simple_series lists
    # the trivial entry alone there.  The sign modules of C(6) and
    # Usd(7,6;1) over F_3, and a 2-dimensional simple of Usd(7,6;1) over F_2
    c6, usd = realize(parse_spec("C(6)")), realize(parse_spec("Usd(7,6;1)"))
    rotation = np.array([[0, 1], [1, 1]])  # order 3, irreducible over F_2: x^2 + x + 1
    cases = [
        (c6, FpModule(3, [[[(-1) ** g]] for g in range(6)])),  # element g is the g-th power of a generator
        (usd, FpModule(3, [[[(-1) ** (g % 6)]] for g in range(usd.order)])),  # g % 6 is the complement part
        (usd, FpModule(2, [np.linalg.matrix_power(rotation, g % 3) for g in range(usd.order)])),
    ]
    for group, module in cases:
        module.check_against(group)
        assert Resolution(group, module.p).cohomology_dims(module, 4) == (0, 0, 0, 0, 0)
    for text, q in [("C(6)", 3), ("Usd(7,6;1)", 3), ("Usd(7,6;1)", 2)]:
        assert parse_spec(text).simple_series(q, 4) == [(1, (1, 1, 1, 1, 1))]


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
        assert tuple(resolution.ranks) == spec.fp_series(p, 5).dims, text
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
    return _relabel(realize(parse_spec(text)), seed)


def _relabel(group, seed):
    perm = np.concatenate([[0], np.random.default_rng(seed).permutation(np.arange(1, group.order))])
    return group.relabel(perm)


def _heisenberg():
    """The Heisenberg group mod 3, (a, b, c)(x, y, z) = (a + x, b + y, c + z + ay), order 27.

    Its exponent is 3, so G^3 = 1 and Phi(G) = [G, G], the center: the one
    p-group here whose Frattini subgroup needs the commutators.  Element 1 is
    (0, 0, 1), central, so `generating_set` is longer than d(G) = 2.
    """
    elements = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    index = {e: i for i, e in enumerate(elements)}
    return ConcreteGroup([[index[((a + x) % 3, (b + y) % 3, (c + z + a * y) % 3)] for x, y, z in elements]
                          for a, b, c in elements])


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


def test_trivial_module_reads_the_built_kernel():
    # once d_n is built a trivial module reads K_n = ker d_n like a twisted
    # one: the same values as the short path of a fresh resolution, and no
    # further differential
    for text in ("Usd(5,4;1)", "Usd(7,3;1)", "Q(12)", "J(2)", "C(6)", "E(2,3)"):
        group = realize(parse_spec(text))
        for p in prime_factors(group.order):
            trivial = FpModule.trivial(p, group.order)
            for n in range(5):
                expected = Resolution(group, p).cohomology_dims(trivial, n)
                resolution = Resolution(group, p)
                resolution.extend(n)
                assert resolution.cohomology_dims(trivial, n) == expected, (text, p, n)
                assert len(resolution.images) == n, (text, p, n)


def test_trivial_module_after_twisted_ones_on_a_shared_resolution():
    # the twisted characters build d_n; the trivial one after them reads K_n
    for text in ("Usd(5,4;1)", "Usd(7,3;1)"):
        spec = parse_spec(text)
        group = realize(spec)
        modules = [semidirect_character_module(spec, beta, group) for beta in range(1, spec.m)]
        modules.append(semidirect_character_module(spec, 0, group))
        for n in range(1, 4):
            shared = Resolution(group, spec.p)
            for module in modules:
                assert shared.cohomology_dims(module, n) == Resolution(group, spec.p).cohomology_dims(module, n)
            assert len(shared.images) == n, (text, n)


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


def test_modules_have_fixed_attributes():
    # a module is kept as long as its query: slots, no per-object __dict__,
    # and the action is a read-only view of the stored entries
    module = FpModule.trivial(2, 4)
    assert not hasattr(module, "__dict__")
    with pytest.raises(AttributeError):
        module.action = module.matrices
    with pytest.raises(AttributeError):
        module.matrices = module.matrices
    with pytest.raises(ValueError):
        module.matrices[1, 0, 0] = 0
    assert (module.p, module.order, module.dim, module.matrices.shape) == (2, 4, 1, (4, 1, 1))


def test_module_triviality_is_computed_on_first_use_and_kept():
    trivial, sign = FpModule.trivial(3, 2), FpModule(3, [[[1]], [[2]]])
    assert trivial._trivial is None and sign._trivial is None  # not at construction
    assert trivial.is_trivial and not sign.is_trivial
    assert trivial._trivial is True and sign._trivial is False


def test_module_needs_the_identity_element():
    with pytest.raises(EulerCharError, match="at least the identity"):
        FpModule(2, np.zeros((0, 1, 1), dtype=int))


def test_module_check_multiplies_without_wrapping():
    # over F_257 the entries take two bytes; 256 = -1 squares to 1, and
    # 256 * 256 = 65536 would wrap to 0 if the product stayed in uint16
    group = realize(parse_spec("C(2)"))
    FpModule(257, [[[1]], [[256]]]).check_against(group)
    with pytest.raises(EulerCharError, match="not multiplicative"):
        FpModule(257, [[[1]], [[255]]]).check_against(group)
    # an involution over the largest field elimination accepts: the corner
    # of its square, (p - 2)^2 + y z, passes 2^63 before it is reduced
    p, y = LARGEST_PRIME, LARGEST_PRIME - 194
    involution = [[p - 2, y], [-3 * pow(y, -1, p) % p, 2]]
    assert involution[0][0] ** 2 + involution[0][1] * involution[1][0] > 2**63
    FpModule(p, [np.eye(2, dtype=np.int64), involution]).check_against(group)


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
            upper = _boundary_matrix(resolution, n + 1)
            lower = _boundary_matrix(resolution, n)
            assert not (lower @ upper % p).any(), (text, n)


def _family_specs_up_to_64():
    """The family specs of order <= 64, realizable or not.

    Every C, E, U, Usd, J and Q spec of that order, and every product of two
    C or E factors; semidirect specs take every exponent tuple, and the ones
    no group realizes are refused when realized.
    """
    primes = [p for p in range(2, 65) if prime_factors(p) == [p]]
    leaves = [f"C({m})" for m in range(2, 65)]
    leaves += [f"E({p},{k})" for p in primes for k in range(1, 7) if p**k <= 64]
    specs = ["1"] + leaves
    for i, a in enumerate(leaves):
        for b in leaves[i:]:
            if parse_spec(a).order() * parse_spec(b).order() <= 64:
                specs.append(f"Prod({a},{b})")
    for p in primes:
        for m in range(1, 64 // p + 1):
            for k in range(1, 7):
                if p**k * m > 64:
                    break
                specs += [f"U({p},{k},{a},{m})" for a in range(m)]
                specs += [f"Usd({p},{m};{','.join(map(str, e))})" for e in combinations_with_replacement(range(m), k)]
    specs += ["J(1)", "J(2)", "J(3)"] + [f"Q({n4})" for n4 in range(8, 65, 4)]
    return specs


def _dicyclic_law(n4):
    """x -> row x of the dicyclic table: a^i b^e at index 2 i + e, a of order n4 / 2.

    a^i a^j b^f = a^(i+j) b^f; a^i b a^j = a^(i-j) b, and b^2 = a^(n4/4).
    """
    j, f = np.divmod(np.arange(n4), 2)

    def row(x):
        i, e = divmod(x, 2)
        power, letter = (i + j, f) if e == 0 else (i - j + f * (n4 // 4), 1 - f)
        return power % (n4 // 2) * 2 + letter

    return row


def _group_law(spec):
    """x -> row x of the multiplication table, from the group law of a family spec."""
    order = spec.order()
    ys = np.arange(order)
    if isinstance(spec, Product):
        left, right, size = _group_law(spec.left), _group_law(spec.right), spec.right.order()
        return lambda x: left(x // size)[ys // size] * size + right(x % size)[ys % size]
    if isinstance(spec, Quaternion):
        return _dicyclic_law(order)
    if not spec.exps:
        return lambda x: (x + ys) % order  # Z/m, spelled 1 or C(m): no vector part
    # (v, c)(w, d) = (v + A^c w, c + d) at the indices vec_index * m + c
    p, k = spec.p, spec.k
    if (p - 1) % spec.m:
        # m does not divide p - 1: only the exponents of J(k) realize, by a field generator of F_(2^k)
        assert (p, spec.m, sorted(spec.exps)) == (2, 2**k - 1, sorted(2**i for i in range(k))), spec
        m, action = spec.m, _companion_matrix_gf2(PRIMITIVE_POLY[k], k)
    else:
        m, action = spec.m, np.diag([pow(unit_of_order(p, spec.m), a, p) for a in spec.exps])
    powers = [np.eye(k, dtype=np.int64)]
    for _ in range(1, m):
        powers.append(powers[-1] @ action % p)
    weights = p ** np.arange(k - 1, -1, -1)
    w, d = np.divmod(ys, m)
    w = w[:, None] // weights % p  # the coordinates of each w

    def row(x):
        vec, c = divmod(x, m)
        v = vec // weights % p
        return (v + w @ powers[c].T) % p @ weights * m + (c + d) % m

    return row


def _assert_follows_law(table, law, label):
    assert table.dtype == np.int64, label
    for x in range(len(table)):
        assert np.array_equal(table[x], law(x)), (label, x)
    inv = ConcreteGroup(table).inv
    assert (table[np.arange(len(table)), inv] == 0).all(), label


def test_family_tables_follow_their_group_laws():
    # every table entry against the law of its family, one element at a time,
    # and x inv[x] = 1 for every x
    checked = 0
    for text in _family_specs_up_to_64() + ["J(4)", "J(5)", "J(6)"]:
        try:
            spec = parse_spec(text)
            table = spec.table()
        except EulerCharError:
            continue  # no such group
        _assert_follows_law(table, _group_law(spec), text)
        checked += 1
    assert checked == 499  # Usd(2,3;1,2) and Usd(2,7;1,2,4) realize as J(2) and J(3)
    for n4 in range(4, 68, 4):  # Q(4) = C(4) is outside the spec grammar
        _assert_follows_law(_quaternion_table(n4), _dicyclic_law(n4), f"Q({n4})")


def _assert_cycle_space_is_the_nullspace(group, label):
    # each prime dividing |G| and one that does not
    primes = prime_factors(group.order)
    outside = next(q for q in (2, 3, 5, 7, 11) if q not in primes)
    for p in primes + [outside]:
        resolution = Resolution(group, p)
        resolution.extend(1)
        # d_1, read off the generating set or a Burnside basis, is the greedy choice from K_0
        chosen = resolution._generators(*_nullspace_mod_p(_boundary_matrix(resolution, 0), p))
        chosen = chosen.reshape(len(chosen), 1, group.order)
        images = resolution.images[0]
        assert (images.dtype, images.shape) == (chosen.dtype, chosen.shape), (label, p)
        assert images.tobytes() == chosen.tobytes(), (label, p)
        # K_0, K_1 read off the Cayley graph and K_k for k >= 2 from the rows
        # of d_k at the free columns of K_{k-1} equal the eliminated nullspace
        # of the full d_k, byte for byte, with the same free columns
        top = 3 if group.order <= 16 else 2
        resolution.extend(top)
        for k in range(top + 1):
            expected, free = _nullspace_mod_p(_boundary_matrix(resolution, k), p)
            kernel = resolution._kernel(k)
            assert (kernel.dtype, kernel.shape) == (expected.dtype, expected.shape), (label, p, k)
            assert kernel.tobytes() == expected.tobytes(), (label, p, k)
            assert np.array_equal(resolution.free[k], free), (label, p, k)
            assert np.array_equal(kernel[:, resolution.free[k]], np.eye(len(kernel), dtype=np.int64)), (label, p, k)


def test_degree_one_kernel_is_the_nullspace_of_d1(tmp_path):
    # d_1 equals the generators chosen from K_0, and K_0 .. K_2 (K_3 up to
    # order 16) equal the eliminated nullspaces of the full d_k, byte for byte
    realized = 0
    for text in _family_specs_up_to_64():
        try:
            group = realize(parse_spec(text))
        except EulerCharError:
            continue  # no group, or none the engine realizes
        realized += 1
        _assert_cycle_space_is_the_nullspace(group, text)
    assert realized > 300
    # a relabeled table, read back through its spec
    for text, seed in [("J(2)", 3), ("Usd(7,3;1)", 5), ("Q(24)", 7)]:
        table = _relabeled(text, seed)
        path = tmp_path / f"{text}.tbl"
        path.write_text(f"{table.order}\n" + "\n".join(" ".join(map(str, row)) for row in table.mul.tolist()) + "\n")
        _assert_cycle_space_is_the_nullspace(realize(parse_spec(f"Table({path})")), text)
    for seed in (None, 1):
        _assert_cycle_space_is_the_nullspace(_heisenberg() if seed is None else _relabel(_heisenberg(), seed), "Heisenberg(3)")
    # the trivial group has no degree-one generator and zero kernels, a cyclic group one generator
    _assert_cycle_space_is_the_nullspace(realize(parse_spec("1")), "1")
    trivial = Resolution(realize(parse_spec("1")), 3)
    trivial.extend(3)
    assert trivial.ranks == [1, 0, 0, 0] and trivial._kernel(1).shape == trivial._kernel(3).shape == (0, 0)
    assert trivial._kernel(0).shape == (0, 1) and trivial.free[0].shape == trivial.free[3].shape == (0,)
    for p in (2, 3, 5):
        cyclic = Resolution(realize(parse_spec("C(12)")), p)
        cyclic.extend(1)
        assert cyclic.ranks[1] == 1 and len(cyclic._kernel(1)) == 1


def _pgroups():
    """(label, group, prime, spec) for every p-group of the family sweep, and relabeled p-group tables."""
    for text in _family_specs_up_to_64():
        try:
            spec = parse_spec(text)
            group = realize(spec)
        except EulerCharError:
            continue
        if len(spec.primes()) == 1:
            yield text, group, spec.primes()[0], spec
    for text, seed in [("C(8)", 0), ("E(2,3)", 1), ("Prod(C(2),C(4))", 2), ("Q(16)", 3), ("C(9)", 4), ("E(3,2)", 5)]:
        spec = parse_spec(text)
        yield f"{text} relabeled", _relabeled(text, seed), spec.primes()[0], spec
    yield "Heisenberg(3)", _heisenberg(), 3, None
    yield "Heisenberg(3) relabeled", _relabel(_heisenberg(), 6), 3, None


def test_trivial_coefficients_on_a_minimal_resolution_need_no_hom_rank(monkeypatch):
    # K_n lies in I F_n, so every delta^n and the rank on the K_n rows are 0
    # and h^n = r_n.  cohomology_dims skips them; here they are computed.
    # d_3 and K_3 are built up to order 32: at order 64 they take ~35 s on a
    # 2-vCPU host (E(2,6) and the products like it), so there the checks stop
    # at K_2, which is as far as cohomology_dims(trivial, 3) reads
    checked = 0

    def no_hom_rank(*args):
        raise AssertionError("a Hom rank on a minimal resolution with trivial coefficients")

    for label, group, p, spec in _pgroups():
        trivial = FpModule.trivial(p, group.order)
        resolution = Resolution(group, p)
        with monkeypatch.context() as patch:
            patch.setattr(resolution, "_hom_rank", no_hom_rank)
            dims = resolution.cohomology_dims(trivial, 3)
        closed = None if spec is None else spec.fp_series(p, 3)  # None for quaternion specs too
        assert closed is None or dims == closed.dims, label
        top = 3 if group.order <= 32 else 2
        resolution.extend(top)
        assert dims[: top + 1] == tuple(resolution.ranks[: top + 1]), label
        for n in range(top + 1):
            if n:
                assert resolution._hom_rank(trivial, resolution.images[n - 1]) == 0, (label, n)
            kernel = resolution._kernel(n)
            assert resolution._hom_rank(trivial, kernel.reshape(len(kernel), resolution.ranks[n], group.order)) == 0, (label, n)
        checked += 1
    assert checked == 167


def _subgroup_order(group, elements):
    """|<elements>|, by closing {1} under right multiplication."""
    members, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for s in elements:
            y = group.multiply(x, s)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return len(members)


def test_degree_one_is_a_burnside_basis():
    # a p-group's d_1 is read off elements mapping to a basis of G / Phi(G):
    # d(G) of them, and they generate G, under any labeling
    cases = [(f"E({p},{k})", p, k) for p, k in ((2, 1), (2, 3), (2, 6), (3, 2), (3, 3), (5, 2))]
    cases += [(f"C({p ** a})", p, 1) for p, a in ((2, 1), (2, 3), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2))]
    cases += [(f"Q({2 ** k})", 2, 2) for k in range(3, 7)] + [("Prod(C(2),C(4))", 2, 2), (None, 3, 2)]
    for text, p, d in cases:
        for seed in (None, 1, 2):
            group = realize(parse_spec(text)) if text else _heisenberg()
            if seed is not None:
                group = _relabel(group, seed)
            resolution = Resolution(group, p)
            resolution.extend(1)
            assert resolution.degree_one == group.burnside_basis(p), (text, seed)
            assert resolution.ranks[1] == len(resolution.degree_one) == d, (text, seed)
            assert _subgroup_order(group, resolution.degree_one) == group.order, (text, seed)
    # Phi of the Heisenberg group is its commutator subgroup; the generating
    # set starts there, the Burnside basis does not, and the engine agrees
    # with the bar reference
    heisenberg = _heisenberg()
    assert (heisenberg.generating_set, heisenberg.burnside_basis(3)) == ([1, 3, 9], [3, 9])
    trivial = FpModule.trivial(3, 27)
    bar = tuple(cochain_cohomology_dim(heisenberg, trivial, n).h for n in range(3))
    assert Resolution(heisenberg, 3).cohomology_dims(trivial, 2) == bar == (1, 2, 4)
    with pytest.raises(EulerCharError, match="needs a 2-group"):
        realize(parse_spec("C(6)")).burnside_basis(2)


def test_budget_covers_every_kernel_basis():
    # K_1 needs its forest paths (|G| x r_1 |G|) and its basis; K_k for k >= 2
    # its basis after the rows of d_k at the free columns of K_{k-1} are
    # eliminated.  Each is reserved at its exact size
    cases = [
        ("E(2,3)", 2, 1, (3 * 8 - 7) * 3 * 8 * 8),  # the basis, 17 x 24, outweighs the 8 x 24 paths
        ("C(4)", 2, 1, 4 * 4 * 8),  # r_1 = 1: the 4 x 4 paths outweigh the 1 x 4 basis
        ("E(2,3)", 2, 2, (6 * 8 - 17) * 6 * 8 * 8),  # 31 x 48, more than the 17 x 48 rows of d_2
    ]
    for text, p, k, needed in cases:
        group = realize(parse_spec(text))
        expected = Resolution(group, p)
        expected.extend(k)
        expected._kernel(k)
        resolution = Resolution(group, p)
        resolution.extend(k)
        resolution._kernel(k - 1)
        resolution.budget = needed - 1
        with pytest.raises(BudgetError) as info:
            resolution._kernel(k)
        assert (info.value.required_bytes, info.value.budget_bytes) == (needed, needed - 1), text
        resolution.budget = needed
        assert resolution._kernel(k).tobytes() == expected.kernels[k].tobytes(), text


def test_budget_covers_the_boundary_rows_and_the_orbits():
    # K_2 is the nullspace of the rows of d_2 at the free columns of K_1,
    # dim K_1 x r_2 |G| (21 x 40), larger here than its basis (19 x 40); the
    # greedy choice from K_2 gathers each orbit in coordinates, |G| x dim K_2
    # (20 x 19), and keeps a span of at most dim K_2 x dim K_2.  Each is
    # reserved at its exact size before it is gathered
    group = realize(parse_spec("Usd(5,4;1)"))
    expected = Resolution(group, 5)
    expected.extend(3)
    resolution = Resolution(group, 5)
    resolution.extend(2)
    resolution._kernel(1)
    rows = len(resolution.kernels[1]) * resolution.ranks[2] * group.order * 8
    assert rows == 21 * 40 * 8
    resolution.budget = rows - 1
    with pytest.raises(BudgetError) as info:
        resolution._kernel(2)
    assert (info.value.required_bytes, info.value.budget_bytes) == (rows, rows - 1)
    resolution.budget = rows
    assert resolution._kernel(2).tobytes() == expected._kernel(2).tobytes()
    orbit = group.order * len(resolution.kernels[2]) * 8
    assert orbit == 20 * 19 * 8
    resolution.budget = orbit - 1
    with pytest.raises(BudgetError) as info:
        resolution.extend(3)
    assert (info.value.required_bytes, info.value.budget_bytes) == (orbit, orbit - 1)
    resolution.budget = orbit
    resolution.extend(3)
    assert resolution.images[2].tobytes() == expected.images[2].tobytes()


def test_budget_covers_the_degree_one_generators():
    # outside p-groups d_1 is read off the generating set, an r_1 x |G|
    # array reserved at its exact size; nothing else is allocated for it
    group = realize(parse_spec("J(2)"))
    needed = len(group.generating_set) * group.order * 8
    expected = Resolution(group, 2)
    expected.extend(1)
    with pytest.raises(BudgetError) as info:
        Resolution(group, 2, memory_budget=needed - 1).extend(1)
    assert (info.value.required_bytes, info.value.budget_bytes) == (needed, needed - 1)
    resolution = Resolution(group, 2, memory_budget=needed)
    resolution.extend(1)
    assert resolution.images[0].tobytes() == expected.images[0].tobytes()


MERSENNE_31 = 2**31 - 1
LARGEST_PRIME = 3037000493  # the largest p with p (p - 1) < 2^63


def _shaped_matrices(rng, p):
    """Seeded random matrices, with the shapes elimination gets wrong most easily."""
    for _ in range(25):
        rows, cols = (int(x) for x in rng.integers(1, 12, size=2))
        density = rng.integers(0, 2, size=(rows, cols))
        yield rng.integers(0, p, size=(rows, cols)) * density
    yield np.zeros((4, 6), dtype=np.int64)
    yield np.zeros((1, 1), dtype=np.int64)
    yield np.zeros((0, 5), dtype=np.int64)
    yield np.zeros((5, 0), dtype=np.int64)
    base = rng.integers(0, p, size=(5, 7))
    yield np.concatenate([np.zeros((5, 3), dtype=np.int64), base], axis=1)  # zero leading columns
    yield np.concatenate([base, np.zeros((5, 3), dtype=np.int64)], axis=1)  # zero trailing columns
    yield np.concatenate([base, base, base[:2] * (p - 1)])  # duplicate and scaled rows
    yield np.concatenate([np.zeros((3, 2), dtype=np.int64), base[:3], np.zeros((3, 2), dtype=np.int64)], axis=1)
    for _ in range(5):
        rows, cols = (int(x) for x in rng.integers(1, 12, size=2))
        yield rng.integers(-3 * p, 3 * p, size=(rows, cols))  # negative entries and multiples of p
    # rank-deficient products, up to the sizes the engine's d_k reach
    low = min(p, 2**15)
    for rows, inner, cols in ((160, 100, 160), (120, 40, 150), (150, 70, 90)):
        yield rng.integers(0, low, size=(rows, inner)) @ rng.integers(0, low, size=(inner, cols))


def _rref_reference(matrix, p):
    """Reduced row echelon form and pivots with Python integers, one row at a time."""
    rows = [[value % p for value in row] for row in matrix.tolist()]
    pivots, top = [], 0
    for col in range(matrix.shape[1]):
        found = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        inv = pow(rows[top][col], -1, p)
        rows[top] = [value * inv % p for value in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                factor = row[col]
                rows[i] = [(a - factor * b) % p for a, b in zip(row, rows[top])]
        pivots.append(col)
        top += 1
    return np.array(rows, dtype=np.int64).reshape(matrix.shape), pivots


def _product_mod_p(a, b, p):
    """a @ b mod p without int64 overflow for p < 2^31: b is split into 16-bit halves."""
    a, b = a % p, b % p
    return (a @ (b & 0xFFFF) % p + (a @ (b >> 16) % p << 16)) % p


def _check_echelon(matrix, p):
    before = matrix.copy()
    reduced, pivots = echelon_mod_p(matrix, p)
    assert matrix.dtype == before.dtype and np.array_equal(matrix, before)  # the input is not changed
    assert reduced.dtype == np.int64 and reduced.shape == matrix.shape
    rank = len(pivots)
    assert ((0 <= reduced) & (reduced < p)).all()
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for row, col in enumerate(pivots):
        assert not reduced[row, :col].any()  # the pivot leads its row
        assert (reduced[:, col] == np.eye(matrix.shape[0], dtype=np.int64)[row]).all()
    assert not reduced[rank:].any()
    # the bar reference's ranks share no code with echelon_mod_p
    assert rank == rank_mod_p(matrix, p)
    both = np.concatenate([matrix, reduced])
    assert rank_mod_p(both, p) == rank  # same row space
    if matrix.size <= 200:  # the Python reference on every shape but the large products
        expected, expected_pivots = _rref_reference(matrix, p)
        assert pivots == expected_pivots and np.array_equal(reduced, expected)
    kernel, free = _nullspace_mod_p(matrix, p)
    assert kernel.dtype == np.int64 and rank + kernel.shape[0] == matrix.shape[1]
    assert sorted(pivots + free.tolist()) == list(range(matrix.shape[1]))  # the free columns are the pivotless ones
    assert np.array_equal(kernel[:, free], np.eye(len(free), dtype=np.int64))
    assert not _product_mod_p(matrix, kernel.T, p).any()
    assert rank_mod_p(kernel, p) == kernel.shape[0]
    return rank


def test_echelon_pivots_and_nullspace():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5, 7, 11, 13, MERSENNE_31):
        ranks = [_check_echelon(matrix, p) for matrix in _shaped_matrices(rng, p)]
        assert ranks[-3:] == [100, 40, 70]  # the products have full inner rank


def test_echelon_reduces_before_int64_could_wrap():
    # at p = 2^31 - 1 a single product (p - 1)^2 is ~2^62, so three unreduced
    # steps would wrap; the result must still be the exact reduced form
    rng = np.random.default_rng(31)
    matrix = rng.integers(-MERSENNE_31, MERSENNE_31, size=(48, 60))
    reduced, pivots = echelon_mod_p(matrix, MERSENNE_31)
    assert len(pivots) >= 40
    expected, expected_pivots = _rref_reference(matrix, MERSENNE_31)
    assert pivots == expected_pivots and np.array_equal(reduced, expected)
    with pytest.raises(EulerCharError, match="p \\(p - 1\\) < 2\\^63"):
        echelon_mod_p(matrix, 3037000507)  # the next prime past the int64 range


def test_products_mod_p_are_exact():
    # float64 while k (p - 1)^2 < 2^53, else int64 on 16-bit halves in
    # chunks of the inner dimension; against Python integers.  94906249 is
    # the largest prime with (p - 1)^2 < 2^53, and at the largest prime
    # k = 50000 takes two chunks
    rng = np.random.default_rng(53)
    for p, k in ((2, 300), (5, 64), (94906249, 1), (94906249, 2), (MERSENNE_31, 50), (LARGEST_PRIME, 50), (LARGEST_PRIME, 50000)):
        a = rng.integers(0, p, size=(3, k))
        b = rng.integers(0, p, size=(k, 2))
        a[0], b[:, 0] = p - 1, p - 1  # the largest sums
        expected = a.astype(object) @ b.astype(object) % p
        product = _mul_mod_p(a, b, p)
        assert product.dtype == np.int64 and np.array_equal(product, expected.astype(np.int64)), (p, k)
        assert np.array_equal(_mul_mod_p(a[0], b, p), product[0]), (p, k)  # a vector on the left
    # a stack of matrices on the right, as the module check forms it
    a = rng.integers(0, MERSENNE_31, size=(2, 1, 3, 3))
    b = rng.integers(0, MERSENNE_31, size=(4, 3, 3))
    expected = np.array([[x.astype(object) @ y.astype(object) % MERSENNE_31 for y in b] for x in a[:, 0]])
    assert np.array_equal(_mul_mod_p(a, b, MERSENNE_31), expected.astype(np.int64))


def test_engine_is_exact_over_a_large_prime():
    # p does not divide |G|, so by Maschke h^0 = dim M^G and h^n = 0 for n >= 1;
    # the products of the generator choice pass 2^63 before they are reduced
    for text in ("Q(8)", "J(2)"):
        group = realize(parse_spec(text))
        dims = Resolution(group, MERSENNE_31).cohomology_dims(FpModule.trivial(MERSENNE_31, group.order), 4)
        assert dims == (1, 0, 0, 0, 0), text
    group = realize(parse_spec("Usd(5,2;1)"))  # element index vec_index * 2 + c
    sign = FpModule(MERSENNE_31, [[[1 if x % 2 == 0 else MERSENNE_31 - 1]] for x in range(group.order)])
    assert Resolution(group, MERSENNE_31).cohomology_dims(sign, 4) == (0, 0, 0, 0, 0)


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
            span = np.concatenate([span, vector[None] if resolution.minimal else _orbit(resolution, vector)])
    assert len(echelon_mod_p(span, p)[1]) == dim
    return chosen


def test_generators_are_the_greedy_choice():
    for text, p in [("Q(8)", 2), ("E(2,3)", 2), ("C(9)", 3), ("Q(12)", 2), ("Q(12)", 3), ("J(2)", 2),
                    ("U(3,1,1,2)", 3), ("Usd(5,4;1)", 5), ("Prod(C(2),C(3))", 2)]:
        resolution = Resolution(realize(parse_spec(text)), p)
        for top in range(4):
            kernel, free = _nullspace_mod_p(_boundary_matrix(resolution, top), p)
            expected = kernel[_greedy_generators(resolution, kernel)]
            assert np.array_equal(resolution._generators(kernel, free), expected), (text, p, top)
            if top == 0:
                # g - 1 lies in the left ideal spanned by {s - 1} exactly when
                # g is in <s>, and in that ideal plus I^2 exactly when g is in
                # <s> Phi(G): the rows chosen are e_s - e_0, s in generating_set
                # or, for a p-group, in burnside_basis
                gens = resolution.group.burnside_basis(p) if resolution.minimal else resolution.group.generating_set
                degree_one = np.zeros((len(gens), resolution.group.order), dtype=np.int64)
                degree_one[range(len(gens)), gens] = 1
                degree_one[:, 0] = p - 1
                assert np.array_equal(expected, degree_one), (text, p)
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


def test_trivial_cohomology_is_read_on_the_p_prime_quotient():
    # H^q(N; F_p) = 0 for q > 0 when p does not divide |N| (Brown III.10), so
    # the Lyndon-Hochschild-Serre spectral sequence of N = O_p'(G) collapses
    # and H^*(G; F_p) = H^*(G / N; F_p): the engine over the quotient equals
    # the engine over G.  Every distinct census table of order <= 24 that is
    # not a p-group, and every Q(4n) <= 64 (the full census, 584 (table, p)
    # pairs, takes ~30 s on a 2-vCPU host)
    tables = {}
    for text in _family_specs_up_to_64():
        try:
            spec = parse_spec(text)
            if not (isinstance(spec, Quaternion) or (spec.order() <= 24 and len(spec.primes()) > 1)):
                continue
            group = realize(spec)
        except EulerCharError:
            continue  # no such group
        tables.setdefault(group.mul.tobytes(), (text, group))
    pairs = shrunk = 0
    for text, group in tables.values():
        for p in prime_factors(group.order):
            quotient = group.p_prime_quotient(p)
            pairs += 1
            assert group.order % quotient.order == 0, (text, p)
            shrunk += quotient is not group
            on_group = Resolution(group, p).cohomology_dims(FpModule.trivial(p, group.order), 4)
            assert Resolution(quotient, p).cohomology_dims(FpModule.trivial(p, quotient.order), 4) == on_group, (text, p)
    assert (len(tables), pairs, shrunk) == (75, 147, 132)
    orders = {
        ("Q(24)", 2): 8, ("Q(24)", 3): 6, ("Q(60)", 2): 4, ("Q(60)", 3): 6, ("Q(60)", 5): 10,
        ("J(2)", 2): 12, ("J(2)", 3): 3, ("Usd(5,4;1)", 2): 4, ("Usd(5,4;1)", 5): 20, ("Prod(C(2),C(6))", 2): 4,
    }
    for (text, p), order in orders.items():
        group = realize(parse_spec(text))
        quotient = group.p_prime_quotient(p)
        assert quotient.order == order, (text, p)
        assert (quotient is group) == (order == group.order), (text, p)  # O_p'(G) = 1 returns G itself
        assert _relabel(group, 3).p_prime_quotient(p).order == order, (text, p)  # whatever the element order
    for text, p in [("Q(64)", 2), ("E(3,3)", 3), ("C(25)", 5), ("1", 2)]:
        group = realize(parse_spec(text))
        assert group.p_prime_quotient(p) is group, text


def test_resolution_needs_a_prime_field():
    group = realize(parse_spec("C(4)"))
    for p in (0, 1, 4, 6):
        with pytest.raises(EulerCharError, match="prime field"):
            Resolution(group, p)


def test_budget_one_byte_below_the_first_matrix_raises():
    # the first matrix is d_1, one row of |G| int64 entries per element of a
    # Burnside basis: 2 x 4 for E(2,2), twice the 1 x 4 augmentation, which
    # is never formed
    group = realize(parse_spec("E(2,2)"))
    first = 2 * 4 * 8
    with pytest.raises(BudgetError) as info:
        Resolution(group, 2, memory_budget=first - 1).cohomology_dims(FpModule.trivial(2, 4), 2)
    assert (info.value.required_bytes, info.value.budget_bytes) == (first, first - 1)
    with pytest.raises(BudgetError) as info:
        Resolution(group, 2, memory_budget=first).cohomology_dims(FpModule.trivial(2, 4), 2)
    assert info.value.required_bytes > first
    assert Resolution(group, 2, memory_budget=10_000).cohomology_dims(FpModule.trivial(2, 4), 2) == (1, 2, 3)


def test_budget_covers_the_ideal_span_on_the_degree_one_elements():
    # I K is spanned by (s - 1) k for s in degree_one: on a p-group d(G) rows
    # per kernel row, not one per element of the generating set, which is
    # longer on this labeling of C(8), where element 1 lies in Phi(G).  Each
    # row has the dim K coordinates of K, not the r |G| entries of F_2
    # (7 x 7 = 392 B; the 7 x 8 full-length rows took 448 B)
    group = _relabeled("C(8)", 0)
    assert (len(group.generating_set), len(group.burnside_basis(2))) == (2, 1)
    trivial = FpModule.trivial(2, group.order)
    resolution = Resolution(group, 2)
    resolution.extend(2)
    needed = len(resolution._kernel(2)) * 1 * len(resolution.kernels[2]) * 8
    assert needed == 392
    resolution.budget = needed - 1
    with pytest.raises(BudgetError) as info:
        resolution.cohomology_dims(trivial, 3)
    assert (info.value.required_bytes, info.value.budget_bytes) == (needed, needed - 1)
    resolution.budget = needed
    assert resolution.cohomology_dims(trivial, 3) == (1, 1, 1, 1)


def test_budget_covers_the_coinvariant_matrix():
    # outside p-groups the short top degree eliminates I K_{n-1}, one block
    # of K's rows per generator, in the dim K coordinates of K; it is
    # reserved before it is built.  Only d_1, d_2 and K_2 exist: with d_3
    # built the trivial module reads K_3
    group = realize(parse_spec("Prod(E(2,2),C(3))"))
    resolution = Resolution(group, 2)
    resolution.extend(2)
    resolution._kernel(2)
    needed = len(resolution.kernels[2]) * len(group.generating_set) * len(resolution.kernels[2]) * 8
    assert needed == 53016  # 3 x 47 rows of 47 coordinates; 81216 B for 72 full-length entries
    resolution.budget = needed - 1
    with pytest.raises(BudgetError) as info:
        resolution.cohomology_dims(FpModule.trivial(2, group.order), 3)
    assert (info.value.required_bytes, info.value.budget_bytes) == (needed, needed - 1)
    resolution.budget = needed
    assert resolution.cohomology_dims(FpModule.trivial(2, group.order), 3) == parse_spec("Prod(E(2,2),C(3))").fp_series(2, 3).dims


def test_trivial_module_on_a_built_differential_forms_no_coinvariant_matrix():
    # with d_3 and K_3 built, a budget that covers the K_3-rows matrix but
    # not I K_2 still answers: the trivial module never forms I K_2
    spec = parse_spec("Prod(E(2,2),C(3))")
    group = realize(spec)
    trivial = FpModule.trivial(2, group.order)
    resolution = Resolution(group, 2)
    resolution.extend(3)
    rows = len(resolution._kernel(3)) * resolution.ranks[3] * 8
    coinvariant = len(resolution.kernels[2]) * len(group.generating_set) * len(resolution.kernels[2]) * 8
    assert (rows, coinvariant) == (5840, 53016)  # the I K_2 matrix was 81216 B with full-length rows
    resolution.budget = rows
    assert resolution.cohomology_dims(trivial, 3) == spec.fp_series(2, 3).dims
    # the short path of a resolution without d_3 needs the I K_2 matrix
    short = Resolution(group, 2, memory_budget=10**6)
    short.extend(2)
    short._kernel(2)
    short.budget = rows
    with pytest.raises(BudgetError) as info:
        short.cohomology_dims(trivial, 3)
    assert (info.value.required_bytes, info.value.budget_bytes) == (coinvariant, rows)


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
    # once a budget refusal: e_3 from the period-4 pattern (1, r, r, 1) is -1.  The period 4
    # divides n + 1 = 4, and mu_2 = 1 as 4 divides 2 + 2.  The 2-group Q(32) is never
    # exceptional, so mu_3 = 0 and e_3 bounds it; for Q(24) exceptionality is undeclared, so
    # mu_3 = 1 and mu'_3 - mu'_2 = 0 is the lower bound
    spec = parse_spec(f"Q({order})")
    assert compute_en(series_bundle(spec, 3).values(), 3) == -1
    assert main(["bounds", f"Q({order})", "--n", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    lower, upper, note = {
        24: (0, 2, "period 4 divides n + 1; mu_n is 0 or 1 depending on undeclared exceptionality"),
        32: (-1, 0, "period 4 divides n + 1 with a periodic free resolution: mu_n = 0"),
    }[order]
    assert (report["lower"], report["upper"], report["exact"]) == (lower, upper, 0)
    assert note in report["notes"]
    assert q_bound_report(spec, 3).lower == lower


@pytest.mark.parametrize("text, n", [("Usd(13,4;1)", 2), ("Usd(5,4;1)", 3)])
def test_swan_formula_over_all_character_modules(text, n):
    # once a budget refusal: the Swan formula over the m linear simple
    # modules equals the character formula
    spec = parse_spec(text)
    group = realize(spec)
    modules = [semidirect_character_module(spec, beta, group) for beta in range(spec.m)]
    assert compute_mun(spec, n, modules=modules).mu == compute_mun(spec, n).mu == 1
