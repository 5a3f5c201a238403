import math

import pytest

from eulerchar import (
    EulerCharError,
    KNOWN_EXACT_Q4,
    Quaternion,
    SpecError,
    VerdictKind,
    annotation_for,
    bounds_from_invariants,
    compute_en,
    compute_mun,
    euler_sign_check,
    parse_spec,
    periodic_exact_value,
    q_bound_report,
    realize,
    series_bundle,
    subgroup_refine,
)
from eulerchar.groupspec import cyclic_spec, elementary_spec, frobenius_spec, isotypic_spec
from test_groups import _permutation_table
from test_resolution import _family_specs_up_to_64


def test_bounds_from_invariants():
    assert bounds_from_invariants(2, 4, 2, 2) == (2, 8)  # E_3 at n = 2
    assert bounds_from_invariants(3, 2, 1, 2) == (3, 4)  # A4
    assert bounds_from_invariants(-1, 0, 1, 3) == (-1, 0)
    # a mu' without a path drops the terms it enters
    assert bounds_from_invariants(3, 2, None, 2) == (3, 4)
    assert bounds_from_invariants(3, None, 1, 2) == (3, None)
    assert bounds_from_invariants(-2, None, None, 3) == (-2, None)
    with pytest.raises(EulerCharError):
        bounds_from_invariants(2, 1, 0, 1)


def test_periodic_exact_value():
    assert periodic_exact_value(2, 2) == 2
    assert periodic_exact_value(2, 3) == 0
    assert periodic_exact_value(4, 2) == 2
    assert periodic_exact_value(4, 3) == 0
    assert periodic_exact_value(6, 3) is None
    assert periodic_exact_value(6, 4) == 2
    assert periodic_exact_value(6, 5) == 0
    with pytest.raises(EulerCharError):
        periodic_exact_value(3, 2)


def test_subgroup_refine():
    assert subgroup_refine(1, [(2, 2, 2)], 2) == 1
    assert subgroup_refine(1, [(1, 5, 3)], 2) == 5
    assert subgroup_refine(1, [(3, 4, 0)], 2) == 2  # ceil(4/3)
    assert subgroup_refine(3, [(2, 1, 1)], 2) == 3
    with pytest.raises(EulerCharError):
        subgroup_refine(1, [(0, 2, 2)], 2)


def test_euler_sign_check():
    assert euler_sign_check(2, 2)
    assert not euler_sign_check(3, 2)
    assert euler_sign_check(3, 0)
    assert euler_sign_check(3, -4)
    assert not euler_sign_check(2, 0)
    assert not euler_sign_check(2, -2)


def test_e3_bounds_at_n2():
    qb = q_bound_report(parse_spec("E(3,3)"), 2)
    assert (qb.lower, qb.upper) == (2, 8)


def test_e3_not_a_qs8_group():
    qb = q_bound_report(parse_spec("E(3,3)"), 4)
    assert qb.lower >= 3
    assert qb.verdict.kind is VerdictKind.IMPOSSIBLE_QS


def test_a4_interval_and_annotation():
    qb = q_bound_report(parse_spec("J(2)"), 2)
    assert (qb.lower, qb.upper) == (3, 4)
    assert qb.annotations["q4"] == 4
    assert qb.annotations["name"] == "A4"
    assert qb.verdict.kind is VerdictKind.IMPOSSIBLE_QS
    assert "known-value-annotation" in qb.citations
    assert KNOWN_EXACT_Q4["A5"] == 4
    j3 = parse_spec("J(3)")
    assert annotation_for(j3, 2, series_bundle(j3, 2)) == {}


def test_a4_annotation_does_not_depend_on_the_spelling():
    expected = {"name": "A4", "q4": 4, "source": "known-value-annotation"}
    for text in ("J(2)", "Usd(2,3;1,2)", "Usd(2,3;2,1)"):
        spec = parse_spec(text)
        bundle = series_bundle(spec, 3)
        assert annotation_for(spec, 2, bundle) == expected, text
        assert annotation_for(spec.with_meta(exceptional=False), 2, bundle) == expected, text  # declared metadata is not read
        assert annotation_for(spec, 3, bundle) == {}, text
        qb = q_bound_report(spec, 2)
        assert (qb.lower, qb.upper, qb.annotations) == (3, 4, expected), text
    for text in ("Usd(7,3;1,2)", "Usd(5,3;1,2)", "U(7,2,1,3)"):
        spec = parse_spec(text)
        assert annotation_for(spec, 2, series_bundle(spec, 2)) == {}, text


def test_the_annotations_name_the_group_by_its_order_and_h1(tmp_path):
    # A4 is the only group of order 12 with h^1(G; F_2) = 0, and A5 the only group of order 60 with
    # h^1(G; F_p) = 0 at p = 2, 3 and 5, so a table of either is annotated like its family spelling
    # and no other group of order 12 is
    def table_spec(name, table):
        path = tmp_path / f"{name}.tbl"
        path.write_text(f"{len(table)}\n" + "\n".join(" ".join(map(str, row)) for row in table) + "\n")
        return parse_spec(f"Table({path})")

    a4, a5 = ({"name": name, "q4": 4, "source": "known-value-annotation"} for name in ("A4", "A5"))
    specs = [(parse_spec(text), {}) for text in ("C(12)", "Prod(C(2),C(6))", "Prod(C(2),U(3,1,1,2))", "Q(12)")]
    specs += [(parse_spec(text), a4) for text in ("J(2)", "Usd(2,3;2,1)")]
    specs += [(table_spec("j2", realize(parse_spec("J(2)")).mul.tolist()), a4)]
    specs += [(table_spec("a5", _permutation_table([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])), a5)]
    for spec, expected in specs:
        assert spec.order() in (12, 60), spec
        qb = q_bound_report(spec, 2)
        assert qb.annotations == expected, spec
        assert ("known-value-annotation" in qb.citations) == bool(expected), spec
        assert q_bound_report(spec, 3).annotations == {}, spec


def test_verdict_rules():
    # an impossible verdict is the interval's: q_4 >= lower > 2
    for spec in [elementary_spec(p, 4) for p in (2, 3, 5)] + [isotypic_spec(5, 5, 1, 4), isotypic_spec(5, 2, 1, 2)]:
        qb = q_bound_report(spec, 2)
        assert qb.verdict.kind is VerdictKind.IMPOSSIBLE_QS and qb.lower > 2, spec
        assert qb.verdict.reason == f"q_4 >= {qb.lower} > 2", spec
    for k in (3, 4, 5):
        qb = q_bound_report(frobenius_spec(k), 2)
        assert qb.verdict.kind is VerdictKind.REALIZABLE_QS
    qb = q_bound_report(isotypic_spec(5, 2, 1, 4), 2)
    assert qb.verdict.kind is VerdictKind.REALIZABLE_QS
    assert (qb.lower, qb.upper) == (2, 2)


def _report_of_the_group(spec, n):
    """Every field of q_bound_report but the spec; no note quotes the spelling, so none is masked."""
    qb = q_bound_report(spec, n)
    return qb.lower, qb.upper, qb.exact, qb.verdict, qb.citations, qb.notes, qb.annotations


def test_one_group_gets_one_report_however_it_is_spelled():
    # U(p,k,a,m) = Usd(p,m;a,...,a) and J(k) = Usd(2,2^k-1;1,2,...,2^(k-1));
    # for m = 1 also E(p,k), and J(1) = E(2,1)
    groups = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for m in (m for m in range(1, p) if (p - 1) % m == 0):
            for a in (a for a in range(m) if math.gcd(a, m) == 1):
                groups += [(f"U({p},{k},{a},{m})", f"Usd({p},{m};{','.join([str(a)] * k)})") for k in range(1, 9)]
    assert len(groups) == 1192
    groups += [(f"E({p},{k})", f"U({p},{k},0,1)", f"Usd({p},1;{','.join('0' * k)})") for p in (2, 3, 5, 7) for k in range(1, 9)]
    groups += [("E(2,1)", "J(1)")]
    groups += [(f"J({k})", f"Usd(2,{2**k - 1};{','.join(str(2**i) for i in range(k))})") for k in range(2, 9)]
    for spellings in groups:
        first, *others = specs = [parse_spec(text) for text in spellings]
        assert all(spec == first for spec in others) and len({str(spec) for spec in specs}) == len(specs), spellings
        for n in (2, 3, 4):
            report = _report_of_the_group(first, n)
            assert all(_report_of_the_group(spec, n) == report for spec in others), (spellings, n)
    qb = q_bound_report(parse_spec("Usd(5,4;1,1,1,1,1,1)"), 2)
    assert (qb.lower, qb.upper, qb.verdict.kind) == (9, 30, VerdictKind.IMPOSSIBLE_QS)


def test_usd_exponents_scaled_by_a_unit_or_reversed_give_one_report():
    # a unit u mod m picks another generator of Z/m, and reversing the
    # exponents reorders the basis of (Z/p)^k: each is the same group
    pairs = []
    for text in _family_specs_up_to_64():
        if not text.startswith("Usd("):
            continue
        try:
            spec = parse_spec(text)
        except SpecError:
            continue  # no such group
        m, exps = spec.m, spec.exps
        variants = set()
        for u in (u for u in range(1, m) if math.gcd(u, m) == 1):
            scaled = tuple(u * a % m for a in exps)
            variants |= {scaled, scaled[::-1]}
        variants |= {exps[::-1]}
        pairs += [(spec, parse_spec(f"Usd({spec.p},{m};{','.join(map(str, other))})")) for other in sorted(variants - {exps})]
    assert len(pairs) == 70
    for spec, other in pairs:
        assert spec != other
        for n in (2, 3, 4):
            assert _report_of_the_group(spec, n) == _report_of_the_group(other, n), (spec, other, n)


def test_every_census_report_builds_around_its_exact_value():
    # QBoundReport refuses an exact value outside [lower, upper]: every census spec builds its
    # report at n = 2 and 4, and reads an exact value exactly where its period divides n + 1 or n + 2
    reports = exact = 0
    for text in _family_specs_up_to_64():
        try:
            spec = parse_spec(text)
        except SpecError:
            continue  # no such group
        period = spec.known_period()
        for n in (2, 4):
            qb = q_bound_report(spec, n)
            settled = period is not None and ((n + 2) % period == 0 or (n + 1) % period == 0)
            assert (qb.exact is not None) == settled == ("periodicity-exact-value" in qb.citations), (text, n)
            reports += 1
            exact += settled
    assert (reports, exact) == (1156, 654)  # 344 at n = 2, 310 at n = 4


def test_products_read_like_the_group_they_spell():
    # Z/a x Z/b = Z/ab for coprime a, b, and (Z/p)^i x (Z/p)^(k-i) = (Z/p)^k: one report either way
    groups = [(f"Prod(C({a}),C({b}))", f"C({a * b})") for a in range(2, 65) for b in range(a + 1, 65 // a + 1)
              if a * b <= 64 and math.gcd(a, b) == 1]
    assert len(groups) == 42
    groups += [(f"Prod(E({p},{i}),E({p},{k - i}))", f"E({p},{k})") for p in (2, 3, 5) for k in range(2, 6) for i in range(1, k)]
    for product, group in groups:
        for n in (2, 3, 4):
            assert _report_of_the_group(parse_spec(product), n) == _report_of_the_group(parse_spec(group), n), (product, n)


def test_a_missing_mu_n_minus_1_leaves_the_lower_bound_to_e_n():
    # Q(8) of period 4 reads mu_6 = 1 off the period (4 divides 8), but 4 divides neither 6 nor 7,
    # so mu_5 has no path
    qb = q_bound_report(Quaternion(8), 6)
    assert (qb.lower, qb.upper, qb.exact, qb.verdict.kind) == (2, 2, 2, VerdictKind.REALIZABLE_QS)
    assert "period 4 divides n + 2: a periodic resolution gives mu_n = 1" in qb.notes
    assert "mu_5 unavailable, lower bound uses e_n only: no mu_n path at n = 5" in qb.notes
    assert "resolution-difference-lower-bound" not in qb.citations


def test_the_papers_restrictions_follow_from_the_computed_bounds():
    # (Z/p)^k with k > 3 at n = 2 and 4; at n = 2 and p odd, a faithful isotypic
    # action U(p,k,a,m) with 2a != 0 mod m and k > 4, or with 2a = 0 mod m and
    # k > 1: wherever a hypothesis holds, the interval alone decides impossible
    fired = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        fired += [(elementary_spec(p, k), n) for k in range(4, 11) for n in (2, 4)]
        for m in (m for m in range(2, p) if (p - 1) % m == 0):
            for a in (a for a in range(m) if math.gcd(a, m) == 1):
                fired += [(isotypic_spec(p, k, a, m), 2) for k in range(2 if 2 * a % m == 0 else 5, 9)]
    assert len(fired) == 736
    for spec, n in fired:
        qb = q_bound_report(spec, n)
        assert qb.lower > 2 and qb.verdict.kind is VerdictKind.IMPOSSIBLE_QS, (spec, n)


def test_verdict_soundness_invariant():
    # realizable only with mu_2 = 1; impossible only with lower > 2
    specs = [
        elementary_spec(3, k) for k in range(1, 6)
    ] + [
        isotypic_spec(5, k, 1, m) for k in range(2, 7) for m in (2, 4)
    ] + [frobenius_spec(k) for k in range(2, 7)] + [cyclic_spec(m) for m in (2, 5, 9)]
    for spec in specs:
        qb = q_bound_report(spec, 2)
        if qb.verdict.kind is VerdictKind.REALIZABLE_QS:
            assert compute_mun(spec, 2).mu == 1, spec
        if qb.verdict.kind is VerdictKind.IMPOSSIBLE_QS:
            assert qb.lower > 2, spec
        assert not (
            qb.verdict.kind is VerdictKind.REALIZABLE_QS
            and qb.verdict.kind is VerdictKind.IMPOSSIBLE_QS
        )


def test_open_verdict():
    # A4 sits strictly between: mu_2 = 2 but lower = 3 > 2, so impossible;
    # a case with lower <= 2 and mu_2 > 1 stays open
    qb = q_bound_report(elementary_spec(3, 2), 2)
    assert compute_mun(elementary_spec(3, 2), 2).mu == 2
    assert (qb.lower, qb.upper) == (2, 4)
    assert qb.verdict.kind is VerdictKind.OPEN


def test_odd_n_sign_verdict():
    qb = q_bound_report(parse_spec("E(3,2)"), 3)
    assert qb.verdict.kind is VerdictKind.IMPOSSIBLE_QS
    assert "euler-characteristic-sign" in qb.citations


def test_interval_reports_citations_nonempty():
    for text in ["1", "C(6)", "E(2,3)", "J(3)", "U(5,3,1,4)"]:
        qb = q_bound_report(parse_spec(text), 2)
        assert qb.citations
        assert qb.lower <= (qb.upper if qb.upper is not None else qb.lower)


def test_theorem_b_consistency_cyclic():
    # the exact periodic value always lands inside the invariant interval
    for m in range(1, 31):
        spec = cyclic_spec(m)
        assert spec.known_period() == (None if m == 1 else 2), m
        for n in (2, 3, 4, 5):
            qb = q_bound_report(spec, n)
            if m == 1:
                # the trivial group has no period; S^{2n} gives
                # q_{2n}(1) = 2(-1)^n, which the interval pins
                assert qb.exact is None and qb.lower == qb.upper == 2 * (-1) ** n, (n, qb)
                assert "periodicity-exact-value" not in qb.citations
                continue
            expected = 2 if n % 2 == 0 else 0
            assert qb.exact == expected, (m, n)
            assert qb.lower <= qb.exact <= qb.upper, (m, n, qb)


def test_subgroup_refinement_end_to_end():
    # U(5,3,1,4) contains U(5,3,1,2) with index 2: the cover bound
    # ceil(e_2(H) / 2) = ceil(5 / 2) = 3 > 2 rules out a rational homology 4-sphere
    sub = parse_spec("U(5,3,1,2)")
    e_2 = compute_en(series_bundle(sub, 2).values(), 2)
    mu_diff = compute_mun(sub, 2).mu_prime - compute_mun(sub, 1).mu_prime
    assert (e_2, mu_diff) == (5, 1)
    spec = parse_spec("U(5,3,1,4)")
    plain = q_bound_report(spec, 2)
    assert (plain.lower, plain.upper, plain.verdict.kind) == (2, 6, VerdictKind.OPEN)
    assert "subgroup-index-refinement" not in plain.citations
    refined = q_bound_report(spec, 2, subgroup_data=[(2, e_2, mu_diff)])
    assert (refined.lower, refined.upper, refined.verdict.kind) == (3, 6, VerdictKind.IMPOSSIBLE_QS)
    assert "subgroup-index-refinement" in refined.citations


QUATERNION_META = dict(exceptional=False)


def test_theorem_b_consistency_quaternion():
    # generalized quaternion groups act freely on the 3-sphere, so their
    # period-4 free resolutions exist and the declared exceptionality is honest
    for order in (8, 12, 16, 20, 24, 28, 32):
        spec = Quaternion(order).with_meta(**QUATERNION_META)
        assert spec.known_period() == realize(spec).period == 4, order
        qb = q_bound_report(spec, 2)
        assert qb.exact == 2, order
        assert qb.lower <= 2 <= qb.upper, (order, qb)
        # mu_1 = d(G) - 1 = 1 off the realized group enters the lower bound mu'_2 - mu'_1
        assert "resolution-difference-lower-bound" in qb.citations, order
    for order in (8, 12):
        spec = Quaternion(order).with_meta(**QUATERNION_META)
        qb = q_bound_report(spec, 3)
        assert qb.exact == 0, order
        assert qb.lower <= 0 <= qb.upper, (order, qb)


def test_report_validation():
    from eulerchar import QBoundReport, Verdict

    with pytest.raises(EulerCharError):
        QBoundReport(cyclic_spec(2), 2, 3, 2, None, Verdict(VerdictKind.OPEN, "x"), ("r",))
    with pytest.raises(EulerCharError):
        QBoundReport(cyclic_spec(2), 2, 2, 4, 5, Verdict(VerdictKind.OPEN, "x"), ("r",))
    with pytest.raises(EulerCharError):
        QBoundReport(cyclic_spec(2), 2, 2, 4, 3, Verdict(VerdictKind.OPEN, "x"), ())