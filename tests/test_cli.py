import json
import random

import pytest

from eulerchar import ConcreteGroup, parse_spec, realize
from eulerchar.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "E(3,2)", "--p", "3", "--nmax", "3")
    assert code == 0
    assert "1 2 3 4" in out


def test_series_all_fields(capsys):
    code, out, _ = run(capsys, "series", "J(2)", "--nmax", "2")
    assert code == 0
    assert "Q:" in out and "F2:" in out and "F3:" in out


def test_series_without_a_closed_form(capsys, tmp_path):
    # quaternion and table specs take the resolution fallback, as in bounds
    code, out, _ = run(capsys, "series", "Q(8)")
    assert code == 0
    assert out.splitlines()[1:] == ["     Q: 1 0 0 0 0 0 0", "    F2: 1 2 2 1 1 2 2"]
    code, out, _ = run(capsys, "series", "Q(8)", "--p", "3")  # 3 does not divide |G|
    assert code == 0
    assert out.splitlines()[1:] == ["    F3: 1 0 0 0 0 0 0"]
    table = realize(parse_spec("Q(8)")).mul
    path = tmp_path / "q8.tbl"
    path.write_text("\n".join(["8"] + [" ".join(str(int(x)) for x in row) for row in table]) + "\n")
    code, out, _ = run(capsys, "series", f"Table({path})", "--p", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["series"] == [{"field": "F2", "dims": [1, 2, 2, 1, 1, 2, 2]}]


def test_series_json_round_trip(capsys):
    code, out, _ = run(capsys, "series", "C(6)", "--p", "5", "--nmax", "2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report == json.loads(json.dumps(report))
    assert report["schema"] == 1
    assert report["command"] == "series"
    assert report["series"][0]["dims"] == [1, 0, 0]


def test_text_and_json_numbers_agree(capsys):
    code, text, _ = run(capsys, "bounds", "E(3,3)", "--n", "4")
    assert code == 0
    code, raw, _ = run(capsys, "bounds", "E(3,3)", "--n", "4", "--format", "json")
    report = json.loads(raw)
    assert f"[{report['lower']}, {report['upper']}]" in text
    for key in ("lower", "upper"):
        assert str(report[key]) in text


def test_bounds_e33_n4(capsys):
    code, out, _ = run(capsys, "bounds", "E(3,3)", "--n", "4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["lower"] >= 3
    assert report["verdict"]["kind"] == "impossible"
    assert report["citations"]


def test_qs4_j4(capsys):
    code, out, _ = run(capsys, "qs4", "J(4)", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["kind"] == "realizable"
    assert report["command"] == "qs4"


def test_qs4_e54(capsys):
    code, out, _ = run(capsys, "qs4", "E(5,4)", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"]["kind"] == "impossible"


def test_bounds_with_declared_period(capsys):
    # a period is not declared: the flag is a usage error
    code, out, err = run(capsys, "bounds", "Q(8)", "--n", "3", "--period", "4", "--exceptional", "no")
    assert code == 1 and not out and "unrecognized arguments: --period 4" in err
    # Q(8) has period 4, read off the group; mu_1 = d(Q(8)) - 1 = 1 comes from the group too,
    # so mu'_3 - mu'_2 enters the lower bound.  A 2-group is never exceptional, declared or not.
    for declared in (["--exceptional", "no"], []):
        code, out, _ = run(capsys, "bounds", "Q(8)", "--n", "3", *declared, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert (report["exact"], report["lower"], report["upper"]) == (0, -1, 0)
        assert "resolution-difference-lower-bound" in report["citations"]
        assert "period 4 divides n + 1 with a periodic free resolution: mu_n = 0" in report["notes"]
        code, out, _ = run(capsys, "bounds", "Q(8)", *declared, "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert (report["exact"], report["lower"], report["upper"]) == (2, 2, 2)
        assert report["verdict"]["kind"] == "realizable"
        assert "resolution-difference-lower-bound" in report["citations"]
        assert "period 4 divides n + 2: a periodic resolution gives mu_n = 1" in report["notes"]


def test_swan_command(capsys):
    code, out, _ = run(capsys, "swan", "J(2)", "--nmax", "4", "--format", "json")
    assert code == 0
    rows = {r["n"]: r for r in json.loads(out)["rows"]}
    assert rows[2]["e_n"] == 3 and rows[2]["mu_n"] == 2
    assert rows[4]["mu_n"] == 1


def test_swan_agrees_on_spellings_of_the_trivial_group(capsys):
    # the trivial group has no period: no pair is exceptional, and a declared one is refused
    reports = []
    for spec in ("1", "C(1)"):
        code, out, _ = run(capsys, "swan", spec, "--format", "json")
        assert code == 0
        reports.append(json.loads(out)["rows"])
        assert run(capsys, "swan", spec, "--exceptional", "no", "--format", "json") == (0, out, ""), spec
        code, out, err = run(capsys, "swan", spec, "--exceptional", "yes", "--format", "json")
        assert code == 2 and not out and "only a periodic group can be exceptional" in err, spec
    assert reports[0] == reports[1]
    assert [row["exceptional"] for row in reports[0]] == ["no"] * 4


def test_oracle_check_passes(capsys):
    code, out, _ = run(capsys, "oracle-check", "E(2,2)", "--p", "2", "--nmax", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["all_match"] is True
    assert [r["oracle"] for r in report["rows"]] == [1, 2, 3, 4]


def test_usage_errors_exit_1(capsys):
    code, _, err = run(capsys, "series", "E(4,2)")
    assert code == 1
    assert "spec error" in err
    code, _, err = run(capsys, "bogus-command")
    assert code == 1


def test_series_and_oracle_check_take_no_metadata(capsys):
    # declared metadata enters only swan, bounds and qs4; the other spec commands refuse it
    for flag, value in (("--d", "2"), ("--period", "4"), ("--solvable", "yes"), ("--exceptional", "yes")):
        for argv in (["series", "E(3,2)"], ["oracle-check", "C(4)", "--p", "2"]):
            code, out, err = run(capsys, *argv, flag, value)
            assert code == 1 and not out, (argv, flag)
            assert "usage error" in err and f"unrecognized arguments: {flag} {value}" in err, (argv, flag)
    for argv in (["swan", "C(4)"], ["bounds", "C(4)"], ["qs4", "C(4)"]):
        assert run(capsys, *argv, "--exceptional", "no")[0] == 0, argv


def test_the_period_flag_is_a_usage_error(capsys):
    # the period comes from the group: swan, bounds and qs4 take no --period
    for command in ("swan", "bounds", "qs4"):
        for value in ("2", "4", "3"):
            code, out, err = run(capsys, command, "C(6)", "--period", value)
            assert code == 1 and not out, (command, value)
            assert "usage error" in err and f"unrecognized arguments: --period {value}" in err, (command, value)


def test_generator_count_flags_are_usage_errors(capsys):
    # d(G) and solvability come from the group: swan, bounds and qs4 take neither as a flag
    for command in ("swan", "bounds", "qs4"):
        for flag, value in (("--d", "0"), ("--d", "2"), ("--solvable", "yes"), ("--solvable", "no")):
            code, out, err = run(capsys, command, "J(2)", flag, value)
            assert code == 1 and not out, (command, flag, value)
            assert "usage error" in err and f"unrecognized arguments: {flag} {value}" in err, (command, flag, value)
    # d = 0 only for the trivial group, d >= 1 for every other, with or without a Swan record
    for spec, mu1 in (("1", -1), ("J(2)", 1), ("Q(8)", 1)):
        code, out, _ = run(capsys, "swan", spec, "--nmax", "1", "--format", "json")
        assert code == 0 and json.loads(out)["rows"][0]["mu_n"] == mu1, spec


def test_mu1_is_the_computed_generator_count_minus_one(capsys):
    # the spec shows d = 1 for a cyclic group, d = k for (Z/p)^k and d = k + 1 for an isotypic action;
    # Q(4n) and products with a Q factor have no Swan record and read d off the realized group
    for spec, d in (("U(5,3,1,4)", 4), ("Usd(5,4;1,1,1)", 4), ("C(6)", 1), ("Prod(C(2),C(3))", 1), ("E(3,2)", 2),
                    ("E(3,4)", 4), ("Q(12)", 2), ("Q(8)", 2), ("Prod(Q(8),C(3))", 2), ("Prod(Q(8),C(5))", 2)):
        code, out, _ = run(capsys, "swan", spec, "--nmax", "1", "--format", "json")
        assert code == 0 and json.loads(out)["rows"][0]["mu_n"] == d - 1, spec
        for value in (str(d), str(d + 1)):
            code, out, err = run(capsys, "swan", spec, "--d", value, "--nmax", "1")
            assert code == 1 and not out and f"unrecognized arguments: --d {value}" in err, spec
    code, out, _ = run(capsys, "swan", "Q(12)", "--nmax", "1", "--format", "json")
    assert json.loads(out)["rows"][0]["notes"] == ["mu_1 = d(G) - 1 = 1 (solvable)"]


def test_non_prime_characteristic_is_a_usage_error(capsys):
    for argv in (["series", "C(2)", "--p", "4"], ["oracle-check", "C(2)", "--p", "4"],
                 ["oracle-check", "C(2)", "--p", "0"], ["oracle-check", "C(2)", "--p", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "usage error" in err and "is not a prime" in err and not out, argv


def test_negative_degree_is_a_usage_error(capsys):
    for argv in (["series", "1", "--nmax", "-1"], ["series", "E(2,2)", "--nmax", "-2"], ["series", "Q(8)", "--nmax", "-1"],
                 ["swan", "J(2)", "--nmax", "-1"], ["oracle-check", "C(2)", "--p", "2", "--nmax", "-1"]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "usage error" in err and "is negative" in err and not out, argv
    code, out, _ = run(capsys, "series", "1", "--nmax", "0")
    assert code == 0 and out.splitlines() == ["dimension series of 1, degrees 0..0", "     Q: 1"]


def test_degree_below_its_range_is_a_usage_error(capsys):
    # bounds need n >= 2 and swan tables start at n = 1, as --nmax -1 is refused
    for argv, message in (
        (["bounds", "J(2)", "--n", "1"], "1 is below 2"),
        (["bounds", "J(2)", "--n", "-3"], "-3 is below 2"),
        (["bounds", "Q(8)", "--n", "0"], "0 is below 2"),
        (["swan", "J(2)", "--nmax", "0"], "0 is not positive"),
        (["swan", "Q(8)", "--nmax", "0"], "0 is not positive"),
        (["swan", "J(2)", "--nmax", "-1"], "-1 is negative"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert "usage error" in err and message in err and not out, argv
    assert run(capsys, "bounds", "J(2)", "--n", "2")[0] == 0
    assert run(capsys, "swan", "J(2)", "--nmax", "1")[0] == 0


def test_memory_budget_must_be_a_positive_integer(capsys):
    for value, message in (("-5", "-5 is negative"), ("0", "0 is not positive"), ("abc", "invalid positive value")):
        for argv in (["bounds", "Q(8)"], ["swan", "Q(8)"], ["qs4", "Q(8)"], ["oracle-check", "C(2)", "--p", "2"]):
            code, out, err = run(capsys, *argv, "--memory-budget", value)
            assert code == 1, (argv, value)
            assert "usage error" in err and message in err and not out, (argv, value)


def test_memory_budget_is_not_read_from_the_environment(capsys, monkeypatch):
    # the budget has one way in, --memory-budget
    expected = run(capsys, "bounds", "Q(8)")
    monkeypatch.setenv("EULERCHAR_MEMORY_BUDGET", "abc")
    assert run(capsys, "bounds", "Q(8)") == expected
    assert expected[0] == 0


def test_series_takes_a_memory_budget(capsys):
    # series builds the F_2 resolution of Q(8), like swan and bounds
    code, out, err = run(capsys, "series", "Q(8)", "--memory-budget", "1000")
    assert code == 2 and not out
    assert "computation error" in err and "budget is 1000" in err
    assert run(capsys, "series", "Q(8)", "--memory-budget", "100000000")[1] == run(capsys, "series", "Q(8)")[1]
    code, out, err = run(capsys, "series", "Q(8)", "--memory-budget", "0")
    assert code == 1 and "0 is not positive" in err and not out


def test_a_cyclic_table_is_never_exceptional(capsys, tmp_path):
    # a relabeled cyclic table is refused like its family; at --n 2 the
    # refusal names the group, not the degree n - 1 = 1 that bounds reads
    for text in ("C(6)", "C(8)"):
        group = realize(parse_spec(text))
        perm = [0] + random.Random(group.order).sample(range(1, group.order), group.order - 1)
        path = tmp_path / f"{text}.tbl"
        path.write_text("\n".join([str(group.order)] + [" ".join(map(str, row)) for row in group.relabel(perm).mul.tolist()]) + "\n")
        for spelling in (text, f"Table({path})"):
            for n in ("2", "3"):
                code, out, err = run(capsys, "bounds", spelling, "--n", n, "--exceptional", "yes")
                assert code == 2 and not out, (spelling, n)
                assert "never exceptional" in err, (spelling, n)


def test_a_cyclic_semidirect_spec_is_never_exceptional(capsys):
    # Usd(7,3;0) is Z/7 x Z/3 with trivial action, that is C(21) of period 2,
    # and is refused like it; with a nontrivial action the group is not
    # cyclic and keeps the pair (C_7 x| C_3 has period 6, which divides 5 + 1)
    for text in ("C(21)", "Usd(7,3;0)"):
        assert parse_spec(text).known_period() == 2, text
        code, out, err = run(capsys, "bounds", text, "--n", "3", "--exceptional", "yes")
        assert code == 2 and not out, text
        assert "never exceptional" in err, text
    assert parse_spec("Usd(7,3;1)").known_period() == 6
    code, out, _ = run(capsys, "bounds", "Usd(7,3;1)", "--n", "5", "--exceptional", "yes")
    assert code == 0 and "declared exceptional pair" in out


def test_a_declared_period_is_refused_on_a_pp_subgroup(capsys):
    # E(3,2), Prod(C(3),C(3)) and Usd(7,3;0,0) contain C_p x C_p, so no period exists: no exact
    # value, a declared exceptional pair is refused (declared not exceptional, the report is the
    # same), and a period cannot be declared
    for text in ("E(3,2)", "Prod(C(3),C(3))", "Usd(7,3;0,0)"):
        assert parse_spec(text).known_period() is None, text
        code, out, _ = run(capsys, "bounds", text, "--n", "3", "--format", "json")
        report = json.loads(out)
        assert code == 0 and report["exact"] is None and "periodicity-exact-value" not in report["citations"], text
        assert run(capsys, "bounds", text, "--n", "3", "--exceptional", "no", "--format", "json") == (0, out, ""), text
        code, out, err = run(capsys, "bounds", text, "--n", "3", "--exceptional", "yes", "--format", "json")
        assert code == 2 and not out and "only a periodic group can be exceptional" in err, text
        code, out, err = run(capsys, "bounds", text, "--n", "3", "--period", "4")
        assert code == 1 and not out and "unrecognized arguments: --period 4" in err, text
    code, out, _ = run(capsys, "bounds", "Q(8)", "--n", "3")
    assert code == 0 and "exact: 0" in out


def test_computation_errors_exit_2(capsys):
    # requesting mu-driven bounds for an unrealizable table path
    code, _, err = run(capsys, "oracle-check", "E(2,2)", "--p", "2", "--nmax", "3", "--memory-budget", "10")
    assert code == 2
    assert "computation error" in err


def test_semidirect_series_past_the_enumeration_cap_is_refused(capsys):
    # J(21) has complement order 2^21 - 1: its record at 2 enumerates the
    # characters, so series refuses it as bounds and swan do
    refusal = "computation error: modulus 2097151 exceeds enumeration cap 1048576\n"
    for argv in (["series", "J(21)"], ["bounds", "J(21)", "--n", "2"], ["swan", "J(21)"]):
        assert run(capsys, *argv) == (2, "", refusal), argv
    # the other primes see only the cyclic complement
    code, out, _ = run(capsys, "series", "J(21)", "--p", "7", "--nmax", "2")
    assert code == 0 and out.splitlines()[1:] == ["    F7: 1 1 1"]


def test_oracle_check_names_the_spec_without_a_record(capsys):
    for text in ("Q(8)", "Prod(Q(8),C(2))", "Prod(Q(8),C(3))"):
        code, out, err = run(capsys, "oracle-check", text, "--p", "2")
        assert (code, out, err) == (2, "", f"computation error: no closed-form series for {text}\n"), text


def test_missing_table_is_a_computation_error(capsys):
    code, _, err = run(capsys, "oracle-check", "Table(/nonexistent/file.tbl)", "--p", "2")
    assert code == 2


def test_reproduce_all_pass(capsys):
    code, out, _ = run(capsys, "reproduce", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] == report["total"] > 100
    assert all(r["pass"] for r in report["rows"])


def test_a_command_realizes_its_group_once(capsys, monkeypatch):
    # series_bundle, the mu_1 search and the exceptionality check share the group the spec keeps
    built = []
    init = ConcreteGroup.__init__

    def counted(self, mul):
        init(self, mul)
        built.append(self.order)

    monkeypatch.setattr(ConcreteGroup, "__init__", counted)
    for argv, order in ((["swan", "Q(12)", "--nmax", "4"], 12),
                        (["bounds", "Q(8)", "--exceptional", "no", "--n", "2"], 8),
                        (["bounds", "Prod(Q(8),C(3))", "--n", "3"], 24)):
        built.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out, argv
        assert built.count(order) == 1 and all(size < order for size in built if size != order), (argv, built)


def test_notes_do_not_quote_the_spelling(capsys):
    # one group spelled two or three ways gets one report: only the spec key differs, nothing is
    # masked.  1 and C(m) are Semidirect specs with no exponents, as E(p,0) and U(p,0,a,m) are, and
    # none of them prints the parity-floor note
    groups = [("Prod(Q(8),C(3))", "Prod(C(3),Q(8))"), ("1", "C(1)", "E(3,0)"), ("C(4)", "U(5,0,1,4)")]
    for spellings in groups:
        for argv in (["bounds", "--n", "2"], ["bounds", "--n", "3"], ["bounds", "--n", "4"], ["swan", "--nmax", "4"]):
            reports = []
            for spec in spellings:
                code, out, _ = run(capsys, argv[0], spec, *argv[1:], "--format", "json")
                assert code == 0, (argv, spec)
                report = json.loads(out)
                assert report.pop("spec") == spec
                reports.append(report)
            assert all(report == reports[0] for report in reports), (spellings, argv)
            notes = reports[0]["notes"] if argv[0] == "bounds" else [note for row in reports[0]["rows"] for note in row["notes"]]
            assert not any("parity floors" in note for note in notes), (spellings, argv)
