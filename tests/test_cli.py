import json
import random

import pytest

from eulerchar import parse_spec, realize
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
    code, out, _ = run(capsys, "bounds", "Q(8)", "--n", "3", "--period", "4",
                       "--exceptional", "no", "--d", "2", "--solvable", "yes", "--format", "json")
    assert code == 0
    assert json.loads(out)["exact"] == 0


def test_swan_command(capsys):
    code, out, _ = run(capsys, "swan", "J(2)", "--nmax", "4", "--format", "json")
    assert code == 0
    rows = {r["n"]: r for r in json.loads(out)["rows"]}
    assert rows[2]["e_n"] == 3 and rows[2]["mu_n"] == 2
    assert rows[4]["mu_n"] == 1


def test_swan_agrees_on_spellings_of_the_trivial_group(capsys):
    reports = []
    for spec in ("1", "C(1)"):
        code, out, _ = run(capsys, "swan", spec, "--period", "2", "--format", "json")
        assert code == 0
        reports.append(json.loads(out)["rows"])
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
        assert run(capsys, *argv, "--period", "2")[0] == 0, argv


def test_zero_generators_on_a_nontrivial_group_is_a_spec_error(capsys):
    for spec in ("J(2)", "Q(8)"):
        code, out, err = run(capsys, "swan", spec, "--d", "0", "--solvable", "yes", "--nmax", "1")
        assert code == 1 and not out, spec
        assert "spec error" in err and "d = 0" in err, spec
    code, out, _ = run(capsys, "swan", "1", "--d", "0", "--solvable", "yes", "--nmax", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0]["mu_n"] == -1


def test_a_declared_d_the_spec_contradicts_is_a_spec_error(capsys):
    # the spec shows d = 1 for a cyclic group, d = k for (Z/p)^k and d = k + 1 for an isotypic action
    for spec, d, shown in (("U(5,3,1,4)", "7", 4), ("Usd(5,4;1,1,1)", "3", 4), ("C(6)", "3", 1), ("Prod(C(2),C(3))", "2", 1),
                           ("E(3,2)", "1", 2)):
        code, out, err = run(capsys, "swan", spec, "--d", d, "--solvable", "yes", "--nmax", "1")
        assert code == 1 and not out, spec
        assert "spec error" in err and f"d = {d} declared for {spec}, but the spec shows d = {shown}" in err, spec
    code, out, err = run(capsys, "bounds", "E(3,4)", "--d", "9", "--solvable", "yes")
    assert code == 1 and not out and "d = 9 declared for E(3,4), but the spec shows d = 4" in err
    # a declaration that agrees is taken: the mu_1 rule of the spec answers
    for spec, mu1 in (("U(5,3,1,4)", 3), ("Usd(5,4;1,1,1)", 3), ("C(6)", 0), ("E(3,2)", 1)):
        code, out, _ = run(capsys, "swan", spec, "--d", str(mu1 + 1), "--solvable", "yes", "--nmax", "1", "--format", "json")
        assert code == 0 and json.loads(out)["rows"][0]["mu_n"] == mu1, spec


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
                code, out, err = run(capsys, "bounds", spelling, "--n", n, "--period", "2", "--exceptional", "yes")
                assert code == 2 and not out, (spelling, n)
                assert "never exceptional" in err, (spelling, n)


def test_a_cyclic_semidirect_spec_is_never_exceptional(capsys):
    # Usd(7,3;0) is Z/7 x Z/3 with trivial action, that is C(21), and is
    # refused like it; with a nontrivial action the group is not cyclic and
    # keeps the pair (C_7 x| C_3 has period 6)
    flags = ("--n", "3", "--period", "4", "--exceptional", "yes")
    for text in ("C(21)", "Usd(7,3;0)"):
        code, out, err = run(capsys, "bounds", text, *flags)
        assert code == 2 and not out, text
        assert "never exceptional" in err, text
    code, out, _ = run(capsys, "bounds", "Usd(7,3;1)", "--n", "5", "--period", "6", "--exceptional", "yes")
    assert code == 0 and "declared exceptional pair" in out


def test_a_declared_period_is_refused_on_a_pp_subgroup(capsys):
    # E(3,2), Prod(C(3),C(3)) and Usd(7,3;0,0) contain C_p x C_p, so no period exists
    for text in ("E(3,2)", "Prod(C(3),C(3))", "Usd(7,3;0,0)"):
        code, out, err = run(capsys, "bounds", text, "--n", "3", "--period", "4")
        assert code == 2 and not out, text
        assert "subgroup C_p x C_p" in err and "declared period 4 refused" in err, text
    code, out, _ = run(capsys, "bounds", "Q(8)", "--n", "3", "--period", "4")
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
