"""Smoke test of the benchmark: tiny rounds of every workload in both modes,
a checker that catches a wrong answer, and a refusal to run without sources.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import eulerchar  # noqa: E402
import eulerchar.cli  # noqa: E402,F401
import worker  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(workload, trace, kind):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    if trace == 0:
        # the only unanswered queries are the typed refusals listed as expected today
        details = json.loads(lines[0])["details"]
        refused = sum(details["properties"]["expected_to_fail"].values())
        answered = result["metrics"]["answered_frac"]["value"] * result["attempted"]
        assert round(answered) == result["attempted"] - refused


@pytest.mark.parametrize("workload, key", [("oracle_twisted", "mu"), ("closed_forms", "upper")])
def test_checker_counts_a_wrong_expected_value(tmp_path, monkeypatch, workload, key):
    def corrupted_round(*args, **kwargs):
        queries = workloads.make_round(*args, **kwargs)
        victim = next(q for q in queries if key in q.expected and q.expect_error is None)
        victim.expected[key] += 1
        return queries

    monkeypatch.setattr(worker, "make_round", corrupted_round)
    checker = workloads.Checker(eulerchar)
    records, _, rounds, _ = worker.run_rounds(eulerchar, workload, 5, 0, str(tmp_path), checker, small=True)
    failures = [failure for *_, failure in records if failure is not None]
    refused = sum(q.expect_error is not None for q, *_ in records)
    assert rounds == 1 and len(failures) == 1
    assert sum(answered for _, _, answered, _ in records) == len(records) - refused - 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".tables-*"))
    proc = run_bench("--workload", "closed_forms", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
