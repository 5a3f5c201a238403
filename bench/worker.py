"""One benchmark process: one workload measured for a time budget.

Started by run.py in a fresh process with a pinned environment. Prints one
JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from calibration import REFERENCE_S, calibrate
from tracing import Tracer
from workloads import Checker, make_round, rank_path, run_level_checks, run_query

BENCH_DIR = Path(__file__).resolve().parent
MEMORY_BUDGET = 2 * 1024**3  # the program's default, passed explicitly
CALIBRATION_INTERVAL_S = 0.2


def run_rounds(api, workload, seed, seconds, workdir, checker, small=False, tracer=None):
    """Timed loop: whole rounds while the next one is expected to fit in `seconds`.

    Each round's answers are checked after the round, outside the timed and
    traced region, and then dropped. Between queries, at most every
    CALIBRATION_INTERVAL_S, the calibration loop runs outside the timed region.
    Returns one record per query, (query, latency, answered, failure), the
    timed seconds, the rounds run and the calibration times.
    """
    records, timed, rounds, calibrations = [], 0.0, 0, [calibrate()]
    last_calibration = time.perf_counter()
    while rounds == 0 or timed + timed / rounds <= seconds:
        queries = make_round(api, workload, seed, rounds, workdir, small)
        outcomes = []
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        for q in queries:
            if tracer is not None:
                tracer.begin_query(len(records) + len(outcomes))
            t0 = time.perf_counter()
            result = error = None
            try:
                result = run_query(api, q, MEMORY_BUDGET)
            except Exception as exc:  # every outcome is recorded; the checks judge it
                error = exc
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_query(error is not None)
            outcomes.append((q, result, error, latency))
            if time.perf_counter() - last_calibration > CALIBRATION_INTERVAL_S:
                paused = time.perf_counter()
                calibrations.append(calibrate())
                last_calibration = time.perf_counter()
                start += last_calibration - paused
        timed += time.perf_counter() - start
        rounds += 1
        if tracer is not None:
            tracer.uninstall()
        records += [(q, latency, *judge(checker, q, result, error)) for q, result, error, latency in outcomes]
    return records, timed, rounds, calibrations


def judge(checker, q, result, error):
    """(answered and correct, failure or None).

    A query listed as expected to fail that raises its listed error is
    neither answered nor failed; anything else that raises, or an answer
    that fails its check, is a failure.
    """
    if error is None:
        reason = checker.check(q, result)
        return reason is None, None if reason is None else f"{q.cls} [{q.text}]: {reason}"
    if type(error).__name__ == q.expect_error:
        return False, None
    return False, f"{q.cls} [{q.text}]: {type(error).__name__}: {error}"


def workload_properties(records) -> dict:
    """Properties of the measured queries that claims about this workload cite."""
    queries = [q for q, *_ in records]
    seen, repeats = set(), 0
    for q in queries:
        repeats += q.text in seen
        seen.add(q.text)
    paths = Counter()
    for q in queries:
        paths.update({rank_path(p) for p in q.primes})
    return {
        "repeat_spec_frac": repeats / len(queries),
        "queries_per_class": dict(sorted(Counter(q.cls for q in queries).items())),
        "rank_path_query_frac": {k: v / len(queries) for k, v in sorted(paths.items())},
        "expected_to_fail": dict(sorted(Counter(f"{q.cls}: {q.expect_error}" for q in queries if q.expect_error).items())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny rounds, for the smoke test")
    args = parser.parse_args(argv)

    import eulerchar as api
    import eulerchar.cli  # noqa: F401  (the checks read the CLI's JSON)
    import numpy

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".tables-") as workdir:
        checker = Checker(api)
        records, timed, rounds, calibrations = run_rounds(api, args.workload, args.seed, args.seconds, workdir, checker, args.small, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_checks = run_level_checks(api, args.workload)
    answered = sum(ok for _, _, ok, _ in records)
    failures = [failure for *_, failure in records if failure is not None]
    failed = len(failures)
    latencies_ms = sorted(latency * 1000 for _, latency, _, _ in records)
    p50_ms, p90_ms = statistics.median(latencies_ms), statistics.quantiles(latencies_ms, n=10)[8]
    scale = REFERENCE_S / statistics.mean(calibrations)  # times at the reference host speed
    failed_run_checks = {k: v for k, v in run_checks.items() if v.startswith("FAIL")}
    out = {
        "correct": failed == 0 and not failed_run_checks,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            "answers_per_s": answered / (timed * scale),
            "query_p50_ms": p50_ms * scale,
            "query_p90_ms": p90_ms * scale,
            "answered_frac": answered / len(records),
            "peak_rss_mb": peak_rss_mb,
        },
        "details": {
            "rounds": rounds,
            "timed_s": timed,
            "unscaled": {"answers_per_s": answered / timed, "query_p50_ms": p50_ms, "query_p90_ms": p90_ms},
            "calibration": {"mean_s": statistics.mean(calibrations), "samples": len(calibrations), "scale": scale},
            "latency_samples": len(latencies_ms),
            "run_checks": run_checks,
            "failures": failures[:20],
            "properties": workload_properties(records),
            "environment": {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "memory_budget_bytes": MEMORY_BUDGET,
            },
        },
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(rounds)
        spans = BENCH_DIR / ".spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        out["details"]["spans_file"] = str(spans.relative_to(BENCH_DIR.parent))
        out["details"]["trace_absent"] = tracer.absent
        out["details"]["trace_unobserved"] = dict(tracer.unobserved)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
