"""Benchmark of eulerchar: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload closed_forms --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seconds 20        # every workload, one after another

Workloads (see workloads.py):
  closed_forms    q_bound_report on closed-form families; never the oracle
  oracle_trivial  bar-cochain oracle with trivial coefficients over F2 and F3
  oracle_twisted  Swan formula on supplied character modules (twisted action)

Each workload runs in its own fresh, single-threaded process. With --trace 0
the last line of output carries the end-to-end metrics:
  setup_s        median over fresh processes of importing eulerchar and
                 eulerchar.cli and building the CLI parser
  answers_per_s  queries answered and checked correct per second of the
                 timed loop
  query_p50_ms, query_p90_ms
                 latency percentiles over every query; a query that raises
                 counts at its time to failure
  answered_frac  share of queries answered and checked correct (the rest
                 raised or failed their check)
  peak_rss_mb    peak resident memory of the worker after the timed loop
The times (setup_s, answers_per_s and the latencies) are scaled to a
reference host speed by a calibration loop timed between queries (see
calibration.py); the unscaled values are in the details line.
With --trace 1 a second worker repeats the run with spans around every
layer's public functions and reports the per-layer metrics (times, counts and
bytes per round of the workload) plus the tracing overhead.

Every answer is checked after the timed loop; the run is correct when no
query fails beyond the typed refusals the workload lists as expected today.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 9  # split before and after the workload, so one slow spell of the host moves few
DEADLINE_S = 170  # per workload; the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EULERCHAR_MEMORY_BUDGET", None)  # the worker passes the 2 GiB default explicitly
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(script: str, args: list[str], deadline: float) -> dict:
    """Run a bench script in a fresh process; its last stdout line is JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start {script}")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / script), *args],
            cwd=ROOT, env=pinned_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {' '.join(args)} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{script} {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)] + (["--small"] if small else [])
    if not trace:
        spawn("setup_probe.py", [], deadline)  # untimed: leaves the bytecode cache warm
        probes = 1 if small else SETUP_PROBES
        setup = [spawn("setup_probe.py", [], deadline) for _ in range(probes // 2)]
        res = spawn("worker.py", args + ["--trace", "0"], deadline)
        setup += [spawn("setup_probe.py", [], deadline) for _ in range(probes - probes // 2)]
        res["metrics"] = {"setup_s": statistics.median(p["setup_s"] for p in setup), **res["metrics"]}
        res["details"]["unscaled"]["setup_s"] = statistics.median(p["unscaled_setup_s"] for p in setup)
        res["details"]["setup_samples_s"] = [p["setup_s"] for p in setup]
        return res
    base = spawn("worker.py", args + ["--trace", "0"], deadline)
    res = spawn("worker.py", args + ["--trace", "1"], deadline)
    traced_rate = res["metrics"]["answers_per_s"]
    res["metrics"] = {
        **res.pop("layers"),
        "trace.answers_per_s": traced_rate,
        "trace.overhead_frac": base["metrics"]["answers_per_s"] / traced_rate - 1,
    }
    res["correct"] = res["correct"] and base["correct"]
    res["details"]["untraced_answers_per_s"] = base["metrics"]["answers_per_s"]
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny rounds and one set-up probe, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eulerchar" / "__init__.py").is_file():
        print(f"error: no eulerchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {
        m["name"]: m["unit"]
        for key in ("end_to_end", "per_layer")
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        details = {
            **res["details"],
            "workload": name,
            "seed": args.seed,
            "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "pinned_threads": {var: "1" for var in THREAD_VARS},
        }
        print(json.dumps({"details": details}, sort_keys=True))
        for metric, value in res["metrics"].items():
            print(f"{name:15s} {metric:36s} {value:16.6f} {units[metric]}")
        prefix = "" if len(names) == 1 else f"{name}."
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
