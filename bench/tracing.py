"""Spans around calls into the eulerchar layers, and the per-layer metrics.

Each traced public function is replaced, in every eulerchar module that
bound it, by a wrapper that records a span (name, start, end, parent span,
query id) in memory. Nothing is written until the run ends. A name missing
at some commit is reported as absent; its metrics read zero.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

from workloads import rank_path

# layer module -> public functions timed from outside
LAYERS = {
    "groupspec": ("parse_spec", "realize"),
    "series": ("closed_form_series",),
    "characters": ("graded_character", "mun_semidirect"),
    "swan": ("series_bundle", "compute_mun"),
    "qbounds": ("q_bound_report",),
    "oracle": ("verify_series", "cochain_cohomology_dim", "coboundary_matrix", "rank_mod_p"),
}
BOOKKEEPING = "trace.bookkeeping"
PACKED_BITS = {"gf2": 1, "gf3": 2, "dense": 64}


class Span(NamedTuple):
    label: str
    start: float
    end: float
    parent: int | None
    query: int | None
    extra: object = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query: int | None = None
        self.failed_queries: set[int] = set()
        self.absent: list[str] = []
        self.unobserved: Counter = Counter()
        self.graded_repeats = 0
        self.rank_repeats = 0
        self._graded_seen: set = set()
        self._matrices_seen: set = set()
        self._patched: list[tuple[object, str, object]] = []
        self._observers = {
            "characters.graded_character": self._observe_graded,
            "oracle.coboundary_matrix": self._observe_coboundary,
            "oracle.rank_mod_p": self._observe_rank,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "eulerchar" or name.startswith("eulerchar.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"eulerchar.{layer}")
            for name in names:
                label = f"{layer}.{name}"
                original = getattr(home, name, None)
                if original is None:
                    if label not in self.absent:
                        self.absent.append(label)
                    continue
                wrapper = self._wrap(label, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def begin_query(self, query_id: int) -> None:
        self.query = query_id
        self._graded_seen.clear()

    def end_query(self, failed: bool) -> None:
        if failed:
            self.failed_queries.add(self.query)
        self.query = None

    def _wrap(self, label, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observers.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(label, start, end, parent, self.query)
            if observe is not None:
                try:
                    spans[index] = spans[index]._replace(extra=observe(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.unobserved[label] += 1
                # a sibling span, so the caller's self time excludes the bookkeeping
                spans.append(Span(BOOKKEEPING, end, clock(), parent, self.query))
            return result

        return traced

    # -- counters at the layer boundaries -----------------------------------

    def _observe_graded(self, args, kwargs, result):
        key = (_arg(args, kwargs, 0, "chars"), _arg(args, kwargs, 1, "p"), _arg(args, kwargs, 2, "n"))
        if key in self._graded_seen:
            self.graded_repeats += 1
        self._graded_seen.add(key)

    def _observe_coboundary(self, args, kwargs, result):
        group, module = _arg(args, kwargs, 0, "group"), _arg(args, kwargs, 1, "module")
        key = (hash(group.mul.tobytes()), module.p, hash(module.matrices.tobytes()), _arg(args, kwargs, 2, "n"))
        if key in self._matrices_seen:
            self.rank_repeats += 1
        self._matrices_seen.add(key)
        return sum(map(len, result.cols))

    def _observe_rank(self, args, kwargs, result):
        matrix, path = _arg(args, kwargs, 0, "matrix"), rank_path(_arg(args, kwargs, 1, "p"))
        return path, matrix.nrows * matrix.ncols * PACKED_BITS[path] // 8

    def write(self, path) -> None:
        """All spans as gzipped JSON lines; times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.label, "start": s.start - origin, "end": s.end - origin,
                    "parent": s.parent, "query": s.query,
                }) + "\n")

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics; times, counts and bytes are per round of the workload."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        oracle_outer = []
        rank_time, rank_bytes, nnz = defaultdict(float), 0, 0
        for i, s in enumerate(spans):
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        for i, s in enumerate(spans):
            if s.label == BOOKKEEPING:
                continue
            duration = s.end - s.start
            ancestors = self._ancestor_labels(i)
            calls[s.label] += 1
            self_time[s.label] += duration - child_time[i]
            if s.label not in ancestors:  # recursive calls count once in time
                total[s.label] += duration
            if s.label.startswith("oracle.") and not any(a.startswith("oracle.") for a in ancestors):
                oracle_outer.append(s)
            if s.label == "oracle.rank_mod_p" and s.extra is not None:
                rank_time[s.extra[0]] += duration
                rank_bytes += s.extra[1]
            if s.label == "oracle.coboundary_matrix" and s.extra is not None:
                nnz += s.extra
        wasted = sum(s.end - s.start for s in oracle_outer if s.query in self.failed_queries)
        per_round = lambda x: x / rounds
        ratio = lambda a, b: a / b if b else 0.0
        return {
            "groupspec.parse_s": per_round(total["groupspec.parse_spec"]),
            "groupspec.realize_s": per_round(total["groupspec.realize"]),
            "groupspec.realize_calls": per_round(calls["groupspec.realize"]),
            "series.closed_form_s": per_round(total["series.closed_form_series"]),
            "series.closed_form_calls": per_round(calls["series.closed_form_series"]),
            "characters.graded_character_s": per_round(total["characters.graded_character"]),
            "characters.graded_character_calls": per_round(calls["characters.graded_character"]),
            "characters.kernel_s": per_round(self_time["characters.mun_semidirect"]),
            "characters.repeat_graded_frac": ratio(self.graded_repeats, calls["characters.graded_character"]),
            "swan.series_bundle_s": per_round(total["swan.series_bundle"]),
            "swan.compute_mun_s": per_round(total["swan.compute_mun"]),
            "swan.compute_mun_calls": per_round(calls["swan.compute_mun"]),
            "qbounds.report_self_s": per_round(self_time["qbounds.q_bound_report"]),
            "oracle.coboundary_s": per_round(total["oracle.coboundary_matrix"]),
            "oracle.coboundary_nnz": per_round(nnz),
            "oracle.rank_s.gf2": per_round(rank_time["gf2"]),
            "oracle.rank_s.gf3": per_round(rank_time["gf3"]),
            "oracle.rank_s.dense": per_round(rank_time["dense"]),
            "oracle.rank_calls_per_dim": ratio(calls["oracle.rank_mod_p"], calls["oracle.cochain_cohomology_dim"]),
            "oracle.repeat_rank_frac": ratio(self.rank_repeats, calls["oracle.coboundary_matrix"]),
            "oracle.bytes_computed": per_round(rank_bytes),
            "oracle.wasted_s": per_round(wasted),
        }

    def _ancestor_labels(self, index: int) -> set[str]:
        out = set()
        parent = self.spans[index].parent
        while parent is not None:
            out.add(self.spans[parent].label)
            parent = self.spans[parent].parent
        return out
