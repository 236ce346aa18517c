"""Spans and counts around the program's public functions, recorded from
outside the program.

`Tracer.install()` replaces each function in `TRACED` with a wrapper in
every `sentlen` module that binds it (so `harness.extract_all`, imported
from `series`, is wrapped too). A function that is missing is listed as
absent rather than failing, so the program's internals can be renamed
without editing the benchmark. Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter_ns

#: (module of sentlen, public function): each call becomes a span.
TRACED = (
    ("textpipe", "load_document"),
    ("series", "extract_all"),
    ("correlation", "pearson"),
    ("correlation", "spearman"),
    ("correlation", "kendall_tau"),
    ("correlation", "goodman_kruskal_gamma"),
    ("correlation", "concordance_counts"),
    ("correlation", "fit_linear_map"),
    ("distribution", "mean_normalize"),
    ("distribution", "ks_two_sample"),
    ("distribution", "ks_after_linear_map"),
    ("dfa", "default_config"),
    ("dfa", "hurst_of_series"),
    ("dfa", "shuffled_hurst"),
    ("dfa", "fluctuation"),
    ("harness", "analyze_corpus"),
    ("harness", "analyze_book"),
    ("harness", "summarize"),
    ("harness", "emit_reports"),
)

PAIRS_PER_BOOK = 15


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts: dict[str, int] = {
            "textpipe.bytes_read": 0, "harness.files_written": 0,
            "harness.bytes_written": 0, "harness.books_analyzed": 0,
            "harness.books_skipped": 0,
        }
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list = []

    # counts taken at the same boundaries as the spans
    def _before(self, name, args):
        if name == "textpipe.load_document" and args:
            try:
                self.counts["textpipe.bytes_read"] += os.stat(args[0]).st_size
            except (OSError, TypeError):
                pass

    def _after(self, name, result):
        if name == "harness.emit_reports":
            self.counts["harness.files_written"] += len(result)
            self.counts["harness.bytes_written"] += sum(
                os.stat(p).st_size for p in result)
        elif name == "harness.analyze_corpus":
            summary, reports = result
            self.counts["harness.books_analyzed"] += len(reports)
            self.counts["harness.books_skipped"] += len(summary.skipped)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._before(name, args)
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index][1:3] = start, end
            self._after(name, result)
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"sentlen.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "sentlen" and not mod_name.startswith("sentlen."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "absent": self.absent}, fh)


#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("textpipe.load_document.self_s", "s", "lower"),
    ("textpipe.load_document.calls", "count", "lower"),
    ("textpipe.bytes_read", "B", "lower"),
    ("series.extract_all.self_s", "s", "lower"),
    ("correlation.concordance_counts.self_s", "s", "lower"),
    ("correlation.concordance_counts.calls", "count", "lower"),
    ("correlation.concordance_calls_per_pair", "ratio", "lower"),
    ("correlation.fit_linear_map.calls", "count", "lower"),
    ("correlation.linear_map_calls_per_pair", "ratio", "lower"),
    ("correlation.spearman.self_s", "s", "lower"),
    ("correlation.pearson.self_s", "s", "lower"),
    ("correlation.kendall_tau.self_s", "s", "lower"),
    ("correlation.goodman_kruskal_gamma.self_s", "s", "lower"),
    ("distribution.ks_two_sample.self_s", "s", "lower"),
    ("distribution.ks_after_linear_map.self_s", "s", "lower"),
    ("dfa.real_s", "s", "lower"),
    ("dfa.shuffled_s", "s", "lower"),
    ("dfa.fluctuation.calls", "count", "lower"),
    ("dfa.fluctuation.self_s", "s", "lower"),
    ("harness.analyze_book.self_s", "s", "lower"),
    ("harness.analyze_book.total_s", "s", "lower"),
    ("harness.summarize.self_s", "s", "lower"),
    ("harness.emit_reports.self_s", "s", "lower"),
    ("harness.files_written", "count", "lower"),
    ("harness.bytes_written", "B", "lower"),
    ("harness.books_skipped", "count", "lower"),
    ("harness.parallel_efficiency", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(trace: dict, traced_wall_s: float, serial_wall_s: float,
                  wall_s: float, workers: int) -> dict[str, float]:
    """Per-layer metrics from a dumped trace of a serial run.

    Self time is span time minus the time of its child spans; call counts
    are exact. `serial_wall_s` is the untraced wall time of the same
    serial run, and `wall_s` that of the workload's own run with
    `workers` processes.
    """
    spans = trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    real_ns = 0
    for i, (name, start, end, parent) in enumerate(spans):
        self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]
        total_ns[name] = total_ns.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        # DFA of the real series: hurst_of_series not under a shuffled control
        if name == "dfa.hurst_of_series" and (
                parent < 0 or spans[parent][0] != "dfa.shuffled_hurst"):
            real_ns += end - start
    counts = trace["counts"]
    pairs = PAIRS_PER_BOOK * counts["harness.books_analyzed"]
    book_s = total_ns.get("harness.analyze_book", 0) / 1e9
    out = {
        "dfa.real_s": real_ns / 1e9,
        "dfa.shuffled_s": total_ns.get("dfa.shuffled_hurst", 0) / 1e9,
        "correlation.concordance_calls_per_pair":
            calls.get("correlation.concordance_counts", 0) / pairs if pairs else 0.0,
        "correlation.linear_map_calls_per_pair":
            calls.get("correlation.fit_linear_map", 0) / pairs if pairs else 0.0,
        "harness.analyze_book.total_s": book_s,
        "harness.parallel_efficiency": book_s / (workers * wall_s),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - serial_wall_s,
    }
    for metric, _, _ in LAYER_METRICS:
        if metric in out:
            continue
        if metric in counts:
            out[metric] = counts[metric]
        elif metric.endswith(".self_s"):
            out[metric] = self_ns.get(metric[:-len(".self_s")], 0) / 1e9
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[:-len(".calls")], 0)
    return {metric: out[metric] for metric, _, _ in LAYER_METRICS}
