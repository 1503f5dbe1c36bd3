"""Spans and exact counts recorded around the package's module attributes.

The tracer replaces a module attribute with a wrapper, so every call that
resolves the attribute at call time goes through it.  A timed tracer records
one span per call: name, start, end, parent span and the execution id shared
by every span inside one ``execute_tuple`` call.  An untimed tracer reads no
clock and keeps only the counts.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

EXECUTE = "ensemble.execute_tuple"
# spans that run once per execution, inside an execute span
STAGES = (
    "variants.run_trajectory",
    "recurrence.build_report",
    "innovation.is_eca_reproducible",
    "complexity.compressibility",
    "complexity.lyapunov",
    "recurrence.detect_cycle",
)


class Tracer:
    def __init__(self, timed: bool = True):
        self.timed = timed
        self.spans: list[tuple | None] = []   # (name, start, end, parent, exec_id)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._exec = -1
        self._saved: list[tuple] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Route ``module.attr`` through a span (and ``count``, a pair of a
        counter name and a function of (args, result) giving its increment).
        An untimed tracer wraps only counted attributes."""
        fn = getattr(module, attr)
        if count is not None:
            self.counts[count[0]] += 0   # report the counter even if never hit
        if self.timed:
            wrapper = self._traced(fn, name, count)
        elif count is not None:
            wrapper = self._counted(fn, *count)
        else:
            return
        setattr(module, attr, wrapper)
        self._saved.append((module, attr, fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _counted(self, fn, counter, measure):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[counter] += measure(args, result)
            return result
        return counted

    def _traced(self, fn, name, count):
        spans, stack = self.spans, self._stack
        is_execute = name == EXECUTE

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_execute:
                self._exec += 1
            exec_id = self._exec if (is_execute or parent is not None) else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, exec_id)
            if count is not None:
                self.counts[count[0]] += count[1](args, result)
            return result
        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, exec_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "exec": exec_id}) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer busy times of one traced pipeline pass, in seconds."""
    own = self_times(spans)
    self_total: dict[str, float] = defaultdict(float)
    first: dict[str, float] = {}
    exec_durations = []
    for (name, start, end, _, _), s in zip(spans, own):
        self_total[name] += s
        first.setdefault(name, end - start)
        if name == EXECUTE:
            exec_durations.append(end - start)
    pct = statistics.quantiles(exec_durations, n=100, method="inclusive")
    return {
        "variants.run_trajectory_s": self_total["variants.run_trajectory"],
        "variants.first_run_s": first["variants.run_trajectory"],
        "complexity.lyapunov_s": self_total["complexity.lyapunov"],
        "complexity.compressibility_s": self_total["complexity.compressibility"],
        # the set-up call; run_ensemble's own call is a memo hit
        "complexity.norm_s": first["complexity.normalization_constant"],
        "recurrence.build_report_s": self_total["recurrence.build_report"],
        "recurrence.detect_cycle_s": self_total["recurrence.detect_cycle"],
        "innovation.is_eca_reproducible_s": self_total["innovation.is_eca_reproducible"],
        "ensemble.execute_self_s": self_total[EXECUTE],
        "ensemble.exec_p50_us": pct[49] * 1e6,
        "ensemble.exec_p99_us": pct[98] * 1e6,
        "ensemble.draw_plan_s": self_total["ensemble.draw_plan"],
        "ensemble.aggregate_s": self_total["ensemble.aggregate"],
        "io_formats.write_records_csv_s": self_total["io_formats.write_records_csv"],
        "io_formats.write_report_json_s": self_total["io_formats.write_report_json"],
        "io_formats.read_records_csv_s": self_total["io_formats.read_records_csv"],
    }
