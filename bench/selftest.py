"""Self-test of the benchmark on tiny plans.

    python3 bench/selftest.py

For every workload, shrunk to a few dozen executions and a tiny
normalization run, it checks that both modes print every metric that
BENCHMARK.json names, with its unit; that every stage span has an
``execute_tuple`` parent in the same execution; and that the stage self
times plus ``ensemble.execute_self_s`` add up to the execute spans' time.
"""

from __future__ import annotations

import json
import math
import sys

import run
from tracer import EXECUTE, STAGES, self_times
from workloads import WORKLOADS

TINY = {"samples": 40, "norm_samples": 10, "norm_steps": 32}
STAGE_METRICS = ("variants.run_trajectory_s", "recurrence.build_report_s",
                 "innovation.is_eca_reproducible_s", "complexity.compressibility_s",
                 "complexity.lyapunov_s", "recurrence.detect_cycle_s")


def load_spans(path) -> list[tuple]:
    with open(path) as fh:
        return [(d["name"], d["start"], d["end"], d["parent"], d["exec"])
                for d in map(json.loads, fh)]


def check_units(result: dict, declared: list[dict]) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return [] if got == want else [f"metrics {got} differ from BENCHMARK.json {want}"]


def check_spans(spans: list[tuple], metrics: dict) -> list[str]:
    errors = []
    for name, _, _, parent, exec_id in spans:
        if name in STAGES and (parent is None or spans[parent][0] != EXECUTE
                               or spans[parent][4] != exec_id):
            errors.append(f"{name} span without an execute_tuple parent")
    execute_time = sum(end - start for name, start, end, _, _ in spans if name == EXECUTE)
    own = self_times(spans)
    from_spans = sum(s for span, s in zip(spans, own) if span[0] in STAGES + (EXECUTE,))
    reported = (sum(metrics[m]["value"] for m in STAGE_METRICS)
                + metrics["ensemble.execute_self_s"]["value"])
    for label, total in (("span self times", from_spans), ("reported metrics", reported)):
        if not math.isclose(total, execute_time, rel_tol=1e-9):
            errors.append(f"{label} sum to {total}, execute spans to {execute_time}")
    return errors


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    errors = []
    for workload in WORKLOADS.values():
        for trace in (False, True):
            result = run.measure(workload, run.DEFAULT_SEED, 0, trace, overrides=TINY)
            label = f"{workload.name} trace={int(trace)}"
            if result is None or not result["correct"]:
                errors.append(f"{label}: run failed or incorrect")
                continue
            found = check_units(result, declared["per_layer" if trace else "end_to_end"])
            if trace:
                spans = load_spans(run.OUT_DIR / f"{workload.name}-trace" / "spans.jsonl")
                found += check_spans(spans, result["metrics"])
            errors += [f"{label}: {e}" for e in found]
    for e in errors:
        print(e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
