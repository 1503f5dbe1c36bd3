"""Ensemble benchmark for oee-ca.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload, both passes
    python3 bench/run.py --record-digests      # rewrite bench/digests.json

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and from nowhere else.

With ``--trace 0`` a run makes pipeline passes, each in a fresh interpreter
with ``OEE_THREADS`` removed from its environment, until ``--seconds`` have
passed (at least ``MIN_PASSES``).  Pass ``i`` runs the plan seeded
``plan_seed(seed, i)`` at the workload's worker count, with nothing wrapped.
It reports the medians over passes of the set-up time and the peak RSS, the
mean plan-to-report time, and the ensemble's executions per second pooled
over all passes (total executions over total ensemble seconds).  Pooling
damps the heavy tail of per-execution cost; on a shared host whose speed
drifts rather than spikes, the mean of a few passes also varies less from run
to run than their median.

With ``--trace 1`` it runs the plan of pass 0 four ways: counting at one
worker (exact counts, no clock), traced at one worker, and untouched at one
and at two workers.  It reports the per-layer metrics of the traced pass and
two single-pass ratios against the untouched one-worker pass:
``trace.overhead_frac`` (traced ensemble time over untouched, minus 1) and
``ensemble.scaling_eff`` (two-worker runs/s over twice the one-worker
runs/s).  It requires the exact work counts of the counting and traced
passes to agree.

Every pass checks its outputs: the digests of its records CSV (without the
``#`` echo lines) and of its report object must equal the ones recorded in
``digests.json`` for that plan.  For a plan with no recorded digests the pass
is logged and counted as unchecked, and is compared only with earlier passes
of the same plan in the run.  A pass that raises or mismatches counts as
failed; failed over attempted passes is the ``failed_frac`` logged on
standard error (not a metric: it is 0 when all is well).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import MIN_PASSES, PLANS_PER_SEED, WORKLOADS, plan_seed  # noqa: E402

DEFAULT_SEED = 1
DIGEST_SEEDS = range(0, 21)        # seeds whose plans have recorded digests
RUN_LIMIT_S = 170                  # every run ends well within 180 s
OUT_DIR = ROOT / ".bench_build" / "oee-bench"
DIGESTS = BENCH / "digests.json"

END_TO_END_UNITS = {"runs_per_s": "1/s", "setup_s": "s", "total_s": "s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "variants.run_trajectory_s": "s", "variants.steps_per_s": "1/s",
    "variants.steps": "count", "variants.first_run_s": "s",
    "complexity.lyapunov_s": "s", "complexity.norm_s": "s",
    "complexity.compressibility_s": "s", "complexity.lzw_input_bits": "count",
    "recurrence.build_report_s": "s", "recurrence.detect_cycle_s": "s",
    "innovation.is_eca_reproducible_s": "s", "innovation.window_states": "count",
    "ensemble.records": "count", "ensemble.execute_self_s": "s",
    "ensemble.exec_p50_us": "us", "ensemble.exec_p99_us": "us",
    "ensemble.draw_plan_s": "s", "ensemble.aggregate_s": "s",
    "ensemble.scaling_eff": "ratio", "trace.overhead_frac": "ratio",
    "io_formats.write_records_csv_s": "s", "io_formats.write_report_json_s": "s",
    "io_formats.read_records_csv_s": "s", "io_formats.csv_bytes": "bytes",
}


class Run:
    """The passes of one benchmark run, with its shared deadline."""

    def __init__(self, workload, seed: int, overrides: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.overrides = overrides or {}
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.unchecked = 0             # passes with no recorded digests
        self.seen: dict[int, list] = {}   # plan seed -> digests of its first pass
        with open(DIGESTS) as fh:
            self.digests = json.load(fh).get(workload.name, {}) if not overrides else {}

    def run_pass(self, index: int, workers: int, mode: str) -> dict | None:
        """One pipeline pass in a fresh interpreter; None if it raised.  A
        pass whose outputs differ from the recorded digests counts as failed
        but still returns its measurements."""
        self.attempted += 1
        seed = plan_seed(self.seed, index)
        spec = {"workload": self.workload.name, "plan_seed": seed, "workers": workers,
                "mode": mode, "out_dir": str(OUT_DIR / f"{self.workload.name}-{mode}"),
                **self.overrides}
        env = {k: v for k, v in os.environ.items() if k != "OEE_THREADS"}
        cmd = [sys.executable, "-I", str(BENCH / "pipeline.py"), json.dumps(spec)]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            log(f"pass {index} ({mode}) ran past the run's time limit")
            self.failed += 1
            return None
        if proc.returncode != 0:
            log(f"pass {index} ({mode}) exited with {proc.returncode}")
            self.failed += 1
            return None
        result = json.loads(out.strip().splitlines()[-1])
        result["plan_seed"] = seed
        log(f"pass {index} {mode:5s} plan_seed={seed} workers={workers} "
            f"setup={result['setup_s']:.3f}s ensemble={result['ensemble_s']:.3f}s "
            f"total={result['total_s']:.3f}s records={result['records']} "
            f"csv={result['csv_digest'][:16]} report={result['report_digest'][:16]}")
        got = [result["csv_digest"], result["report_digest"]]
        want = self.digests.get(str(seed))
        if want is None:
            self.unchecked += 1
            want = self.seen.get(seed)
            log(f"pass {index}: no recorded digests for plan_seed={seed}; "
                + ("compared with an earlier pass of this plan" if want else "unchecked"))
        self.seen.setdefault(seed, got)
        if want and want != got:
            log(f"pass {index}: digests differ from {want}")
            self.failed += 1
        return result


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def timed_run(run: Run, seconds: float) -> tuple[dict, bool]:
    """End-to-end metrics from untouched passes at the workload's workers."""
    start = time.monotonic()
    passes, last = [], 0.0
    index = 0
    while index < MIN_PASSES or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        result = run.run_pass(index, run.workload.workers, "plain")
        last = time.monotonic() - began
        index += 1
        if result is not None:
            passes.append(result)
    if not passes:
        return {}, False
    med = lambda key: statistics.median(p[key] for p in passes)
    metrics = {
        "runs_per_s": sum(p["records"] for p in passes) / sum(p["ensemble_s"] for p in passes),
        "setup_s": med("setup_s"),
        "total_s": statistics.fmean(p["total_s"] for p in passes),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    return metrics, True


def traced_run(run: Run) -> tuple[dict, bool]:
    """Per-layer metrics from a traced pass, checked against a counting pass,
    with plain one- and two-worker passes of the same plan as baselines."""
    counted = run.run_pass(0, 1, "count")
    traced = run.run_pass(0, 1, "trace")
    serial = run.run_pass(0, 1, "plain")
    pooled = run.run_pass(0, 2, "plain")
    if None in (counted, traced, serial, pooled):
        return {}, False
    log(f"exact counts, counting pass: {counted['counts']}")
    log(f"exact counts, traced pass:   {traced['counts']}")
    ok = counted["counts"] == traced["counts"]
    if not ok:
        log("tracing changed the work done")
    layers = dict(traced["layers"])
    layers.update(traced["counts"])
    layers["variants.steps_per_s"] = (layers["variants.steps"]
                                      / layers["variants.run_trajectory_s"])
    rate = lambda p: p["records"] / p["ensemble_s"]
    layers["ensemble.scaling_eff"] = rate(pooled) / (2 * rate(serial))
    layers["trace.overhead_frac"] = traced["ensemble_s"] / serial["ensemble_s"] - 1
    return layers, ok


def measure(workload, seed: int, seconds: float, trace: bool,
            overrides: dict | None = None) -> dict | None:
    run = Run(workload, seed, overrides)
    metrics, ok = traced_run(run) if trace else timed_run(run, seconds)
    if not metrics:
        return None
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    for name in units:
        log(f"{workload.name:14s} {name:34s} {metrics[name]:.6g} {units[name]}")
    log(f"{workload.name:14s} failed_frac {run.failed}/{run.attempted} = "
        f"{run.failed / run.attempted:.3g}; {run.unchecked} passes without recorded digests")
    return {
        "correct": ok and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def record_digests(seeds) -> None:
    """Run the plans of the first passes of every seed in ``seeds``, in this
    process (outputs do not depend on caches), and store their digests."""
    import pipeline
    table = {}
    for workload in WORKLOADS.values():
        table[workload.name] = {}
        for seed in seeds:
            for index in range(PLANS_PER_SEED):
                spec = {"workload": workload.name, "plan_seed": plan_seed(seed, index),
                        "workers": workload.workers, "mode": "plain",
                        "out_dir": str(OUT_DIR / "digests")}
                result = pipeline.main(spec)
                log(f"{workload.name} plan_seed={spec['plan_seed']} "
                    f"csv={result['csv_digest'][:16]} report={result['report_digest'][:16]}")
                table[workload.name][str(spec["plan_seed"])] = [
                    result["csv_digest"], result["report_digest"]]
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oee_ca" / "__init__.py").is_file():
        log(f"no oee_ca package under {ROOT / 'src'}; run from a checkout")
        return 2
    if args.record_digests:
        record_digests(DIGEST_SEEDS)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    if args.workload != "all":
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    results = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            results.setdefault(name, {})["trace" if trace else "timed"] = measure(
                workload, args.seed, args.seconds, trace)
    print_table(results)
    print(json.dumps(results))
    return 0 if all(r and r["correct"] for w in results.values() for r in w.values()) else 1


def print_table(results: dict) -> None:
    names = list(results)
    units = END_TO_END_UNITS | LAYER_UNITS
    print(f"{'metric':36s}" + "".join(f"{n:>16s}" for n in names))

    def row(label: str, cells) -> None:
        print(f"{label:36s}" + "".join(f"{c:16.6g}" if c is not None else f"{'-':>16s}"
                                       for c in cells))

    for metric in END_TO_END_UNITS:
        row(f"{metric} ({units[metric]})",
            [r["metrics"][metric]["value"] if (r := results[n]["timed"]) else None
             for n in names])
    # a run that produced no metrics counts as one failed pass
    row("failed_frac (passes)",
        [sum(r["failed"] if r else 1 for r in results[n].values())
         / sum(r["attempted"] if r else 1 for r in results[n].values()) for n in names])
    for metric in LAYER_UNITS:
        row(f"{metric} ({units[metric]})",
            [r["metrics"][metric]["value"] if (r := results[n]["trace"]) else None
             for n in names])


if __name__ == "__main__":
    sys.exit(main())
