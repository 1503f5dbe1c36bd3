"""One pipeline pass of a workload, meant to run in a fresh interpreter.

It drives ``oee_ca`` the way ``oee-ca ensemble`` does: draw the plan, compute
the normalization constant, run the ensemble, then write the records CSV,
aggregate and write the report JSON.  It prints one JSON object with the
pass's timings, peak RSS, output digests and, when counting or tracing, the
exact work counts.

    python3 -I bench/pipeline.py '<spec json>'

The spec names the workload, the plan seed, the worker count, the mode
(``plain``, ``count`` or ``trace``) and the output directory; optional keys
override the workload's sample count and normalization settings.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from oee_ca import complexity as cx  # noqa: E402
from oee_ca import ensemble as ens  # noqa: E402
from oee_ca import io_formats as iof  # noqa: E402
from oee_ca.variants import Variant  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def make_plan(workload, seed: int) -> ens.SamplePlan:
    return ens.SamplePlan(
        variant=Variant(workload.variant), w_o=workload.w_o, w_e=workload.w_e,
        mu=workload.mu, sample_count=workload.samples, master_seed=seed,
        norm_samples=workload.norm_samples, norm_steps=workload.norm_steps)


def install(tracer: Tracer, w_o: int) -> None:
    """Wrap every attribute that ``ensemble`` and ``complexity`` resolve at
    call time, plus the calls this pass makes itself."""
    t = tracer.wrap
    t(ens, "execute_tuple", "ensemble.execute_tuple")
    t(ens, "run_trajectory", "variants.run_trajectory",
      ("variants.steps", lambda args, traj: len(traj.state_sequence()) - 1))
    t(ens, "build_report", "recurrence.build_report")
    t(ens, "is_eca_reproducible", "innovation.is_eca_reproducible",
      ("innovation.window_states", lambda args, _: len(args[0])))
    t(ens, "detect_cycle", "recurrence.detect_cycle")
    t(cx, "compressibility", "complexity.compressibility",
      ("complexity.lzw_input_bits", lambda args, _: len(args[0]) * w_o))
    t(cx, "lyapunov", "complexity.lyapunov")
    t(cx, "normalization_constant", "complexity.normalization_constant")
    t(ens, "draw_plan", "ensemble.draw_plan")
    t(ens, "aggregate", "ensemble.aggregate")
    t(iof, "write_records_csv", "io_formats.write_records_csv")
    t(iof, "write_report_json", "io_formats.write_report_json")
    t(iof, "read_records_csv", "io_formats.read_records_csv")


def csv_digest(path: str) -> str:
    """SHA-256 of the records CSV without its ``#`` config-echo lines."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                h.update(line)
    return h.hexdigest()


def report_digest(path: str) -> str:
    """SHA-256 of the report JSON's ``report`` object, canonically dumped."""
    with open(path) as fh:
        report = json.load(fh)["report"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def run_pass(plan: ens.SamplePlan, workers: int, out_dir: str) -> dict:
    """Plan to report, timed in phases, as ``cmd_ensemble`` runs it."""
    csv_path = os.path.join(out_dir, "records.csv")
    json_path = os.path.join(out_dir, "report.json")
    echo = {"variant": plan.variant.value, "wo": plan.w_o, "we": plan.w_e,
            "mu": plan.mu, "samples": plan.sample_count, "seed": plan.master_seed,
            "workers": workers, "norm_samples": plan.norm_samples,
            "norm_steps": plan.norm_steps, "norm_seed": plan.norm_seed,
            "out": csv_path, "report": json_path, "effective_we": plan.w_e}
    t0 = perf_counter()
    tuples = ens.draw_plan(plan)
    cx.normalization_constant(plan.full_width, plan.norm_samples,
                              plan.norm_steps, plan.norm_seed)
    t1 = perf_counter()
    records = ens.run_ensemble(plan, workers=workers, tuples=tuples)
    t2 = perf_counter()
    iof.write_records_csv(records, csv_path, config_echo=echo)
    report = ens.aggregate(records)
    iof.write_report_json(report, json_path, config_echo=echo)
    t3 = perf_counter()
    return {"setup_s": t1 - t0, "ensemble_s": t2 - t1, "total_s": t3 - t0,
            "records": len(records), "csv_path": csv_path, "json_path": json_path}


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def main(spec: dict) -> dict:
    overrides = {k: spec[k] for k in ("samples", "norm_samples", "norm_steps") if k in spec}
    workload = replace(WORKLOADS[spec["workload"]], **overrides)
    plan = make_plan(workload, spec["plan_seed"])
    out_dir = spec["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    mode = spec["mode"]

    tracer = None
    if mode != "plain":
        tracer = Tracer(timed=(mode == "trace"))
        install(tracer, plan.w_o)
    try:
        result = run_pass(plan, spec["workers"], out_dir)
        if mode == "trace":
            records = iof.read_records_csv(result["csv_path"])
            if len(records) != result["records"]:
                raise RuntimeError("records CSV read back a different record count")
    finally:
        if tracer is not None:
            tracer.restore()

    result.update(peak_rss_mb=peak_rss_mb(),
                  csv_digest=csv_digest(result["csv_path"]),
                  report_digest=report_digest(result["json_path"]))
    if tracer is not None:
        result["counts"] = {"ensemble.records": result["records"], **tracer.counts}
    if mode == "trace":
        tracer.write_spans(os.path.join(out_dir, "spans.jsonl"))
        result["layers"] = layer_metrics(tracer.spans)
        result["layers"]["io_formats.csv_bytes"] = os.path.getsize(result["csv_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
