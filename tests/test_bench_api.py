"""The package names the benchmark (``bench/``) wraps and calls still exist.

``bench/selftest.py`` checks the benchmark end to end but takes about 30 s;
this test only resolves the names, by running ``bench/pipeline.install``
against a tracer stub that records what it is asked to wrap.
"""

from helpers import load_pipeline
from oee_ca.variants import Trajectory


class RecordingTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, count=None):
        self.wrapped.append((module, attr))


def test_benchmark_names_resolve(monkeypatch):
    pipeline = load_pipeline(monkeypatch)
    tracer = RecordingTracer()
    pipeline.install(tracer, 4)
    assert tracer.wrapped
    missing = [f"{module.__name__}.{attr}" for module, attr in tracer.wrapped
               if not callable(getattr(module, attr, None))]
    assert missing == []
    assert callable(Trajectory.state_sequence)


def test_benchmark_workloads_make_valid_plans(monkeypatch):
    pipeline = load_pipeline(monkeypatch)
    for workload in pipeline.WORKLOADS.values():
        plan = pipeline.make_plan(workload, 0)
        assert (plan.w_o, plan.sample_count) == (workload.w_o, workload.samples)


# The per-layer metrics of a traced pass: ``bench/tracer.layer_metrics``'s
# keys plus the records CSV's size
LAYER_KEYS = {
    "variants.run_trajectory_s", "variants.first_run_s", "complexity.lyapunov_s",
    "complexity.compressibility_s", "complexity.norm_s", "recurrence.build_report_s",
    "recurrence.detect_cycle_s", "innovation.is_eca_reproducible_s",
    "ensemble.execute_self_s", "ensemble.exec_p50_us", "ensemble.exec_p99_us",
    "ensemble.draw_plan_s", "ensemble.aggregate_s", "io_formats.write_records_csv_s",
    "io_formats.write_report_json_s", "io_formats.read_records_csv_s",
    "io_formats.csv_bytes",
}


def test_traced_pass_counts_every_stage(monkeypatch, tmp_path):
    """A small traced pass of ``case1-w4x4`` in this process: the counters
    that read a run's states and the stages' positional arguments count
    work, every layer is timed, and the records CSV reads back."""
    from oee_ca.io_formats import read_records_csv

    pipeline = load_pipeline(monkeypatch)
    result = pipeline.main({"workload": "case1-w4x4", "plan_seed": 0, "workers": 1,
                            "mode": "trace", "out_dir": str(tmp_path),
                            "samples": 20, "norm_samples": 5})
    counts = result["counts"]
    assert counts["ensemble.records"] == result["records"] == 20
    assert counts["variants.steps"] > 0
    assert counts["innovation.window_states"] > 0
    assert counts["complexity.lzw_input_bits"] > 0
    assert set(result["layers"]) == LAYER_KEYS
    assert len(read_records_csv(result["csv_path"])) == 20
