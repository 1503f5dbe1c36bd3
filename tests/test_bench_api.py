"""The package names the benchmark (``bench/``) wraps and calls still exist.

``bench/selftest.py`` checks the benchmark end to end but takes about 30 s;
this test only resolves the names, by running ``bench/pipeline.install``
against a tracer stub that records what it is asked to wrap.
"""

import importlib.util
import sys
from pathlib import Path

from oee_ca.variants import Trajectory

BENCH = Path(__file__).resolve().parent.parent / "bench"


class RecordingTracer:
    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, count=None):
        self.wrapped.append((module, attr))


def load_pipeline(monkeypatch):
    # the module puts src/ and bench/ on sys.path; monkeypatch restores it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_pipeline", BENCH / "pipeline.py")
    pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pipeline)
    return pipeline


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
