"""The benchmark's workloads: the ensemble plan each one runs, and why.

Every workload uses the CLI's default normalization settings (1000 samples x
1024 steps), so its set-up is what a user pays on an ``ensemble`` call
without ``--norm-cache``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Each timed run makes at least this many fresh-interpreter pipeline passes,
# each on its own plan, so set-up and the ensemble are measured several times.
MIN_PASSES = 3
# Distinct plans per run seed; later passes repeat them.
PLANS_PER_SEED = 6


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str            # CLI variant name
    w_o: int
    w_e: int | None
    mu: float | None
    samples: int
    workers: int
    norm_samples: int = 1000
    norm_steps: int = 1024


WORKLOADS = {w.name: w for w in (
    # Many short table-path runs (mean 6 steps): per-execution overhead,
    # Lyapunov and recurrence bookkeeping dominate.
    Workload("case1-w4x4", "case1", 4, 4, None, samples=10_000, workers=1),
    # w_e > 12 takes the generic system_step path; trajectories are
    # heavy-tailed (mean about 150 steps, thousands at the tail), so the
    # trajectory stage is about 80% of execution time.
    Workload("case1-w6x13", "case1", 6, 13, None, samples=2_000, workers=1),
    # RNG-driven with no cycle detection and Lyapunov-heavy; the only
    # workload on the process pool, so pickling, chunking and scaling show.
    Workload("case3-w6-par2", "case3", 6, None, 0.5, samples=10_000, workers=2),
)}


def plan_seed(seed: int, index: int) -> int:
    """Master seed of the plan run by pass ``index`` of a run with ``seed``.
    Passes cycle through ``PLANS_PER_SEED`` plans, so every pass of a seed
    whose plans have recorded digests is checked against them."""
    return seed * 1000 + index % PLANS_PER_SEED
