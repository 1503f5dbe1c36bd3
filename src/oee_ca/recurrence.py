"""Cycle detection on full-system snapshots and the derived timescales.

For a deterministic trajectory with pre-period P and minimal period L, the
organism's projected state (or rule) sequence has its own minimal period
``lam`` dividing L and its own pre-period ``p``; the recurrence time is
``t_rec = p + lam``, the step at which the projection first completes a full
repetition.  Unbounded evolution compares these against the Poincare bound
``t_P = 2**w_o`` of an equivalent isolated system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .variants import Trajectory, Variant


@dataclass(frozen=True)
class CycleInfo:
    pre_period: int   # P
    period: int       # L, the full-system attractor size

    def __post_init__(self):
        if self.pre_period < 0 or self.period < 1:
            raise ValueError("need pre_period >= 0 and period >= 1")


@dataclass(frozen=True)
class RecurrenceReport:
    t_P: int
    t_r: int | None            # state recurrence of o (None if censored)
    t_r_rule: int | None       # rule recurrence of o
    t_a: int | None            # full-system attractor size
    ue: bool | None            # None when censored
    attractor_ue: bool | None
    censored: bool = False


def poincare_time(w_o: int) -> int:
    if not 3 <= w_o <= 64:
        raise ValueError("w_o must be in [3, 64]")
    return 1 << w_o


def detect_cycle(traj: Trajectory) -> CycleInfo | None:
    """Minimal (P, L) of a deterministic trajectory; None when censored."""
    if not traj.config.variant.deterministic:
        raise ValueError("cycle detection applies to deterministic variants only")
    if traj.cap_hit or traj.repeat_time is None:
        return None
    return CycleInfo(traj.first_seen, traj.repeat_time - traj.first_seen)


@lru_cache(maxsize=4096)
def _proper_divisors(n: int) -> tuple[int, ...]:
    """The divisors of ``n`` below ``n``, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(d for d in sorted({*small, *(n // d for d in small)}) if d < n)


def projected_recurrence(sequence: list, cycle: CycleInfo) -> tuple[int, int, int]:
    """(p, lam, t_rec) of a projected sequence of a trajectory with known
    full-system cycle.  ``sequence`` must cover indices 0 .. P+L."""
    P, L = cycle.pre_period, cycle.period
    if len(sequence) < P + L + 1:
        raise ValueError("sequence must cover the pre-period plus one full cycle")

    # the smallest d dividing L with sequence[t + d] == sequence[t] over one
    # cycle; d == L always holds, since the full system repeats with period L
    lam = L
    first = sequence[P]
    for d in _proper_divisors(L):
        if sequence[P + d] == first and sequence[P + d:P + L] == sequence[P:P + L - d]:
            lam = d
            break

    p = P
    while p > 0 and sequence[p - 1 + lam] == sequence[p - 1]:
        p -= 1
    return p, lam, p + lam


def case3_convergence_time(traj: Trajectory) -> tuple[int | None, bool]:
    """(first step with homogeneous s_o, censored flag)."""
    if traj.config.variant is not Variant.CASE_III:
        raise ValueError("convergence time applies to Case III trajectories")
    if traj.cap_hit:
        return None, True
    return traj.convergence_time, False


def ue_flag(t_P: int, t_r: int | None, t_r_rule: int | None) -> bool | None:
    """Definition of unbounded evolution; strict inequalities, censored
    inputs propagate None (never a false positive)."""
    if t_r is None and t_r_rule is None:
        return None
    checks = [t > t_P for t in (t_r, t_r_rule) if t is not None]
    return any(checks)


def attractor_ue_flag(cycle: CycleInfo | None, t_P: int) -> bool | None:
    if cycle is None:
        return None
    return cycle.period > t_P


def build_report(traj: Trajectory) -> RecurrenceReport:
    """Full recurrence analysis of one trajectory."""
    t_P = poincare_time(traj.config.w_o)
    if traj.config.variant is Variant.CASE_III:
        t_r, censored = case3_convergence_time(traj)
        return RecurrenceReport(
            t_P=t_P, t_r=t_r, t_r_rule=None, t_a=None,
            ue=None if censored else (t_r > t_P),
            attractor_ue=None, censored=censored)

    cycle = detect_cycle(traj)
    if cycle is None:
        return RecurrenceReport(t_P=t_P, t_r=None, t_r_rule=None, t_a=None,
                                ue=None, attractor_ue=None, censored=True)
    _, _, t_r = projected_recurrence(traj.states, cycle)
    _, _, t_r_rule = projected_recurrence(traj.rules, cycle)
    return RecurrenceReport(
        t_P=t_P, t_r=t_r, t_r_rule=t_r_rule, t_a=cycle.period,
        ue=ue_flag(t_P, t_r, t_r_rule),
        attractor_ue=attractor_ue_flag(cycle, t_P))
