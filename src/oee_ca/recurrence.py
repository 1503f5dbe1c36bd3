"""Recurrence times and the UE flags derived from a run's full-system cycle.

For a deterministic trajectory with pre-period P and minimal period L, read
by ``variants.detect_cycle``, the organism's projected state (or rule)
sequence has its own minimal period ``lam`` dividing L and its own
pre-period ``p``; the recurrence time is ``t_rec = p + lam``, the step at
which the projection first completes a full repetition.  Unbounded evolution
compares these against the Poincare bound ``t_P = 2**w_o`` of an equivalent
isolated system (``ue_flag``); the attractor flag compares the full-system
period L against it.  Case III has no cycle: its recurrence time is the
first step with a homogeneous organism state, the last step of an
uncensored trajectory, and a capped run is censored.

``RecurrenceReport`` is a slotted dataclass that nothing mutates after
construction; it is not frozen, so it is not hashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .variants import Trajectory, detect_cycle


@dataclass(slots=True)
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


@lru_cache(maxsize=4096)
def _proper_divisors(n: int) -> tuple[int, ...]:
    """The divisors of ``n`` below ``n``, ascending."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(d for d in sorted({*small, *(n // d for d in small)}) if d < n)


def projected_recurrence(sequence: list, P: int, L: int) -> tuple[int, int, int]:
    """(p, lam, t_rec) of a projected sequence of a trajectory whose
    full-system cycle is (P, L).  ``sequence`` must cover indices 0 .. P+L."""
    if P < 0 or L < 1:
        raise ValueError("need P >= 0 and L >= 1")
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


def ue_flag(t_P: int, t_r: int | None, t_r_rule: int | None) -> bool | None:
    """Definition of unbounded evolution; strict inequalities, censored
    inputs propagate None (never a false positive)."""
    if t_r is None and t_r_rule is None:
        return None
    return (t_r is not None and t_r > t_P) or (t_r_rule is not None and t_r_rule > t_P)


def build_report(traj: Trajectory) -> RecurrenceReport:
    """Full recurrence analysis of one trajectory.  The report is built
    positionally: (t_P, t_r, t_r_rule, t_a, ue, attractor_ue, censored)."""
    t_P = poincare_time(traj.config.w_o)
    if traj.cap_hit:
        return RecurrenceReport(t_P, None, None, None, None, None, True)
    if not traj.config.variant.deterministic:
        t_r = len(traj.states) - 1
        return RecurrenceReport(t_P, t_r, None, None, t_r > t_P, None)

    P, L = detect_cycle(traj)
    _, _, t_r = projected_recurrence(traj.states, P, L)
    _, _, t_r_rule = projected_recurrence(traj.rules, P, L)
    return RecurrenceReport(t_P, t_r, t_r_rule, L, ue_flag(t_P, t_r, t_r_rule), L > t_P)
