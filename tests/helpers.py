"""Shared test utilities: light-weight ensemble statistics and naive oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass

from oee_ca.complexity import EXTINCT, fit_exponent
from oee_ca.eca import (
    BitState,
    _rotate_left_cells,
    _rotate_right_cells,
    triplet_counts_bits,
)
from oee_ca.ensemble import SamplePlan, config_for_tuple, draw_plan, innovation_window
from oee_ca.recurrence import CycleInfo, build_report
from oee_ca.variants import (
    SystemSnapshot,
    Trajectory,
    Variant,
    VariantConfig,
    default_step_cap,
    execution_rng,
    run_trajectory,
    system_step,
)


@dataclass(frozen=True)
class LightStats:
    oee_percent: float
    inn_percent: float
    ue_percent: float
    n_live: int
    n_censored: int


def light_stats(plan: SamplePlan, tuples=None) -> LightStats:
    """OEE/INN/UE percentages without the complexity pipeline (fast path)."""
    if tuples is None:
        tuples = draw_plan(plan)
    n = n_oee = n_inn = n_ue = n_cens = 0
    for i, tup in enumerate(tuples):
        config = config_for_tuple(plan, i, tup)
        traj = run_trajectory(config, plan.step_cap)
        rep = build_report(traj)
        if rep.censored:
            n_cens += 1
            continue
        n += 1
        _, inn = innovation_window(traj, rep.t_r)
        n_inn += inn
        n_ue += bool(rep.ue)
        n_oee += bool(rep.ue and inn)
    if n == 0:
        raise ValueError("all executions censored")
    return LightStats(100.0 * n_oee / n, 100.0 * n_inn / n, 100.0 * n_ue / n,
                      n, n_cens)


def scalar_trajectory(config: VariantConfig, cap: int | None = None) -> Trajectory:
    """``run_trajectory`` one ``system_step`` snapshot at a time, with a
    tuple key per snapshot (oracle of the packed loop)."""
    if cap is None:
        cap = default_step_cap(config)
    snap = SystemSnapshot(0, config.s_o, config.r_o, config.s_e)
    snapshots = [snap]
    end = {}  # the stop condition's fields; empty when the cap is hit
    if config.variant is Variant.CASE_III:
        rng = execution_rng(config.seed)
        if snap.s_o.is_homogeneous():
            end = dict(convergence_time=0)
        else:
            for t in range(1, cap + 1):
                snap = system_step(config, snap, rng)
                snapshots.append(snap)
                if snap.s_o.is_homogeneous():
                    end = dict(convergence_time=t)
                    break
    else:
        seen = {snap.key(): 0}
        for t in range(1, cap + 1):
            snap = system_step(config, snap)
            snapshots.append(snap)
            first = seen.get(snap.key())
            if first is not None:
                end = dict(first_seen=first, repeat_time=t)
                break
            seen[snap.key()] = t
    envs = ([s.s_e.bits for s in snapshots] if config.variant.has_environment else None)
    return Trajectory(config, [s.s_o.bits for s in snapshots], [s.r_o for s in snapshots],
                      envs, cap_hit=not end, **end)


def scalar_lyapunov(config: VariantConfig, perturb_bit: int = 0, horizon: int = 16,
                    rng_seed: int | None = None, base=None) -> float | str:
    """``lyapunov`` re-simulating the base run beside the perturbed one with
    ``system_step`` (oracle; ``base`` is accepted and ignored)."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    w_o = config.w_o
    if not 0 <= perturb_bit < w_o:
        raise ValueError("perturb_bit out of range")

    base = SystemSnapshot(0, config.s_o, config.r_o, config.s_e)
    pert_s = BitState(config.s_o.bits ^ (1 << (w_o - 1 - perturb_bit)), w_o)
    pert = SystemSnapshot(0, pert_s, config.r_o, config.s_e)

    rng_a = rng_b = None
    if config.variant is Variant.CASE_III:
        seed = config.seed if rng_seed is None else rng_seed
        rng_a = execution_rng(seed)
        rng_b = execution_rng(seed)

    ys = []
    for _ in range(horizon):
        base = system_step(config, base, rng_a)
        pert = system_step(config, pert, rng_b)
        y = (base.s_o.bits ^ pert.s_o.bits).bit_count()
        ys.append(y)
        if y == 0 or y == w_o:
            break
    if ys[0] == 0:
        return EXTINCT
    return fit_exponent(ys)


def scalar_is_eca_reproducible(states: list[int], width: int) -> int | None:
    """``is_eca_reproducible`` three ``BitState.cell`` reads per cell, each
    (neighborhood -> next cell) pair pinning one rule bit (oracle)."""
    states = [BitState(s, width) for s in states]
    if len(states) < 2:
        raise ValueError("need at least 2 states")
    required: dict[int, int] = {}  # neighborhood value -> output bit
    for a, b in zip(states, states[1:]):
        for p in range(width):
            v = (a.cell(p - 1) << 2) | (a.cell(p) << 1) | a.cell(p + 1)
            out = b.cell(p)
            prev = required.get(v)
            if prev is None:
                required[v] = out
            elif prev != out:
                return None
    rule = 0
    for v, out in required.items():
        rule |= out << v
    return rule


def serialize_trajectory(states: list[BitState]) -> str:
    """Row-major concatenation of cell bits, one row per time step (oracle
    of ``serialize_states``)."""
    if not states:
        raise ValueError("need at least one state")
    return "".join(s.to_string() for s in states)


def scalar_compressibility(states: list[int], width: int,
                           norm_bits: int) -> tuple[int, float]:
    """``compressibility`` through ``BitState.to_string`` and the
    string-keyed LZW (oracle)."""
    if norm_bits <= 0:
        raise ValueError("norm_bits must be positive")
    symbols = serialize_trajectory([BitState(s, width) for s in states])
    bits = sum(code_width for _, code_width in lzw_compress(symbols))
    return bits, bits / norm_bits


def scalar_projected_recurrence(sequence, cycle: CycleInfo) -> tuple[int, int, int]:
    """``projected_recurrence`` with one generator per divisor (oracle)."""
    P, L = cycle.pre_period, cycle.period
    if len(sequence) < P + L + 1:
        raise ValueError("sequence must cover the pre-period plus one full cycle")

    def divisors(n):
        ds = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
        return sorted(set(ds + [n // d for d in ds]))

    lam = L
    for d in divisors(L):
        if all(sequence[t + d] == sequence[t] for t in range(P, P + L - d)):
            lam = d
            break

    p = P
    while p > 0 and sequence[p - 1 + lam] == sequence[p - 1]:
        p -= 1
    return p, lam, p + lam


def naive_step_bits(rule_number: int, bits: int, width: int) -> int:
    """``step_bits`` as the OR over the rule's set bits ``v`` of the cells
    whose (left, center, right) neighborhood reads as ``v`` (oracle)."""
    mask = (1 << width) - 1
    c = bits
    # cell p's left neighbor is cell p-1: every position takes the value one
    # step to its left, i.e. the cell array rotated right.
    left = _rotate_right_cells(bits, width)
    right = _rotate_left_cells(bits, width)
    out = 0
    for v in range(8):
        if (rule_number >> v) & 1:
            term = (left if v & 4 else ~left) & (c if v & 2 else ~c) & (right if v & 1 else ~right)
            out |= term
    return out & mask


def scalar_step_table(rule_number: int, width: int) -> tuple[int, ...]:
    """``step_table`` one ``naive_step_bits`` call per state (oracle)."""
    return tuple(naive_step_bits(rule_number, s, width) for s in range(1 << width))


def scalar_count_table(width: int) -> tuple[tuple[int, ...], ...]:
    """``count_table`` one ``triplet_counts_bits`` call per state (oracle)."""
    return tuple(triplet_counts_bits(s, width) for s in range(1 << width))


def naive_cycle(step_fn, initial) -> tuple[int, int]:
    """(pre_period, period) by storing every visited value (test oracle)."""
    seen = {initial: 0}
    cur = initial
    t = 0
    while True:
        cur = step_fn(cur)
        t += 1
        if cur in seen:
            return seen[cur], t - seen[cur]
        seen[cur] = t


def lzw_compress(symbols: str) -> list[tuple[int, int]]:
    """LZW over {0,1} with an unbounded dictionary; returns a list of
    (code, code_width_bits) pairs (string-keyed oracle)."""
    if not symbols:
        raise ValueError("empty input")
    dictionary = {"0": 0, "1": 1}
    out = []
    cur = ""
    for ch in symbols:
        nxt = cur + ch
        if nxt in dictionary:
            cur = nxt
            continue
        out.append((dictionary[cur], _code_width(len(dictionary))))
        dictionary[nxt] = len(dictionary)
        cur = ch
    out.append((dictionary[cur], _code_width(len(dictionary))))
    return out


def _code_width(dict_size: int) -> int:
    return max(1, math.ceil(math.log2(dict_size)))


def lzw_decompress(codes: list[tuple[int, int]]) -> str:
    """Inverse of lzw_compress (round-trip check of the oracle)."""
    dictionary = {0: "0", 1: "1"}
    out = []
    prev = None
    for code, _ in codes:
        if code in dictionary:
            entry = dictionary[code]
        elif prev is not None and code == len(dictionary):
            entry = prev + prev[0]
        else:
            raise ValueError(f"bad LZW code {code}")
        out.append(entry)
        if prev is not None:
            dictionary[len(dictionary)] = prev + entry[0]
        prev = entry
    return "".join(out)


def scalar_normalization_constant(w: int, samples: int, steps: int, seed: int) -> int:
    """The normalization constant one sample and one step at a time:
    ``naive_step_bits`` per step, ``format`` per row and the string LZW
    (oracle)."""
    run_steps = min(steps, 1 << min(2 * w, 62))
    rng = execution_rng(seed)
    best = 0
    for _ in range(samples):
        rule = int(rng.integers(0, 256))
        bits = int(rng.integers(0, 1 << w))
        rows = [format(bits, f"0{w}b")]
        cur = bits
        for _ in range(run_steps):
            cur = naive_step_bits(rule, cur, w)
            rows.append(format(cur, f"0{w}b"))
        best = max(best, sum(width for _, width in lzw_compress("".join(rows))))
    return best
