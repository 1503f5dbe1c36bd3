"""Shared test utilities: light-weight ensemble statistics and naive oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oee_ca.complexity import EXTINCT, fit_exponent, lyapunov, lzw_phrase_count, lzw_size_bits
from oee_ca.eca import (
    _rotate_left_cells,
    _rotate_right_cells,
    canonical_rules,
    step_table,
    stepper,
    triplet_counts_bits,
)
from oee_ca.ensemble import SamplePlan, config_for_tuple, draw_plan, innovation_window
from oee_ca.recurrence import CycleInfo, build_report
from oee_ca.variants import (
    Trajectory,
    Variant,
    VariantConfig,
    case1_update_bits,
    default_step_cap,
    execution_rng,
    run_trajectory,
)


# --- rule tables ----------------------------------------------------------------

@dataclass(frozen=True)
class RuleTable:
    """An ECA rule as the ordered 8-tuple of outputs over S3 (111 first)."""

    outputs: tuple[int, ...]

    def __post_init__(self):
        if len(self.outputs) != 8 or any(b not in (0, 1) for b in self.outputs):
            raise ValueError("rule table needs exactly 8 binary outputs")

    @property
    def number(self) -> int:
        return rule_to_number(self)


def rule_from_number(n: int) -> RuleTable:
    """Rule table for rule number ``n``; outputs ordered per S3 (MSB first)."""
    if not 0 <= n <= 255:
        raise ValueError(f"rule number out of range: {n}")
    return RuleTable(tuple((n >> (7 - i)) & 1 for i in range(8)))


def rule_to_number(table: RuleTable) -> int:
    n = 0
    for b in table.outputs:
        n = (n << 1) | b
    return n


# --- one system step at a time ------------------------------------------------

@dataclass(frozen=True)
class SystemSnapshot:
    t: int
    s_o: int
    r_o: int
    s_e: int | None = None

    def key(self) -> tuple:
        # r_e is constant along a trajectory, so (s_o, s_e, r_o) identifies
        # the full system state.
        return (self.s_o, self.r_o, self.s_e)


def case3_update_bits(r_o: int, mu: float, rng: np.random.Generator) -> int:
    """Case III's rule update: exactly 8 draws per call, consumed in S3 index
    order (bit 7 downward); draw i flips rule bit 7 - i when below mu."""
    draws = rng.random(8)
    out = r_o
    for i in range(8):
        if draws[i] < mu:
            out ^= 1 << (7 - i)
    return out


def system_step(config: VariantConfig, snap: SystemSnapshot,
                rng: np.random.Generator | None = None) -> SystemSnapshot:
    """Advance the coupled system one step (rule update first, then states)."""
    w_o, w_e = config.w_o, config.w_e
    variant = config.variant
    if variant is Variant.CASE_I:
        r_new = case1_update_bits(snap.s_o, w_o, snap.r_o, snap.s_e, w_e)
    elif variant is Variant.CASE_II:
        r_new = snap.s_e
    elif variant is Variant.CASE_III:
        r_new = case3_update_bits(snap.r_o, config.mu, rng)
    else:
        r_new = snap.r_o
    s_o_new = stepper(r_new, w_o)(snap.s_o)
    s_e_new = None
    if variant.has_environment:
        s_e_new = stepper(config.r_e, w_e)(snap.s_e)
    return SystemSnapshot(snap.t + 1, s_o_new, r_new, s_e_new)


def render_rows(variant: Variant, w_o: int, w_e: int, steps: int,
                start: tuple[int, int, int, int]) -> list[int]:
    """Organism rows 0..steps of ``oee-ca render`` from ``start`` = (r_o,
    r_e, s_o, s_e), stepped ``steps`` times with ``naive_step_bits`` and
    no cycle stop (oracle)."""
    r_o, r_e, s_o, s_e = start
    rows = [s_o]
    for _ in range(steps):
        if variant is Variant.CASE_I:
            r_o = case1_update_bits(s_o, w_o, r_o, s_e, w_e)
        elif variant is Variant.CASE_II:
            r_o = s_e
        s_o = naive_step_bits(r_o, s_o, w_o)
        if variant.has_environment:
            s_e = naive_step_bits(r_e, s_e, w_e)
        rows.append(s_o)
    return rows


def exhaustive_plan_tuples(plan: SamplePlan) -> list[tuple]:
    """Every tuple of the plan's space, in lexicographic order."""
    canon = canonical_rules()
    if plan.variant in (Variant.ISOLATED, Variant.CASE_III):
        return [(r_o, s_o) for r_o in canon for s_o in range(1 << plan.w_o)]
    return [(r_o, r_e, s_o, s_e) for r_o in canon for r_e in canon
            for s_o in range(1 << plan.w_o) for s_e in range(1 << plan.w_e)]


def lyapunov_mean(config: VariantConfig, horizon: int = 16) -> float | str:
    """k averaged over all w_o perturbation positions (extinct ones skipped);
    "extinct" when every position is extinct."""
    base = run_trajectory(config, cap=horizon)
    vals = [lyapunov(base, b, horizon) for b in range(config.w_o)]
    finite = [v for v in vals if v != EXTINCT]
    if not finite:
        return EXTINCT
    return float(np.mean(finite))


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
    homogeneous = (0, (1 << config.w_o) - 1)
    if config.variant is Variant.CASE_III:
        rng = execution_rng(config.seed)
        if snap.s_o in homogeneous:
            end = dict(convergence_time=0)
        else:
            for t in range(1, cap + 1):
                snap = system_step(config, snap, rng)
                snapshots.append(snap)
                if snap.s_o in homogeneous:
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
    envs = ([s.s_e for s in snapshots] if config.variant.has_environment else None)
    return Trajectory(config, [s.s_o for s in snapshots], [s.r_o for s in snapshots],
                      envs, cap_hit=not end, **end)


def scalar_lyapunov(config: VariantConfig, perturb_bit: int = 0,
                    horizon: int = 16) -> float | str:
    """``lyapunov`` of the run of ``config``, re-simulating the base run
    beside the perturbed one with ``system_step`` (oracle)."""
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    w_o = config.w_o
    if not 0 <= perturb_bit < w_o:
        raise ValueError("perturb_bit out of range")

    base = SystemSnapshot(0, config.s_o, config.r_o, config.s_e)
    pert_s = config.s_o ^ (1 << (w_o - 1 - perturb_bit))
    pert = SystemSnapshot(0, pert_s, config.r_o, config.s_e)

    rng_a = rng_b = None
    if config.variant is Variant.CASE_III:
        rng_a = execution_rng(config.seed)
        rng_b = execution_rng(config.seed)

    ys = []
    for _ in range(horizon):
        base = system_step(config, base, rng_a)
        pert = system_step(config, pert, rng_b)
        y = (base.s_o ^ pert.s_o).bit_count()
        ys.append(y)
        if y == 0 or y == w_o:
            break
    if ys[0] == 0:
        return EXTINCT
    return fit_exponent(ys)


def cell(bits: int, p: int, width: int) -> int:
    """Cell ``p`` (periodic) of a packed state, cell 0 in the MSB."""
    return (bits >> (width - 1 - p % width)) & 1


def scalar_is_eca_reproducible(states: list[int], width: int) -> int | None:
    """``is_eca_reproducible`` three ``cell`` reads per cell, each
    (neighborhood -> next cell) pair pinning one rule bit (oracle)."""
    if len(states) < 2:
        raise ValueError("need at least 2 states")
    required: dict[int, int] = {}  # neighborhood value -> output bit
    for a, b in zip(states, states[1:]):
        for p in range(width):
            v = (cell(a, p - 1, width) << 2) | (cell(a, p, width) << 1) | cell(a, p + 1, width)
            out = cell(b, p, width)
            prev = required.get(v)
            if prev is None:
                required[v] = out
            elif prev != out:
                return None
    rule = 0
    for v, out in required.items():
        rule |= out << v
    return rule


def serialize_trajectory(states: list[int], width: int) -> str:
    """Row-major concatenation of the ``width`` cell bits of each packed
    state, one row per time step (oracle of ``serialize_states``)."""
    if not states:
        raise ValueError("need at least one state")
    return "".join(format(s, f"0{width}b") for s in states)


def scalar_compressibility(states: list[int], width: int,
                           norm_bits: int) -> tuple[int, float]:
    """``compressibility`` through ``serialize_trajectory`` and the
    string-keyed LZW (oracle)."""
    if norm_bits <= 0:
        raise ValueError("norm_bits must be positive")
    symbols = serialize_trajectory(states, width)
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
    """One step of a packed state (``eca.stepper``) as the OR over the
    rule's set bits ``v`` of the cells whose (left, center, right)
    neighborhood reads as ``v`` (oracle)."""
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


_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


def lzw_compress_bits(symbols: str) -> int:
    """LZW compressed size of a '0'/'1' string in variable-width code bits,
    through the phrase-count trie and the closed-form size."""
    if symbols.strip("01"):
        raise ValueError("LZW input must be a string of '0' and '1'")
    return lzw_size_bits(lzw_phrase_count(symbols.encode().translate(_TO_BITS)))


# --- brute-force counterfactual set -------------------------------------------

@dataclass
class CounterfactualSet:
    """All isolated-ECA trajectories of one width, with containment queries."""

    width: int
    # trajectories[rule][init] = state sequence up to (and including) the
    # first repeated state
    trajectories: list[list[list[int]]]

    def contains(self, states: list[int], width: int) -> bool:
        """Exact contiguous containment of a window of packed ``width``-cell
        states in some isolated trajectory.

        Any occurrence of the window's first state inside a rule-r trajectory
        continues deterministically, so it suffices to iterate each rule's
        transition map from states[0].
        """
        if width != self.width:
            raise ValueError("width mismatch with counterfactual set")
        first, rest = states[0], states[1:]
        for rule in range(256):
            table = step_table(rule, self.width)
            cur = first
            for want in rest:
                cur = table[cur]
                if cur != want:
                    break
            else:
                return True
        return False


def brute_force_counterfactual(width: int) -> CounterfactualSet:
    """Enumerate all 256 rules x 2**width initial states (oracle of the
    single-rule consistency that ``is_eca_reproducible`` decides)."""
    if not 3 <= width <= 5:
        raise ValueError("counterfactual enumeration is bounded to widths 3..5")
    trajectories = []
    for rule in range(256):
        table = step_table(rule, width)
        per_rule = []
        for init in range(1 << width):
            seen = {init: 0}
            seq = [init]
            cur = init
            while True:
                cur = table[cur]
                seq.append(cur)
                if cur in seen:
                    break
                seen[cur] = len(seq) - 1
            per_rule.append(seq)
        trajectories.append(per_rule)
    return CounterfactualSet(width, trajectories)
