"""Shared test utilities: light-weight ensemble statistics and naive oracles."""

from __future__ import annotations

import csv
import importlib.util
import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from oee_ca.complexity import EXTINCT, fit_exponent, lyapunov, lzw_phrase_count, lzw_size_bits
from oee_ca.eca import (
    canonical_rules,
    neighborhood_masks,
    step_table,
    stepper,
    wolfram_class,
)
from oee_ca.ensemble import (
    BoxStats,
    EmptyReportError,
    EnsembleReport,
    SamplePlan,
    _mean,
    _quantile,
    draw_plan,
    flag_stages,
    sample_space_size,
    spearman,
)
from oee_ca.io_formats import CSV_COLUMNS, replacing, write_echo
from oee_ca.variants import (
    Trajectory,
    Variant,
    VariantConfig,
    case1_update_bits,
    default_step_cap,
    execution_rng,
    fixed_rule_run,
    gc_paused,
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
                start: tuple[int, int, int, int], mu: float | None = None,
                seed: int | None = None) -> list[int]:
    """Organism rows 0..steps of ``oee-ca run --steps steps --pgm`` from
    ``start`` = (r_o, r_e, s_o, s_e), stepped ``steps`` times with
    ``naive_step_bits`` and no stop at a repeat or a homogeneous state
    (oracle).  Case III's rule flips come from the scalar stream of
    ``execution_rng(seed)``, 8 doubles a step (``case3_update_bits``), not
    from ``case3_masks``."""
    r_o, r_e, s_o, s_e = start
    rng = execution_rng(seed) if variant is Variant.CASE_III else None
    rows = [s_o]
    for _ in range(steps):
        if variant is Variant.CASE_I:
            r_o = case1_update_bits(s_o, w_o, r_o, s_e, w_e)
        elif variant is Variant.CASE_II:
            r_o = s_e
        elif variant is Variant.CASE_III:
            r_o = case3_update_bits(r_o, mu, rng)
        s_o = naive_step_bits(r_o, s_o, w_o)
        if variant.has_environment:
            s_e = naive_step_bits(r_e, s_e, w_e)
        rows.append(s_o)
    return rows


def scalar_draw_plan(plan: SamplePlan) -> list[tuple]:
    """The initial tuples of a plan, in draw order, 2 or 4 scalar
    ``rng.integers`` calls per tuple (oracle for ``draw_plan``)."""
    rng = execution_rng(plan.master_seed)
    canon = canonical_rules()
    space = sample_space_size(plan.variant, plan.w_o, plan.w_e)
    tuples: list[tuple] = []

    if plan.variant is Variant.CASE_III:
        for _ in range(plan.sample_count):
            r_o = canon[int(rng.integers(0, 88))]
            s_o = int(rng.integers(0, 1 << plan.w_o))
            tuples.append((r_o, s_o))
        return tuples

    if plan.sample_count > space:
        raise ValueError(f"sample_count {plan.sample_count} exceeds space {space}")
    seen = set()
    while len(tuples) < plan.sample_count:
        r_o = canon[int(rng.integers(0, 88))]
        if plan.variant is Variant.ISOLATED:
            tup = (r_o, int(rng.integers(0, 1 << plan.w_o)))
        else:
            r_e = canon[int(rng.integers(0, 88))]
            s_o = int(rng.integers(0, 1 << plan.w_o))
            s_e = int(rng.integers(0, 1 << plan.w_e))
            tup = (r_o, r_e, s_o, s_e)
        if tup in seen:
            continue
        seen.add(tup)
        tuples.append(tup)
    return tuples


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
    n_oee: int
    n_inn: int
    n_ue: int


def _run_flags(rep, inn) -> tuple[int, int, int, int, int]:
    """(live, censored, OEE, INN, UE) of one run, each 0 or 1."""
    if rep.censored:
        return 0, 1, 0, 0, 0
    return 1, 0, int(bool(rep.ue and inn)), int(inn), int(bool(rep.ue))


def _light_stats(live: int, censored: int, oee: int, inn: int, ue: int) -> LightStats:
    if live == 0:
        raise ValueError("all executions censored")
    return LightStats(100.0 * oee / live, 100.0 * inn / live, 100.0 * ue / live,
                      live, censored, oee, inn, ue)


def light_stats(plan: SamplePlan, tuples=None) -> LightStats:
    """OEE/INN/UE percentages and counts from the flag stages alone, without
    the complexity pipeline (fast path)."""
    if tuples is None:
        tuples = draw_plan(plan)
    totals = [0] * 5
    for i, tup in enumerate(tuples):
        _, _, rep, _, inn = flag_stages(plan, i, tup)
        for k, flag in enumerate(_run_flags(rep, inn)):
            totals[k] += flag
    return _light_stats(*totals)


def case2_exact_counts(w: int) -> LightStats:
    """``light_stats`` over the whole Case II space at w_o = ``w`` (88 * 88
    * 2^w * 256 tuples), from far fewer runs than tuples.

    Case II's first step sets r_o = s_e before it steps the organism, so
    r_o(0) = X is read only as rules[0] and in snapshot 0, (s_o, X, s_e);
    every later state, rule and environment state is a function of the base
    (r_e, s_e, s_o), and rules[t] = s_e(t - 1) for t >= 1.
    - A rule the environment never visits from s_e is in no run's
      rules[1:].  The run from such an X, which need not be canonical, is
      the base's generic run.  (No ECA takes all 256 states of an 8-cell
      ring in one orbit, so such a rule exists.)
    - For every X outside the generic run's rules[1:], snapshot 0 never
      recurs, so the run after step 0 is the generic one.  So are its flags:
      INN reads states only, and the rule recurrence reads rules[0] only to
      compare it with some rules[lam], lam >= 1, which differs from X.
    So a base takes its generic run, weighted by the canonical rules outside
    its rules[1:], plus one run for each canonical rule inside."""
    plan = SamplePlan(Variant.CASE_II, w, sample_count=1)
    canon = canonical_rules()
    totals = [0] * 5
    for r_e in canon:
        for s_e in range(256):
            visited = set(fixed_rule_run(r_e, 8, s_e, 256)[0])
            generic = next(x for x in range(256) if x not in visited)
            for s_o in range(1 << w):
                _, traj, rep, _, inn = flag_stages(plan, 0, (generic, r_e, s_o, s_e))
                recurring = set(traj.rules[1:]).intersection(canon)
                runs = [(88 - len(recurring), rep, inn)]
                for x in recurring:
                    _, _, x_rep, _, x_inn = flag_stages(plan, 0, (x, r_e, s_o, s_e))
                    runs.append((1, x_rep, x_inn))
                for weight, rep, inn in runs:
                    for k, flag in enumerate(_run_flags(rep, inn)):
                        totals[k] += weight * flag
    return _light_stats(*totals)


# --- per-value histograms -----------------------------------------------------

def scalar_value_histogram(values: list[float], bins: int = 20) -> dict[str, int]:
    """``value_histogram`` formatting one label per value (its oracle)."""
    if not values:
        return {}
    lo, hi = min(values), max(values)
    if hi == lo:
        return {f"{lo:.6g}": len(values)}
    width = (hi - lo) / bins
    hist: Counter = Counter()
    for v in values:
        idx = min(bins - 1, int((v - lo) / width))
        hist[f"{lo + idx * width:.6g}"] += 1
    return dict(sorted(hist.items(), key=lambda kv: float(kv[0])))


def scalar_log2_histogram(ratios: list[float]) -> dict[str, int]:
    """``log2_histogram`` formatting one label per value (its oracle)."""
    hist: Counter = Counter()
    for r in ratios:
        hist["zero" if r <= 0 else str(math.floor(math.log2(r)))] += 1
    return dict(sorted(hist.items(), key=lambda kv: (kv[0] == "zero",
                                                     0 if kv[0] == "zero" else int(kv[0]))))


# --- the benchmark's pipeline module -------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_pipeline(monkeypatch):
    """``bench/pipeline.py``, imported as a module."""
    # the module puts src/ and bench/ on sys.path; monkeypatch restores it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_pipeline", BENCH / "pipeline.py")
    pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pipeline)
    return pipeline


# --- the row-wise output phase (oracles of the column-wise one) ---------------

# per-cell writers of the columns whose ``str`` (None as empty) is not their text
_ROWWISE_WRITERS = {
    "variant": lambda variant, _: variant.value,
    "init_state_o": lambda bits, rec: bits if bits is None
    else format(bits, f"0{(rec.w_o + 3) // 4}x"),
    "init_state_e": lambda bits, rec: bits if bits is None
    else format(bits, f"0{(rec.w_e + 3) // 4}x"),
    **dict.fromkeys(["inn", "ue", "oee", "attractor_ue", "censored"],
                    lambda flag, _: flag if flag is None else int(flag)),
}
_ROW = operator.attrgetter(*CSV_COLUMNS)
_WRITERS = [(i, _ROWWISE_WRITERS[name]) for i, name in enumerate(CSV_COLUMNS)
            if name in _ROWWISE_WRITERS]


@gc_paused()
def rowwise_write_records_csv(records, path: str, config_echo: dict | None = None) -> None:
    """``write_records_csv`` one row at a time through ``csv.writer``."""
    with replacing(path, newline="") as fh:
        write_echo(fh, config_echo)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            row = list(_ROW(rec))
            for i, write in _WRITERS:
                row[i] = write(row[i], rec)
            writer.writerow(row)


def rowwise_box_stats(values: list[float]) -> BoxStats | None:
    """``box_stats`` finding its whiskers by two scans."""
    if not values:
        return None
    vs = sorted(values)
    q1, med, q3 = (_quantile(vs, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    lo = min((v for v in vs if v >= q1 - 1.5 * iqr), default=vs[0])
    hi = max((v for v in vs if v <= q3 + 1.5 * iqr), default=vs[-1])
    return BoxStats(vs[0], q1, med, q3, vs[-1], lo, hi)


def rowwise_metagenome(records, oee_only: bool = False) -> list[dict]:
    """``metagenome`` counting the rules in a ``Counter``."""
    counts = Counter(chain.from_iterable(
        rec.attractor_rules for rec in records
        if rec.attractor_rules is not None and (rec.oee or not oee_only)))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [{"rule": rule, "count": count, "wolfram_class": int(wolfram_class(rule))}
            for rule, count in ranked]


@gc_paused()
def rowwise_aggregate(records) -> EnsembleReport:
    """``aggregate`` reading the records one at a time, with a histogram
    label per value."""
    live = [r for r in records if not r.censored]
    if not live:
        raise EmptyReportError("no non-censored records to aggregate")
    n = len(live)
    pct = lambda flag: 100.0 * sum(1 for r in live if getattr(r, flag)) / n

    t_r_ratios = [r.t_r / r.t_P for r in live]
    t_a_ratios = [r.t_a / r.t_P for r in live if r.t_a is not None]
    points = sorted((r.innovation_I, r.t_r) for r in live)
    rho = p = None
    if len(points) >= 3 and len({i for i, _ in points}) > 1 and len({t for _, t in points}) > 1:
        rho, p = spearman([i for i, _ in points], [t for _, t in points])

    cs = [r.C for r in live if r.C is not None]
    ks = [r.k for r in live if isinstance(r.k, float)]
    return EnsembleReport(
        n_records=len(records),
        n_censored=len(records) - n,
        oee_percent=pct("oee"),
        inn_percent=pct("inn"),
        ue_percent=pct("ue"),
        t_r_ratio_hist=scalar_log2_histogram(t_r_ratios),
        t_a_ratio_hist=scalar_log2_histogram(t_a_ratios),
        t_r_ratio_box=rowwise_box_stats(t_r_ratios),
        t_a_ratio_box=rowwise_box_stats(t_a_ratios),
        innovation_points=points,
        spearman_rho=rho,
        spearman_p=p,
        metagenome_all=rowwise_metagenome(records),
        metagenome_oee=rowwise_metagenome(records, oee_only=True),
        c_mean=_mean(cs),
        c_hist=scalar_value_histogram(cs),
        k_mean=_mean(ks),
        k_hist=scalar_value_histogram(ks),
        n_extinct_k=sum(1 for r in live if r.k == EXTINCT),
    )


def scalar_trajectory(config: VariantConfig, cap: int | None = None) -> Trajectory:
    """``run_trajectory`` one ``system_step`` snapshot at a time, with a
    tuple key per snapshot (oracle of the packed loop)."""
    if cap is None:
        cap = default_step_cap(config)
    snap = SystemSnapshot(0, config.s_o, config.r_o, config.s_e)
    snapshots = [snap]
    first = None  # deterministic variants: step of the repeated snapshot
    if config.variant is Variant.CASE_III:
        rng = execution_rng(config.seed)
        homogeneous = (0, (1 << config.w_o) - 1)
        stopped = snap.s_o in homogeneous
        while not stopped and len(snapshots) <= cap:
            snap = system_step(config, snap, rng)
            snapshots.append(snap)
            stopped = snap.s_o in homogeneous
    else:
        seen = {snap.key(): 0}
        for t in range(1, cap + 1):
            snap = system_step(config, snap)
            snapshots.append(snap)
            first = seen.get(snap.key())
            if first is not None:
                break
            seen[snap.key()] = t
        stopped = first is not None
    envs = ([s.s_e for s in snapshots] if config.variant.has_environment else None)
    return Trajectory(config, [s.s_o for s in snapshots], [s.r_o for s in snapshots],
                      envs, cap_hit=not stopped, first_seen=first)


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


def scalar_projected_recurrence(sequence, P: int, L: int) -> tuple[int, int, int]:
    """``projected_recurrence`` with one generator per divisor (oracle)."""
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
    cells = format(bits, f"0{width}b")
    left = int(cells[-1] + cells[:-1], 2)
    right = int(cells[1:] + cells[0], 2)
    out = 0
    for v in range(8):
        if (rule_number >> v) & 1:
            term = (left if v & 4 else ~left) & (c if v & 2 else ~c) & (right if v & 1 else ~right)
            out |= term
    return out & mask


def scalar_step_table(rule_number: int, width: int) -> tuple[int, ...]:
    """``step_table`` one ``naive_step_bits`` call per state (oracle)."""
    return tuple(naive_step_bits(rule_number, s, width) for s in range(1 << width))


def naive_triplet_counts(bits: int, width: int) -> tuple[int, ...]:
    """Counts of each S3 triplet over the ``width`` periodic windows, one
    cell's (left, center, right) read at a time (oracle)."""
    counts = [0] * 8
    for p in range(width):
        l, c, r = (cell(bits, p + d, width) for d in (-1, 0, 1))
        counts[7 - (l << 2 | c << 1 | r)] += 1
    return tuple(counts)


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


# --- Case III's convergence time, exactly ----------------------------------------

def case3_convergence_law(w: int, mu: float, tail: float = 1e-15) -> list[float]:
    """``law[t]`` = P(t_r = t) of a Case III run of width ``w``, drawn as a
    plan draws it: rule uniform over the 88 canonical rules, state uniform
    over all ``2**w`` (oracle; exact but for a final live mass below
    ``tail``).

    (r_o, s_o) is an absorbing Markov chain (Kemeny & Snell, *Finite Markov
    Chains*, 1960): each step first flips each of the eight rule bits with
    probability ``mu``, then steps the state under the new rule, and a run
    stops at a homogeneous state.  So the law propagates a 256 x 2**w array
    of live probability mass: mix over the rules, scatter each rule's row
    through its step table, and take the homogeneous columns off as the
    mass absorbed at that step."""
    n = 1 << w
    rules = np.arange(256)
    flipped = np.array([bin(x).count("1") for x in rules])[rules[:, None] ^ rules]
    mix = mu ** flipped * (1 - mu) ** (8 - flipped)   # P(r -> r'), symmetric
    cells = np.array([list(step_table(r, w)) for r in rules]) + rules[:, None] * n
    live = np.zeros((256, n))
    live[list(canonical_rules())] = 1 / (88 * n)
    law = []
    while True:
        law.append(live[:, 0].sum() + live[:, n - 1].sum())
        live[:, [0, n - 1]] = 0
        if live.sum() < tail:
            return law
        live = np.bincount(cells.ravel(), (mix @ live).ravel(), 256 * n).reshape(256, n)


def case3_inn_law(w: int) -> float:
    """P(INN) of a Case III run of width ``w`` at mu = 0.5, its state drawn
    uniform over all ``2**w`` (oracle; exact).

    At mu = 0.5 the rule after the first flip is uniform and does not depend
    on the past, so INN is an absorbing chain on (s_o, pins).  A transition
    s -> s' under rule r pins rule bit v to r's bit v for every neighborhood
    v present in s, and one rule reproduces the window 0..t_r unless some
    bit is pinned both ways: that conflict is INN.  A homogeneous state ends
    the run, and one reached without a conflict is not INN (a homogeneous
    start has t_r = 0).  Pins only grow, so ``h[k][s]``, the chance of INN
    from state s with pin set k, is solved one level of pinned bits at a
    time, most first: within a level a run moves only by the pinned rule,
    one linear system per pin set."""
    n = 1 << w
    masks = neighborhood_masks(w)
    present = [[v for v in range(8) if masks[v][s]] for s in range(n)]
    # digit v of pin set k (base 3) is 0 (free), 1 (pinned to 0) or 2 (to 1)
    digits = np.array([[k // 3**v % 3 for v in range(8)] for k in range(3**8)])
    h = np.zeros((3**8, n))
    for level in range(8, -1, -1):
        ks = np.flatnonzero((digits > 0).sum(axis=1) == level)
        rhs = np.zeros((len(ks), n))
        stays = np.zeros((len(ks), n, n))
        for s in range(1, n - 1):
            vs = present[s]
            p = 0.5 ** len(vs)
            pinned = digits[ks][:, vs]
            for b in range(1 << len(vs)):
                rule = sum(1 << v for i, v in enumerate(vs) if b >> i & 1)
                s2 = step_table(rule, w)[s]
                want = np.array([1 + (rule >> v & 1) for v in vs])
                conflict = ((pinned > 0) & (pinned != want)).any(axis=1)
                k2 = ks + ((pinned == 0) * want * 3 ** np.array(vs)).sum(axis=1)
                stay = ~conflict & (k2 == ks)
                move = ~conflict & ~stay
                rhs[conflict, s] += p
                rhs[move, s] += p * h[k2[move], s2]
                stays[stay, s, s2] += p
        h[ks] = np.linalg.solve(np.eye(n) - stays, rhs[..., None])[..., 0]
    return h[0].sum() / n


def case3_inn_law_with_rule(w: int, mu: float, tail: float = 1e-15) -> float:
    """P(INN) of a Case III run of width ``w`` at any ``mu``, drawn as a plan
    draws it: rule uniform over the 88 canonical rules, state uniform over
    all ``2**w`` (oracle; exact but for a final live mass below ``tail``).

    Below mu = 0.5 the next rule depends on the last, so the absorbing chain
    keeps r_o beside s_o and the pins (see ``case3_inn_law``).  Only the
    rule bits b of neighborhoods that some non-homogeneous state holds
    enter a step from a live state or a pin (at w = 3 not 000 and 111), and
    each bit flips on its own, so the chain drops the others: the live mass
    is a 3**b x 2**b x 2**w array over (pin set, rule bits, state),
    propagated like ``case3_convergence_law``: flip each rule bit with
    probability mu, then send every entry through one precomputed move,
    ``np.bincount`` into its next (pin set, rule, state) or into the
    conflict that is INN.  Mass reaching a homogeneous state without a
    conflict is not INN and leaves the chain.  The array has
    3**8 * 2**8 * 2**w entries from w = 4 on, so this is meant for w = 3."""
    n = 1 << w
    masks = neighborhood_masks(w)
    present = [sum(1 << v for v in range(8) if masks[v][s]) for s in range(n)]
    held = [v for v in range(8) if any(p >> v & 1 for p in present[1:n - 1])]
    b, K, R = len(held), 3 ** len(held), 1 << len(held)
    rule = [sum(1 << v for i, v in enumerate(held) if x >> i & 1) for x in range(R)]
    # digit i of pin set k (base 3): 0 free, 1 pinned to 0, 2 pinned to 1
    digit = np.array([[k // 3**i % 3 for i in range(b)] for k in range(K)])
    sink = K * R * n
    move = np.full((K, R, n), sink)
    for s in range(1, n - 1):
        at = [i for i, v in enumerate(held) if present[s] >> v & 1]
        for x in range(R):
            want = np.array([1 + (x >> i & 1) for i in at])
            pinned = digit[:, at]
            conflict = ((pinned > 0) & (pinned != want)).any(axis=1)
            k2 = np.arange(K) + ((pinned == 0) * want * 3 ** np.array(at)).sum(axis=1)
            to = (k2 * R + x) * n + step_table(rule[x], w)[s]
            move[:, x, s] = np.where(conflict, sink, to)
    live = np.zeros((K, R, n))
    for r in canonical_rules():
        live[0, sum(1 << i for i, v in enumerate(held) if r >> v & 1)] += 1 / (88 * n)
    inn = 0.0
    while True:
        live[:, :, [0, n - 1]] = 0
        if live.sum() < tail:
            return inn
        for i in range(b):
            pairs = live.reshape(K, R >> i + 1, 2, 1 << i, n)
            pairs[:] = (1 - mu) * pairs + mu * pairs[:, :, ::-1]
        moved = np.bincount(move.ravel(), live.ravel(), sink + 1)
        inn += moved[sink]
        live = moved[:sink].reshape(K, R, n)


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
