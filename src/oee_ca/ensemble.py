"""Sampling plans, deduplicated tuple draws, parallel execution, aggregation.

A SamplePlan pins everything needed to reproduce an ensemble: variant,
widths, mutation rate, sample count, master seed and the step cap.  Records
come back in draw order regardless of worker count, so ensembles are
byte-reproducible.  Two or more workers are forked children that send
records back through pipes; without ``os.fork`` an ensemble runs on one.

The sampled space restricts initial rules to the 88 canonical orbit
representatives; the full space size is 88^2 * 2^w_o * 2^w_e for the coupled
deterministic variants and 88 * 2^w_o for the noise-driven one.  (The
source's printed formula uses exponents 8*w in disagreement with its own
state-space sizes; the state-space product is implemented.)
"""

from __future__ import annotations

import math
import operator
import os
import pickle
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import reduce
from itertools import compress

import numpy as np

from . import complexity as cx
from .eca import SIM_MIN_WIDTH, canonical_rules, wolfram_class
from .innovation import is_eca_reproducible
from .io_formats import ExecutionRecord
from .recurrence import build_report, detect_cycle
from .variants import (
    CASE_II,
    CASE_II_WIDTH,
    CASE_III,
    DEFAULT_MU,
    ISOLATED,
    Variant,
    VariantConfig,
    execution_rng,
    gc_paused,
    integers_rows,
    run_trajectory,
)


class EmptyReportError(ValueError):
    """Aggregation over an all-censored (or empty) record set."""


def environment_width(w_o: int, ratio: str) -> int:
    """w_e from a ratio label; fractional products are rounded down."""
    num, _, den = ratio.partition("/")
    return (w_o * int(num)) // int(den or 1)


@dataclass(frozen=True)
class SamplePlan:
    """Which ``w_e`` and ``mu`` a variant takes is ``VariantConfig``'s rule:
    the plan builds the config of a zero tuple after its own checks and its
    defaults, Case II's ``w_e = CASE_II_WIDTH`` and Case III's ``mu = DEFAULT_MU``."""

    variant: Variant
    w_o: int
    w_e: int | None = None
    mu: float | None = None
    sample_count: int = 1000
    master_seed: int = 0
    step_cap: int | None = None
    norm_samples: int = cx.NORM_SAMPLES
    norm_steps: int = cx.NORM_STEPS
    norm_seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if self.w_o < SIM_MIN_WIDTH:
            raise ValueError(f"organism width must be >= {SIM_MIN_WIDTH}, got {self.w_o}")
        if self.step_cap is not None and self.step_cap < 1:
            raise ValueError(f"step_cap must be >= 1, got {self.step_cap}")
        if self.variant is CASE_II and self.w_e is None:
            object.__setattr__(self, "w_e", CASE_II_WIDTH)
        if self.variant is CASE_III and self.mu is None:
            object.__setattr__(self, "mu", DEFAULT_MU)
        if self.full_width > cx.NORM_MAX_WIDTH:
            raise ValueError(f"full width w_o + w_e = {self.full_width} exceeds the "
                             f"normalization width maximum {cx.NORM_MAX_WIDTH}")
        env = () if self.w_e is None else (self.w_e, 0, 0)
        VariantConfig(self.variant, self.w_o, 0, 0, *env, mu=self.mu,
                      seed=0 if self.variant is CASE_III else None)

    @property
    def full_width(self) -> int:
        return self.w_o + (self.w_e or 0)


def sample_space_size(variant: Variant, w_o: int, w_e: int | None = None) -> int:
    if variant in (Variant.CASE_III, Variant.ISOLATED):
        return 88 * (1 << w_o)
    if variant is Variant.CASE_II:
        w_e = CASE_II_WIDTH
    if w_e is None:
        raise ValueError("coupled variants need w_e")
    return 88 * 88 * (1 << w_o) * (1 << w_e)


@gc_paused()
def draw_plan(plan: SamplePlan) -> list[tuple]:
    """The initial tuples of a plan, in draw order.

    Coupled deterministic variants deduplicate tuples, keeping each first
    drawn; the noise-driven variant allows repeats and keys each execution
    by its index instead.  Draw order per tuple: r_o, (r_e,) s_o, (s_e),
    each ``rng.integers(0, n)`` of ``execution_rng(master_seed)`` with
    ``n = 88`` (an index into ``canonical_rules()``) or ``2^w``.
    ``integers_rows`` makes a block of those draws in one vectorised
    ``integers`` call.  A coupled plan takes blocks of at least 1024 rows
    until it holds ``sample_count`` distinct tuples, so a plan close to its
    space size does not stall on repeats.
    """
    rng = execution_rng(plan.master_seed)
    canon = canonical_rules()
    space = sample_space_size(plan.variant, plan.w_o, plan.w_e)

    if plan.variant is Variant.CASE_III:
        return [(canon[r_o], s_o)
                for r_o, s_o in integers_rows(rng, (88, 1 << plan.w_o), plan.sample_count)]

    if plan.sample_count > space:
        raise ValueError(f"sample_count {plan.sample_count} exceeds space {space}")
    coupled = plan.variant is not Variant.ISOLATED
    bounds = (88, 88, 1 << plan.w_o, 1 << plan.w_e) if coupled else (88, 1 << plan.w_o)
    drawn: dict[tuple, None] = {}   # insertion order keeps each tuple's first draw
    while len(drawn) < plan.sample_count:
        rows = integers_rows(rng, bounds, max(plan.sample_count - len(drawn), 1024))
        drawn.update(dict.fromkeys(
            [(canon[r_o], canon[r_e], s_o, s_e) for r_o, r_e, s_o, s_e in rows] if coupled
            else [(canon[r_o], s_o) for r_o, s_o in rows]))
    return list(drawn)[:plan.sample_count]


def config_for_tuple(plan: SamplePlan, index: int, tup: tuple) -> VariantConfig:
    variant = plan.variant
    if variant is CASE_III:
        r_o, s_o = tup
        return VariantConfig(variant, plan.w_o, s_o, r_o,
                             mu=plan.mu, seed=_case3_seed(plan.master_seed, index))
    if variant is ISOLATED:
        r_o, s_o = tup
        return VariantConfig(variant, plan.w_o, s_o, r_o)
    r_o, r_e, s_o, s_e = tup
    return VariantConfig(variant, plan.w_o, s_o, r_o, plan.w_e, s_e, r_e)


def _case3_seed(master_seed: int, index: int) -> int:
    # distinct per-execution key; kept within 64 bits for the Philox key split
    return (master_seed * 0x9E3779B97F4A7C15 + index + 1) & (2**64 - 1)


def flag_stages(plan: SamplePlan, index: int, tup: tuple) -> tuple:
    """The stages a record's flags come from: the run of one sampled tuple,
    its recurrence report and, unless the run is censored, its INN window
    and flag.  Returns ``(config, traj, rep, window, inn)``, with ``window``
    and ``inn`` None for a censored run.  The INN window is the organism
    states 0..max(t_r, 1) of the run, and INN holds when no fixed ECA rule
    reproduces it; a one-state window is reproduced by the identity rule."""
    config = config_for_tuple(plan, index, tup)
    traj = run_trajectory(config, plan.step_cap)
    rep = build_report(traj)
    if rep.censored:
        return config, traj, rep, None, None
    window = traj.states[:max(rep.t_r, 1) + 1]
    inn = len(window) > 1 and is_eca_reproducible(window, plan.w_o) is None
    return config, traj, rep, window, inn


def execute_tuple(plan: SamplePlan, index: int, tup: tuple, norm_bits: int) -> ExecutionRecord:
    """Run one sampled tuple through trajectory, recurrence, innovation and
    complexity analysis."""
    config, traj, rep, window, inn = flag_stages(plan, index, tup)
    n_rt = inno = compressed = c_val = k = att = None
    if not rep.censored:
        rules, t_r = traj.rules, rep.t_r
        # the INN window 0..max(t_r, 1) is also the LZW window 0..t_r: t_r is
        # at most the run's last step, and only a one-state run has t_r = 0
        n_rt = sum(map(operator.ne, rules[:t_r], rules[1:t_r + 1]))
        inno = n_rt / (1 << plan.w_o)
        compressed, c_val = cx.compressibility(window, plan.w_o, norm_bits)
        k = cx.lyapunov(traj, 0, max(2, min(t_r, rep.t_P)))
        if plan.variant.deterministic:
            P, L = detect_cycle(traj)
            att = bytes(rules[P:P + L])   # rule numbers are 0..255
    # positional, in ExecutionRecord's field order
    return ExecutionRecord(
        plan.variant, plan.w_o, plan.w_e, plan.mu, config.seed, config.r_o, config.r_e,
        config.s_o, config.s_e, rep.t_P, rep.t_r, rep.t_r_rule, rep.t_a,
        inn, rep.ue, rep.ue and inn, rep.attractor_ue,
        n_rt, inno, compressed, norm_bits, c_val, k, rep.censored, att)


@gc_paused()
def _run_range(plan: SamplePlan, tuples: list[tuple], norm_bits: int,
               bounds: tuple[int, int]) -> list[ExecutionRecord]:
    """The records of tuples start..stop - 1 of an ensemble."""
    return [execute_tuple(plan, i, tuples[i], norm_bits) for i in range(*bounds)]


def _worker(tasks: int, out: int, run_range) -> None:
    """A forked worker: per 4-byte range index ``k`` from the ``tasks`` pipe,
    one frame of ``(k, run_range(k))`` or ``(None, exception)`` to the ``out``
    pipe, pickled behind its 8-byte length, and once the tasks run out an
    end frame of length 0; it leaves only by ``os._exit``."""
    try:
        with open(out, "wb") as pipe:
            while task := os.read(tasks, 4):
                k = int.from_bytes(task, "little")
                try:
                    frame = pickle.dumps((k, run_range(k)), pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    frame = pickle.dumps((None, exc))
                pipe.write(len(frame).to_bytes(8, "little") + frame)
                pipe.flush()
            pipe.write(bytes(8))
    finally:
        os._exit(0)


def worker_count(requested: int | None, n_tasks: int, cpus: int | None) -> int:
    """Worker processes for ``n_tasks`` executions: the request, else 1; at
    most one per task and one per CPU, and at least 1; 1 where ``os.fork``
    does not exist."""
    return max(1, min(requested or 1, n_tasks, cpus or 1)) if hasattr(os, "fork") else 1


@gc_paused()
def run_ensemble(plan: SamplePlan, workers: int | None = None,
                 tuples: list[tuple] | None = None,
                 norm_cache: str | None = None) -> list[ExecutionRecord]:
    """Execute a plan; output order equals draw order for any worker count.
    ``workers`` None is one worker (see ``worker_count``)."""
    # a drawn plan has sample_count tuples; a bad norm cache line fails
    # before the plan is drawn
    n = plan.sample_count if tuples is None else len(tuples)
    workers = worker_count(workers, n, os.cpu_count())
    norm_bits = cx.normalization_constant(
        plan.full_width, plan.norm_samples, plan.norm_steps, plan.norm_seed,
        cache_path=norm_cache)
    if tuples is None:
        tuples = draw_plan(plan)
    if workers <= 1:
        return _run_range(plan, tuples, norm_bits, (0, n))
    # imported here: their 0.1 MB would raise every one-worker ensemble's peak
    import selectors
    import signal
    # forked workers inherit the plan and take about 8 contiguous ranges each,
    # one at a time, from a pipe filled before the fork
    parts = min(workers * 8, n)
    ranges = [(n * k // parts, n * (k + 1) // parts) for k in range(parts)]
    chunks: list = [None] * parts
    tasks, fill = os.pipe()
    os.write(fill, b"".join(k.to_bytes(4, "little") for k in range(parts)))
    os.close(fill)
    pids, selector = [], selectors.DefaultSelector()
    try:
        for _ in range(workers):
            frames, out = os.pipe()
            if (pid := os.fork()) == 0:
                _worker(tasks, out, lambda k: _run_range(plan, tuples, norm_bits, ranges[k]))
            pids.append(pid)
            os.close(out)
            selector.register(frames, selectors.EVENT_READ, bytearray())
        while selector.get_map():   # read whichever pipes are ready, each to its end frame
            for key, _ in selector.select():
                data, buf = os.read(key.fd, 1 << 16), key.data
                if not data:   # the worker died: kill the others now
                    raise RuntimeError("an ensemble worker exited before returning its ranges")
                buf += data
                while len(buf) >= 8 + (size := int.from_bytes(buf[:8], "little")):
                    if not size:   # the end frame: every range is taken
                        selector.unregister(key.fd)
                        os.close(key.fd)
                        break
                    k, result = pickle.loads(buf[8:8 + size])
                    del buf[:8 + size]
                    if k is None:
                        raise result
                    chunks[k] = result
    finally:   # no worker outlives the call
        for fd in [tasks, *selector.get_map()]:
            os.close(fd)
        selector.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [rec for chunk in chunks for rec in chunk]


# --- aggregation ------------------------------------------------------------

@dataclass(frozen=True)
class BoxStats:
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_lo: float
    whisker_hi: float


def box_stats(values: list[float]) -> BoxStats | None:
    if not values:
        return None
    vs = sorted(values)
    q1, med, q3 = (_quantile(vs, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    i, j = bisect_left(vs, q1 - 1.5 * iqr), bisect_right(vs, q3 + 1.5 * iqr) - 1
    lo = vs[i] if i < len(vs) else vs[0]
    hi = vs[bisect_left(vs, vs[j])] if j >= 0 else vs[-1]   # the first of equals, as max picks
    return BoxStats(vs[0], q1, med, q3, vs[-1], lo, hi)


def _quantile(sorted_vals: list[float], q: float) -> float:
    n = len(sorted_vals)
    if n == 1:
        return float(sorted_vals[0])
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def log2_histogram(ratios: list[float]) -> dict[str, int]:
    """Counts per log2 bin of a ratio distribution; zeros get their own bin.
    Bin "e" covers [2^e, 2^(e+1))."""
    counts: Counter = Counter()
    for r, count in Counter(ratios).items():
        counts[None if r <= 0 else math.floor(math.log2(r))] += count
    zeros = counts.pop(None, 0)
    hist = {str(e): counts[e] for e in sorted(counts)}
    if zeros:
        hist["zero"] = zeros
    return hist


def metagenome(records: list[ExecutionRecord], oee_only: bool = False) -> list[dict]:
    """Rank-ordered rule frequencies over attractor-cycle rule sequences."""
    rules = map(operator.attrgetter("attractor_rules"), records)
    if oee_only:
        rules = compress(rules, map(operator.attrgetter("oee"), records))
    # one growing buffer: ``b"".join`` would hold an 80-byte buffer view per cycle
    cycles = bytearray()
    for cycle in filter(None, rules):
        cycles += cycle
    rules = np.frombuffer(cycles, np.uint8)
    # counted in chunks, as bincount copies the bytes to intp
    counts = sum((np.bincount(rules[i:i + 4096], minlength=256)
                  for i in range(0, len(rules), 4096)), np.zeros(256, np.int64)).tolist()
    ranked = sorted(filter(counts.__getitem__, range(256)), key=lambda rule: (-counts[rule], rule))
    return [{"rule": rule, "count": counts[rule], "wolfram_class": int(wolfram_class(rule))}
            for rule in ranked]


@dataclass(frozen=True)
class EnsembleReport:
    n_records: int
    n_censored: int
    oee_percent: float
    inn_percent: float
    ue_percent: float
    t_r_ratio_hist: dict[str, int]
    t_a_ratio_hist: dict[str, int]
    innovation_points: list[tuple[float, int]]   # (I, t_r)
    spearman_rho: float | None
    spearman_p: float | None
    metagenome_all: list[dict]
    metagenome_oee: list[dict]
    c_mean: float | None
    c_hist: dict[str, int]
    k_mean: float | None
    k_hist: dict[str, int]
    n_extinct_k: int
    t_r_ratio_box: BoxStats | None
    t_a_ratio_box: BoxStats | None

    def to_dict(self) -> dict:
        """The report JSON's ``report`` object: every field in field order
        but ``innovation_points``, which only the scatter plot reads.  Only
        the box stats are converted; the other values are shared, not copied."""
        box = lambda value: asdict(value) if isinstance(value, BoxStats) else value
        return {f.name: box(getattr(self, f.name))
                for f in fields(self) if f.name != "innovation_points"}


def value_histogram(values: list[float], bins: int = 20) -> dict[str, int]:
    if not values:
        return {}
    lo, hi = min(values), max(values)
    if hi == lo:
        return {f"{lo:.6g}": len(values)}
    width = (hi - lo) / bins
    per_bin: Counter = Counter()
    for v, count in Counter(values).items():
        per_bin[min(bins - 1, int((v - lo) / width))] += count
    hist: Counter = Counter()
    # label each bin once; bins sharing a label merge
    for idx, count in per_bin.items():
        hist[f"{lo + idx * width:.6g}"] += count
    return dict(sorted(hist.items(), key=lambda kv: float(kv[0])))


def _average_ranks(values: list[float]) -> np.ndarray:
    """1-based ranks of ``values``; a run of ties shares the mean of its
    ordinal ranks (``scipy.stats.rankdata``'s ``"average"`` method)."""
    x = np.asarray(values)
    order = np.argsort(x, kind="stable")
    y = x[order]
    starts = np.flatnonzero(np.concatenate(([True], y[1:] != y[:-1])))
    counts = np.diff(starts, append=len(y))
    ranks = np.empty(len(y))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


# A log bound on the two-sided p-value below which p is 0.0: well past
# ln(5e-324) ~ -744.4, the log of the least subnormal double
_LOG_P_ZERO = -800.0


def _log_p_bound(dof: int, t: float) -> float:
    """The log of ``x^a (1 - x)^(-1/2) / (a B(a, 1/2))`` with
    ``x = dof / (dof + t^2)`` and ``a = dof / 2``, a bound on the two-sided
    p-value ``I_x(a, 1/2)``: ``(1 - y)^(-1/2)`` in the regularized incomplete
    beta integrand is increasing in ``y``, so at most its value at ``x``.
    An infinite ``t`` gives -inf, and a ``t`` of 0 gives 0 (p <= 1)."""
    t2 = t * t
    if t2 == math.inf:
        return -math.inf
    if t2 == 0:
        return 0.0
    a = dof / 2
    log_x = -math.log1p(t2 / dof)
    log_1mx = math.log(t2) - math.log(dof + t2)
    log_beta = math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return a * log_x - 0.5 * log_1mx - math.log(a) - log_beta


def spearman(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Spearman's rank correlation ``rho`` of two samples of n >= 3 values,
    neither constant, and its two-sided p-value, computed as
    ``scipy.stats.spearmanr`` computes them (scipy 1.17) and equal to its
    results bit for bit: the ``np.corrcoef`` of the two samples' average
    ranks, then ``t = rho * sqrt(dof / ((rho + 1) * (1 - rho)))`` with
    ``dof = n - 2`` and ``p = 2 * stdtr(dof, -|t|)``, Student's t tail.

    scipy (19 MB of peak RSS on top of this package) is imported only for a p
    that can be nonzero: where ``_log_p_bound`` is below ``_LOG_P_ZERO``, p
    is 0.0.
    """
    rs = np.corrcoef(np.vstack((_average_ranks(xs), _average_ranks(ys))))
    dof = len(xs) - 2
    # rho = +-1 divides by zero: t is then infinite and p is 0
    with np.errstate(divide="ignore"):
        t = rs * np.sqrt((dof / ((rs + 1.0) * (1.0 - rs))).clip(0))
    rho = float(rs[1, 0])
    if _log_p_bound(dof, float(t[1, 0])) < _LOG_P_ZERO:
        return rho, 0.0
    from scipy.special import stdtr
    p = 2 * stdtr(dof, -np.abs(t))
    return rho, float(p[1, 0])


def _mean(values: list[float]) -> float | None:
    """The mean of the values added left to right, or None for none.  This
    is what ``sum`` computes up to Python 3.11; from 3.12 ``sum`` compensates
    float rounding, so the report would depend on the interpreter."""
    return float(reduce(operator.add, values, 0) / len(values)) if values else None


@gc_paused()
def aggregate(records: list[ExecutionRecord]) -> EnsembleReport:
    """Percentages, distributions, correlations and metagenome of a record
    set.  Merging subsets then aggregating the union is equivalent to
    aggregating everything at once.

    ``spearman_rho`` and ``spearman_p`` are ``spearman`` of the live
    records' innovation ``I`` against their recurrence time ``t_r``, equal
    bit for bit to ``scipy.stats.spearmanr``'s statistic and two-sided
    p-value; both are None for fewer than 3 live records or a constant
    column."""
    live = [r for r in records if not r.censored]
    if not live:
        raise EmptyReportError("no non-censored records to aggregate")
    n = len(live)
    field = lambda name: map(operator.attrgetter(name), live)   # a column of the live records
    pct = lambda flag: 100.0 * sum(map(bool, field(flag))) / n

    t_r_ratios = list(map(operator.truediv, field("t_r"), field("t_P")))
    t_a_ratios = [a / p for a, p in zip(field("t_a"), field("t_P")) if a is not None]
    points = sorted(zip(field("innovation_I"), field("t_r")))
    rho = p = None
    if len(points) >= 3 and len({i for i, _ in points}) > 1 and len({t for _, t in points}) > 1:
        rho, p = spearman([i for i, _ in points], [t for _, t in points])

    cs = [c for c in field("C") if c is not None]
    ks = [v for v in field("k") if isinstance(v, float)]
    return EnsembleReport(
        n_records=len(records),
        n_censored=len(records) - n,
        oee_percent=pct("oee"),
        inn_percent=pct("inn"),
        ue_percent=pct("ue"),
        t_r_ratio_hist=log2_histogram(t_r_ratios),
        t_a_ratio_hist=log2_histogram(t_a_ratios),
        t_r_ratio_box=box_stats(t_r_ratios),
        t_a_ratio_box=box_stats(t_a_ratios),
        innovation_points=points,
        spearman_rho=rho,
        spearman_p=p,
        metagenome_all=metagenome(records),
        metagenome_oee=metagenome(records, oee_only=True),
        c_mean=_mean(cs),
        c_hist=value_histogram(cs),
        k_mean=_mean(ks),
        k_hist=value_histogram(ks),
        n_extinct_k=[*field("k")].count(cx.EXTINCT),
    )
