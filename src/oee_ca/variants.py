"""The three time-dependent rule-update mechanisms and every run loop.

Variant summary (rule evolution of the organism ``o``):

* Case I   -- r_o(t+1) = f(s_o(t), r_o(t), s_e(t)): triplet-frequency driven
              bit flips; environment is a fixed-rule ECA of width w_e.
* Case II  -- r_o(t+1) = s_e(t) read as an 8-bit rule number; w_e = 8.
* Case III -- each rule bit flips independently with probability mu per step;
              the environment is a noise source, there is no s_e.
* Isolated -- plain ECA, the rule never changes (control).

Each ``Variant`` member carries its flags ``deterministic`` and
``has_environment`` as plain attributes, and the module binds the members to
the names ``CASE_I`` .. ``ISOLATED``, which the per-run code compares against.

The stepping order is rule-first: r_o(t+1) is derived from time-t quantities
and immediately applied to s_o(t).

A state is a packed int plus its width (leftmost cell in the most
significant bit), and a ``VariantConfig`` is a run's widths, packed initial
states and rules, checked once when it is built.  Every run is stepped
here, in one of three packed loops, or as lanes packed in one int:
``fixed_rule_run`` steps a fixed rule to its first repeated state,
``fixed_rule_runs`` many at once (the sample runs of
``complexity.normalization_constant``), with one ``neighborhoods`` call a
step for all the lanes; Case I
and II stop at the first repeat of (s_o, r_o, s_e), which they check at
every step up to the Poincare time 2^w_o and once per environment cycle
after it; Case III stops at a homogeneous state.  A ``Trajectory`` holds
plain int sequences: organism states, rules and, with an environment,
environment states; every reader of a deterministic run's cycle (pre-period
P, period L) takes it from ``detect_cycle``.  The loops' step lookups (the
organism under every rule, the environment) are tables built with numpy
over all states at once (``step_table``) as long as the tables of one kind
and width fit in ``TABLE_BUDGET`` entries: the organism's 256 step tables,
the environment tables of all ``ENVIRONMENT_RULES`` rules a plan can draw.
Above it the loops step with the window-table kernel (``eca.stepper``).
``case1_flips`` states the Case I flip test once; ``flip_masks`` holds its
masks as rows shared by triplet-count class while both rings have at most
16 cells, and computes each mask per step above.  Each lookup function is
cached whole, limit test included, so a lookup is one cache hit on either
side of the limit.
Case III's flip masks are a pure function of
(seed, mu, step), ``case3_masks``: its Philox stream is addressed by key
and counter through one generator shared by the process (not thread-safe;
a process steps its runs on one thread), and a run draws them a block of
steps at a time.  ``continued`` extends a finished run past its end,
around its cycle or with the masks of the steps after it: ``oee-ca
render`` replays a cycle with it, and ``complexity.lyapunov`` reads a run
to its horizon from it and steps a perturbed copy of the organism
alongside.  ``VariantConfig`` and ``Trajectory`` are slotted dataclasses;
they are not frozen, so they are not hashable.  Widths are not bounded
here; the callers that take them from outside (``oee-ca run``,
``SamplePlan``) check them.

``gc_paused`` pauses the cyclic garbage collector for a block or function.
The pipeline's bulk entry points (drawing a plan, the normalization
constant, the ensemble, aggregation, the records CSV) run under it: the
objects they build hold no reference cycles, so a collection there would
only traverse the heap, and a full one costs tens of milliseconds.
"""

from __future__ import annotations

import enum
import gc
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, or_

import numpy as np

from .eca import (
    canonical_rules,
    count_array,
    neighborhoods,
    step_table,
    stepper,
    triplet_counts_bits,
)

# Most entries the stepping loop keeps in the step tables of one kind and
# width: the organism's 256 step tables, or the step tables of every rule an
# environment is drawn from.  A step whose tables would exceed it is computed
# per step instead.
TABLE_BUDGET = 1 << 20

# Environment/organism width ratios a Case I ensemble is drawn at.
CASE1_RATIOS = ("1/2", "1", "3/2", "2", "5/2")

# Case III's mutation rate where a run or a plan is given none.
DEFAULT_MU = 0.5

# The width of Case II's fixed environment.
CASE_II_WIDTH = 8

# Environment rules an ensemble draws r_e from (the canonical orbit
# representatives); their step tables at one width share the budget.
ENVIRONMENT_RULES = len(canonical_rules())


class Variant(enum.Enum):
    CASE_I = "case1"
    CASE_II = "case2"
    CASE_III = "case3"
    ISOLATED = "eca"

    def __init__(self, value: str):
        # plain attributes: an enum property costs a descriptor call per read
        self.deterministic = value != "case3"
        self.has_environment = value in ("case1", "case2")


# the members by name: a ``Variant.X`` read runs the enum class's __getattr__
CASE_I, CASE_II, CASE_III, ISOLATED = Variant


@dataclass(slots=True)
class VariantConfig:
    """One run: the organism's width ``w_o``, packed state ``s_o`` and rule
    ``r_o``; the environment's ``w_e``, ``s_e`` and ``r_e`` (Case I/II);
    ``mu`` and the stream ``seed`` (Case III)."""

    variant: Variant
    w_o: int
    s_o: int
    r_o: int
    w_e: int | None = None
    s_e: int | None = None
    r_e: int | None = None
    mu: float | None = None
    seed: int | None = None

    def __post_init__(self):
        variant = self.variant
        _check_ca("o", self.w_o, self.s_o, self.r_o)
        if variant.has_environment:
            if None in (self.w_e, self.s_e, self.r_e):
                raise ValueError(f"{variant.value} requires w_e, s_e and r_e")
            _check_ca("e", self.w_e, self.s_e, self.r_e)
            if variant is CASE_II and self.w_e != CASE_II_WIDTH:
                raise ValueError(f"Case II requires an environment of width {CASE_II_WIDTH}")
        elif (self.w_e, self.s_e, self.r_e) != (None, None, None):
            raise ValueError(f"{variant.value} takes no environment CA")
        if variant is CASE_III:
            if self.mu is None or not 0.0 <= self.mu < 1.0:
                raise ValueError(f"Case III requires mu in [0, 1), got {self.mu}")
            if self.seed is None:
                raise ValueError("Case III requires a seed")
        elif (self.mu, self.seed) != (None, None):
            raise ValueError(f"{variant.value} takes no mu and no seed")


def _check_ca(ca: str, width: int, bits: int, rule: int) -> None:
    if width < 1:
        raise ValueError(f"w_{ca} must be >= 1, got {width}")
    if not 0 <= bits < 1 << width:
        raise ValueError(f"s_{ca} = {bits} does not fit in {width} cells")
    if not 0 <= rule <= 255:
        raise ValueError(f"r_{ca} must be in [0, 255], got {rule}")


@dataclass(slots=True)
class Trajectory:
    """A run as packed sequences: ``states[t]``, ``rules[t]`` and (Case I/II)
    ``envs[t]`` are s_o, r_o and s_e at step t.  Unless the run hit its cap,
    its last step ``len(states) - 1`` is where it stopped: the repeat of the
    snapshot first seen at ``first_seen`` (deterministic variants) or the
    first homogeneous organism state (Case III)."""

    config: VariantConfig
    states: list[int]
    rules: list[int]
    envs: list[int] | None = None
    cap_hit: bool = False
    # deterministic variants: time at which the repeated snapshot first occurred
    first_seen: int | None = None

    def state_sequence(self) -> list[int]:
        """``states``; ``bench/pipeline.py`` counts a run's steps through it."""
        return self.states


def detect_cycle(traj: Trajectory) -> tuple[int, int] | None:
    """Minimal (P, L) of a deterministic trajectory; None when censored."""
    if not traj.config.variant.deterministic:
        raise ValueError("cycle detection applies to deterministic variants only")
    if traj.cap_hit:
        return None
    return traj.first_seen, len(traj.states) - 1 - traj.first_seen


# --- rule updates -----------------------------------------------------------

def case1_flips(co, ce, w_o: int, w_e: int) -> int:
    """The Case I mask XORed into the rule, from the S3 triplet counts
    ``co`` of the organism's state (``w_o`` cells) and ``ce`` of the
    environment's (``w_e`` cells): bit 7 - i is set when triplet S3[i]
    occurs in both states and its normalized frequency in the organism
    meets or exceeds the one in the environment (exact cross-multiplied
    integer comparison).  The one statement of the flip test.

    Requiring the triplet in both states is what makes a single-triplet
    update (the rule 30 -> 62 example) possible at all: if absent-from-the-
    environment triplets flipped too, every present triplet would win
    against a zero frequency and updates could never isolate one bit.
    """
    mask = 0
    for i in range(8):
        if co[i] and ce[i] and co[i] * w_e >= ce[i] * w_o:
            mask |= 1 << (7 - i)
    return mask


def case1_update_bits(s_o_bits: int, w_o: int, r_o: int, s_e_bits: int, w_e: int) -> int:
    """r_o after the Case I update from the states s_o and s_e."""
    return r_o ^ case1_flips(triplet_counts_bits(s_o_bits, w_o),
                             triplet_counts_bits(s_e_bits, w_e), w_o, w_e)


def stream_key(master_seed: int) -> list[int]:
    """The Philox key words ``[0, master_seed]`` (the seed taken mod 2^64)
    of the stream keyed by ``master_seed``, i.e. the 128-bit key
    ``master_seed << 64``."""
    return [0, int(master_seed) & (2**64 - 1)]


def execution_rng(master_seed: int) -> np.random.Generator:
    """Counter-based stream keyed by ``master_seed``."""
    key = np.array(stream_key(master_seed), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def integers_rows(rng: np.random.Generator, bounds: tuple[int, ...],
                  rows: int) -> list[tuple[int, ...]]:
    """``[tuple(int(rng.integers(0, b)) for b in bounds) for _ in range(rows)]``
    from one vectorised ``rng.integers`` call, which draws the same values in
    the same order and leaves ``rng`` where those scalar calls would.  The
    bounds go in as a uint64 array, which holds each bound up to 2^63
    exactly: numpy would turn a list holding 2^63 and another bound above
    2^53 into float64."""
    a = rng.integers(0, np.array(bounds, dtype=np.uint64), size=(rows, len(bounds)))
    return list(zip(*a.T.tolist()))


@contextmanager
def gc_paused():
    """Run the body (or, as a decorator, each call) with the cyclic garbage
    collector disabled, then restore the caller's ``gc.isenabled()`` state,
    also when the body raises.  Reference counting still frees everything
    that is not in a cycle."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# --- lookup tables ----------------------------------------------------------

class _Computed:
    """Stand-in for a table over the budget: entry ``i`` is ``fn(i)``,
    computed on every access."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, i):
        return self.fn(i)


@lru_cache(maxsize=None)
def organism_steps(width: int) -> list:
    """``steps[rule][s]``: state ``s`` of ``width`` cells after one step of
    ``rule``, for all 256 rules (cached per width)."""
    if 256 << width <= TABLE_BUDGET:
        return [step_table(rule, width) for rule in range(256)]
    return [_Computed(stepper(rule, width)) for rule in range(256)]


@lru_cache(maxsize=None)
def environment_steps(rule: int, width: int):
    """``steps[s]``: state ``s`` of ``width`` cells after one step of ``rule``
    (cached per rule and width)."""
    if ENVIRONMENT_RULES << width <= TABLE_BUDGET:
        return step_table(rule, width)
    return _Computed(stepper(rule, width))


def _count_classes(w: int) -> tuple[list[list[int]], np.ndarray]:
    """The distinct S3 count vectors of the ``w``-cell states, and each
    state's index among them."""
    counts = count_array(w).astype(np.int64)
    # a count is at most w, so base w + 1 packs a state's counts in a key
    _, first, of_state = np.unique((w + 1) ** np.arange(8) @ counts,
                                   return_index=True, return_inverse=True)
    return counts[:, first].T.tolist(), of_state


@lru_cache(maxsize=8)
def flip_masks(w_o: int, w_e: int):
    """``flip[s_o][s_e]``: ``case1_flips`` of the two states' triplet counts
    (cached per width pair).  Up to 16 cells a ring, ``case1_flips`` is
    called once per pair of count classes, and each organism class gets one
    ``bytes`` row over every s_e, which the states of the class share.
    Above, each entry is computed on access."""
    if max(w_o, w_e) <= 16:
        (co, o_class), (ce, e_class) = _count_classes(w_o), _count_classes(w_e)
        rows = []
        for a in co:   # the class's masks, gathered out to every s_e
            masks = np.array([case1_flips(a, b, w_o, w_e) for b in ce], dtype=np.uint8)
            rows.append(masks[e_class].tobytes())
        return [rows[c] for c in o_class.tolist()]
    return _Computed(lambda so: _Computed(
        lambda se: case1_update_bits(so, w_o, 0, se, w_e)))


# The one Philox generator ``case3_masks`` draws from.  Each call points it
# at its (key, counter) first, so calls for different runs may interleave,
# but the generator is not thread-safe: the package steps one run at a time
# in each process.
_PHILOX = np.random.Philox(key=0)
_PHILOX_STATE = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
_RANDOM = np.random.Generator(_PHILOX).random


def case3_masks(seed: int, mu: float, start: int, n: int) -> bytes:
    """Case III's rule flips at steps ``start .. start + n - 1`` of the run
    seeded ``seed``: mask t is XORed into the rule at step t + 1.  They are
    the stream of ``execution_rng(seed)``: a step takes 8 doubles of
    ``random()``, and draw j of a step flips rule bit 7 - j when it is below
    mu, so n steps compare ``random(8 * n)`` with mu and pack the bits 8 to
    a byte, one byte per step.

    Philox is counter-based: the 64-bit words of block c of a stream are a
    function of (key, c) alone.  A double takes one word, so a step takes 8
    words, two 4-word blocks, and step ``start`` begins at counter
    ``2 * start``.  The call points the module's shared generator there,
    with an empty buffer; no generator is built per run."""
    state = _PHILOX_STATE["state"]
    state["counter"][0] = 2 * start
    state["key"][:] = stream_key(seed)
    _PHILOX.state = _PHILOX_STATE
    return np.packbits(_RANDOM(8 * n) < mu).tobytes()


# --- coupled stepping -------------------------------------------------------

def default_step_cap(config: VariantConfig) -> int:
    if config.variant is CASE_III:
        return 10**6
    w_e = config.w_e or 0
    return 256 * (1 << (config.w_o + w_e)) + 1


def run_trajectory(config: VariantConfig, cap: int | None = None) -> Trajectory:
    """Step the system until the variant's stop condition or ``cap`` steps.

    Deterministic variants stop at the first repeated full-system snapshot;
    Case III stops at the first homogeneous organism state.
    """
    if cap is None:
        cap = default_step_cap(config)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if config.variant is CASE_III:
        return _run_case3(config, cap)
    if config.variant.has_environment:
        return _run_deterministic(config, cap)
    states, first = fixed_rule_run(config.r_o, config.w_o, config.s_o, cap)
    if first is not None:
        states.append(states[first])
    return Trajectory(config, states, [config.r_o] * len(states),
                      cap_hit=first is None, first_seen=first)


def fixed_rule_run(rule: int, width: int, state: int,
                   steps: int) -> tuple[list[int], int | None]:
    """A run of ``rule`` from the ``width``-cell ``state``, stopped at its
    first repeated state or after ``steps`` updates: ``(states, first)``,
    the distinct states in step order and the step whose state follows
    ``states[-1]``, so the run cycles with period ``len(states) - first``
    from step ``first`` on; ``first`` is None when no state repeats within
    ``steps`` updates."""
    return _first_repeat(organism_steps(width)[rule], state, steps)


def fixed_rule_runs(rules, width: int, states,
                    steps: int) -> list[tuple[array, int | None]]:
    """``fixed_rule_run(rules[i], width, states[i], steps)`` for every lane
    i, the states as an ``array("Q")``: the lanes, packed in one int (32-bit
    fields below 32 cells, else 64-bit: a spare bit above each ring), step
    as the OR of their ``neighborhoods`` ANDed with their rule bits to the
    checkpoints 16, 32, 64, ..., ``steps``, where those that have repeated
    retire (``_sorted_pairs``): none steps far past twice its run."""
    if not 1 <= width <= 63:
        raise ValueError(f"lane width must be in 1..63, got {width}")
    field = np.uint32 if width < 32 else np.uint64
    pack = lambda a: int.from_bytes(a.astype(field).tobytes(), "little")
    hist, rules = np.array(states, dtype=np.uint64)[:, None], np.array(rules, dtype=np.uint64)
    full = (1 << width) - 1
    runs, ids, t = [None] * len(hist), np.arange(len(hist)), 0
    while len(ids):
        stop = min(steps, max(16, 2 * t))
        # bits[v]: all ones in the fields of the lanes whose rule has bit v set
        bits, ones = [pack(rules >> v & 1) * full for v in range(8)], pack(np.ones(len(ids)))
        fulls, size = ones * full, len(ids) * field().itemsize
        state, block = pack(hist[:, t]), bytearray(size * (stop - t))
        for k in range(0, len(block), size):
            state = reduce(or_, map(and_, neighborhoods(state, width, fulls, ones), bits))
            block[k:k + size] = state.to_bytes(size, "little")
        hist = np.concatenate([hist, np.empty((len(ids), stop - t), np.uint64)], axis=1)
        hist[:, t + 1:] = np.frombuffer(block, field).reshape(stop - t, len(ids)).T
        del block, bits, ones, fulls, state     # not held through the sort
        n = stop + 1
        equal, at = _sorted_pairs(hist, width)
        ends = np.where(equal, at[:, 1:], n).min(axis=1, initial=n)
        firsts = np.where(equal, at[:, :-1], n).min(axis=1, initial=n)
        done = np.flatnonzero((ends < n) | (stop == steps))
        for i, lane, end, first in zip(done.tolist(), ids[done].tolist(),
                                       ends[done].tolist(), firsts[done].tolist()):
            runs[lane] = (array("Q", hist[i, :end].tobytes()), first if end < n else None)
        live = (ends == n) & (stop < steps)
        ids, hist, rules, t = ids[live], hist[live], rules[live], stop
    return runs


def _sorted_pairs(hist: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``(equal, at)`` of the rows of ``hist`` sorted, ties in step order:
    ``at[:, k]`` is the step of sorted entry k, ``equal[:, k]`` whether
    entries k and k + 1 are one state, so the first repeat is the earliest
    later step of an equal pair and its first occurrence the earliest
    earlier one (no state before it recurs).  The sort is of
    ``state << b | step`` keys while they fit in 64 bits, else a stable argsort."""
    b = (hist.shape[1] - 1).bit_length()
    if width + b > 64:
        at = np.argsort(hist, axis=1, kind="stable")
        return np.diff(np.take_along_axis(hist, at, axis=1), axis=1) == 0, at
    keys = hist << b
    keys |= np.arange(hist.shape[1], dtype=np.uint64)
    keys.sort(axis=1)
    equal = (keys[:, 1:] ^ keys[:, :-1]) < (1 << b)     # the state bits agree
    keys &= (1 << b) - 1
    return equal, keys


def _first_repeat(table, state: int, steps: int) -> tuple[list[int], int | None]:
    """``fixed_rule_run`` over a step table or a ``_Computed`` one, which is
    called through its own ``fn``, one Python call a step."""
    step = table.fn if isinstance(table, _Computed) else table.__getitem__
    states = [state]
    seen = {state: 0}
    for t in range(1, steps + 1):
        state = step(state)
        first = seen.setdefault(state, t)
        if first != t:
            return states, first
        states.append(state)
    return states, None


def _run_deterministic(config: VariantConfig, cap: int) -> Trajectory:
    """Case I and II, stepped to the first repeat of (s_o, r_o, s_e).

    Up to the Poincare time t_P = 2^w_o (or the cap), where most runs end,
    the packed key of the snapshot is checked at every step.  A run still
    going at t_P is checked once per environment cycle.  The environment is
    an isolated fixed-rule ECA, stepped on its own to its first repeat: its
    states ``E``, pre-period ``pe`` and period ``le``.  A snapshot can repeat
    only at steps past ``pe`` a multiple of ``le`` apart, so (s_o, r_o) is
    compared only at the checkpoints c >= pe with c = pe (mod le), where
    s_e is ``E[pe]``; between them the organism reads s_e from ``E``.  A
    match of checkpoints f < t gives the period L = t - f, and the first
    repeat's step P lies within ``le - 1`` steps before f (the first
    checkpoint at or after P matches L steps later), so a scan from
    max(pe, f - le + 1) finds it.  Checkpoints run to below cap + le, so
    every repeat with P + L <= cap is seen; the lists are then cut back to
    the run's end, or to the cap when the run is censored.
    """
    case1 = config.variant is CASE_I
    w_o, w_e = config.w_o, config.w_e
    o_step = organism_steps(w_o)
    e_step = environment_steps(config.r_e, w_e)
    flip = flip_masks(w_o, w_e) if case1 else None
    so, ro, se = config.s_o, config.r_o, config.s_e
    states, rules, envs = [so], [ro], [se]
    shift = 8 + w_e
    seen = {(so << shift) | (ro << w_e) | se: 0}
    t0 = min(cap, 1 << w_o)
    for t in range(1, t0 + 1):
        if case1:
            ro ^= flip[so][se]
        else:
            ro = se
        so = o_step[ro][so]
        se = e_step[se]
        states.append(so)
        rules.append(ro)
        envs.append(se)
        first = seen.setdefault((so << shift) | (ro << w_e) | se, t)
        if first != t:
            return Trajectory(config, states, rules, envs, first_seen=first)
    if t0 == cap:
        return Trajectory(config, states, rules, envs, cap_hit=True)

    E, pe = _first_repeat(e_step, config.s_e, cap)
    if pe is None:
        # no environment repeat within the cap, so no system repeat either:
        # the one checkpoint is the cap, where nothing is seen before
        pe = cap
    le = len(E) - pe
    cycle = E[pe:]
    seen = {states[c] << 8 | rules[c]: c for c in range(pe, t0 + 1, le)}
    segment = E[t0:pe] if t0 < pe else cycle[(t0 - pe) % le:]
    t = t0
    while True:
        for e in segment:
            if case1:
                ro ^= flip[so][e]
            else:
                ro = e
            so = o_step[ro][so]
            states.append(so)
            rules.append(ro)
        t += len(segment)
        first = seen.setdefault(so << 8 | ro, t)
        if first != t or t >= cap:
            break
        segment = cycle
    end, first_seen = cap, None
    if first != t:
        L = t - first
        P = max(pe, first - le + 1)
        while states[P] != states[P + L] or rules[P] != rules[P + L]:
            P += 1
        if P + L <= cap:
            end, first_seen = P + L, P
    del states[end + 1:], rules[end + 1:]
    envs = (E + cycle * ((end - pe) // le))[:end + 1]
    return Trajectory(config, states, rules, envs,
                      cap_hit=first_seen is None, first_seen=first_seen)


def _run_case3(config: VariantConfig, cap: int) -> Trajectory:
    o_step = organism_steps(config.w_o)
    full = (1 << config.w_o) - 1
    so, ro = config.s_o, config.r_o
    states, rules = [so], [ro]
    t = 0
    while t < cap and 0 < so < full:
        # blocks double from 16 steps up to 4096
        for mask in case3_masks(config.seed, config.mu, t, min(max(16, t), 4096, cap - t)):
            t += 1
            ro ^= mask
            so = o_step[ro][so]
            states.append(so)
            rules.append(ro)
            if so == 0 or so == full:
                break
    return Trajectory(config, states, rules, cap_hit=0 < so < full)


def continued(traj: Trajectory, horizon: int):
    """``traj``'s (states, rules, envs) covering at least steps 0..horizon: a
    deterministic run continues around its cycle, a Case III run on its
    flip-mask stream."""
    n = len(traj.states) - 1
    if horizon <= n:
        return traj.states, traj.rules, traj.envs
    if traj.config.variant.deterministic:
        if traj.cap_hit:
            raise ValueError("a censored trajectory cannot be continued")
        P, L = detect_cycle(traj)
        tail = [P + (t - P) % L for t in range(n + 1, horizon + 1)]
        return tuple(None if seq is None else seq + [seq[i] for i in tail]
                     for seq in (traj.states, traj.rules, traj.envs))
    o_step = organism_steps(traj.config.w_o)
    states, rules = list(traj.states), list(traj.rules)
    so, ro = states[-1], rules[-1]
    for mask in case3_masks(traj.config.seed, traj.config.mu, n, horizon - n):
        ro ^= mask
        so = o_step[ro][so]
        states.append(so)
        rules.append(ro)
    return states, rules, None
