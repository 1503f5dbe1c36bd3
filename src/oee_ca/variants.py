"""The three time-dependent rule-update mechanisms and the coupled stepping loop.

Variant summary (rule evolution of the organism ``o``):

* Case I   -- r_o(t+1) = f(s_o(t), r_o(t), s_e(t)): triplet-frequency driven
              bit flips; environment is a fixed-rule ECA of width w_e.
* Case II  -- r_o(t+1) = s_e(t) read as an 8-bit rule number; w_e = 8.
* Case III -- each rule bit flips independently with probability mu per step;
              the environment is a noise source, there is no s_e.
* Isolated -- plain ECA, the rule never changes (control).

The stepping order is rule-first: r_o(t+1) is derived from time-t quantities
and immediately applied to s_o(t).

A state is a packed int plus its width (leftmost cell in the most
significant bit), and a ``VariantConfig`` is a run's widths, packed initial
states and rules, checked once when it is built.  One packed loop runs
every trajectory.  A ``Trajectory`` holds plain int sequences: organism
states, rules and, with an environment, environment states.  A
deterministic run stops at the first repeat of the packed key
``(s_o << (8 + w_e)) | (r_o << w_e) | s_e``.  The loop's lookups (the
organism step under every rule, the environment step and the Case I flip
mask) are tables built with numpy over all states at once (``step_table``,
``count_array``) and cached, as long as the tables of one kind and width fit
in ``TABLE_BUDGET`` entries: the organism's 256 step tables, the environment
tables of all ``ENVIRONMENT_RULES`` rules a plan can draw, one flip table.
Above it the same loop computes each entry per step: a step with the
window-table kernel (``eca.stepper``), a flip mask with
``case1_update_bits``.  Case III draws its flip masks a block of steps at a
time from its own Philox stream, addressed by key and counter through one
generator shared by the process (not thread-safe; a process steps its runs
on one thread).  ``continued`` extends a finished run past its end, around
its cycle or on its flip-mask stream: ``oee-ca render`` replays a cycle
with it, and ``follow`` steps a perturbed copy of the organism alongside
the run, for the Lyapunov exponent.  Widths are not bounded here; the
callers that take them from outside (``oee-ca run``, ``SamplePlan``) check
them.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .eca import (
    canonical_rules,
    count_array,
    count_table,
    step_table,
    stepper,
    triplet_counts_bits,
)

# Most entries the stepping loop keeps in the lookup tables of one kind and
# width: the organism's 256 step tables, the step tables of every rule an
# environment is drawn from, or one Case I flip table.  A lookup whose tables
# would exceed it is computed per step instead.
TABLE_BUDGET = 1 << 20

# Environment/organism width ratios a Case I ensemble is drawn at.
CASE1_RATIOS = ("1/2", "1", "3/2", "2", "5/2")

# Environment rules an ensemble draws r_e from (the canonical orbit
# representatives); their step tables at one width share the budget.
ENVIRONMENT_RULES = len(canonical_rules())


class Variant(enum.Enum):
    CASE_I = "case1"
    CASE_II = "case2"
    CASE_III = "case3"
    ISOLATED = "eca"

    @property
    def deterministic(self) -> bool:
        return self is not Variant.CASE_III

    @property
    def has_environment(self) -> bool:
        return self in (Variant.CASE_I, Variant.CASE_II)


@dataclass(frozen=True)
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
        _check_ca("o", self.w_o, self.s_o, self.r_o)
        if self.variant.has_environment:
            if None in (self.w_e, self.s_e, self.r_e):
                raise ValueError(f"{self.variant.value} requires w_e, s_e and r_e")
            _check_ca("e", self.w_e, self.s_e, self.r_e)
            if self.variant is Variant.CASE_II and self.w_e != 8:
                raise ValueError("Case II requires an environment of width 8")
        elif (self.w_e, self.s_e, self.r_e) != (None, None, None):
            raise ValueError(f"{self.variant.value} takes no environment CA")
        if self.variant is Variant.CASE_III:
            if self.mu is None or not 0.0 <= self.mu < 1.0:
                raise ValueError("Case III requires mu in [0, 1)")
            if self.seed is None:
                raise ValueError("Case III requires a seed")


def _check_ca(ca: str, width: int, bits: int, rule: int) -> None:
    if width < 1:
        raise ValueError(f"w_{ca} must be >= 1, got {width}")
    if not 0 <= bits < 1 << width:
        raise ValueError(f"s_{ca} = {bits} does not fit in {width} cells")
    if not 0 <= rule <= 255:
        raise ValueError(f"r_{ca} must be in [0, 255], got {rule}")


@dataclass
class Trajectory:
    """A run as packed sequences: ``states[t]``, ``rules[t]`` and (Case I/II)
    ``envs[t]`` are s_o, r_o and s_e at step t."""

    config: VariantConfig
    states: list[int]
    rules: list[int]
    envs: list[int] | None = None
    cap_hit: bool = False
    # deterministic variants: time at which the repeated snapshot first occurred
    first_seen: int | None = None
    repeat_time: int | None = None
    # Case III: first step with a homogeneous organism state
    convergence_time: int | None = None
    # Case III: the run's flip-mask stream, kept so a follower can go past the end
    flips: FlipMasks | None = field(default=None, repr=False, compare=False)

    def state_sequence(self) -> list[int]:
        """``states``; ``bench/pipeline.py`` counts a run's steps through it."""
        return self.states


# --- rule updates -----------------------------------------------------------

def case1_update_bits(s_o_bits: int, w_o: int, r_o: int, s_e_bits: int, w_e: int) -> int:
    """Flip rule bit i when triplet S3[i] occurs in both states and its
    normalized frequency in s_o meets or exceeds the one in s_e (exact
    cross-multiplied integer comparison).

    Requiring the triplet in both states is what makes a single-triplet
    update (the rule 30 -> 62 example) possible at all: if absent-from-the-
    environment triplets flipped too, every present triplet would win
    against a zero frequency and updates could never isolate one bit.
    """
    if max(w_o, w_e) <= 16:
        co = count_table(w_o)[s_o_bits]
        ce = count_table(w_e)[s_e_bits]
    else:
        co = triplet_counts_bits(s_o_bits, w_o)
        ce = triplet_counts_bits(s_e_bits, w_e)
    out = r_o
    for i in range(8):
        if co[i] and ce[i] and co[i] * w_e >= ce[i] * w_o:
            out ^= 1 << (7 - i)
    return out


def stream_key(master_seed: int, index: int = 0) -> list[int]:
    """The Philox key words ``[index, master_seed]`` (each taken mod 2^64) of
    the stream keyed by (master seed, execution index), i.e. the 128-bit key
    ``(master_seed << 64) | index``."""
    return [int(index) & (2**64 - 1), int(master_seed) & (2**64 - 1)]


def execution_rng(master_seed: int, index: int = 0) -> np.random.Generator:
    """Counter-based stream keyed by (master seed, execution index)."""
    key = np.array(stream_key(master_seed, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def environment_steps(rule: int, width: int):
    """``steps[s]``: state ``s`` of ``width`` cells after one step of ``rule``."""
    if ENVIRONMENT_RULES << width <= TABLE_BUDGET:
        return step_table(rule, width)
    return _Computed(stepper(rule, width))


@lru_cache(maxsize=8)
def _case1_flip_table(w_o: int, w_e: int) -> list[bytes]:
    """``flip[s_o][s_e]``, built one rule bit at a time: bit 7 - i is set when
    triplet S3[i] occurs in both states and ``co * w_e >= ce * w_o``."""
    co, ce = count_array(w_o).astype(np.int32), count_array(w_e).astype(np.int32)
    flip = np.zeros((1 << w_o, 1 << w_e), dtype=np.uint8)
    for i in range(8):
        a, b = co[i][:, None], ce[i][None, :]
        both = (a > 0) & (b > 0) & (a * w_e >= b * w_o)
        np.bitwise_or(flip, np.uint8(1 << (7 - i)), out=flip, where=both)
    return [row.tobytes() for row in flip]


def flip_masks(w_o: int, w_e: int):
    """``flip[s_o][s_e]``: the Case I mask XORed into the rule, i.e.
    ``case1_update_bits(s_o, w_o, 0, s_e, w_e)``."""
    if 1 << (w_o + w_e) <= TABLE_BUDGET:
        return _case1_flip_table(w_o, w_e)
    return _Computed(lambda so: _Computed(
        lambda se: case1_update_bits(so, w_o, 0, se, w_e)))


# The one Philox generator every ``FlipMasks`` draws from.  Each block is
# drawn right after pointing it at the block's (key, counter), so instances
# may interleave, but the generator is not thread-safe: the package steps
# one run at a time in each process.
_PHILOX = np.random.Philox(key=0)
_DRAWS = np.random.Generator(_PHILOX)
_PHILOX_STATE = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


class FlipMasks:
    """Case III's rule flips: ``masks[t]`` is XORed into the rule at step
    t + 1.  They are the stream of ``execution_rng(seed)``, drawn a block of
    steps at a time: ``random(8 * n)`` yields the same doubles as n
    consecutive ``random(8)`` calls, one per step, and draw j of a step flips
    rule bit 7 - j when it is below mu.  Draws past the end of a run stay in
    ``masks`` for whoever continues it.

    Philox is counter-based: the 64-bit words of block c of a stream are a
    function of (key, c) alone.  A step takes 8 doubles, one 4-word block
    per 4 doubles, so the steps from ``len(masks)`` on start at counter
    ``2 * len(masks)``.  An instance keeps only its key and its masks, and
    ``more`` points the module's shared generator there, with an empty
    buffer, before each block; no generator is built per run."""

    def __init__(self, seed: int, mu: float):
        self._key = stream_key(seed)
        self._mu = mu
        self.masks = bytearray()

    def more(self) -> None:
        """Draw the next block; blocks double from 16 steps up to 4096."""
        n = min(max(16, len(self.masks)), 4096)
        state = _PHILOX_STATE["state"]
        state["counter"][0] = 2 * len(self.masks)
        state["key"][:] = self._key
        _PHILOX.state = _PHILOX_STATE
        draws = _DRAWS.random(8 * n).reshape(n, 8) < self._mu
        self.masks += np.packbits(draws, axis=1).tobytes()


# --- coupled stepping -------------------------------------------------------

def default_step_cap(config: VariantConfig) -> int:
    if config.variant is Variant.CASE_III:
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
    if config.variant is Variant.CASE_III:
        return _run_case3(config, cap)
    return _run_deterministic(config, cap)


def _run_deterministic(config: VariantConfig, cap: int) -> Trajectory:
    variant = config.variant
    case1, case2 = variant is Variant.CASE_I, variant is Variant.CASE_II
    coupled = variant.has_environment
    w_o, w_e = config.w_o, config.w_e or 0
    o_step = organism_steps(w_o)
    if coupled:
        e_step = environment_steps(config.r_e, w_e)
    if case1:
        flip = flip_masks(w_o, w_e)

    so, ro = config.s_o, config.r_o
    se = config.s_e if coupled else 0
    states, rules = [so], [ro]
    envs = [se] if coupled else None
    shift = 8 + w_e
    seen = {(so << shift) | (ro << w_e) | se: 0}
    for t in range(1, cap + 1):
        if case1:
            ro ^= flip[so][se]
        elif case2:
            ro = se
        so = o_step[ro][so]
        states.append(so)
        rules.append(ro)
        if coupled:
            se = e_step[se]
            envs.append(se)
        first = seen.setdefault((so << shift) | (ro << w_e) | se, t)
        if first != t:
            return Trajectory(config, states, rules, envs, first_seen=first, repeat_time=t)
    return Trajectory(config, states, rules, envs, cap_hit=True)


def _run_case3(config: VariantConfig, cap: int) -> Trajectory:
    o_step = organism_steps(config.w_o)
    full = (1 << config.w_o) - 1
    flips = FlipMasks(config.seed, config.mu)
    so, ro = config.s_o, config.r_o
    states, rules = [so], [ro]
    if so == 0 or so == full:
        return Trajectory(config, states, rules, convergence_time=0, flips=flips)
    t = 0
    while t < cap:
        flips.more()
        for mask in flips.masks[t:cap]:
            t += 1
            ro ^= mask
            so = o_step[ro][so]
            states.append(so)
            rules.append(ro)
            if so == 0 or so == full:
                return Trajectory(config, states, rules, convergence_time=t, flips=flips)
    return Trajectory(config, states, rules, cap_hit=True, flips=flips)


def continued(traj: Trajectory, horizon: int):
    """``traj``'s (states, rules, envs) covering at least steps 0..horizon: a
    deterministic run continues around its cycle, a Case III run on its
    flip-mask stream."""
    n = len(traj.states) - 1
    if horizon <= n:
        return traj.states, traj.rules, traj.envs
    if traj.config.variant.deterministic:
        if traj.repeat_time is None:
            raise ValueError("a censored trajectory cannot be continued")
        P, L = traj.first_seen, traj.repeat_time - traj.first_seen
        tail = [P + (t - P) % L for t in range(n + 1, horizon + 1)]
        return tuple(None if seq is None else seq + [seq[i] for i in tail]
                     for seq in (traj.states, traj.rules, traj.envs))
    o_step = organism_steps(traj.config.w_o)
    states, rules = list(traj.states), list(traj.rules)
    so, ro = states[-1], rules[-1]
    while len(traj.flips.masks) < horizon:
        traj.flips.more()
    for mask in traj.flips.masks[n:horizon]:
        ro ^= mask
        so = o_step[ro][so]
        states.append(so)
        rules.append(ro)
    return states, rules, None


def follow(traj: Trajectory, s_o: int, horizon: int) -> Iterator[tuple[int, int]]:
    """``(base state, copy state)`` at steps 1..horizon, for a copy of the
    organism started from ``s_o`` instead of the run's initial state.

    The copy shares the run's environment sequence (Case I, where it
    re-derives its own rule from its own states) or its rule sequence (the
    other variants: Case III by common random numbers).
    """
    config = traj.config
    states, rules, envs = continued(traj, horizon)
    o_step = organism_steps(config.w_o)
    if config.variant is Variant.CASE_I:
        flip = flip_masks(config.w_o, config.w_e)
        ro = config.r_o
        for t in range(1, horizon + 1):
            ro ^= flip[s_o][envs[t - 1]]
            s_o = o_step[ro][s_o]
            yield states[t], s_o
    else:
        for t in range(1, horizon + 1):
            s_o = o_step[rules[t]][s_o]
            yield states[t], s_o
