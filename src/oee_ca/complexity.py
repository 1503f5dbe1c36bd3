"""LZW compressibility and Lyapunov exponents for organism trajectories.

Compressed size is counted in variable-width code bits: each emitted code
costs ceil(log2(dictionary size at emission time)), as in Welch's LZW
(IEEE Computer 17(6), 1984).  The dictionary grows by one entry per
emission, so the size is a function of the phrase count alone, in closed
form; the LZW pass only counts phrases, walking an integer trie over 0/1
bytes.  A window of packed organism states is serialized row-major, each
state MSB first, by joining rows of a per-width table of 0/1 bytes while the
table fits in ``TABLE_BUDGET`` cells, else by unpacking the whole window with
numpy.
The compressibility C of a trajectory is its compressed bit count divided by
an ensemble-maximum normalization constant taken over random fixed-rule ECA
of the full-system width; large C means low complexity.  The constant's
sample runs, stepped together to their first repeated states by
``variants.fixed_rule_runs``, are visited longest first; a run is walked by
LZW only when a bound on the phrase count of an eventually periodic string
leaves room to beat the largest count so far.  The bound caps the distinct
substrings of each length, first by the span a run repeats within, then, for
a run that repeats, by the exact counts of its lengths up to
``COUNT_LENGTHS``; the span-only bound never decreases with the span, so the
visit stops at the first run it rules out.  With the defaults
(``NORM_SAMPLES`` x ``NORM_STEPS``, 1000 x 1024) norm(6) and norm(8) take
about 0.01 s and norm(19) about 0.10 s of CPU time on a 2-vCPU host, two
thirds of it in the LZW walks of 86 runs, a seventh in the substring counts
and a tenth in the lockstep stepping.  Only ``lyapunov`` steps here.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .variants import (
    CASE_I,
    TABLE_BUDGET,
    Trajectory,
    continued,
    execution_rng,
    fixed_rule_runs,
    flip_masks,
    gc_paused,
    integers_rows,
    organism_steps,
)

EXTINCT = "extinct"


@lru_cache(maxsize=None)
def state_rows(width: int) -> list[bytes] | None:
    """``rows[s]``: the cells of the ``width``-cell state ``s`` as 0/1 bytes,
    leftmost cell first; None when the table would exceed ``TABLE_BUDGET``
    cells (cached per width)."""
    if width << width > TABLE_BUDGET:
        return None
    cells = np.arange(1 << width, dtype=np.uint32)[:, None]
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return [row.tobytes() for row in ((cells >> shifts) & 1).astype(np.uint8)]


def serialize_states(states: Sequence[int], width: int) -> bytes:
    """Row-major 0/1 bytes of packed states of at most 64 cells, one row per
    time step."""
    if not states:
        raise ValueError("need at least one state")
    rows = state_rows(width)
    if rows is not None:
        return b"".join([rows[s] for s in states])
    if width > 64:
        raise ValueError(f"cannot serialize states wider than 64 cells, got {width}")
    packed = np.array(states, dtype=">u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(packed, axis=1)[:, 64 - width:].tobytes()


def lzw_phrase_count(bits: bytes) -> int:
    """Number of codes LZW emits for a non-empty string of 0/1 bytes.

    The dictionary starts as {0, 1} and is an integer trie: the children of
    code c are ``kids[2c]`` and ``kids[2c + 1]`` (0 while absent).  Nodes are
    held doubled (2c), so a child lookup is ``kids[node + bit]``.  Every
    emission but the last adds an entry, so codes stay below len + 2.  The
    list starts with room for them all or 4096 entries, the fewer, and at
    least doubles when a lookup runs past its end, so its memory follows
    the phrases.  The time still follows the length: the normalization
    constant is by definition the LZW count of strings of (cap + 1) * w
    symbols, each walked here in full.
    """
    if not bits:
        raise ValueError("empty input")
    room = 2 * len(bits) + 4
    kids = [0] * (room if room < 4096 else 4096)    # min() is a slower call
    free = 4
    symbols = iter(bits)
    node = 2 * next(symbols)
    while True:
        try:
            for bit in symbols:
                child = kids[node + bit]
                if child:
                    node = child
                else:
                    kids[node + bit] = free
                    free += 2
                    node = bit + bit
            return free // 2 - 1
        except IndexError:
            # the lookup ran past the end, so its node is one with no
            # children yet: a miss.  Nodes stay below ``free``, which is
            # at least the old length here
            kids += [0] * free
            kids[node + bit] = free
            free += 2
            node = bit + bit


def lzw_size_bits(phrases: int) -> int:
    """Compressed size of an LZW output of ``phrases`` codes.

    The k-th code (from 0) is emitted while the dictionary holds 2 + k
    entries, so it costs ceil(log2(2 + k)) = (k + 1).bit_length() bits.  The
    sum of ``j.bit_length()`` over j = 1..m is ``(m + 1) * L - 2**L + 1``
    with ``L = m.bit_length()`` (0 for m = 0).
    """
    n = phrases.bit_length()
    return (phrases + 1) * n - (1 << n) + 1


_NORM_MEMO: dict[tuple[int, int, int, int], int] = {}
NORM_MAX_WIDTH = 63          # initial states are drawn as int64 values
# the default sample plan of the constant, for the library, an ensemble and
# `oee-ca norm` alike, so a cache line one writes is the one the others read
NORM_SAMPLES = 1000
NORM_STEPS = 1024


@gc_paused()
def normalization_constant(w: int, samples: int = NORM_SAMPLES, steps: int = NORM_STEPS,
                           seed: int = 0, cache_path: str | None = None) -> int:
    """Maximum compressed size over random fixed-rule ECA of width ``w``.

    ``w`` is the full-system width (w_o + w_e), 1 <= w <= 63.  The run length
    is capped at min(steps, 2**(2w)).  Memoized per parameter tuple,
    optionally backed by a text cache file of
    ``<w> <samples> <steps> <seed> <max_bits>`` lines; a value the file
    lacks is appended to it, also when it comes from the memo.

    Sample i draws ``rng.integers(0, 256)`` (its rule), then
    ``rng.integers(0, 1 << w)`` (its initial state), from
    ``execution_rng(seed)``; ``integers_rows`` makes all the samples' draws
    first, in one vectorised ``integers`` call.  All the samples step
    together, each only to about twice its first repeated state
    (``variants.fixed_rule_runs``), and the runs are visited longest
    first, ties in draw order.  LZW walks a run,
    the cycle repeated out to the full length, only when
    ``lzw_phrase_bound`` leaves room for more phrases than the largest count
    so far: first the bound from the run's span alone, then, for a run that
    repeats at least ``COUNT_LENGTHS`` symbols before the end, the bound
    from its exact distinct-substring counts (``substring_counts``).  The
    span-only bound never decreases with the span, so the visit stops at the
    first run it rules out; a maximum does not depend on the order, so the
    constant is still the largest size over all the runs.  At the defaults
    and width 19 the visit stops after 367 of the 1000 runs, the counts rule
    out 281 of those and 86 are walked; the span-only bound is computed once
    per distinct span, 81 times for the 368 runs it checks.
    """
    if not 1 <= w <= NORM_MAX_WIDTH:
        raise ValueError(f"normalization width must be in 1..{NORM_MAX_WIDTH}, got {w}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    key = (w, samples, steps, seed)
    on_file = _cached_norm(cache_path, key)
    best = _NORM_MEMO.get(key, on_file)
    if best is None:
        best = _max_compressed_bits(w, samples, steps, seed)
    _NORM_MEMO[key] = best
    if cache_path and on_file is None:
        with open(cache_path, "a") as fh:
            fh.write(f"{w} {samples} {steps} {seed} {best}\n")
    return best


def _cached_norm(cache_path: str | None, key: tuple) -> int | None:
    """The constant a cache file holds for ``key``, else None.  A line of
    five fields up to the one for ``key`` that are not all integers, or
    whose constant is below 1, is a ValueError naming the file and line."""
    if cache_path and os.path.exists(cache_path):
        with open(cache_path) as fh:
            for number, line in enumerate(fh, start=1):
                parts = line.split()
                if len(parts) != 5:
                    continue
                where = f"{cache_path}: line {number}"
                try:
                    *line_key, bits = map(int, parts)
                except ValueError:
                    raise ValueError(f"{where}: expected 5 integers, got {line.strip()!r}") from None
                if bits < 1:
                    raise ValueError(f"{where}: the constant must be >= 1, got {bits}")
                if tuple(line_key) == key:
                    return bits
    return None


def _max_compressed_bits(w: int, samples: int, steps: int, seed: int) -> int:
    run_steps = min(steps, 1 << min(2 * w, 62))
    n = (run_steps + 1) * w
    rules, states = zip(*integers_rows(execution_rng(seed), (256, 1 << w), samples))
    runs = fixed_rule_runs(rules, w, states, run_steps)
    # longest first (stable, so ties keep draw order): the span-only bound
    # never decreases with the span, so once it cannot beat the largest
    # count so far, no shorter run can either
    runs.sort(key=lambda run: len(run[0]), reverse=True)
    most = bound_span = 0
    for states, first in runs:
        span = len(states) * w
        if span != bound_span:      # runs of one span are adjacent
            bound, bound_span = lzw_phrase_bound(n, span), span
        if bound <= most:
            break
        bits = serialize_states(states, w)
        if first is not None:
            head, cycle = bits[:first * w], bits[first * w:]
            bits = (head + cycle * ((n - len(head)) // len(cycle) + 1))[:n]
            # the exact counts, where the run repeats soon enough to have them
            if lzw_phrase_bound(n, span, substring_counts(bits, span)) <= most:
                continue
        most = max(most, lzw_phrase_count(bits))
    # the size grows with the phrase count, so the largest count sets the max
    return lzw_size_bits(most)


def lzw_phrase_bound(n: int, span: int, counts: Sequence[int] = ()) -> int:
    """An upper bound on ``lzw_phrase_count`` of an ``n``-symbol 0/1 string
    whose every substring starts within its first ``span`` symbols too.

    That holds for a string of period q from symbol p on with p + q <= span:
    a substring starting at i >= p + q equals the one starting at i - q.  A
    fixed-rule run that repeats at step t, serialized at w symbols per row,
    is one with span = t * w.  So the string has at most
    cap(l) = min(2**l, span) distinct substrings of each length l, and at
    most ``counts[l]`` where the exact counts of ``substring_counts`` are
    given (lengths below ``len(counts)``).

    LZW emitting c codes adds c - 1 dictionary entries.  Each is an emitted
    phrase followed by the next symbol: a substring of length >= 2, the
    entries distinct, their lengths summing to at most
    (n - 1) + (c - 1) = n + c - 2, as the phrases but the last cover at most
    n - 1 symbols.  Hence c - 1 <= G(n + c - 2), where G(m) is the largest
    number of distinct strings of lengths >= 2 within cap(l) per length and
    total length <= m; taking the shortest lengths first attains it.  G is
    non-decreasing, so from any upper bound c0 on c, c <= G(n + c - 2) + 1
    <= G(n + c0 - 2) + 1 is another.  Starting from c0 = n (a phrase is at
    least one symbol; G(2n - 2) + 1 <= n too), the iterates do not
    increase, and the first one that repeats is returned: the largest
    c <= n with c <= G(n + c - 2) + 1, so smaller caps never give a larger
    bound.
    """
    c = n
    while True:
        bound = _most_strings(n + c - 2, span, counts) + 1
        if bound >= c:
            return c
        c = bound


def _most_strings(budget: int, span: int, counts: Sequence[int] = ()) -> int:
    """G(budget): the most distinct 0/1 strings of lengths >= 2, at most
    cap(l) of each length l, whose lengths sum to at most ``budget``, taken
    shortest first.  cap(l) is ``counts[l]`` below ``len(counts)`` (exact
    counts, so at most min(2**l, span)), else min(2**l, span)."""
    count, length = 0, 2
    while length < len(counts) or 1 << length < span:
        cap = counts[length] if length < len(counts) else min(1 << length, span)
        if cap * length > budget:
            return count + budget // length
        count += cap
        budget -= cap * length
        length += 1
    # every longer length holds span strings: lengths ``length`` to ``top``
    # fit whole while span * (the sum of those lengths) <= budget
    below = length * (length - 1) // 2
    top = (math.isqrt(8 * (budget // span + below) + 1) - 1) // 2
    count += span * (top - length + 1)
    budget -= span * (top * (top + 1) // 2 - below)
    return count + budget // (top + 1)


COUNT_LENGTHS = 48           # substring lengths ``substring_counts`` counts


def substring_counts(bits: bytes, span: int) -> list[int]:
    """``d[l]``: the number of distinct ``l``-symbol substrings of the 0/1
    string ``bits`` starting at the positions ``0 .. span - 1``, for
    l = 0 .. ``COUNT_LENGTHS``; empty when ``bits`` is shorter than
    ``span + COUNT_LENGTHS``.

    Where every substring of ``bits`` starts within its first ``span``
    symbols too (see ``lzw_phrase_bound``), these are its exact counts.
    The ``COUNT_LENGTHS``-symbol prefix code of each start position is read
    from the packed string at a byte offset and a shift, and the codes are
    sorted once.  Two sorted neighbours start different l-prefixes exactly
    when their common prefix is shorter than l, so
    d[l] = 1 + #{neighbours with a common prefix < l}.
    """
    if len(bits) < span + COUNT_LENGTHS:
        return []
    packed = np.packbits(np.frombuffer(bits, np.uint8, span + COUNT_LENGTHS)).tobytes()
    # the big-endian word at each byte offset b (a strided view); a code
    # takes at most 7 of its bytes, so a zero byte pads out the last word
    words = np.ndarray(((span + 7) // 8, 1), ">u8", packed + b"\0", strides=(1, 8))
    # the code of start 8b + r: word b shifted left by r, its top bits
    codes = words.astype(np.uint64) << np.arange(8, dtype=np.uint64)
    codes >>= np.uint64(64 - COUNT_LENGTHS)
    codes = codes.ravel()[:span]
    codes.sort()
    # a XOR below 2**48 converts to float64 exactly, so the exponent frexp
    # gives is its exact bit length b (0 for equal codes); the neighbours
    # share a prefix of COUNT_LENGTHS - b symbols
    length = np.frexp((codes[1:] ^ codes[:-1]).astype(np.float64))[1]
    # new[l]: the neighbours whose common prefix is l - 1
    new = np.bincount(COUNT_LENGTHS + 1 - length, minlength=COUNT_LENGTHS + 2)
    return (1 + np.cumsum(new[:COUNT_LENGTHS + 1])).tolist()


def compressibility(states: list[int], width: int, norm_bits: int) -> tuple[int, float]:
    """(compressed_bits, C) for a window of packed ``width``-cell states."""
    if norm_bits <= 0:
        raise ValueError("norm_bits must be positive")
    bits = lzw_size_bits(lzw_phrase_count(serialize_states(states, width)))
    return bits, bits / norm_bits


def lyapunov(base: Trajectory, perturb_bit: int = 0, horizon: int = 16) -> float | str:
    """Exponential growth rate of the Hamming distance between the run
    ``base`` and a copy of it perturbed in one initial organism bit, or
    "extinct" when the defect dies at t = 1.

    The run is read to ``horizon`` through ``continued``, and only the copy
    is stepped, in this loop, until the distance reaches 0 or ``w_o``.  It
    shares the run's literal environment sequence (Case I, where it
    re-derives its own rule from its own states) or the run's rule sequence
    (the other variants, whose rules do not depend on s_o: Case III by
    common random numbers).
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    config = base.config
    w_o = config.w_o
    if not 0 <= perturb_bit < w_o:
        raise ValueError("perturb_bit out of range")

    states, rules, envs = continued(base, horizon)
    o_step = organism_steps(w_o)
    flip = flip_masks(w_o, config.w_e) if config.variant is CASE_I else None
    so, ro = config.s_o ^ (1 << (w_o - 1 - perturb_bit)), config.r_o
    ys = []
    for t in range(1, horizon + 1):
        if flip is not None:
            ro ^= flip[so][envs[t - 1]]
        else:
            ro = rules[t]
        so = o_step[ro][so]
        y = (states[t] ^ so).bit_count()
        ys.append(y)
        if y == 0 or y == w_o:
            break
    if ys[0] == 0:
        return EXTINCT
    return fit_exponent(ys)


# Longest Hamming series whose fit is memoized: every series of an organism
# of at most 6 cells (the horizon is at most 2**w_o), while the memo's size
# stays independent of how long a run is.
FIT_MEMO_LENGTH = 64


def fit_exponent(ys: list[int]) -> float:
    """Least-squares slope of ln y(t) on t over {t >= 1 : y(t) > 0}.  A pure
    function of the series, memoized for series of at most
    ``FIT_MEMO_LENGTH`` points: an ensemble fits the same short series many
    times."""
    if len(ys) <= FIT_MEMO_LENGTH:
        return _fit(tuple(ys))
    return _fit.__wrapped__(ys)


@lru_cache(maxsize=4096)
def _fit(ys: Sequence[int]) -> float:
    xs = [t for t, y in enumerate(ys, start=1) if y > 0]
    lys = [math.log(y) for y in ys if y > 0]
    n = len(xs)
    if n < 2:
        # a single usable point: slope of the line through (0, ln y(0)=0)
        return lys[0] / xs[0]
    # statistics.linear_regression's arithmetic as of Python 3.11 (exactly
    # rounded sums, then sxy / sxx); later versions sum differently, and k
    # must not change with the Python version
    xbar = math.fsum(xs) / n
    ybar = math.fsum(lys) / n
    dx = [x - xbar for x in xs]
    sxy = math.fsum([d * (ly - ybar) for d, ly in zip(dx, lys)])
    sxx = math.fsum([d * d for d in dx])
    return sxy / sxx
