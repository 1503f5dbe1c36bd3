"""LZW compressibility and Lyapunov exponents for organism trajectories.

Compressed size is counted in variable-width code bits: each emitted code
costs ceil(log2(dictionary size at emission time)), as in Welch's LZW
(IEEE Computer 17(6), 1984).  The dictionary grows by one entry per
emission, so the size is a function of the phrase count alone, in closed
form; the LZW pass only counts phrases, walking an integer trie over 0/1
bytes.  A window of packed organism states is serialized row-major, each
state MSB first, by joining rows of a per-width table of 0/1 bytes while the
table fits in ``TABLE_BUDGET`` cells, else rows formatted per state.
The compressibility C of a trajectory is its compressed bit count divided by
an ensemble-maximum normalization constant taken over random fixed-rule ECA
of the full-system width; large C means low complexity.  The constant's
sample runs are stepped together with numpy, a chunk of samples at a time;
with the ensemble's defaults (1000 samples x 1024 steps) norm(8) takes
about 1 s.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import linear_regression

import numpy as np

from .variants import (
    TABLE_BUDGET,
    Trajectory,
    Variant,
    VariantConfig,
    _Computed,
    execution_rng,
    follow,
    run_trajectory,
)

EXTINCT = "extinct"


@dataclass(frozen=True)
class ComplexityReport:
    compressed_bits: int
    norm_bits: int
    C: float
    k: float | str  # per-step exponential rate, or the "extinct" sentinel


_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=None)
def _row_table(width: int) -> list[bytes]:
    cells = np.arange(1 << width, dtype=np.uint32)[:, None]
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return [row.tobytes() for row in ((cells >> shifts) & 1).astype(np.uint8)]


def state_rows(width: int):
    """``rows[s]``: the cells of the ``width``-cell state ``s`` as 0/1 bytes,
    leftmost cell first."""
    if width << width <= TABLE_BUDGET:
        return _row_table(width)
    fmt = f"0{width}b"
    return _Computed(lambda s: format(s, fmt).encode().translate(_TO_BITS))


def serialize_states(states: list[int], width: int) -> bytes:
    """Row-major 0/1 bytes of packed states, one row per time step."""
    if not states:
        raise ValueError("need at least one state")
    rows = state_rows(width)
    return b"".join([rows[s] for s in states])


def lzw_phrase_count(bits: bytes) -> int:
    """Number of codes LZW emits for a non-empty string of 0/1 bytes.

    The dictionary starts as {0, 1} and is an integer trie: the children of
    code c are ``kids[2c]`` and ``kids[2c + 1]`` (0 while absent).  Nodes are
    held doubled (2c), so a child lookup is ``kids[node + bit]``.
    """
    if not bits:
        raise ValueError("empty input")
    # every emission but the last adds an entry: codes stay below len + 2
    kids = [0] * (2 * len(bits) + 4)
    free = 4
    symbols = iter(bits)
    node = 2 * next(symbols)
    for bit in symbols:
        child = kids[node + bit]
        if child:
            node = child
        else:
            kids[node + bit] = free
            free += 2
            node = bit + bit
    return free // 2 - 1


def lzw_size_bits(phrases: int) -> int:
    """Compressed size of an LZW output of ``phrases`` codes.

    The k-th code (from 0) is emitted while the dictionary holds 2 + k
    entries, so it costs ceil(log2(2 + k)) = (k + 1).bit_length() bits.  The
    sum of ``j.bit_length()`` over j = 1..m is ``(m + 1) * L - 2**L + 1``
    with ``L = m.bit_length()`` (0 for m = 0).
    """
    n = phrases.bit_length()
    return (phrases + 1) * n - (1 << n) + 1


def lzw_compress_bits(symbols: str) -> int:
    """LZW compressed size of a '0'/'1' string in variable-width code bits."""
    if symbols.strip("01"):
        raise ValueError("LZW input must be a string of '0' and '1'")
    return lzw_size_bits(lzw_phrase_count(symbols.encode().translate(_TO_BITS)))


_NORM_MEMO: dict[tuple[int, int, int, int], int] = {}
NORM_MAX_WIDTH = 63          # initial states are drawn as int64 values
# Samples stepped together share one buffer of about this many bytes, or of
# eight runs when runs are longer: each step costs the same numpy calls for
# any chunk size, so a chunk of one would step long runs slower than Python.
_NORM_CHUNK_BYTES = 1 << 20
_NORM_MIN_CHUNK = 8


def normalization_constant(w: int, samples: int = 10_000, steps: int = 65_536,
                           seed: int = 0, cache_path: str | None = None) -> int:
    """Maximum compressed size over random fixed-rule ECA of width ``w``.

    ``w`` is the full-system width (w_o + w_e), 1 <= w <= 63.  The run length
    is capped at min(steps, 2**(2w)).  Memoized per parameter tuple,
    optionally backed by a text cache file of
    ``<w> <samples> <steps> <seed> <max_bits>`` lines.
    """
    if not 1 <= w <= NORM_MAX_WIDTH:
        raise ValueError(f"normalization width must be in 1..{NORM_MAX_WIDTH}, got {w}")
    key = (w, samples, steps, seed)
    if key in _NORM_MEMO:
        return _NORM_MEMO[key]
    if cache_path and os.path.exists(cache_path):
        with open(cache_path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 5 and tuple(map(int, parts[:4])) == key:
                    _NORM_MEMO[key] = int(parts[4])
                    return _NORM_MEMO[key]

    run_steps = min(steps, 1 << min(2 * w, 62))
    most = max(map(lzw_phrase_count, fixed_rule_runs(w, samples, run_steps, seed)),
               default=0)
    # the size grows with the phrase count, so the largest count sets the max
    best = lzw_size_bits(most)
    _NORM_MEMO[key] = best
    if cache_path:
        with open(cache_path, "a") as fh:
            fh.write(f"{w} {samples} {steps} {seed} {best}\n")
    return best


def fixed_rule_runs(w: int, samples: int, steps: int, seed: int) -> Iterator[bytes]:
    """Runs of ``samples`` random fixed-rule ECA of width ``w``, ``steps``
    updates each, serialized row-major as one 0/1 byte per cell: the rows
    ``step_bits`` gives, each state printed MSB first.

    Sample i draws ``rng.integers(0, 256)`` (its rule), then
    ``rng.integers(0, 1 << w)`` (its initial state), from
    ``execution_rng(seed)``.  A chunk of samples is stepped together in one
    reused buffer, so memory stays bounded at any width.
    """
    rng = execution_rng(seed)
    chunk = max(1, min(samples, max(_NORM_MIN_CHUNK,
                                    _NORM_CHUNK_BYTES // ((steps + 1) * (w + 2)))))
    # cells 1..w of each row; cells 0 and w + 1 are the periodic halo
    buf = np.empty((steps + 1, w + 2, chunk), dtype=np.uint8)
    idx_buf = np.empty((w, chunk), dtype=np.intp)
    shifts = np.arange(w - 1, -1, -1, dtype=np.uint64)[:, None]
    for start in range(0, samples, chunk):
        n = min(chunk, samples - start)
        draws = [(int(rng.integers(0, 256)), int(rng.integers(0, 1 << w))) for _ in range(n)]
        rules = np.array([r for r, _ in draws], dtype=np.int64)
        states = np.array([s for _, s in draws], dtype=np.uint64)
        # lut[8i + v]: rule i's output for the neighborhood (l, c, r) read as v
        lut = ((rules[:, None] >> np.arange(8)) & 1).astype(np.uint8).ravel()
        base = 8 * np.arange(n, dtype=np.intp)
        rows, idx = buf[:, :, :n], idx_buf[:, :n]
        rows[0, 1:w + 1] = (states >> shifts) & np.uint64(1)
        for t in range(steps):
            cur = rows[t]
            cur[0] = cur[w]
            cur[w + 1] = cur[1]
            np.multiply(cur[:w], 4, out=idx)
            idx += base
            idx += cur[1:w + 1]
            idx += cur[1:w + 1]
            idx += cur[2:]
            np.take(lut, idx, out=rows[t + 1, 1:w + 1], mode="clip")
        for i in range(n):
            yield rows[:, 1:w + 1, i].tobytes()


def compressibility(states: list[int], width: int, norm_bits: int) -> tuple[int, float]:
    """(compressed_bits, C) for a window of packed ``width``-cell states."""
    if norm_bits <= 0:
        raise ValueError("norm_bits must be positive")
    bits = lzw_size_bits(lzw_phrase_count(serialize_states(states, width)))
    return bits, bits / norm_bits


def lyapunov(config: VariantConfig, perturb_bit: int = 0, horizon: int = 16,
             rng_seed: int | None = None, base: Trajectory | None = None) -> float | str:
    """Exponential growth rate of the Hamming distance to a run perturbed in
    one initial organism bit, or "extinct" when the defect dies at t = 1.

    The perturbed organism shares the literal environment sequence (Case
    I/II) or the random stream (Case III, common random numbers) and
    re-derives its own rule wherever the update depends on s_o.  ``base`` is
    the unperturbed run of ``config`` (``run_trajectory(config)``); only the
    perturbed copy is stepped alongside it.  Without it, a base of at most
    ``horizon`` steps is run first, in Case III on the stream seeded
    ``rng_seed`` (default: ``config.seed``).
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    w_o = config.w_o
    if not 0 <= perturb_bit < w_o:
        raise ValueError("perturb_bit out of range")
    if base is None:
        if rng_seed is not None and config.variant is Variant.CASE_III:
            config = replace(config, seed=rng_seed)
        base = run_trajectory(config, cap=horizon)
    elif rng_seed is not None or base.config != config:
        raise ValueError("base must be the run of config, on its own stream")

    ys = []
    for a, b in follow(base, config.s_o.bits ^ (1 << (w_o - 1 - perturb_bit)), horizon):
        y = (a ^ b).bit_count()
        ys.append(y)
        if y == 0 or y == w_o:
            break
    if ys[0] == 0:
        return EXTINCT
    return fit_exponent(ys)


def fit_exponent(ys: list[int]) -> float:
    """Least-squares slope of ln y(t) on t over {t >= 1 : y(t) > 0}."""
    pts = [(t, math.log(y)) for t, y in enumerate(ys, start=1) if y > 0]
    if len(pts) < 2:
        # a single usable point: slope of the line through (0, ln y(0)=0)
        t, ly = pts[0]
        return ly / t
    xs, lys = zip(*pts)
    return linear_regression(xs, lys).slope


def lyapunov_mean(config: VariantConfig, horizon: int = 16) -> float | str:
    """k averaged over all w_o perturbation positions (extinct ones skipped);
    "extinct" when every position is extinct."""
    base = run_trajectory(config, cap=horizon)
    vals = [lyapunov(config, b, horizon, base=base) for b in range(config.w_o)]
    finite = [v for v in vals if v != EXTINCT]
    if not finite:
        return EXTINCT
    return float(np.mean(finite))
