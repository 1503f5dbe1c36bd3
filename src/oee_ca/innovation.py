"""The innovation predicate against counterfactual isolated-ECA trajectories.

A state window is reproducible by an isolated ECA iff a single fixed rule is
consistent with every consecutive transition: isolated trajectories are
deterministic, so contiguous containment in the counterfactual set reduces
to single-rule consistency.  The brute-force enumeration below is kept as an
independent oracle for that reduction.

Windows are packed organism states (ints), as ``Trajectory`` holds them.  A
transition a -> b pins rule bit v to 1 when some cell of ``a`` with
neighborhood v is 1 in ``b``, and to 0 when one is 0; the pins of every
transition of one width come from one table built with numpy from
``neighborhood_masks`` while it fits in ``TABLE_BUDGET`` entries, and are
computed from the state's rotations per transition above it.
"""

from __future__ import annotations

import os
import struct
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eca import (
    BitState,
    _rotate_left_cells,
    _rotate_right_cells,
    neighborhood_masks,
    step_table,
)
from .variants import TABLE_BUDGET, _Computed

ORACLE_MAGIC = b"OEEC"
ORACLE_VERSION = 1


@lru_cache(maxsize=None)
def _pin_table(width: int):
    """``pins[a << width | b]`` for all pairs of ``width``-cell states."""
    masks = neighborhood_masks(width)
    b = np.arange(1 << width, dtype=np.uint32)[None, :]
    nb = b ^ np.uint32((1 << width) - 1)
    pins = np.zeros((1 << width, 1 << width), dtype=np.uint16)
    for v in range(8):
        m = masks[v][:, None]
        pins |= ((m & b) != 0).astype(np.uint16) << v
        pins |= ((m & nb) != 0).astype(np.uint16) << (v + 8)
    return array("H", pins.tobytes())


def _pins(a: int, b: int, width: int) -> int:
    """The pins of one transition, from ``a``'s left and right neighbors
    (``a`` rotated one cell each way), as ``neighborhood_masks`` builds them."""
    full = (1 << width) - 1
    left = _rotate_right_cells(a, width)
    right = _rotate_left_cells(a, width)
    nb = b ^ full
    out = 0
    for v in range(8):
        m = ((left if v & 4 else ~left) & (a if v & 2 else ~a)
             & (right if v & 1 else ~right) & full)
        if m & b:
            out |= 1 << v
        if m & nb:
            out |= 256 << v
    return out


def transition_pins(width: int):
    """``pins[a << width | b]``: the rule bits the transition a -> b pins,
    ``ones | zeros << 8``.  Bit v of ``ones`` (of ``zeros``) is set when
    some cell whose neighborhood in ``a`` reads v is 1 (is 0) in ``b``, i.e.
    when ``b & m`` is nonzero (``m & ~b`` is) for ``m = masks[v][a]``."""
    if 1 << 2 * width <= TABLE_BUDGET:
        return _pin_table(width)
    mask = (1 << width) - 1
    return _Computed(lambda key: _pins(key >> width, key & mask, width))


def is_eca_reproducible(states: list[int], width: int) -> int | None:
    """Smallest rule number generating every consecutive transition of the
    packed ``width``-cell states, else None.

    Works by constraint propagation: each transition pins rule bits to 1
    (``ones``) or to 0 (``zeros``); a bit pinned both ways means no rule
    exists.  Unpinned bits resolve to 0, which yields the smallest witness,
    ``ones``.
    """
    if len(states) < 2:
        raise ValueError("need at least 2 states")
    if min(states) < 0 or max(states) >> width:
        raise ValueError(f"states must fit in {width} cells")
    pins = transition_pins(width)
    acc = 0
    for a, b in zip(states, states[1:]):
        acc |= pins[a << width | b]
        if acc & (acc >> 8) & 0xFF:
            return None
    return acc & 0xFF


def inn_flag(states: list[int], width: int) -> bool:
    """Innovation: the window is inconsistent with every fixed ECA rule."""
    return is_eca_reproducible(states, width) is None


def innovation_metric(rules: list[int], w_o: int) -> float:
    """Number of rule transitions normalized by the Poincare bound 2**w_o."""
    n_r = sum(1 for a, b in zip(rules, rules[1:]) if a != b)
    return n_r / (1 << w_o)


@dataclass
class CounterfactualSet:
    """All isolated-ECA trajectories of one width, with containment queries."""

    width: int
    # trajectories[rule][init] = state sequence up to (and including) the
    # first repeated state
    trajectories: list[list[list[int]]]

    def contains(self, states: list[BitState]) -> bool:
        """Exact contiguous containment in some isolated trajectory.

        Any occurrence of the window's first state inside a rule-r trajectory
        continues deterministically, so it suffices to iterate each rule's
        transition map from states[0].
        """
        if any(s.width != self.width for s in states):
            raise ValueError("width mismatch with counterfactual set")
        packed = [s.bits for s in states]
        first, rest = packed[0], packed[1:]
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


def brute_force_counterfactual(width: int, cache_path: str | None = None) -> CounterfactualSet:
    """Enumerate all 256 rules x 2**width initial states (test oracle only)."""
    if not 3 <= width <= 5:
        raise ValueError("counterfactual enumeration is bounded to widths 3..5")
    if cache_path and os.path.exists(cache_path):
        return load_oracle_cache(cache_path, expect_width=width)

    n_states = 1 << width
    trajectories = []
    for rule in range(256):
        table = step_table(rule, width)
        per_rule = []
        for init in range(n_states):
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
    result = CounterfactualSet(width, trajectories)
    if cache_path:
        save_oracle_cache(result, cache_path)
    return result


def save_oracle_cache(cf: CounterfactualSet, path: str) -> None:
    """Magic, version byte, width byte, then length-prefixed records of
    (rule, init, length, packed states)."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(ORACLE_MAGIC)
        fh.write(struct.pack("BB", ORACLE_VERSION, cf.width))
        for rule in range(256):
            for init in range(1 << cf.width):
                seq = cf.trajectories[rule][init]
                fh.write(struct.pack("<BBH", rule, init, len(seq)))
                fh.write(struct.pack(f"<{len(seq)}B", *seq))
    os.replace(tmp, path)


def load_oracle_cache(path: str, expect_width: int | None = None) -> CounterfactualSet:
    with open(path, "rb") as fh:
        if fh.read(4) != ORACLE_MAGIC:
            raise ValueError(f"{path}: not an oracle cache file")
        version, width = struct.unpack("BB", fh.read(2))
        if version != ORACLE_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        if expect_width is not None and width != expect_width:
            raise ValueError(f"{path}: cache width {width} != requested {expect_width}")
        n_states = 1 << width
        trajectories = [[None] * n_states for _ in range(256)]
        while True:
            head = fh.read(4)
            if not head:
                break
            rule, init, length = struct.unpack("<BBH", head)
            seq = list(struct.unpack(f"<{length}B", fh.read(length)))
            trajectories[rule][init] = seq
        if any(seq is None for per_rule in trajectories for seq in per_rule):
            raise ValueError(f"{path}: incomplete oracle cache")
    return CounterfactualSet(width, trajectories)
