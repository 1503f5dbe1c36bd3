"""The innovation predicate against counterfactual isolated-ECA trajectories.

A state window is reproducible by an isolated ECA iff a single fixed rule is
consistent with every consecutive transition: isolated trajectories are
deterministic, so contiguous containment in the counterfactual set reduces
to single-rule consistency.

Windows are packed organism states (ints), as ``Trajectory`` holds them.  A
transition a -> b pins rule bit v to 1 when some cell of ``a`` with
neighborhood v is 1 in ``b``, and to 0 when one is 0; the pins of every
transition of one width come from one table built with numpy from
``neighborhood_masks`` while it fits in ``TABLE_BUDGET`` entries, and are
computed per transition from ``neighborhoods`` of the state above it.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

import numpy as np

from .eca import neighborhood_masks, neighborhoods
from .variants import TABLE_BUDGET, _Computed


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
    """The pins of one transition, from the neighborhood masks of ``a``."""
    full = (1 << width) - 1
    nb = b ^ full
    out = 0
    for v, m in enumerate(neighborhoods(a, width, full)):
        if m & b:
            out |= 1 << v
        if m & nb:
            out |= 256 << v
    return out


@lru_cache(maxsize=None)
def transition_pins(width: int):
    """``pins[a << width | b]``: the rule bits the transition a -> b pins,
    ``ones | zeros << 8``.  Bit v of ``ones`` (of ``zeros``) is set when
    some cell whose neighborhood in ``a`` reads v is 1 (is 0) in ``b``, i.e.
    when ``b & m`` is nonzero (``m & ~b`` is) for ``m = masks[v][a]``
    (cached per width)."""
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
