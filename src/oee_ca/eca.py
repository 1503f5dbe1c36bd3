"""Elementary cellular automaton primitives.

Rules are numbered 0..255 in Wolfram's scheme: bit ``v`` of the rule number
is the output for the neighborhood whose (left, center, right) cells read as
the 3-bit value ``v``.  The ordered triplet list

    S3 = [111, 110, 101, 100, 011, 010, 001, 000]

indexes rule tables MSB-first, so ``outputs[0]`` answers triplet 111.
A state is a periodic ring of cells held as a packed int plus its width:
``width`` bits, the leftmost cell in the most significant bit.

``stepper`` steps a state of any width.  Up to ``SIM_MAX_WIDTH`` (64)
cells, the widest ring the pipeline steps, the ring, extended
by one wrap cell on each side, is read eight cells at a time through a
10-cell window, whose next values come from a table of all 1024 windows per
rule: the rule's 10-cell ``step_table``, whose cells 1..8 have neighborhoods
that do not wrap, shifted down one cell (1 KB a rule, built by its first
``stepper``).  Each window is a shift of the whole ring, so a step costs
O(w^2) bit operations; a wider ring (``oee-ca run`` takes any width)
steps as the OR of its neighborhood masks over the rule's set bits, a few
whole-ring operations.

``neighborhoods`` states the neighborhood formula once, for one packed state,
a numpy array of them or rings packed in one int; the step tables, the
triplet counts of one state or of all states of a width (``count_array``),
the innovation pins and ``variants.fixed_rule_runs`` read it.  The Wolfram
class table is one module global, loaded from the bundled file on first use
and replaced by ``set_default_class_table``.
"""

from __future__ import annotations

import enum
from array import array
from functools import lru_cache
from importlib import resources

import numpy as np

SIM_MIN_WIDTH = 3
SIM_MAX_WIDTH = 64


class ConfigurationError(Exception):
    """Raised when bundled static data is missing or malformed."""


@lru_cache(maxsize=None)
def stepper(rule_number: int, width: int):
    """``step(bits)``: one synchronous update of a ``width``-cell state under
    the rule, periodic boundaries (cached per rule and width).

    The state is extended by one wrap cell on each side, so bit ``i + 1`` of
    ``e`` is cell bit ``i`` and cell bit ``i``'s neighborhood is bits
    ``i..i + 2`` of ``e``; the window table then gives 8 cells per lookup.
    Entry ``x`` of that table is cells 1..8 of ``step_table(rule, 10)[x]``,
    the next values of the 8 middle cells of the 10-cell window ``x``; the
    10-cell table is built outside ``step_table``'s cache, so only the 1 KB
    window table stays per rule.
    Above ``SIM_MAX_WIDTH`` cells the step is the union of
    ``neighborhoods(bits, width, full)[v]`` over the rule's set bits ``v``.
    """
    if width > SIM_MAX_WIDTH:
        full = (1 << width) - 1
        terms = [v for v in range(8) if rule_number >> v & 1]

        def step(bits: int) -> int:
            masks = neighborhoods(bits, width, full)
            out = 0
            for v in terms:
                out |= masks[v]
            return out

        return step
    table = np.frombuffer(step_table.__wrapped__(rule_number, 10), np.uint16) >> 1
    table = table.astype(np.uint8).tobytes()
    top, low, mask = width + 1, width - 1, (1 << width) - 1
    shifts = tuple(range(8, width, 8))

    def step(bits: int) -> int:
        e = (bits & 1) << top | bits << 1 | bits >> low
        out = table[e & 1023]
        for k in shifts:
            out |= table[e >> k & 1023] << k
        return out & mask

    return step


def neighborhoods(c, width: int, full, one=1):
    """The eight neighborhood masks of ``c``, a packed ``width``-cell state,
    a numpy array of them or rings packed in one int, a field each with a
    spare bit above the ring: ``masks[v]`` holds the cells whose (l, c, r)
    reads as ``v``.  ``full`` (all ones) and ``one`` (the lowest cell) are
    of ``c``'s type, set in every field.  Cell p's left neighbor is cell
    p - 1, so ``left`` is the ring rotated right; a cell a shift carries out
    of a ring lands in a spare bit, cleared by each mask's ``c`` or ``nc``."""
    left = c >> 1 | (c & one) << (width - 1)
    right = c << 1 | (c >> (width - 1) & one)
    nl, nc, nr = left ^ full, c ^ full, right ^ full
    return (nl & nc & nr, nl & nc & right, nl & c & nr, nl & c & right,
            left & nc & nr, left & nc & right, left & c & nr, left & c & right)


@lru_cache(maxsize=None)
def neighborhood_masks(width: int) -> tuple[np.ndarray, ...]:
    """``masks[v][s]``: the cells of state ``s`` whose neighborhood (l, c, r)
    reads as ``v``, packed like a state, for all ``2**width`` states at once
    (read-only, cached per width).

    A rule's step table is the union of ``masks[v]`` over its set bits
    ``v``, and the count of triplet ``v`` in ``s`` is the number of set bits
    of ``masks[v][s]``.
    """
    c = np.arange(1 << width, dtype=np.uint32)
    masks = neighborhoods(c, width, np.uint32((1 << width) - 1))
    for m in masks:
        m.flags.writeable = False
    return masks


def _compact(values: np.ndarray, width: int):
    """A table of ``width``-bit entries in compact storage: bytes up to 8
    bits, else an array of 16- or 32-bit items."""
    if width <= 8:
        return values.astype(np.uint8).tobytes()
    table = array("H" if width <= 16 else "I")
    table.frombytes(values.astype(np.uint16 if width <= 16 else np.uint32).tobytes())
    return table


@lru_cache(maxsize=None)
def step_table(rule_number: int, width: int):
    """``table[s]``: state ``s`` after one step of the rule, for all
    ``2**width`` states (compact storage, cached per rule and width)."""
    masks = neighborhood_masks(width)
    out = np.zeros_like(masks[0])
    for v in range(8):
        if rule_number >> v & 1:
            out |= masks[v]
    return _compact(out, width)


def triplet_counts_bits(bits: int, width: int) -> tuple[int, ...]:
    """Counts of each S3 triplet over the ``width`` periodic windows: the
    set bits of the neighborhood masks, in S3 order."""
    masks = neighborhoods(bits, width, (1 << width) - 1)
    return tuple(m.bit_count() for m in reversed(masks))


@lru_cache(maxsize=None)
def count_array(width: int) -> np.ndarray:
    """``counts[i][s]``: occurrences of triplet S3[i] in state ``s``, for all
    ``2**width`` states (read-only, cached per width)."""
    masks = neighborhood_masks(width)
    bits = lambda m: np.unpackbits(m.view(np.uint8).reshape(-1, 4), axis=1)
    counts = np.stack([bits(masks[7 - i]).sum(axis=1, dtype=np.uint8) for i in range(8)])
    counts.flags.writeable = False
    return counts


# --- rule equivalence -------------------------------------------------------

def _mirror_number(n: int) -> int:
    out = 0
    for v in range(8):
        mv = ((v & 1) << 2) | (v & 2) | (v >> 2)
        out |= ((n >> mv) & 1) << v
    return out


def _complement_number(n: int) -> int:
    out = 0
    for v in range(8):
        out |= (1 - ((n >> (~v & 7)) & 1)) << v
    return out


def rule_orbit(n: int) -> frozenset[int]:
    m = _mirror_number(n)
    c = _complement_number(n)
    return frozenset((n, m, c, _complement_number(m)))


@lru_cache(maxsize=1)
def _canonical_map() -> tuple[int, ...]:
    return tuple(min(rule_orbit(n)) for n in range(256))


def canonical_rule(n: int) -> int:
    """Minimum rule number in the mirror/complement orbit of ``n``."""
    if not 0 <= n <= 255:
        raise ValueError(f"rule number out of range: {n}")
    return _canonical_map()[n]


@lru_cache(maxsize=1)
def canonical_rules() -> tuple[int, ...]:
    """The 88 orbit representatives, sorted ascending."""
    return tuple(sorted(set(_canonical_map())))


# --- Wolfram classes --------------------------------------------------------

class WolframClass(enum.IntEnum):
    I = 1
    II = 2
    III = 3
    IV = 4


def load_class_table(path=None) -> dict[int, WolframClass]:
    """Load the 256-line ``<rule> <class>`` table (bundled file by default)."""
    if path is None:
        text = resources.files("oee_ca").joinpath("data/wolfram_classes.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    table: dict[int, WolframClass] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rule_s, cls_s = line.split()
            table[int(rule_s)] = WolframClass(int(cls_s))
        except (ValueError, KeyError) as exc:
            raise ConfigurationError(f"bad class-table line: {line!r}") from exc
    missing = [n for n in range(256) if n not in table]
    if missing:
        raise ConfigurationError(f"class table missing rules: {missing[:8]}...")
    return table


_class_table: dict[int, WolframClass] | None = None   # loaded on first use


def set_default_class_table(path: str | None) -> None:
    """Replace the class table process-wide (None restores the bundled one)."""
    global _class_table
    _class_table = None if path is None else load_class_table(path)


def wolfram_class(n: int) -> WolframClass:
    global _class_table
    if not 0 <= n <= 255:
        raise ValueError(f"rule number out of range: {n}")
    if _class_table is None:
        _class_table = load_class_table()
    return _class_table[n]
