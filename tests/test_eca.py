"""Core ECA primitives: rule tables, stepping, equivalence orbits, classes."""

import random
import tracemalloc
from array import array
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    RuleTable,
    cell,
    naive_step_bits,
    naive_triplet_counts,
    rule_from_number,
    rule_to_number,
    scalar_step_table,
)
from oee_ca import eca
from oee_ca.eca import (
    ConfigurationError,
    WolframClass,
    _complement_number,
    _mirror_number,
    canonical_rule,
    canonical_rules,
    load_class_table,
    neighborhood_masks,
    neighborhoods,
    step_table,
    stepper,
    triplet_counts_bits,
    wolfram_class,
)
from oee_ca.ensemble import SamplePlan
from oee_ca.variants import Variant

rules = st.integers(0, 255)
widths = st.integers(3, 12)


@st.composite
def states(draw, min_width=3, max_width=12):
    """A (packed state, width) pair."""
    w = draw(st.integers(min_width, max_width))
    return draw(st.integers(0, (1 << w) - 1)), w


def row(bits: int, width: int) -> str:
    return format(bits, f"0{width}b")


# --- rule numbering ---------------------------------------------------------

def test_rule_30_outputs():
    assert rule_from_number(30).outputs == (0, 0, 0, 1, 1, 1, 1, 0)


def test_rule_62_outputs():
    assert rule_from_number(62).outputs == (0, 0, 1, 1, 1, 1, 1, 0)


@given(rules)
def test_rule_number_round_trip(n):
    assert rule_to_number(rule_from_number(n)) == n
    assert rule_from_number(n).number == n


def test_rule_number_out_of_range():
    for bad in (-1, 256):
        with pytest.raises(ValueError):
            rule_from_number(bad)


def test_rule_table_validation():
    with pytest.raises(ValueError):
        RuleTable((0, 1))
    with pytest.raises(ValueError):
        RuleTable((0, 1, 2, 0, 0, 0, 0, 0))


# --- stepping ---------------------------------------------------------------

def test_step_rule_0_annihilates():
    for bits in range(32):
        assert stepper(0, 5)(bits) == 0


@given(states())
def test_step_rule_204_identity(s):
    bits, w = s
    assert stepper(204, w)(bits) == bits


def test_step_rule_30_pinned():
    assert row(stepper(30, 5)(0b00100), 5) == "01110"


@given(rules, states())
def test_step_shift_equivariance(n, s):
    """Rotating the input rotates the output identically."""
    bits, w = s
    rotate = lambda b: int(row(b, w)[1:] + row(b, w)[:1], 2)
    assert stepper(n, w)(rotate(bits)) == rotate(stepper(n, w)(bits))


@given(rules, states())
def test_step_complement_duality(n, s):
    bits, w = s
    full = (1 << w) - 1
    assert stepper(_complement_number(n), w)(bits ^ full) == stepper(n, w)(bits) ^ full


@given(rules, states())
def test_step_mirror_duality(n, s):
    bits, w = s
    mirror = lambda b: int(row(b, w)[::-1], 2)
    assert stepper(_mirror_number(n), w)(mirror(bits)) == mirror(stepper(n, w)(bits))


def test_step_rejects_narrow_state():
    """The kernel steps any width (``run`` draws 1- and 2-cell rings);
    an ensemble plan, whose analysis needs 3 cells, rejects narrower
    organisms."""
    with pytest.raises(ValueError):
        SamplePlan(Variant.ISOLATED, 2)


# every chunk boundary of the 8-cell window reads, and widths beyond 64
KERNEL_WIDTHS = (1, 2, 3, 7, 8, 9, 10, 16, 17, 24, 25, 63, 64, 65, 101, 128)


@settings(max_examples=300, deadline=None)
@given(rule=rules, width=st.sampled_from(KERNEL_WIDTHS), data=st.data())
def test_step_bits_matches_naive_oracle(rule, width, data):
    bits = data.draw(st.integers(0, (1 << width) - 1))
    assert stepper(rule, width)(bits) == naive_step_bits(rule, bits, width)


@pytest.mark.parametrize("width", KERNEL_WIDTHS)
def test_step_bits_matches_naive_oracle_for_every_rule(width):
    """All 256 rules on the homogeneous states, the states with one cell
    set at either wrap edge, and two alternating patterns."""
    full = (1 << width) - 1
    alternating = int("10" * width, 2) >> width
    edge_states = (0, full, 1, 1 << (width - 1), alternating, full ^ alternating)
    for rule in range(256):
        for bits in edge_states:
            assert stepper(rule, width)(bits) == naive_step_bits(rule, bits, width)


@pytest.mark.parametrize("width", [64, 65, 256, 4096])
@pytest.mark.parametrize("rule", [0, 30, 90, 110, 255])
def test_runs_either_side_of_the_window_kernel_follow_the_oracle(rule, width):
    """Up to 64 cells the window kernel steps a ring, above it the union of
    the neighborhood masks: 20 steps from a random ring equal the per-cell
    oracle's."""
    bits = random.Random(width).getrandbits(width)
    step = stepper(rule, width)
    for _ in range(20):
        bits, want = step(bits), naive_step_bits(rule, bits, width)
        assert bits == want


@pytest.mark.parametrize("width", [8, 9, 10])
def test_stepper_matches_step_table_on_every_state(width):
    """The window kernel against the step tables it is built from, for all
    256 rules and every state.  An 8-cell ring, extended by its two wrap
    cells, is one window exactly; 9 and 10 cells take a second window that
    runs past the extended ring."""
    for rule in range(256):
        assert list(map(stepper(rule, width), range(1 << width))) == list(step_table(rule, width))


def test_steppers_hold_only_their_window_tables(monkeypatch):
    """A stepper keeps its 1 KB window table and leaves no 2 KB 10-cell
    table in ``step_table``'s cache (here a fresh one): the 256 rules at 20
    cells hold about 0.43 MB, against 1.03 MB with the 10-cell tables cached."""
    fresh = lru_cache(maxsize=None)(step_table.__wrapped__)
    monkeypatch.setattr(eca, "step_table", fresh)
    neighborhood_masks(10)
    tracemalloc.start()
    try:
        steps = [stepper.__wrapped__(rule, 20) for rule in range(256)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) == 256 and fresh.cache_info().currsize == 0
    assert held < 600_000


# --- triplet statistics -----------------------------------------------------

def assert_step_table(rule, width):
    table = step_table(rule, width)
    assert isinstance(table, bytes if width <= 8 else array)
    assert width <= 8 or table.itemsize == (2 if width <= 16 else 4)
    assert tuple(table) == scalar_step_table(rule, width)


@pytest.mark.parametrize("width", [3, 4, 8, 9, 13])
@settings(max_examples=12, deadline=None)
@given(rule=rules)
def test_step_table_matches_scalar(width, rule):
    assert_step_table(rule, width)


def test_step_table_beyond_16_cells():
    assert_step_table(110, 17)


def test_neighborhood_masks_cached_and_read_only():
    masks = neighborhood_masks(5)
    assert masks is neighborhood_masks(5)
    with pytest.raises(ValueError):
        masks[0][0] = 1


@pytest.mark.parametrize("width", range(1, 11))
def test_neighborhood_masks_match_per_cell_windows(width):
    """With the default ``one``, the masks of every state are the cells
    whose (left, center, right) read as ``v``, one cell at a time."""
    got = [m.tolist() for m in neighborhood_masks(width)]
    for s in range(1 << width):
        want = [0] * 8
        for p in range(width):
            v = cell(s, p - 1, width) << 2 | cell(s, p, width) << 1 | cell(s, p + 1, width)
            want[v] |= 1 << (width - 1 - p)
        assert [m[s] for m in got] == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_neighborhoods_of_packed_lanes_match_each_lane(data):
    """Rings packed one to a 32- or 64-bit field with a spare bit above
    each: every packed mask unpacks, field by field, to each ring's own."""
    width = data.draw(st.integers(1, 63))
    field = data.draw(st.sampled_from([f for f in (32, 64) if f > width]))
    lanes = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=20))
    pack = lambda values: sum(v << field * i for i, v in enumerate(values))
    full, ones = (1 << width) - 1, pack([1] * len(lanes))
    masks = neighborhoods(pack(lanes), width, ones * full, ones)
    for i, c in enumerate(lanes):
        lane = [m >> field * i & (1 << field) - 1 for m in masks]
        assert lane == list(neighborhoods(c, width, full))


def test_triplet_frequencies_all_zero():
    counts = triplet_counts_bits(0, 5)
    assert counts[7] == 5  # triplet 000 in every window
    assert sum(counts) == 5
    assert all(c == 0 for c in counts[:7])


def test_triplet_frequencies_0101():
    counts = triplet_counts_bits(0b0101, 4)
    # periodic 0101: windows are 101, 010, 101, 010
    assert counts[2] == 2  # 101, half the windows
    assert counts[5] == 2  # 010
    assert sum(counts) == 4


@given(states())
def test_triplet_frequencies_sum_to_one(s):
    """One triplet per cell, so the normalized frequencies sum to 1."""
    bits, w = s
    assert sum(triplet_counts_bits(bits, w)) == w


@pytest.mark.parametrize("width", [1, 2, 3, 16, 17, 63, 64, 65, 101])
def test_triplet_counts_match_per_cell_oracle(width):
    """The neighborhood masks' bit counts equal the per-cell windows on
    zero, all-ones, alternating and random states."""
    full = (1 << width) - 1
    rng = np.random.default_rng(width)
    randoms = [int.from_bytes(rng.bytes(16), "big") & full for _ in range(20)]
    for bits in (0, full, full // 3, full - full // 3, *randoms):
        assert triplet_counts_bits(bits, width) == naive_triplet_counts(bits, width)


# --- equivalence orbits -----------------------------------------------------

def test_canonical_count_is_88():
    assert len(canonical_rules()) == 88


def test_canonical_idempotent():
    for n in range(256):
        assert canonical_rule(canonical_rule(n)) == canonical_rule(n)


def test_canonical_255_is_0():
    assert canonical_rule(255) == 0


@given(rules)
def test_orbit_members_share_canonical(n):
    for m in (_mirror_number(n), _complement_number(n)):
        assert canonical_rule(m) == canonical_rule(n)


@given(rules)
def test_mirror_complement_involutions(n):
    assert _mirror_number(_mirror_number(n)) == n
    assert _complement_number(_complement_number(n)) == n


# --- Wolfram classes --------------------------------------------------------

def test_known_classes():
    assert wolfram_class(110) == WolframClass.IV
    assert wolfram_class(30) == WolframClass.III
    assert wolfram_class(0) == WolframClass.I


def test_class_table_complete():
    table = load_class_table()
    assert set(table) == set(range(256))
    assert all(v in WolframClass for v in table.values())


def test_class_table_orbit_consistent():
    """Equivalent rules share dynamics, hence a class."""
    for n in range(256):
        assert wolfram_class(n) == wolfram_class(canonical_rule(n))


def test_class_table_rejects_bad_file(tmp_path):
    bad = tmp_path / "classes.txt"
    bad.write_text("0 1\n1 9\n")
    with pytest.raises(ConfigurationError):
        load_class_table(str(bad))


def test_class_table_rejects_incomplete_file(tmp_path):
    bad = tmp_path / "classes.txt"
    bad.write_text("0 1\n")
    with pytest.raises(ConfigurationError):
        load_class_table(str(bad))
