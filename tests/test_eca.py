"""Core ECA primitives: rule tables, stepping, equivalence orbits, classes."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    RuleTable,
    naive_step_bits,
    rule_from_number,
    rule_to_number,
    scalar_count_table,
    scalar_step_table,
)
from oee_ca.eca import (
    BitState,
    ConfigurationError,
    WolframClass,
    _complement_number,
    _mirror_number,
    canonical_rule,
    canonical_rules,
    count_table,
    load_class_table,
    neighborhood_masks,
    step_bits,
    step_table,
    triplet_counts_bits,
    window_tables,
    wolfram_class,
)
from oee_ca.ensemble import SamplePlan
from oee_ca.variants import Variant

rules = st.integers(0, 255)
widths = st.integers(3, 12)


@st.composite
def states(draw, min_width=3, max_width=12):
    w = draw(st.integers(min_width, max_width))
    return BitState(draw(st.integers(0, (1 << w) - 1)), w)


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


# --- bit states -------------------------------------------------------------

def test_state_string_round_trip():
    s = BitState.from_string("01101")
    assert s.width == 5 and s.bits == 0b01101
    assert s.to_string() == "01101"
    assert s.cells == (0, 1, 1, 0, 1)
    assert BitState.from_cells([0, 1, 1, 0, 1]) == s


def test_state_cell_indexing_msb_leftmost():
    s = BitState.from_string("100")
    assert (s.cell(0), s.cell(1), s.cell(2)) == (1, 0, 0)
    assert s.cell(-1) == s.cell(2)  # periodic


def test_state_validation():
    with pytest.raises(ValueError):
        BitState(0, 0)
    with pytest.raises(ValueError):
        BitState(8, 3)


def test_homogeneous():
    assert BitState(0, 4).is_homogeneous()
    assert BitState(0b1111, 4).is_homogeneous()
    assert not BitState(0b0101, 4).is_homogeneous()


# --- stepping ---------------------------------------------------------------

def step(rule: int, state: BitState) -> BitState:
    return BitState(step_bits(rule, state.bits, state.width), state.width)


def test_step_rule_0_annihilates():
    for bits in range(32):
        assert step(0, BitState(bits, 5)).bits == 0


@given(states())
def test_step_rule_204_identity(s):
    assert step(204, s) == s


def test_step_rule_30_pinned():
    out = step(30, BitState.from_string("00100"))
    assert out.to_string() == "01110"


@given(rules, states())
def test_step_shift_equivariance(n, s):
    """Rotating the input rotates the output identically."""
    rotated = BitState.from_cells(s.cells[1:] + s.cells[:1])
    out_rot = step(n, rotated)
    out = step(n, s)
    assert out_rot == BitState.from_cells(out.cells[1:] + out.cells[:1])


@given(rules, states())
def test_step_complement_duality(n, s):
    comp = BitState.from_cells(tuple(1 - c for c in s.cells))
    lhs = step(_complement_number(n), comp)
    rhs = BitState.from_cells(tuple(1 - c for c in step(n, s).cells))
    assert lhs == rhs


@given(rules, states())
def test_step_mirror_duality(n, s):
    rev = BitState.from_cells(s.cells[::-1])
    lhs = step(_mirror_number(n), rev)
    rhs = BitState.from_cells(step(n, s).cells[::-1])
    assert lhs == rhs


def test_step_rejects_narrow_state():
    """The kernel steps any width (``render`` draws 1- and 2-cell rings);
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
    assert step_bits(rule, bits, width) == naive_step_bits(rule, bits, width)


@pytest.mark.parametrize("width", KERNEL_WIDTHS)
def test_step_bits_matches_naive_oracle_for_every_rule(width):
    """All 256 rules on the homogeneous states, the states with one cell
    set at either wrap edge, and two alternating patterns."""
    full = (1 << width) - 1
    alternating = int("10" * width, 2) >> width
    edge_states = (0, full, 1, 1 << (width - 1), alternating, full ^ alternating)
    for rule in range(256):
        for bits in edge_states:
            assert step_bits(rule, bits, width) == naive_step_bits(rule, bits, width)


def test_window_tables_read_rule_bits():
    """Bit i of entry x is rule bit (x >> i) & 7, for all 256 rules."""
    tables = window_tables()
    assert len(tables) == 256 and all(len(t) == 1024 for t in tables)
    for rule in (0, 30, 110, 255):
        for x in range(1024):
            assert tables[rule][x] == sum((rule >> ((x >> i) & 7) & 1) << i for i in range(8))


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


@pytest.mark.parametrize("width", [3, 4, 5, 8, 11, 13])
def test_count_table_matches_scalar(width):
    assert count_table(width) == scalar_count_table(width)


def test_neighborhood_masks_cached_and_read_only():
    masks = neighborhood_masks(5)
    assert masks is neighborhood_masks(5)
    with pytest.raises(ValueError):
        masks[0][0] = 1


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
    assert sum(triplet_counts_bits(s.bits, s.width)) == s.width


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
