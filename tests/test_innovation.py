"""Innovation predicate, metric, and the brute-force counterfactual oracle."""

from array import array
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_force_counterfactual, scalar_is_eca_reproducible
from oee_ca.eca import BitState, step_bits
from oee_ca.ensemble import SamplePlan, execute_tuple
from oee_ca.innovation import _pins, is_eca_reproducible, transition_pins
from oee_ca.variants import TABLE_BUDGET, Variant, VariantConfig, run_trajectory


def states_of(width, packed):
    return [BitState(b, width) for b in packed]


# --- is_eca_reproducible ----------------------------------------------------

@given(st.integers(0, 255), st.integers(3, 6), st.data())
def test_fixed_rule_trajectory_is_reproducible(rule, width, data):
    init = data.draw(st.integers(0, (1 << width) - 1))
    packed = [init]
    for _ in range(10):
        packed.append(step_bits(rule, packed[-1], width))
    witness = is_eca_reproducible(packed, width)
    assert witness is not None
    # the returned witness itself generates the sequence
    for a, b in zip(packed, packed[1:]):
        assert step_bits(witness, a, width) == b


def test_contradictory_window():
    # 000 -> 010: cells 0 and 1 both see neighborhood 000 yet differ next step
    assert is_eca_reproducible([0b000, 0b010], 3) is None


def test_alternating_homogeneous_is_reproducible():
    seq = [0b0000, 0b1111, 0b0000, 0b1111]
    witness = is_eca_reproducible(seq, 4)
    assert witness is not None  # e.g. any rule with 000->1, 111->0


def test_constant_window_is_reproducible():
    seq = [0b0110] * 5
    witness = is_eca_reproducible(seq, 4)
    assert witness is not None  # rule 204 (identity) is one valid witness
    for a, b in zip(seq, seq[1:]):
        assert step_bits(witness, a, 4) == b


def test_smallest_witness_returned():
    # all-zero constant run is explained by rule 0 (smallest witness)
    assert is_eca_reproducible([0, 0, 0], 3) == 0


def test_reproducible_validation():
    with pytest.raises(ValueError):
        is_eca_reproducible([1], 3)
    with pytest.raises(ValueError):
        is_eca_reproducible([0, 0b1000], 3)   # a 4-cell state in a 3-cell window
    with pytest.raises(ValueError):
        is_eca_reproducible([0, -1], 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 15),
       st.integers(0, 15), st.data())
def test_reproducible_monotone_on_subwindows(r_o, r_e, so, se, data):
    """A reproducible window's contiguous sub-windows stay reproducible."""
    config = VariantConfig(Variant.CASE_I, BitState(so, 4), r_o,
                           s_e=BitState(se, 4), r_e=r_e)
    traj = run_trajectory(config)
    window = traj.states
    if is_eca_reproducible(window, 4) is not None and len(window) > 2:
        lo = data.draw(st.integers(0, len(window) - 2))
        hi = data.draw(st.integers(lo + 2, len(window)))
        assert is_eca_reproducible(window[lo:hi], 4) is not None


@st.composite
def windows(draw, width):
    """A window of 2..12 packed states: a fixed-rule run, optionally with one
    state replaced, or states drawn at random."""
    n = draw(st.integers(2, 12))
    state = st.integers(0, (1 << width) - 1)
    if draw(st.booleans()):
        return [draw(state) for _ in range(n)]
    rule, seq = draw(st.integers(0, 255)), [draw(state)]
    for _ in range(n - 1):
        seq.append(step_bits(rule, seq[-1], width))
    if draw(st.booleans()):
        seq[draw(st.integers(0, n - 1))] = draw(state)
    return seq


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_inn_matches_bitstate_oracle(data):
    """Widths 3..10 read the pin table; 11..13, 16 and 40 compute pins."""
    width = data.draw(st.sampled_from([*range(3, 14), 16, 40]))
    window = data.draw(windows(width))
    assert is_eca_reproducible(window, width) == scalar_is_eca_reproducible(window, width)


@lru_cache(maxsize=None)
def counterfactual(width):
    return brute_force_counterfactual(width)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 5), st.data())
def test_packed_inn_matches_counterfactual_set(width, data):
    window = data.draw(windows(width))
    assert ((is_eca_reproducible(window, width) is not None)
            == counterfactual(width).contains(states_of(width, window)))


def test_pins_chosen_by_budget():
    """The pin table covers every pair of states up to 10 cells; wider pins
    are computed, and the table's entries equal the computed ones."""
    assert 1 << 20 <= TABLE_BUDGET < 1 << 22
    assert isinstance(transition_pins(10), array)
    assert not isinstance(transition_pins(11), array)
    for width in (3, 6):
        table = transition_pins(width)
        assert list(table) == [_pins(k >> width, k & ((1 << width) - 1), width)
                               for k in range(1 << 2 * width)]


# --- innovation metric I = n_r / 2**w_o -------------------------------------

def metric_record(variant, w_o, tup):
    """The execution record of one tuple of a plan (norm_bits is arbitrary)."""
    plan = SamplePlan(variant, w_o, 8 if variant is Variant.CASE_I else None,
                      sample_count=1)
    return execute_tuple(plan, 0, tup, norm_bits=100)


def test_metric_constant_rules():
    rec = metric_record(Variant.ISOLATED, 4, (30, 0b0110))
    assert rec.n_rule_transitions == 0 and rec.innovation_I == 0.0


def test_metric_every_step_changes():
    """Case II's rule is the previous environment state: under rule 170 an
    8-cell environment with one set cell shifts one cell a step and never
    repeats two steps running, so every transition of the window changes
    the rule."""
    rec = metric_record(Variant.CASE_II, 4, (90, 170, 0b0110, 0b1))
    assert rec.t_r >= 2 and rec.n_rule_transitions == rec.t_r
    assert rec.innovation_I == rec.t_r / 16


def test_metric_normalization():
    """I counts the rule changes over the window 0..t_r, over 2**w_o."""
    for tup in [(30, 110, 0b101, 0b11010010), (110, 30, 0b011, 0b10011100)]:
        rec = metric_record(Variant.CASE_I, 3, tup)
        config = VariantConfig(Variant.CASE_I, BitState(tup[2], 3), tup[0],
                               s_e=BitState(tup[3], 8), r_e=tup[1])
        rules = run_trajectory(config).rules[:rec.t_r + 1]
        n_r = sum(a != b for a, b in zip(rules, rules[1:]))
        assert rec.n_rule_transitions == n_r > 0
        assert rec.innovation_I == n_r / 8


# --- brute-force counterfactual oracle --------------------------------------

def test_oracle_width_bound():
    with pytest.raises(ValueError):
        brute_force_counterfactual(6)


def test_oracle_contains_own_trajectories():
    cf = brute_force_counterfactual(3)
    for rule in (0, 30, 110):
        for init in range(8):
            seq = cf.trajectories[rule][init]
            assert cf.contains(states_of(3, seq))


def test_oracle_rejects_contradiction():
    cf = brute_force_counterfactual(3)
    assert not cf.contains(states_of(3, [0b000, 0b010]))


def test_oracle_width_mismatch():
    cf = brute_force_counterfactual(3)
    with pytest.raises(ValueError):
        cf.contains([BitState(0, 4), BitState(0, 4)])


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 4), st.data())
def test_oracle_equivalence_random_windows(width, data):
    """inn_flag <=> NOT contained in the counterfactual set."""
    cf = brute_force_counterfactual(width)
    n = data.draw(st.integers(2, 6))
    window = [data.draw(st.integers(0, (1 << width) - 1)) for _ in range(n)]
    assert (is_eca_reproducible(window, width) is not None) == cf.contains(states_of(width, window))
