"""Cycle detection, projected recurrence times, and the UE flag."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import naive_cycle, scalar_projected_recurrence

from oee_ca.eca import step_table
from oee_ca.recurrence import (
    build_report,
    detect_cycle,
    poincare_time,
    projected_recurrence,
    ue_flag,
)
from oee_ca.variants import Variant, VariantConfig, run_trajectory


# --- poincare_time ----------------------------------------------------------

def test_poincare_values():
    assert poincare_time(3) == 8
    assert poincare_time(4) == 16
    assert poincare_time(7) == 128


def test_poincare_range():
    for bad in (2, 65):
        with pytest.raises(ValueError):
            poincare_time(bad)


# --- detect_cycle -----------------------------------------------------------

def test_cycle_identity_rule():
    config = VariantConfig(Variant.ISOLATED, 4, 0b0110, 204)
    assert detect_cycle(run_trajectory(config)) == (0, 1)


def test_cycle_rule0_from_nonzero():
    config = VariantConfig(Variant.ISOLATED, 3, 0b101, 0)
    assert detect_cycle(run_trajectory(config)) == (1, 1)


def test_cycle_censored_returns_none():
    config = VariantConfig(Variant.ISOLATED, 5, 0b10010, 30)
    traj = run_trajectory(config, cap=1)
    assert traj.cap_hit and detect_cycle(traj) is None


def test_cycle_rejects_nondeterministic():
    config = VariantConfig(Variant.CASE_III, 3, 1, 30, mu=0.5, seed=0)
    with pytest.raises(ValueError):
        detect_cycle(run_trajectory(config))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 7),
       st.integers(0, 7))
def test_cycle_matches_naive_oracle_case1(r_o, r_e, so, se):
    """detect_cycle agrees with a store-everything oracle on (3,3) systems."""
    config = VariantConfig(Variant.CASE_I, 3, so, r_o,
                           w_e=3, s_e=se, r_e=r_e)
    cycle = detect_cycle(run_trajectory(config))

    from oee_ca.variants import case1_update_bits
    o_tab = [step_table(r, 3) for r in range(256)]
    e_tab = step_table(r_e, 3)

    def step_fn(state):
        s_o, r, s_e = state
        r2 = case1_update_bits(s_o, 3, r, s_e, 3)
        return (o_tab[r2][s_o], r2, e_tab[s_e])

    assert cycle == naive_cycle(step_fn, (so, r_o, se))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 255), st.integers(0, 31))
def test_cycle_doubling_replay(rule, init):
    """Re-simulating 2(P + L) steps confirms snapshot(t+L) = snapshot(t)."""
    config = VariantConfig(Variant.ISOLATED, 5, init, rule)
    P, L = detect_cycle(run_trajectory(config))
    table = step_table(rule, 5)
    seq = [init]
    for _ in range(2 * (P + L)):
        seq.append(table[seq[-1]])
    for t in range(P, P + L):
        assert seq[t + L] == seq[t]


# --- projected_recurrence ---------------------------------------------------

def test_projected_recurrence_validation():
    """A cycle needs P >= 0 and L >= 1."""
    with pytest.raises(ValueError):
        projected_recurrence([1, 2, 3], -1, 1)
    with pytest.raises(ValueError):
        projected_recurrence([1, 2, 3], 0, 0)


def test_projected_constant_sequence():
    assert projected_recurrence([7, 7, 7, 7], 1, 2) == (0, 1, 1)


def test_projected_known_period():
    # pre-period 2, then cycle a,b,a,b
    seq = [9, 8, 1, 2, 1, 2, 1]
    assert projected_recurrence(seq, 2, 2) == (2, 2, 4)


def test_projected_divisor_period():
    # full-system period 4 projects to period 2 on this coordinate
    seq = [5, 1, 2, 1, 2, 1]
    assert projected_recurrence(seq, 1, 4) == (1, 2, 3)


def test_projected_pre_period_shrinks():
    # projection is already periodic during the transient
    seq = [1, 2, 1, 2, 1]
    assert projected_recurrence(seq, 2, 2) == (0, 2, 2)


def test_projected_requires_full_window():
    with pytest.raises(ValueError):
        projected_recurrence([1, 2], 1, 2)


@st.composite
def projected_sequences(draw):
    """(sequence, P, L): a pre-period of P values, then a cycle of L values
    that is itself periodic with some period dividing L (or random), over a
    small alphabet, covering at least indices 0..P+L."""
    symbols = st.integers(0, 2)
    P, L = draw(st.integers(0, 30)), draw(st.integers(1, 60))
    pre = draw(st.lists(symbols, min_size=P, max_size=P))
    if draw(st.booleans()):
        lam = draw(st.sampled_from([d for d in range(1, L + 1) if L % d == 0]))
        unit = draw(st.lists(symbols, min_size=lam, max_size=lam))
        cycle = unit * (L // lam)
    else:
        cycle = draw(st.lists(symbols, min_size=L, max_size=L))
    if P and draw(st.booleans()):   # the cycle reaches back into the pre-period
        k = draw(st.integers(1, min(P, L)))
        pre[P - k:] = cycle[L - k:]
    tail = draw(st.integers(1, 5))
    return pre + (cycle * (tail // L + 2))[:L + tail], P, L


@settings(max_examples=300, deadline=None)
@given(projected_sequences())
def test_projected_recurrence_matches_generator_oracle(case):
    seq, P, L = case
    assert projected_recurrence(seq, P, L) == scalar_projected_recurrence(seq, P, L)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 15),
       st.integers(0, 15))
def test_projection_invariants(r_o, r_e, so, se):
    """lam divides the full period; p never exceeds the full pre-period; the
    projected sequence really repeats with (p, lam)."""
    config = VariantConfig(Variant.CASE_I, 4, so, r_o,
                           w_e=4, s_e=se, r_e=r_e)
    traj = run_trajectory(config)
    P, L = detect_cycle(traj)
    for seq in (traj.states, traj.rules):
        p, lam, t_rec = projected_recurrence(seq, P, L)
        assert L % lam == 0 and p <= P and t_rec == p + lam

        def get(t):  # cyclic extension of the recorded sequence
            return seq[t] if t < P + L else seq[P + (t - P) % L]
        for t in range(p, P + 2 * L):
            assert get(t + lam) == get(t)
        if p > 0:
            assert get(p - 1 + lam) != get(p - 1)


# --- flags ------------------------------------------------------------------

def test_ue_flag_fig1_hypotheticals():
    assert ue_flag(6, 5, None) is False       # recurrence 5 < t_P = 6
    assert ue_flag(6, 13, None) is True       # recurrence 13 > t_P = 6
    assert ue_flag(8, 8, 8) is False          # strict inequality
    assert ue_flag(8, 3, 9) is True           # rule recurrence alone suffices
    assert ue_flag(8, None, None) is None     # censored propagates


def test_attractor_ue_flag():
    """The attractor flag compares the full-system period with t_P, strictly,
    and a censored run has none."""
    def report(w_e, r_o, r_e, s_e, cap=None):
        config = VariantConfig(Variant.CASE_I, 3, 0b001, r_o, w_e=w_e, s_e=s_e, r_e=r_e)
        return build_report(run_trajectory(config, cap))

    longer = report(6, 30, 45, 0b1)
    assert (longer.t_P, longer.t_a, longer.attractor_ue) == (8, 18, True)
    assert longer.ue is False   # the organism recurs within t_P all the same
    equal = report(4, 0, 3, 0b1)
    assert (equal.t_a, equal.attractor_ue) == (8, False)
    censored = report(6, 30, 45, 0b1, cap=1)
    assert censored.censored and censored.t_a is None and censored.attractor_ue is None


def test_isolated_never_ue():
    """Pigeonhole: isolated ECA recurrence never exceeds 2^w."""
    for rule in (0, 30, 90, 110, 204):
        for init in range(16):
            config = VariantConfig(Variant.ISOLATED, 4, init, rule)
            rep = build_report(run_trajectory(config))
            assert rep.t_r <= rep.t_P and rep.ue is False


# --- Case III convergence ---------------------------------------------------

def test_case3_convergence_examples():
    """Case III's t_r is the first step with a homogeneous organism state."""
    config = VariantConfig(Variant.CASE_III, 4, 0, 30, mu=0.5, seed=1)
    rep = build_report(run_trajectory(config))
    assert (rep.t_r, rep.ue, rep.censored) == (0, False, False)

    config = VariantConfig(Variant.CASE_III, 4, 0b0101, 0,
                           mu=0.0, seed=1)
    rep = build_report(run_trajectory(config))
    assert (rep.t_P, rep.t_r, rep.ue, rep.censored) == (16, 1, False, False)
    assert (rep.t_r_rule, rep.t_a, rep.attractor_ue) == (None, None, None)


def test_case3_censoring():
    config = VariantConfig(Variant.CASE_III, 4, 0b0101, 204,
                           mu=0.0, seed=1)
    rep = build_report(run_trajectory(config, cap=50))
    assert rep.censored and rep.t_r is None and rep.ue is None


# --- build_report -----------------------------------------------------------

def test_build_report_identity_rule():
    config = VariantConfig(Variant.ISOLATED, 4, 0b0110, 204)
    rep = build_report(run_trajectory(config))
    assert (rep.t_P, rep.t_r, rep.t_r_rule, rep.t_a) == (16, 1, 1, 1)
    assert rep.ue is False and rep.attractor_ue is False and not rep.censored


def test_build_report_censored():
    config = VariantConfig(Variant.ISOLATED, 5, 0b10110, 30)
    rep = build_report(run_trajectory(config, cap=1))
    assert rep.censored and rep.ue is None and rep.t_r is None
