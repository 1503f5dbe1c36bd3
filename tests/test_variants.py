"""Rule-update mechanisms and the coupled stepping loop."""

import random
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    SystemSnapshot,
    case3_update_bits,
    naive_step_bits,
    scalar_lyapunov,
    scalar_trajectory,
    system_step,
)

from oee_ca import complexity as cx
from oee_ca.eca import count_array, step_table, stepper
from oee_ca.innovation import transition_pins
from oee_ca.variants import (
    CASE_I,
    CASE_II,
    CASE_III,
    ISOLATED,
    TABLE_BUDGET,
    Variant,
    VariantConfig,
    case1_update_bits,
    case3_masks,
    continued,
    default_step_cap,
    environment_steps,
    execution_rng,
    flip_masks,
    organism_steps,
    run_trajectory,
    stream_key,
)


def case1_config(s_o="0000", r_o=30, s_e="000000", r_e=90):
    return VariantConfig(Variant.CASE_I, len(s_o), int(s_o, 2), r_o,
                         len(s_e), int(s_e, 2), r_e)


# --- variant flags ----------------------------------------------------------

@pytest.mark.parametrize("value, member, deterministic, has_environment", [
    ("case1", CASE_I, True, True), ("case2", CASE_II, True, True),
    ("case3", CASE_III, False, False), ("eca", ISOLATED, True, False)])
def test_variant_flags(value, member, deterministic, has_environment):
    assert Variant(value) is member is getattr(Variant, member.name)
    assert (member.deterministic, member.has_environment) == (deterministic, has_environment)


# --- config validation ------------------------------------------------------

def test_case2_requires_width_8():
    with pytest.raises(ValueError):
        VariantConfig(Variant.CASE_II, 3, 0, 30, w_e=7, s_e=0, r_e=90)


def test_case1_requires_environment():
    with pytest.raises(ValueError):
        VariantConfig(Variant.CASE_I, 3, 0, 30)


def test_case3_requires_mu_and_seed():
    with pytest.raises(ValueError):
        VariantConfig(Variant.CASE_III, 3, 1, 30, seed=1)
    with pytest.raises(ValueError):
        VariantConfig(Variant.CASE_III, 3, 1, 30, mu=0.5)
    with pytest.raises(ValueError):
        VariantConfig(Variant.CASE_III, 3, 1, 30, mu=1.5, seed=1)


def test_isolated_rejects_environment():
    with pytest.raises(ValueError):
        VariantConfig(Variant.ISOLATED, 3, 0, 30, w_e=3, s_e=0, r_e=90)


CASE1_FIELDS = dict(w_o=4, s_o=0b1111, r_o=30, w_e=6, s_e=0b111111, r_e=90)


def test_config_holds_packed_ints():
    config = VariantConfig(Variant.CASE_I, **CASE1_FIELDS)
    assert (config.w_o, config.s_o, config.w_e, config.s_e) == (4, 15, 6, 63)


@pytest.mark.parametrize("fields, message", [
    (dict(w_o=0, s_o=0), "w_o must be >= 1"),
    (dict(s_o=16), "s_o = 16 does not fit in 4 cells"),
    (dict(s_o=-1), "s_o = -1 does not fit in 4 cells"),
    (dict(w_e=0, s_e=0), "w_e must be >= 1"),
    (dict(s_e=64), "s_e = 64 does not fit in 6 cells"),
], ids=["no-cells", "s_o-too-wide", "s_o-negative", "no-environment-cells", "s_e-too-wide"])
def test_config_rejects_states_outside_their_rings(fields, message):
    """Each packed state is checked against its width: at least one cell,
    and no bit set above the leftmost cell."""
    with pytest.raises(ValueError, match=message):
        VariantConfig(Variant.CASE_I, **{**CASE1_FIELDS, **fields})


@pytest.mark.parametrize("fields, message", [
    (dict(r_o=256), r"r_o must be in \[0, 255\], got 256"),
    (dict(r_o=-1), r"r_o must be in \[0, 255\], got -1"),
    (dict(r_e=300), r"r_e must be in \[0, 255\], got 300"),
    (dict(r_e=-1), r"r_e must be in \[0, 255\], got -1"),
], ids=["r_o=256", "r_o=-1", "r_e=300", "r_e=-1"])
def test_config_rejects_rules_outside_0_255(fields, message):
    with pytest.raises(ValueError, match=message):
        VariantConfig(Variant.CASE_I, **{**CASE1_FIELDS, **fields})


def test_config_rejects_an_environment_width_without_environment():
    with pytest.raises(ValueError, match="takes no environment"):
        VariantConfig(Variant.ISOLATED, 3, 0, 30, w_e=3)


@pytest.mark.parametrize("variant, fields", [
    (Variant.CASE_I, CASE1_FIELDS),
    (Variant.CASE_II, dict(CASE1_FIELDS, w_e=8, s_e=0)),
    (Variant.ISOLATED, dict(w_o=4, s_o=0b0110, r_o=30)),
], ids=["case1", "case2", "eca"])
@pytest.mark.parametrize("noise", [dict(mu=0.3), dict(seed=1), dict(mu=0.0, seed=0)],
                         ids=["mu", "seed", "both"])
def test_config_without_noise_rejects_mu_and_seed(variant, fields, noise):
    with pytest.raises(ValueError, match="takes no mu and no seed"):
        VariantConfig(variant, **fields, **noise)


# --- Case I -----------------------------------------------------------------

def test_case1_all_zero_flips_000_bit():
    """Only triplet 000 is present in both states; 1 >= 1 flips outputs[7]."""
    assert case1_update_bits(0, 4, 30, 0, 6) == 31


def test_case1_no_flip_branch():
    # s_o = 0111 has triplets {011,111,110,101}; s_e all-zero has only 000:
    # nothing is present in both, so the rule is unchanged.
    assert case1_update_bits(0b0111, 4, 30, 0, 6) == 30


def test_case1_single_triplet_witness_30_to_62():
    """Some (s_o, s_e) at widths (4, 6) flips exactly the 101 bit: 30 -> 62."""
    found = False
    for so in range(16):
        for se in range(64):
            if case1_update_bits(so, 4, 30, se, 6) == 62:
                found = True
    assert found


@given(st.integers(0, 255), st.integers(0, 15), st.integers(0, 63),
       st.integers(0, 3), st.integers(0, 5))
def test_case1_rotation_invariance(r_o, so, se, ko, ke):
    """Rotating either state cyclically leaves the decision unchanged."""
    def rot(bits, w, k):
        k %= w
        mask = (1 << w) - 1
        return ((bits << k) & mask) | (bits >> (w - k))
    assert (case1_update_bits(so, 4, r_o, se, 6)
            == case1_update_bits(rot(so, 4, ko), 4, r_o, rot(se, 6, ke), 6))


@given(st.integers(0, 255), st.integers(0, 15), st.integers(0, 63))
def test_case1_involution_on_flip_mask(r_o, so, se):
    """Applying the update twice from the same states restores the rule."""
    once = case1_update_bits(so, 4, r_o, se, 6)
    assert case1_update_bits(so, 4, once, se, 6) == r_o


def dense_flip_table(w_o: int, w_e: int, states=None) -> list[bytes]:
    """``flip_masks`` evaluated with numpy over every pair of states, or over
    the organism ``states`` given and every environment state: the tests'
    own statement of the Case I flip test."""
    co = count_array(w_o).astype(np.int32)
    if states is not None:
        co = co[:, states]
    ce = count_array(w_e).astype(np.int32)
    flip = np.zeros((co.shape[1], 1 << w_e), dtype=np.uint8)
    for i in range(8):
        a, b = co[i][:, None], ce[i][None, :]
        both = (a > 0) & (b > 0) & (a * w_e >= b * w_o)
        np.bitwise_or(flip, np.uint8(1 << (7 - i)), out=flip, where=both)
    return [row.tobytes() for row in flip]


@pytest.mark.parametrize("w_o,w_e", [(3, 3), (4, 4), (3, 7), (7, 3), (4, 8), (6, 5)])
def test_flip_table_is_case1_update_bits(w_o, w_e):
    flip = flip_masks(w_o, w_e)
    assert [list(row) for row in flip] == [
        [case1_update_bits(so, w_o, 0, se, w_e) for se in range(1 << w_e)]
        for so in range(1 << w_o)]


@pytest.mark.parametrize("w_o,w_e", [(6, 13), (5, 15), (6, 15), (8, 16), (16, 5)])
def test_flip_table_at_the_budget(w_o, w_e):
    """Tables up to 16 cells a ring: rows against the dense evaluation, all
    of them while w_o + w_e is at most 20 and 64 sampled ones above, and
    sampled entries against ``case1_update_bits``.  The organism states of
    one triplet-count class share one row object."""
    flip = flip_masks(w_o, w_e)
    rng = random.Random(w_o * 100 + w_e)
    if w_o + w_e <= 20:
        assert flip == dense_flip_table(w_o, w_e)
    else:
        states = rng.sample(range(1 << w_o), min(64, 1 << w_o))
        assert [flip[so] for so in states] == dense_flip_table(w_o, w_e, states)
    for se in rng.sample(range(1 << w_e), 16):
        for so in rng.sample(range(1 << w_o), min(64, 1 << w_o)):
            assert flip[so][se] == case1_update_bits(so, w_o, 0, se, w_e)
    row_of_class = {}
    for so, counts in enumerate(count_array(w_o).T.tolist()):
        assert row_of_class.setdefault(tuple(counts), flip[so]) is flip[so]
    assert len({id(row) for row in flip}) == len(row_of_class)


# --- Case II ----------------------------------------------------------------

def case2_next_rule(s_e: int) -> int:
    """The organism's rule at step 1 of a Case II run from environment s_e."""
    config = VariantConfig(Variant.CASE_II, 4, 0b0110, 90,
                           w_e=8, s_e=s_e, r_e=204)
    return run_trajectory(config, cap=1).rules[1]


def test_case2_pinned_examples():
    """The width-8 environment state read MSB-first as a rule number."""
    assert case2_next_rule(0b00011110) == 30
    assert case2_next_rule(0) == 0
    assert case2_next_rule(255) == 255


def test_case2_rejects_wrong_width():
    with pytest.raises(ValueError):
        VariantConfig(Variant.CASE_II, 4, 0, 30, w_e=7, s_e=0, r_e=90)


# --- Case III ---------------------------------------------------------------

def flip_masks_of(seed: int, mu: float, n: int) -> bytes:
    """The first ``n`` Case III flip masks of the stream seeded ``seed``,
    drawn in the blocks a run draws: 16, 16, 32, ..., 4096, 4096, ..."""
    masks = b""
    while len(masks) < n:
        t = len(masks)
        masks += case3_masks(seed, mu, t, min(max(16, t), 4096, n - t))
    return masks


def test_case3_mu_zero_never_flips():
    assert flip_masks_of(123, 0.0, 50) == bytes(50)


def test_case3_mu_near_one_full_complement():
    # with mu -> 1, a draw >= mu is vanishingly rare; force it by checking
    # many steps all produce the exact complement
    assert flip_masks_of(5, 0.999999, 20) == b"\xff" * 20


def test_case3_mean_flip_count_binomial():
    """mu = 0.5: mean Hamming distance per step is Binomial(8, 1/2) = 4."""
    n = 4000
    mean = sum(mask.bit_count() for mask in flip_masks_of(7, 0.5, n)) / n
    sigma = np.sqrt(8 * 0.25 / n)
    assert abs(mean - 4.0) < 3 * sigma


def test_case3_exactly_8_draws_per_call():
    rng_a = execution_rng(9)
    rng_b = execution_rng(9)
    case3_update_bits(90, 0.5, rng_a)
    rng_b.random(8)
    assert rng_a.random() == rng_b.random()


def test_case3_mu_validation():
    with pytest.raises(ValueError):
        VariantConfig(Variant.CASE_III, 3, 1, 90, mu=1.0, seed=0)


def rng_masks(seed: int, mu: float, n: int) -> bytes:
    """``n`` flip masks drawn straight from ``execution_rng(seed)``."""
    draws = execution_rng(seed).random(8 * n).reshape(n, 8) < mu
    return np.packbits(draws, axis=1).tobytes()


def test_stream_key_layout():
    assert stream_key(5) == [0, 5]
    assert stream_key(-1) == [0, 2**64 - 1]
    rng = execution_rng(5).bit_generator
    assert rng.state["state"]["key"].tolist() == [0, 5]
    assert rng.random_raw(4).tolist() == np.random.Philox(key=5 << 64).random_raw(4).tolist()


RANDOM_SEEDS = np.random.default_rng(17).integers(0, 2**64, 5, dtype=np.uint64).tolist()


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, *RANDOM_SEEDS])
@pytest.mark.parametrize("mu", [0.0, 2.0**-53, 0.1, 0.3, 0.5, 0.999999, 1 - 2.0**-53])
def test_flip_masks_are_the_execution_stream(seed, mu):
    """Past the 4096-step block size: blocks of 16, 16, 32, ..., 4096, 4096."""
    n = 10_000
    assert flip_masks_of(seed, mu, n) == rng_masks(seed, mu, n)


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 0.999999])
def test_case3_masks_are_slices_of_the_stream(mu):
    """Any (start, n) is the slice [start:start + n] of the stream's masks,
    on either side of the 16- and 4096-step block edges."""
    seed = RANDOM_SEEDS[0]
    stream = rng_masks(seed, mu, 10_100)
    for start in (0, 1, 15, 16, 17, 4095, 4096, 10000):
        for n in (0, 1, 7, 16, 33, 100):
            assert case3_masks(seed, mu, start, n) == stream[start:start + n]


def test_interleaved_flip_masks_keep_their_streams():
    """Calls for two streams take turns on the shared generator."""
    a = b = b""
    for i in range(9):
        a += case3_masks(3, 0.5, len(a), 16 << i)
        b += case3_masks(2**64 - 1, 0.3, len(b), 5 + i)
        b += case3_masks(2**64 - 1, 0.3, len(b), 17)
    assert a == rng_masks(3, 0.5, len(a))
    assert b == rng_masks(2**64 - 1, 0.3, len(b))


def test_case3_lyapunov_continues_its_stream_after_another_run():
    """The base run ends inside its first 16-step block and the Lyapunov
    copy goes past it, so ``continued`` draws the masks after the run's end
    after another run has used the shared generator."""
    config = VariantConfig(Variant.CASE_III, 10, 0b1011001110, 30, mu=0.1, seed=1)
    base = run_trajectory(config)
    assert len(base.states) - 1 < 16
    run_trajectory(VariantConfig(Variant.CASE_III, 3, 0b101, 90, mu=0.5, seed=999))
    rules = continued(base, 60)[1]
    assert bytes(a ^ b for a, b in zip(rules, rules[1:])) == rng_masks(1, 0.1, 60)
    k = cx.lyapunov(base, perturb_bit=0, horizon=60)
    assert k == scalar_lyapunov(config, perturb_bit=0, horizon=60)


def test_long_case3_run_crosses_block_boundaries():
    """A capped run whose rule changes 26 times, from step 412 to 11904, in
    the blocks after 4096 and after 8192 steps too; Lyapunov continues it
    20 steps past the cap."""
    config = VariantConfig(Variant.CASE_III, 12, 0b101100111010, 170, mu=0.0003, seed=8)
    traj = run_trajectory(config, cap=12000)
    changes = [t for t in range(1, len(traj.rules)) if traj.rules[t] != traj.rules[t - 1]]
    assert traj.cap_hit and len(traj.states) - 1 == 12000
    assert (len(changes), changes[0], changes[-1]) == (26, 412, 11904)
    assert any(4096 < t <= 8192 for t in changes) and any(8192 < t for t in changes)
    assert traj == scalar_trajectory(config, cap=12000)
    assert cx.lyapunov(traj, 0, 12020) == scalar_lyapunov(config, 0, 12020)


# --- system_step ------------------------------------------------------------

def test_system_step_isolated_identity_rule_fixed_point():
    config = VariantConfig(Variant.ISOLATED, 4, 0b0110, 204)
    snap = SystemSnapshot(0, config.s_o, config.r_o)
    for _ in range(5):
        nxt = system_step(config, snap)
        assert nxt.s_o == snap.s_o and nxt.r_o == 204
        snap = nxt


def test_system_step_case2_zero_environment_forces_rule_0():
    config = VariantConfig(Variant.CASE_II, 4, 0b1011, 30, w_e=8, s_e=0, r_e=204)
    nxt = system_step(config, SystemSnapshot(0, config.s_o, 30, config.s_e))
    assert nxt.r_o == 0
    assert nxt.s_o == 0  # rule 0 annihilates immediately (rule-first order)


def test_system_step_rule_first_ordering_case1():
    """The updated rule acts on s_o(t) in the same step."""
    config = case1_config(s_o="0000", r_o=30, s_e="000000", r_e=0)
    nxt = system_step(config, SystemSnapshot(0, config.s_o, 30, config.s_e))
    assert nxt.r_o == 31                      # 30 with the 000 bit flipped
    assert nxt.s_o == 0b1111                  # rule 31 maps 000 -> 1 everywhere


def test_environment_rule_constant():
    config = case1_config(s_o="0101", r_o=30, s_e="011010", r_e=110)
    traj = run_trajectory(config, cap=500)
    assert len(traj.envs) == len(traj.states)
    assert all(b == stepper(110, 6)(a) for a, b in zip(traj.envs, traj.envs[1:]))


# --- run_trajectory ---------------------------------------------------------

def test_trajectory_rule0_transient():
    config = VariantConfig(Variant.ISOLATED, 3, 0b101, 0)
    traj = run_trajectory(config)
    seq = traj.states
    assert seq[1] == 0 and seq[2] == 0
    assert traj.first_seen == 1 and len(traj.states) - 1 == 2


def test_trajectory_cap_validation():
    config = VariantConfig(Variant.ISOLATED, 3, 1, 30)
    with pytest.raises(ValueError):
        run_trajectory(config, cap=0)


def test_deterministic_pigeonhole_cap():
    """Deterministic trajectories always repeat within the default cap."""
    rng = np.random.default_rng(1)
    for _ in range(30):
        config = case1_config(
            s_o=format(rng.integers(0, 16), "04b"), r_o=int(rng.integers(0, 256)),
            s_e=format(rng.integers(0, 64), "06b"), r_e=int(rng.integers(0, 256)))
        traj = run_trajectory(config)
        assert not traj.cap_hit
        assert len(traj.states) - 1 <= default_step_cap(config)


def test_case3_identity_rule_never_converges():
    config = VariantConfig(Variant.CASE_III, 4, 0b0101, 204, mu=0.0, seed=3)
    traj = run_trajectory(config, cap=300)
    assert traj.cap_hit and len(traj.states) - 1 == 300


def test_case3_initially_homogeneous_converges_at_0():
    config = VariantConfig(Variant.CASE_III, 4, 0, 30, mu=0.5, seed=3)
    traj = run_trajectory(config)
    assert not traj.cap_hit and len(traj.states) - 1 == 0


def test_case3_rule0_converges_at_1():
    config = VariantConfig(Variant.CASE_III, 4, 0b0101, 0, mu=0.0, seed=3)
    traj = run_trajectory(config)
    assert not traj.cap_hit and len(traj.states) - 1 == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 15),
       st.integers(0, 63))
def test_replay_determinism_case1(r_o, r_e, so, se):
    config = VariantConfig(Variant.CASE_I, 4, so, r_o, w_e=6, s_e=se, r_e=r_e)
    a = run_trajectory(config)
    b = run_trajectory(config)
    assert (a.states, a.rules, a.envs) == (b.states, b.rules, b.envs)
    assert (a.first_seen, a.cap_hit) == (b.first_seen, b.cap_hit)


def test_replay_determinism_case3_same_seed():
    config = VariantConfig(Variant.CASE_III, 5, 0b01011, 30, mu=0.5, seed=42)
    a, b = run_trajectory(config), run_trajectory(config)
    assert (a.states, a.rules, a.cap_hit) == (b.states, b.rules, b.cap_hit)


def test_table_and_generic_paths_agree():
    """The table-driven packed loop equals snapshot-by-snapshot stepping."""
    config = case1_config(s_o="1010", r_o=45, s_e="110010", r_e=30)
    fast = run_trajectory(config)
    snap = SystemSnapshot(0, config.s_o, config.r_o, config.s_e)
    for t in range(1, len(fast.states)):
        snap = system_step(config, snap)
        assert (snap.s_o, snap.r_o, snap.s_e) == (
            fast.states[t], fast.rules[t], fast.envs[t])


@given(st.integers(0, 255), st.integers(3, 8))
def test_homogeneous_absorption(rule, w):
    """Homogeneous states map to homogeneous states under every rule."""
    full = (1 << w) - 1
    assert stepper(rule, w)(0) in (0, full)
    assert stepper(rule, w)(full) in (0, full)


# --- the packed loop against the snapshot oracle -------------------------------

rule_numbers = st.integers(0, 255)


def packed_states(w):
    return st.integers(0, (1 << w) - 1)


def drawn_case1(data, w_o, w_e):
    return VariantConfig(Variant.CASE_I, w_o, data.draw(packed_states(w_o)),
                         data.draw(rule_numbers), r_e=data.draw(rule_numbers),
                         w_e=w_e, s_e=data.draw(packed_states(w_e)))


def assert_same_run(config, cap=None, horizons=(2, 5, 17)):
    """Packed run equals the snapshot run; Lyapunov from the packed run (the
    full run, and one capped at the horizon) equals the re-simulating
    oracle."""
    traj = run_trajectory(config, cap)
    assert traj == scalar_trajectory(config, cap)
    n = len(traj.states) - 1
    for h in horizons:
        want = scalar_lyapunov(config, 0, h)
        assert cx.lyapunov(run_trajectory(config, cap=h), 0, h) == want
        if not traj.cap_hit or h <= n:
            assert cx.lyapunov(traj, 0, h) == want


@pytest.mark.parametrize("w_o, w_e", [(4, 6), (6, 13), (6, 15)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_case1_tables_match_oracle(w_o, w_e, data):
    """Flip masks from the table, also at (6, 15), where w_o + w_e is above
    the step tables' budget."""
    assert max(w_o, w_e) <= 16
    config = drawn_case1(data, w_o, w_e)
    assert_same_run(config, cap=3000)


@pytest.mark.parametrize("w_o, w_e", [(12, 9), (13, 21), (6, 17)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_packed_case1_above_budget_matches_oracle(w_o, w_e, data):
    """(12, 9): organism tables at the budget; (13, 21): every lookup
    computed per step; (6, 17): organism tables, flip masks and environment
    steps computed per step."""
    assert (1 << (w_o + w_e)) > TABLE_BUDGET
    config = drawn_case1(data, w_o, w_e)
    assert_same_run(config, cap=data.draw(st.integers(1, 60)), horizons=(2, 9))


@pytest.mark.parametrize("variant, w_e", [(Variant.CASE_I, 5), (Variant.CASE_I, 9),
                                          (Variant.CASE_I, 12), (Variant.CASE_II, 8)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_runs_past_the_poincare_time_match_oracle(variant, w_e, data):
    """At w_o = 3 a run still going at t_P = 8 is checked only once per
    environment cycle from there on.  Caps just before, at and just after
    the oracle's end step t*, and at t_P and t_P + 1, cut it as the
    snapshot run does."""
    config = VariantConfig(variant, 3, data.draw(packed_states(3)), data.draw(rule_numbers),
                           w_e, data.draw(packed_states(w_e)), data.draw(rule_numbers))
    end = len(scalar_trajectory(config).states) - 1
    cap = data.draw(st.sampled_from([max(1, end - 1), end, end + 1, 8, 9]))
    assert_same_run(config, cap=cap, horizons=(2, 9))


def test_run_repeating_at_the_environment_pre_period_past_t_p():
    """Case I (5,12) from r_o = 9, r_e = 106, s_o = 3, s_e = 1502: the
    environment enters a fixed point (period 1) at step 50, past t_P = 32,
    and the run repeats there with period 3, so the checkpoint at the
    environment's pre-period itself must be compared."""
    config = VariantConfig(Variant.CASE_I, 5, 3, 9, 12, 1502, 106)
    traj = run_trajectory(config)
    assert (traj.first_seen, len(traj.states) - 1) == (50, 53)
    for cap in (52, 53, 54, None):
        assert_same_run(config, cap=cap, horizons=(2, 9))


@pytest.mark.parametrize("variant, w_o, w_e", [
    (Variant.CASE_I, 4, 6), (Variant.CASE_I, 12, 9), (Variant.CASE_II, 5, 8),
    (Variant.CASE_III, 6, None), (Variant.ISOLATED, 5, None), (Variant.CASE_I, 4, 17)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lyapunov_matches_oracle_for_every_bit(variant, w_o, w_e, data):
    """Every perturbed bit, at a horizon past the run's end: the copy is read
    against the run continued around its cycle or on its stream.  (4, 17)
    computes its Case I flip masks per step."""
    if variant is Variant.CASE_I:
        config = drawn_case1(data, w_o, w_e)
    else:
        s_o, r_o = data.draw(packed_states(w_o)), data.draw(rule_numbers)
        if variant is Variant.CASE_II:
            config = VariantConfig(variant, w_o, s_o, r_o, w_e,
                                   data.draw(packed_states(w_e)), data.draw(rule_numbers))
        elif variant is Variant.CASE_III:
            config = VariantConfig(variant, w_o, s_o, r_o,
                                   mu=data.draw(st.sampled_from([0.1, 0.5])),
                                   seed=data.draw(st.integers(0, 2**64 - 1)))
        else:
            config = VariantConfig(variant, w_o, s_o, r_o)
    traj = run_trajectory(config, cap=3000)
    assume(not traj.cap_hit)
    horizon = max(2, len(traj.states) - 1 + data.draw(st.integers(1, 20)))
    for bit in range(w_o):
        assert cx.lyapunov(traj, bit, horizon) == scalar_lyapunov(config, bit, horizon)


def test_tables_chosen_by_budget():
    """The organism's 256 tables fit up to 12 cells, the environment tables
    of the 88 drawable rules up to 13; wider lookups are computed, with the
    same entries."""
    assert organism_steps(12)[30] is step_table(30, 12)
    assert environment_steps(30, 13) is step_table(30, 13)
    assert not isinstance(organism_steps(13)[30], (bytes, array))
    wide = environment_steps(30, 14)
    assert not isinstance(wide, (bytes, array))
    for s in (0, 1, 0x2A5C, (1 << 14) - 1):
        assert organism_steps(13)[30][s & 0x1FFF] == naive_step_bits(30, s & 0x1FFF, 13)
        assert wide[s] == naive_step_bits(30, s, 14)


@pytest.mark.parametrize("lookup, key", [
    (flip_masks, (4, 4)), (flip_masks, (6, 15)),
    (environment_steps, (30, 4)), (environment_steps, (30, 14)),
    (cx.state_rows, (4,)), (cx.state_rows, (17,)),
    (transition_pins, (4,)), (transition_pins, (11,)), (flip_masks, (6, 17))])
def test_lookups_are_cached_whole(lookup, key):
    """A lookup is one cache hit, below its table limit and above it: a
    second call with the same key returns the very object of the first."""
    assert lookup(*key) is lookup(*key)


@pytest.mark.parametrize("rule", [*range(1, 256, 16), 30, 110])
def test_computed_steps_equal_step_tables(rule):
    """Above the budget the organism (13 cells) and environment (14 cells)
    steps go through the window kernel; every entry equals the step table
    built explicitly for that width."""
    organism, environment = organism_steps(13)[rule], environment_steps(rule, 14)
    assert [organism[s] for s in range(1 << 13)] == list(step_table(rule, 13))
    assert [environment[s] for s in range(1 << 14)] == list(step_table(rule, 14))


@settings(max_examples=60, deadline=None)
@given(rule_numbers, rule_numbers, st.integers(3, 9), st.data())
def test_packed_case2_and_eca_match_oracle(r_o, r_e, w_o, data):
    so = data.draw(packed_states(w_o))
    assert_same_run(VariantConfig(Variant.CASE_II, w_o, so, r_o,
                                  w_e=8, s_e=data.draw(packed_states(8)), r_e=r_e))
    assert_same_run(VariantConfig(Variant.ISOLATED, w_o, so, r_o))


@settings(max_examples=40, deadline=None)
@given(rule_numbers, st.integers(13, 16), st.sampled_from([1, 2, 17, 3000]), st.data())
def test_packed_eca_above_budget_matches_oracle(r_o, w_o, cap, data):
    """From 13 cells the organism's steps are computed, and ``fixed_rule_run``
    calls the window kernel itself; runs that repeat and runs cut at a cap
    both equal the snapshot run."""
    assert not isinstance(organism_steps(w_o)[r_o], (bytes, array))
    config = VariantConfig(Variant.ISOLATED, w_o, data.draw(packed_states(w_o)), r_o)
    assert_same_run(config, cap=cap, horizons=(2, 9))


@pytest.mark.parametrize("w_o", [5, 13, 16])
@pytest.mark.parametrize("cap", [1, 5])
def test_packed_eca_cap_hit_matches_oracle(w_o, cap):
    """Rule 30 from one live cell does not repeat within 5 steps: the run
    stops at the cap with ``cap_hit`` set, no ``first_seen`` and cap + 1
    states, as the snapshot run does."""
    config = VariantConfig(Variant.ISOLATED, w_o, 1 << (w_o // 2), 30)
    traj = run_trajectory(config, cap)
    assert traj.cap_hit and traj.first_seen is None
    assert len(traj.states) == len(traj.rules) == cap + 1 and traj.envs is None
    assert_same_run(config, cap=cap, horizons=(2, 5))


@settings(max_examples=80, deadline=None)
@given(rule_numbers, st.integers(3, 13), st.sampled_from([0.0, 0.5]),
       st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 15, 16, 17, 40, None]), st.data())
def test_packed_case3_matches_oracle(r_o, w_o, mu, seed, cap, data):
    """Block-drawn flip masks equal one rng.random(8) per step, through cap
    hits and block boundaries; Lyapunov continues on the same stream."""
    config = VariantConfig(Variant.CASE_III, w_o, data.draw(packed_states(w_o)),
                           r_o, mu=mu, seed=seed)
    # with mu = 0 a run may never converge: keep the oracle's default 10**6 steps out
    assert_same_run(config, cap=cap if mu else cap or 200)


@pytest.mark.parametrize("s_o, r_o, t_r", [("0000", 90, 0), ("1111", 30, 0), ("0101", 0, 1)])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_packed_case3_short_runs_continue_for_lyapunov(s_o, r_o, t_r, mu):
    """t_r <= 1 is shorter than the smallest horizon (2): the Lyapunov copy draws
    the next masks of the run's stream."""
    config = VariantConfig(Variant.CASE_III, 4, int(s_o, 2), r_o, mu=mu, seed=7)
    traj = run_trajectory(config)
    if mu == 0.0 or r_o != 0:
        assert not traj.cap_hit and len(traj.states) - 1 == t_r
    assert_same_run(config, horizons=(2, 3, 10))


def test_lyapunov_continues_a_deterministic_run_around_its_cycle():
    """Rule 204 fixes every state: the run repeats at step 1, and the copy
    is read against the run continued around that cycle to the horizon."""
    config = VariantConfig(Variant.ISOLATED, 4, 0b0110, 204)
    traj = run_trajectory(config)
    assert len(traj.states) - 1 == 1
    assert continued(traj, 6)[0] == [0b0110] * 7
    assert cx.lyapunov(traj, 0, 6) == scalar_lyapunov(config, 0, 6)


def test_lyapunov_rejects_censored_runs_past_their_end():
    config = case1_config(s_o="1010", r_o=45, s_e="110010", r_e=30)
    traj = run_trajectory(config, cap=1)
    assert traj.cap_hit
    with pytest.raises(ValueError):
        cx.lyapunov(traj, 0, 2)
