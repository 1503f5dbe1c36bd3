"""Sampling plans, ensemble execution, and aggregation."""

import dataclasses

import pytest

from helpers import exhaustive_plan_tuples
from oee_ca import ensemble
from oee_ca.ensemble import (
    BoxStats,
    EmptyReportError,
    SamplePlan,
    aggregate,
    box_stats,
    config_for_tuple,
    draw_plan,
    environment_width,
    log2_histogram,
    metagenome,
    run_ensemble,
    sample_space_size,
    worker_count,
)
from oee_ca.eca import canonical_rule
from oee_ca.io_formats import write_records_csv
from oee_ca.variants import Variant


# --- widths and space sizes -------------------------------------------------

def test_environment_width_ratios():
    assert environment_width(3, "1/2") == 1
    assert environment_width(4, "1/2") == 2
    assert environment_width(3, "1") == 3
    assert environment_width(3, "3/2") == 4   # floor(4.5)
    assert environment_width(3, "2") == 6
    assert environment_width(3, "5/2") == 7   # floor(7.5)


def test_sample_space_sizes():
    assert sample_space_size(Variant.CASE_I, 3, 3) == 495_616
    assert sample_space_size(Variant.CASE_II, 3) == 15_859_712
    assert sample_space_size(Variant.CASE_III, 3) == 704


def test_sample_space_requires_we_for_case1():
    with pytest.raises(ValueError):
        sample_space_size(Variant.CASE_I, 3)


# --- plans ------------------------------------------------------------------

def test_case2_plan_fixes_we():
    plan = SamplePlan(Variant.CASE_II, 3, sample_count=10)
    assert plan.w_e == 8 and plan.full_width == 11
    with pytest.raises(ValueError):
        SamplePlan(Variant.CASE_II, 3, w_e=7, sample_count=10)


def test_case3_plan_defaults_mu():
    plan = SamplePlan(Variant.CASE_III, 3, sample_count=10)
    assert plan.mu == 0.5
    with pytest.raises(ValueError):
        SamplePlan(Variant.CASE_III, 3, w_e=3, sample_count=10)


@pytest.mark.parametrize("mu", [1.0, 1.5, -0.1, float("nan")])
def test_case3_plan_rejects_mu(mu):
    with pytest.raises(ValueError, match="mu in"):
        SamplePlan(Variant.CASE_III, 3, mu=mu, sample_count=10)


@pytest.mark.parametrize("cap", [0, -5])
def test_plan_rejects_step_cap_below_one(cap):
    with pytest.raises(ValueError, match="step_cap"):
        SamplePlan(Variant.CASE_I, 3, 3, sample_count=10, step_cap=cap)


@pytest.mark.parametrize("count", [0, -3])
def test_plan_requires_samples(count):
    with pytest.raises(ValueError, match="sample_count must be >= 1"):
        SamplePlan(Variant.ISOLATED, 4, sample_count=count)


def test_case1_plan_requires_we():
    with pytest.raises(ValueError):
        SamplePlan(Variant.CASE_I, 3, sample_count=10)


# --- draw_plan --------------------------------------------------------------

def test_draws_deterministic():
    plan = SamplePlan(Variant.CASE_I, 3, 3, sample_count=500, master_seed=4)
    assert draw_plan(plan) == draw_plan(plan)


def test_draws_deduplicated_and_canonical():
    plan = SamplePlan(Variant.CASE_I, 3, 3, sample_count=2000, master_seed=4)
    tuples = draw_plan(plan)
    assert len(set(tuples)) == len(tuples) == 2000
    for r_o, r_e, s_o, s_e in tuples:
        assert canonical_rule(r_o) == r_o and canonical_rule(r_e) == r_e
        assert 0 <= s_o < 8 and 0 <= s_e < 8


def test_draws_reject_oversampling():
    with pytest.raises(ValueError):
        draw_plan(SamplePlan(Variant.ISOLATED, 3, sample_count=10_000))


def test_case3_draws_allow_repeats_with_distinct_seeds():
    plan = SamplePlan(Variant.CASE_III, 3, sample_count=3000, master_seed=4)
    tuples = draw_plan(plan)
    assert len(tuples) == 3000
    assert len(set(tuples)) < 3000  # space has 704 elements: repeats expected
    seeds = {config_for_tuple(plan, i, t).seed for i, t in enumerate(tuples)}
    assert len(seeds) == 3000


def test_exhaustive_tuples_cover_space():
    plan = SamplePlan(Variant.ISOLATED, 3, sample_count=1)
    tuples = exhaustive_plan_tuples(plan)
    assert len(tuples) == sample_space_size(Variant.ISOLATED, 3)
    assert len(set(tuples)) == len(tuples)


def test_exhaustive_sampling_equals_space():
    plan = SamplePlan(Variant.ISOLATED, 3, sample_count=704, master_seed=0)
    tuples = draw_plan(plan)
    assert sorted(tuples) == sorted(exhaustive_plan_tuples(plan))


# --- execution --------------------------------------------------------------

@pytest.fixture(scope="module")
def small_case1_records():
    plan = SamplePlan(Variant.CASE_I, 3, 3, sample_count=300, master_seed=2)
    return plan, run_ensemble(plan)


def test_records_follow_draw_order(small_case1_records):
    plan, records = small_case1_records
    for rec, (r_o, r_e, s_o, s_e) in zip(records, draw_plan(plan)):
        assert (rec.init_rule_o, rec.rule_e, rec.init_state_o,
                rec.init_state_e) == (r_o, r_e, s_o, s_e)


def test_oee_implies_ue_and_inn(small_case1_records):
    _, records = small_case1_records
    for rec in records:
        if rec.oee:
            assert rec.ue and rec.inn
        if rec.censored:
            assert rec.oee is None


def test_worker_counts_agree(small_case1_records):
    plan, records = small_case1_records
    parallel = run_ensemble(dataclasses.replace(plan), workers=2)
    assert parallel == records


@pytest.mark.parametrize("variant, w_o", [(Variant.CASE_III, 4), (Variant.CASE_II, 3),
                                        (Variant.ISOLATED, 4)])
@pytest.mark.parametrize("samples", [1, 3, 1001])
def test_worker_counts_write_identical_csv(variant, w_o, samples, tmp_path):
    """Fewer samples than the pool's 16 ranges, and a count the ranges do
    not divide; Case III also checks the forked workers' shared stream."""
    plan = SamplePlan(variant, w_o, sample_count=samples, master_seed=samples,
                      norm_samples=20, norm_steps=64)
    csv = []
    for workers in (1, 2):
        records = run_ensemble(plan, workers=workers)
        assert len(records) == samples
        path = tmp_path / f"records_w{workers}.csv"
        write_records_csv(records, str(path))
        csv.append(path.read_bytes())
    assert csv[0] == csv[1]


def test_serial_ensemble_calls_execute_tuple_per_tuple_in_order(monkeypatch):
    """The benchmark's per-execution spans wrap ``ensemble.execute_tuple``:
    a serial run must call it through the module attribute, once per tuple,
    in draw order."""
    plan = SamplePlan(Variant.CASE_III, 4, sample_count=30, master_seed=4,
                      norm_samples=20, norm_steps=64)
    calls = []
    execute = ensemble.execute_tuple

    def counting(plan_, index, tup, norm_bits):
        calls.append((index, tup))
        return execute(plan_, index, tup, norm_bits)

    monkeypatch.setattr(ensemble, "execute_tuple", counting)
    records = run_ensemble(plan, workers=1)
    assert calls == list(enumerate(draw_plan(plan)))
    assert len(records) == 30


def test_worker_count_explicit_request_beats_env():
    assert worker_count(2, 100, env="3", cpus=4) == 2
    assert worker_count(1, 100, env="3", cpus=4) == 1


def test_worker_count_env_only_without_request():
    assert worker_count(None, 100, env="3", cpus=4) == 3
    assert worker_count(None, 100, env=None, cpus=4) == 1
    assert worker_count(None, 100, env="", cpus=4) == 1


def test_worker_count_clamped_to_tasks_and_cpus():
    assert worker_count(8, 3, env=None, cpus=4) == 3
    assert worker_count(8, 100, env=None, cpus=2) == 2
    assert worker_count(None, 100, env="6", cpus=None) == 1
    assert worker_count(4, 0, env=None, cpus=4) == 1
    assert worker_count(0, 100, env=None, cpus=4) == 1
    assert worker_count(-3, 100, env="2", cpus=4) == 1


def test_run_ensemble_explicit_workers_ignore_env(monkeypatch):
    """OEE_THREADS must not turn an explicit serial run into a pool: an
    invalid value would raise if it were read."""
    monkeypatch.setenv("OEE_THREADS", "not-a-number")
    plan = SamplePlan(Variant.ISOLATED, 3, sample_count=20, master_seed=2)
    assert len(run_ensemble(plan, workers=1)) == 20
    with pytest.raises(ValueError):
        run_ensemble(plan)


def test_isolated_control_zero_oee():
    plan = SamplePlan(Variant.ISOLATED, 3, sample_count=500, master_seed=6)
    report = aggregate(run_ensemble(plan))
    assert report.oee_percent == 0.0
    assert report.inn_percent == 0.0


# --- aggregation ------------------------------------------------------------

def test_aggregate_single_oee_record(small_case1_records):
    _, records = small_case1_records
    oee = [r for r in records if r.oee]
    assert oee, "fixture should contain at least one OEE record"
    report = aggregate(oee[:1])
    assert report.oee_percent == 100.0 and report.n_records == 1


def test_aggregate_permutation_invariant(small_case1_records):
    _, records = small_case1_records
    a = aggregate(records)
    b = aggregate(list(reversed(records)))
    # scalar means accumulate in iteration order: equal up to rounding only
    assert b.c_mean == pytest.approx(a.c_mean)
    assert b.k_mean == pytest.approx(a.k_mean)
    fix = lambda r: dataclasses.replace(r, c_mean=0.0, k_mean=0.0)
    assert fix(a) == fix(b)


def test_aggregate_merge_equals_union(small_case1_records):
    """Aggregating a union gives the head-count-weighted mix of its parts."""
    _, records = small_case1_records
    half = len(records) // 2
    left, right = records[:half], records[half:]
    whole = aggregate(records)
    la, ra = aggregate(left), aggregate(right)
    n_l = la.n_records - la.n_censored
    n_r = ra.n_records - ra.n_censored
    merged = (la.oee_percent * n_l + ra.oee_percent * n_r) / (n_l + n_r)
    assert abs(whole.oee_percent - merged) < 1e-9


def test_aggregate_all_censored_rejected(small_case1_records):
    _, records = small_case1_records
    censored = dataclasses.replace(records[0], censored=True)
    with pytest.raises(EmptyReportError):
        aggregate([censored])


def test_histogram_mass_conserved(small_case1_records):
    _, records = small_case1_records
    report = aggregate(records)
    live = report.n_records - report.n_censored
    assert sum(report.t_r_ratio_hist.values()) == live


def test_spearman_fields(small_case1_records):
    _, records = small_case1_records
    report = aggregate(records)
    assert report.spearman_rho is not None
    assert -1.0 <= report.spearman_rho <= 1.0
    assert 0.0 <= report.spearman_p <= 1.0


# --- metagenome -------------------------------------------------------------

def test_metagenome_single_rule(small_case1_records):
    _, records = small_case1_records
    rec = dataclasses.replace(records[0], attractor_rules=(204, 204, 204))
    table = metagenome([rec])
    assert table == [{"rule": 204, "count": 3, "wolfram_class": 2}]


def test_metagenome_counts_conserved(small_case1_records):
    _, records = small_case1_records
    table = metagenome(records)
    slots = sum(len(r.attractor_rules) for r in records
                if r.attractor_rules is not None)
    assert sum(row["count"] for row in table) == slots
    counts = [row["count"] for row in table]
    assert counts == sorted(counts, reverse=True)


def test_metagenome_oee_subset(small_case1_records):
    _, records = small_case1_records
    all_t = {row["rule"]: row["count"] for row in metagenome(records)}
    oee_t = metagenome(records, oee_only=True)
    for row in oee_t:
        assert row["count"] <= all_t[row["rule"]]


# --- descriptive statistics -------------------------------------------------

def test_box_stats_known_values():
    box = box_stats([1.0, 2.0, 3.0, 4.0, 5.0])
    assert box.median == 3.0 and box.q1 == 2.0 and box.q3 == 4.0
    assert box.minimum == 1.0 and box.maximum == 5.0
    assert box.whisker_lo == 1.0 and box.whisker_hi == 5.0


def test_box_stats_empty():
    assert box_stats([]) is None


def test_log2_histogram_bins():
    hist = log2_histogram([0.0, 0.5, 1.0, 1.5, 2.0, 4.0])
    assert hist["zero"] == 1
    assert hist["-1"] == 1          # [0.5, 1)
    assert hist["0"] == 2           # [1, 2)
    assert hist["1"] == 1 and hist["2"] == 1
    assert sum(hist.values()) == 6


def test_report_round_trips_to_dict(small_case1_records):
    _, records = small_case1_records
    d = aggregate(records).to_dict()
    assert isinstance(d["t_r_ratio_box"], dict)
    assert set(d["t_r_ratio_box"]) == set(vars(BoxStats(0, 0, 0, 0, 0, 0, 0)))


# --- packed pipeline against the all-scalar one -----------------------------

@pytest.mark.parametrize("plan", [
    SamplePlan(Variant.CASE_I, 4, 4, sample_count=300, master_seed=5),
    SamplePlan(Variant.CASE_I, 5, 12, sample_count=200, master_seed=6),
    SamplePlan(Variant.CASE_II, 4, sample_count=300, master_seed=7),
    SamplePlan(Variant.CASE_III, 5, mu=0.5, sample_count=300, master_seed=8),
    SamplePlan(Variant.CASE_III, 4, mu=0.05, sample_count=200, master_seed=9, step_cap=30),
    SamplePlan(Variant.ISOLATED, 5, sample_count=300, master_seed=10),
], ids=["case1-4x4", "case1-5x12", "case2", "case3", "case3-capped", "eca"])
def test_execute_tuple_matches_all_scalar_execution(plan, monkeypatch):
    """Records from the packed loop, the base-reusing Lyapunov and the packed
    INN, LZW input and recurrence equal those from snapshot stepping, a
    re-simulated Lyapunov base, ``BitState`` INN and LZW input and the
    generator recurrence."""
    import oee_ca.complexity as cx
    import oee_ca.ensemble as ens
    import oee_ca.recurrence as rec
    from helpers import (
        scalar_compressibility,
        scalar_is_eca_reproducible,
        scalar_lyapunov,
        scalar_projected_recurrence,
        scalar_trajectory,
    )

    tuples = draw_plan(plan)
    packed = [ens.execute_tuple(plan, i, tup, 1000) for i, tup in enumerate(tuples)]
    monkeypatch.setattr(ens, "run_trajectory", scalar_trajectory)
    monkeypatch.setattr(cx, "lyapunov", scalar_lyapunov)
    monkeypatch.setattr(ens, "is_eca_reproducible", scalar_is_eca_reproducible)
    monkeypatch.setattr(cx, "compressibility", scalar_compressibility)
    monkeypatch.setattr(rec, "projected_recurrence", scalar_projected_recurrence)
    scalar = [ens.execute_tuple(plan, i, tup, 1000) for i, tup in enumerate(tuples)]
    assert packed == scalar
    assert any(not r.censored for r in packed)


@pytest.mark.parametrize("plan", [
    SamplePlan(Variant.CASE_I, 4, 4, sample_count=300, master_seed=11),
    SamplePlan(Variant.CASE_III, 5, mu=0.5, sample_count=200, master_seed=12),
], ids=["case1-4x4", "case3"])
def test_record_windows_follow_their_definitions(plan):
    """n_r counts rule changes over steps 0..t_r, INN tests the organism
    states 0..max(t_r, 1) and LZW compresses the states 0..t_r, each taken
    from the run directly and checked with the ``BitState`` oracles."""
    from helpers import scalar_compressibility, scalar_is_eca_reproducible
    from oee_ca.ensemble import execute_tuple
    from oee_ca.variants import run_trajectory

    checked = 0
    for i, tup in enumerate(draw_plan(plan)):
        rec = execute_tuple(plan, i, tup, 1000)
        if rec.censored:
            continue
        traj = run_trajectory(config_for_tuple(plan, i, tup), plan.step_cap)
        states, rules, t_r = traj.states, traj.rules, rec.t_r
        assert rec.n_rule_transitions == sum(rules[t] != rules[t + 1] for t in range(t_r))
        window = states[:max(t_r, 1) + 1]
        assert rec.inn == (len(window) > 1
                           and scalar_is_eca_reproducible(window, plan.w_o) is None)
        assert rec.compressed_bits == scalar_compressibility(states[:t_r + 1], plan.w_o, 1000)[0]
        checked += t_r < len(states) - 1
    # a Case I run can outlast t_r, so its windows must stop inside the run
    assert checked or not plan.variant.deterministic
