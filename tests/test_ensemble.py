"""Sampling plans, ensemble execution, and aggregation."""

import dataclasses
import gc
import hashlib
import itertools
import os
import pickle
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats
from scipy.special import stdtr

from helpers import (
    case2_exact_counts,
    case3_convergence_law,
    case3_inn_law,
    case3_inn_law_with_rule,
    exhaustive_plan_tuples,
    light_stats,
    scalar_draw_plan,
    scalar_log2_histogram,
    scalar_value_histogram,
)
from oee_ca import complexity as cx
from oee_ca import ensemble, variants
from oee_ca.ensemble import (
    BoxStats,
    EmptyReportError,
    SamplePlan,
    aggregate,
    box_stats,
    config_for_tuple,
    draw_plan,
    environment_width,
    flag_stages,
    log2_histogram,
    metagenome,
    run_ensemble,
    sample_space_size,
    spearman,
    value_histogram,
    worker_count,
)
from oee_ca.eca import _complement_number, _mirror_number, canonical_rule, canonical_rules
from oee_ca.io_formats import read_records_csv, write_records_csv, write_report_json
from oee_ca.variants import Variant, execution_rng, integers_rows


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


@pytest.mark.parametrize("variant, w_e", [(Variant.CASE_I, 4), (Variant.CASE_II, None),
                                         (Variant.ISOLATED, None)])
@pytest.mark.parametrize("mu", [0.3, 0.0])
def test_plan_without_noise_rejects_mu(variant, w_e, mu):
    """Only Case III has a mutation rate: a ``mu`` given to another variant
    would be written into every record's ``mu`` column."""
    with pytest.raises(ValueError, match="takes no mu"):
        SamplePlan(variant, 4, w_e, mu=mu, sample_count=10)


def test_plan_accepts_exactly_each_variants_own_parameters():
    """Case I takes a w_e >= 1, Case II only its 8-cell environment, Case
    III a mu in [0, 1) and no environment, and the plain ECA neither; every
    other (variant, w_e, mu) cell is refused."""
    C1, C2, C3, ECA = Variant.CASE_I, Variant.CASE_II, Variant.CASE_III, Variant.ISOLATED
    accepted = set()
    for variant, w_e, mu in itertools.product(Variant, [None, -1, 0, 3, 8, 9],
                                              [None, 0.0, 0.3, 1.0, -0.1, float("nan")]):
        try:
            SamplePlan(variant, 4, w_e, mu, sample_count=10)
        except ValueError:
            continue
        accepted.add((variant, w_e, mu))
    assert accepted == {(C1, 3, None), (C1, 8, None), (C1, 9, None),
                        (C2, None, None), (C2, 8, None),
                        (C3, None, None), (C3, None, 0.0), (C3, None, 0.3),
                        (ECA, None, None)}


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


@pytest.mark.slow
def test_case1_33_exhaustive_flag_counts():
    """Every tuple of the Case I (3,3) space through the flag stages gives
    the exact population that criteria 6 and 7 sample: 30,750 OEE and
    186,090 INN tuples of 495,616, none censored.  With t_P = 8, 34,854 of
    these runs go on to the Case I loop's once-per-cycle check.  About ten
    seconds, so it runs only with ``-m slow``."""
    plan = SamplePlan(Variant.CASE_I, 3, 3, sample_count=1)
    stats = light_stats(plan, exhaustive_plan_tuples(plan))
    assert (stats.n_live, stats.n_censored) == (495_616, 0)
    assert stats.oee_percent == 100.0 * 30_750 / 495_616
    assert stats.inn_percent == 100.0 * 186_090 / 495_616


@pytest.mark.slow
def test_case1_36_exhaustive_flag_counts():
    """Every tuple of the Case I (3,6) space through the flag stages: 665,352
    OEE and 2,512,670 INN tuples of 3,964,928, none censored.  The tuples
    are generated lazily in the space's lexicographic order, since a list of
    them would hold about 350 MB.  About 75 seconds, so it runs only with
    ``-m slow``."""
    plan = SamplePlan(Variant.CASE_I, 3, 6, sample_count=1)
    canon = canonical_rules()
    stats = light_stats(plan, itertools.product(canon, canon, range(1 << 3), range(1 << 6)))
    assert (stats.n_live, stats.n_censored) == (3_964_928, 0)
    assert stats.oee_percent == 100.0 * 665_352 / 3_964_928
    assert stats.inn_percent == 100.0 * 2_512_670 / 3_964_928


def flip_reading(test):
    """A stand-in for ``variants.case1_flips`` that sets rule bit 7 - i
    where ``test(co[i], ce[i], w_o, w_e)`` holds."""
    def flips(co, ce, w_o, w_e):
        return sum(1 << (7 - i) for i in range(8) if test(co[i], ce[i], w_o, w_e))
    return flips


# readings of the Case I flip test, and the OEE and INN counts each gives
# over the (3, 3) space of 495,616 tuples (percentages in the comments)
FLIP_READINGS = {
    "both, >=": (lambda a, b, w_o, w_e: a and b and a * w_e >= b * w_o,
                 30_750, 186_090),         # 6.204, 37.547: the model's reading
    "both, >": (lambda a, b, w_o, w_e: a and b and a * w_e > b * w_o, 0, 0),
    "both, <": (lambda a, b, w_o, w_e: a and b and a * w_e < b * w_o, 0, 0),
    "both, <=": (lambda a, b, w_o, w_e: a and b and a * w_e <= b * w_o,
                 30_750, 186_090),
    "both, raw >=": (lambda a, b, w_o, w_e: a and b and a >= b, 30_750, 186_090),
    "organism only, >=": (lambda a, b, w_o, w_e: a and a * w_e >= b * w_o,
                          118_272, 495_616),   # 23.864, 100.000
    "no presence test, >=": (lambda a, b, w_o, w_e: a * w_e >= b * w_o,
                             88_830, 437_980),  # 17.923, 88.371
}


@pytest.mark.slow
@pytest.mark.parametrize("reading", FLIP_READINGS)
def test_case1_33_flip_readings(reading, monkeypatch):
    """The exhaustive Case I (3,3) counts under each reading of the flip
    test, swapped in for ``variants.case1_flips``, which every flip table
    is built from.  UE equals OEE under each.  With equal widths a triplet
    present in both states has equal counts, so ``<=`` and raw counts flip
    what ``>=`` flips, and ``>`` and ``<`` flip nothing.  About six seconds
    each, so they run only with ``-m slow``."""
    test, n_oee, n_inn = FLIP_READINGS[reading]
    monkeypatch.setattr(variants, "case1_flips", flip_reading(test))
    variants.flip_masks.cache_clear()
    try:
        plan = SamplePlan(Variant.CASE_I, 3, 3, sample_count=1)
        stats = light_stats(plan, exhaustive_plan_tuples(plan))
    finally:
        variants.flip_masks.cache_clear()
    assert (stats.n_live, stats.n_censored) == (495_616, 0)
    assert (stats.n_oee, stats.n_inn, stats.n_ue) == (n_oee, n_inn, n_oee)


# the strict readings over the (3, 6) space of 3,964,928 tuples, where the
# unequal widths let them flip: OEE and INN counts (percentages in comments)
FLIP_READINGS_36 = {
    "both, >": (473_124, 1_939_332),    # 11.933, 48.912
    "both, <": (10_260, 197_712),       # 0.259, 4.987
}


@pytest.mark.slow
@pytest.mark.parametrize("reading", FLIP_READINGS_36)
def test_case1_36_flip_readings(reading, monkeypatch):
    """The exhaustive Case I (3,6) counts under the strict readings of the
    flip test, swapped in as in ``test_case1_33_flip_readings``; UE equals
    OEE under each.  About 40 seconds each, so they run only with
    ``-m slow``."""
    n_oee, n_inn = FLIP_READINGS_36[reading]
    monkeypatch.setattr(variants, "case1_flips", flip_reading(FLIP_READINGS[reading][0]))
    variants.flip_masks.cache_clear()
    try:
        plan = SamplePlan(Variant.CASE_I, 3, 6, sample_count=1)
        canon = canonical_rules()
        stats = light_stats(plan, itertools.product(canon, canon, range(1 << 3), range(1 << 6)))
    finally:
        variants.flip_masks.cache_clear()
    assert (stats.n_live, stats.n_censored) == (3_964_928, 0)
    assert (stats.n_oee, stats.n_inn, stats.n_ue) == (n_oee, n_inn, n_oee)


# --- block draws against the scalar oracle ---------------------------------

DRAW_PLANS = {
    "case1-4x4": SamplePlan(Variant.CASE_I, 4, 4, sample_count=3000, master_seed=1),
    "case1-6x13": SamplePlan(Variant.CASE_I, 6, 13, sample_count=1000, master_seed=2),
    "case2": SamplePlan(Variant.CASE_II, 4, sample_count=2000, master_seed=3),
    "case3-repeats": SamplePlan(Variant.CASE_III, 3, sample_count=3000, master_seed=4),
    "eca": SamplePlan(Variant.ISOLATED, 6, sample_count=2000, master_seed=5),
    # dedup-heavy: the whole space of 704, and half of the 123,904 tuples of
    # (3, 1), each over several blocks
    "eca-w3-full": SamplePlan(Variant.ISOLATED, 3, sample_count=704, master_seed=6),
    "case1-3x1-half": SamplePlan(Variant.CASE_I, 3, 1, sample_count=60_000, master_seed=7),
    # a state bound above 2^32 takes the scalar calls
    "eca-w33": SamplePlan(Variant.ISOLATED, 33, sample_count=300, master_seed=8),
    "eca-w63": SamplePlan(Variant.ISOLATED, 63, sample_count=300, master_seed=9),
    "case1-4x40": SamplePlan(Variant.CASE_I, 4, 40, sample_count=300, master_seed=10),
}


@pytest.mark.parametrize("name", DRAW_PLANS)
def test_draw_plan_matches_scalar_oracle(name):
    plan = DRAW_PLANS[name]
    assert draw_plan(plan) == scalar_draw_plan(plan)


@pytest.mark.parametrize("name", ["case1-4x4", "case3-repeats", "eca", "eca-w63"])
def test_drawn_tuples_hold_python_ints(name):
    """Forked workers send the tuples' values back in pickled records:
    numpy scalars would pickle larger."""
    plan = DRAW_PLANS[name]
    tuples = draw_plan(plan)
    assert all(type(x) is int for tup in tuples for x in tup)
    assert pickle.dumps(tuples) == pickle.dumps(scalar_draw_plan(plan))


def test_draw_plan_after_a_rejected_word_takes_the_scalar_calls():
    """Seed 31395 of a Case I (4, 4) plan: the word of the r_e draw of tuple
    2248 (0-based) is rejected by numpy's bounded method for n = 88, so the
    scalar calls shift by one word from there on, and the plan's tuples are
    still the ones they draw."""
    seed, index = 31395, 2248
    raw = execution_rng(seed).bit_generator.random_raw(2 * (index + 1))
    words = np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=1).reshape(-1, 4)
    assert (words[index, 1] * np.uint64(88)) & 0xFFFFFFFF < (2**32 - 88) % 88

    plan = SamplePlan(Variant.CASE_I, 4, 4, sample_count=2500, master_seed=seed)
    assert draw_plan(plan) == scalar_draw_plan(plan)


# the first eight ids are those these cases ran under in an earlier,
# three-column form of this table
@pytest.mark.parametrize("bounds, rows", [
    pytest.param((88, 16), 500, id="bounds0-500-False"),
    pytest.param((88, 88, 8, 1 << 13), 300, id="bounds1-300-False"),
    pytest.param((256, 1 << 32), 400, id="bounds2-400-False"),
    pytest.param((2, 2, 2, 2), 100, id="bounds3-100-False"),
    pytest.param((88, 16), 0, id="bounds4-0-False"),
    pytest.param((256, 1 << 33), 50, id="bounds5-50-True"),     # numpy's 64-bit path
    pytest.param((88,), 7, id="bounds6-7-True"),                # an odd number of words
    pytest.param((1, 88), 10, id="bounds7-10-True"),            # a bound that takes no word
    pytest.param((3, 2**31 + 1, 2**32 - 1), 200, id="odd-bounds"),
    pytest.param((256, 2**63), 50, id="norm-63"),               # norm(63)'s state bound
    # as a list, these bounds would convert to float64 and lose precision
    pytest.param((2**62 + 1, 2**63), 30, id="wide-bounds"),
])
@pytest.mark.parametrize("buffered", [False, True], ids=["aligned", "half-word"])
def test_integers_rows_matches_scalar_calls(bounds, rows, buffered):
    """Values, types and the stream after the call, through a second call
    (which starts with the half-word an odd number of 32-bit draws leaves)
    and the next draws (the state dicts differ in a stale buffered word even
    when the streams agree)."""
    rng, ref = execution_rng(3), execution_rng(3)
    if buffered:   # leaves the high half of a word in the generator
        assert int(rng.integers(0, 2)) == int(ref.integers(0, 2))
    got = integers_rows(rng, bounds, rows)
    assert got == [tuple(int(ref.integers(0, n)) for n in bounds) for _ in range(rows)]
    assert all(type(x) is int for row in got for x in row)
    assert integers_rows(rng, (88, 3, 16), 3) == [
        tuple(int(ref.integers(0, n)) for n in (88, 3, 16)) for _ in range(3)]
    assert ([int(rng.integers(0, 1000)) for _ in range(8)]
            == [int(ref.integers(0, 1000)) for _ in range(8)])


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


def test_worker_counts_write_identical_csv_from_large_frames(tmp_path):
    """At 13,000 samples a range holds 812 or 813 records, so a worker's
    frame overflows the 64 KB pipe buffer and reaches the parent in pieces."""
    plan = SamplePlan(Variant.CASE_III, 3, sample_count=13_000, master_seed=7,
                      norm_samples=20, norm_steps=64)
    csv = []
    for workers in (1, 2):
        records = run_ensemble(plan, workers=workers)
        path = tmp_path / f"records_w{workers}.csv"
        write_records_csv(records, str(path))
        csv.append(path.read_bytes())
    assert len(pickle.dumps(records[:13_000 // 16], pickle.HIGHEST_PROTOCOL)) > 1 << 16
    assert csv[0] == csv[1]


_FORK_PLAN = SamplePlan(Variant.CASE_I, 3, 3, sample_count=100, master_seed=5)


@pytest.fixture
def forked(monkeypatch):
    """Two forked workers whatever the host's CPU count, and a TimeoutError
    rather than a hang if the parent still waits on them after 30 s."""
    def expire(signum, frame):
        raise TimeoutError("the ensemble is still running after 30 s")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, handler)


def _failing_at(index: int, fail):
    """``execute_tuple`` that calls ``fail()`` at one tuple index."""
    execute = ensemble.execute_tuple

    def failing(plan, i, tup, norm_bits):
        if i == index:
            fail()
        return execute(plan, i, tup, norm_bits)
    return failing


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_ensemble_reaps_its_workers(forked):
    assert run_ensemble(_FORK_PLAN, workers=2) == run_ensemble(_FORK_PLAN, workers=1)
    _assert_no_child_left()


def test_worker_exception_reaches_the_caller(forked, monkeypatch):
    """One worker raises at tuple 37 while the other sleeps in tuple 0: the
    exception reaches the caller at once, and the sleeping worker is killed."""
    def fail():
        raise LookupError("no rule for tuple 37")

    monkeypatch.setattr(ensemble, "execute_tuple", _failing_at(37, fail))
    monkeypatch.setattr(ensemble, "execute_tuple", _failing_at(0, lambda: time.sleep(20)))
    start = time.monotonic()
    with pytest.raises(LookupError) as exc:
        run_ensemble(_FORK_PLAN, workers=2)
    assert time.monotonic() - start < 10
    assert type(exc.value) is LookupError
    assert str(exc.value) == "no rule for tuple 37"
    _assert_no_child_left()


def test_worker_that_dies_makes_the_ensemble_raise(forked, monkeypatch):
    monkeypatch.setattr(ensemble, "execute_tuple", _failing_at(37, lambda: os._exit(3)))
    with pytest.raises(RuntimeError, match="worker exited before returning its ranges"):
        run_ensemble(_FORK_PLAN, workers=2)
    _assert_no_child_left()


def test_ensemble_without_fork_runs_serially(monkeypatch):
    serial = run_ensemble(_FORK_PLAN, workers=1)
    monkeypatch.delattr(os, "fork")
    assert worker_count(2, 100, env=None, cpus=4) == 1
    assert run_ensemble(_FORK_PLAN, workers=2) == serial


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


# (module, name) of every per-execution call ``bench/pipeline.install`` wraps
BENCH_STAGES = [(ensemble, "execute_tuple"), (ensemble, "run_trajectory"),
                (ensemble, "build_report"), (ensemble, "is_eca_reproducible"),
                (ensemble, "detect_cycle"), (cx, "compressibility"), (cx, "lyapunov")]


@pytest.mark.parametrize("plan", [
    SamplePlan(Variant.CASE_I, 3, 3, sample_count=40, master_seed=7, step_cap=6),
    SamplePlan(Variant.CASE_II, 3, sample_count=40, master_seed=7, step_cap=10),
    SamplePlan(Variant.CASE_III, 3, mu=0.5, sample_count=40, master_seed=7, step_cap=4),
    SamplePlan(Variant.ISOLATED, 4, sample_count=40, master_seed=7, step_cap=3),
], ids=lambda plan: plan.variant.value)
def test_serial_ensemble_calls_each_benchmark_stage_per_execution(plan, monkeypatch):
    """The benchmark's trace wraps these module attributes by name, and its
    per-stage spans assume each is called once per execution that reaches
    it: ``run_trajectory`` and ``build_report`` always, ``compressibility``
    and ``lyapunov`` per live run, ``is_eca_reproducible`` per live run
    whose INN window has 2 or more states, and ``detect_cycle`` per live
    deterministic run."""
    calls = dict.fromkeys([name for _, name in BENCH_STAGES], 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for module, name in BENCH_STAGES:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    plan = dataclasses.replace(plan, norm_samples=20, norm_steps=64)
    records = run_ensemble(plan, workers=1)
    live = [r for r in records if not r.censored]
    assert 0 < len(live) < len(records)
    assert calls == {
        "execute_tuple": len(records), "run_trajectory": len(records),
        "build_report": len(records), "compressibility": len(live), "lyapunov": len(live),
        "is_eca_reproducible": sum(1 for r in live if r.t_r >= 1),
        "detect_cycle": len(live) if plan.variant.deterministic else 0}


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


@pytest.mark.parametrize("env", ["0", "-2"])
def test_worker_count_env_below_one_raises(env):
    with pytest.raises(ValueError, match=f"OEE_THREADS must be >= 1, got '{env}'"):
        worker_count(None, 100, env=env, cpus=4)
    assert worker_count(1, 100, env=env, cpus=4) == 1


def test_run_ensemble_explicit_workers_ignore_env(monkeypatch):
    """OEE_THREADS must not turn an explicit serial run into a pool: an
    invalid value would raise if it were read."""
    monkeypatch.setenv("OEE_THREADS", "not-a-number")
    plan = SamplePlan(Variant.ISOLATED, 3, sample_count=20, master_seed=2)
    assert len(run_ensemble(plan, workers=1)) == 20
    with pytest.raises(ValueError):
        run_ensemble(plan)


@pytest.mark.parametrize("w_o, mu, seed", [(4, 0.25, 191), (4, 0.5, 192),
                                          (6, 0.25, 193), (6, 0.5, 194)])
def test_case3_convergence_follows_the_exact_law(w_o, mu, seed):
    """Case III's t_r and UE rate on a fresh plan agree with the exact law
    of the (r_o, s_o) chain, which shares no stepping code with the
    package: the sample mean of t_r lies within 4 standard errors, taken
    from the exact variance, the histogram of t_r passes a chi-squared test
    (the tail pooled where fewer than 5 runs are expected), and the UE
    count passes an exact binomial test against P(t_r > t_P)."""
    law = case3_convergence_law(w_o, mu)
    records = run_ensemble(SamplePlan(Variant.CASE_III, w_o, mu=mu, sample_count=4000,
                                      master_seed=seed, norm_samples=20, norm_steps=64))
    assert not any(rec.censored for rec in records)
    n = len(records)
    mean = sum(t * p for t, p in enumerate(law))
    var = sum(t * t * p for t, p in enumerate(law)) - mean ** 2
    assert abs(sum(rec.t_r for rec in records) / n - mean) < 4 * (var / n) ** 0.5
    counts = np.bincount([rec.t_r for rec in records], minlength=len(law))
    at_least = n * np.cumsum(law[::-1])[::-1]   # runs expected at t or later
    cut = int(np.argmax(at_least < 5))
    assert stats.chisquare([*counts[:cut - 1], counts[cut - 1:].sum()],
                           [*(n * p for p in law[:cut - 1]), at_least[cut - 1]]).pvalue > 1e-4
    p_ue = sum(law[(1 << w_o) + 1:])
    assert stats.binomtest(sum(rec.ue for rec in records), n, p_ue).pvalue > 1e-4


@pytest.mark.parametrize("w_o, seed, exact_inn", [(3, 221, 63 / 128), (4, 222, 0.6621704)])
def test_case3_inn_and_ue_follow_the_exact_laws(w_o, seed, exact_inn):
    """At mu = 0.5 the INN and UE counts of a fresh Case III plan pass exact
    binomial tests against the exact laws: INN from the absorbing chain on
    (s_o, pins), UE from P(t_r > t_P) of the convergence law.  Stepping the
    state before flipping the rule would move INN at w_o = 3 from 49.22 %
    to 46.24 %, about 6 standard errors of this plan."""
    p_inn = case3_inn_law(w_o)
    assert p_inn == pytest.approx(exact_inn, rel=1e-6)
    p_ue = 1 - sum(case3_convergence_law(w_o, 0.5)[:2**w_o + 1])
    records = run_ensemble(SamplePlan(Variant.CASE_III, w_o, mu=0.5, sample_count=10_000,
                                      master_seed=seed, norm_samples=20, norm_steps=64))
    assert not any(rec.censored for rec in records)
    n = len(records)
    assert stats.binomtest(sum(rec.inn for rec in records), n, p_inn).pvalue > 1e-4
    assert stats.binomtest(sum(rec.ue for rec in records), n, p_ue).pvalue > 1e-4


def test_case3_inn_follows_the_exact_law_at_general_mu():
    """Below mu = 0.5 the next rule depends on the last, so the chain keeps
    r_o in its state: at w_o = 3 it gives 63/128 at mu = 0.5, as the chain
    on (s_o, pins) does, and 48.410 % at mu = 0.25, against which a fresh
    10,000-sample plan's INN count passes an exact binomial test.  UE at
    general mu is tested through the convergence law."""
    assert case3_inn_law_with_rule(3, 0.5) == pytest.approx(63 / 128, rel=1e-9)
    p_inn = case3_inn_law_with_rule(3, 0.25)
    assert p_inn == pytest.approx(0.484098, abs=1e-6)
    records = run_ensemble(SamplePlan(Variant.CASE_III, 3, mu=0.25, sample_count=10_000,
                                      master_seed=241, norm_samples=20, norm_steps=64))
    assert not any(rec.censored for rec in records)
    assert stats.binomtest(sum(rec.inn for rec in records), len(records), p_inn).pvalue > 1e-4


@pytest.mark.parametrize("w_o, mu, seed", [(3, 0.1, 231), (4, 0.1, 232),
                                          (5, 0.25, 233), (5, 0.5, 234)])
def test_case3_ue_implies_inn(w_o, mu, seed):
    """In Case III every UE run is INN, so OEE % equals UE %.  A run with
    t_r > 2^w_o makes more than 2^w_o transitions in its window, so a state
    that is not homogeneous repeats inside it; if one rule reproduced the
    window, the run would be periodic from that repeat and never end."""
    records = run_ensemble(SamplePlan(Variant.CASE_III, w_o, mu=mu, sample_count=2000,
                                      master_seed=seed, norm_samples=20, norm_steps=64))
    live = [rec for rec in records if not rec.censored]
    assert any(rec.ue for rec in live)
    assert all(rec.inn for rec in live if rec.ue)
    report = aggregate(records)
    assert report.oee_percent == report.ue_percent


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


def test_aggregate_means_add_left_to_right(small_case1_records):
    """Ten live records with C = k = 0.1: added left to right, as ``sum``
    did up to Python 3.11, they total 0.9999999999999999, where 3.12's
    compensated ``sum`` gives 1.0, so the report's means do not depend on
    the interpreter."""
    _, records = small_case1_records
    live = next(r for r in records if not r.censored)
    report = aggregate([dataclasses.replace(live, C=0.1, k=0.1)] * 10)
    assert report.c_mean == report.k_mean == 0.9999999999999999 / 10


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
    points = sorted((r.innovation_I, r.t_r) for r in records if not r.censored)
    res = stats.spearmanr([i for i, _ in points], [t for _, t in points])
    assert (report.spearman_rho, report.spearman_p) == (float(res.statistic),
                                                         float(res.pvalue))


@st.composite
def _rank_samples(draw):
    """Two columns of n = 3..500 values with few distinct levels (so heavy
    ties), one of ints and one of floats in either order, the second
    following the first up, down or not at all."""
    n = draw(st.integers(3, 500))
    levels = draw(st.sampled_from([2, 3, 5, 40, 10**6]))
    sign = draw(st.sampled_from([-1, 0, 1]))
    scale = draw(st.sampled_from([1.0, 0.25, 1 / 3, 1 / 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = rng.integers(0, levels, n)
    ys = sign * xs + rng.integers(0, draw(st.sampled_from([1, 2, levels, 10**6])), n)
    floats, ints = (xs * scale).tolist(), ys.tolist()
    return (floats, ints) if draw(st.booleans()) else (ints, floats)


@settings(max_examples=300, deadline=None)
@given(_rank_samples())
@example(([0.0, 0.5, 1.0], [1, 2, 3]))             # rho = 1, p = 0
@example(([0.0, 0.5, 1.0, 1.0], [9, 7, 5, 5]))     # rho = -1 with ties
@example(([0.25, 0.25, 0.5], [3, 1, 1]))
@example(([1, 2, 3, 4], [1, 2, 2, 1]))             # rho = 0: t = 0, p = 1
@example(([*range(430)], [*range(1, 430), 0]))     # log bound -771: through scipy
@example(([*range(445)], [*range(1, 445), 0]))     # log bound -806: gated to 0
def test_spearman_equals_scipy_bit_for_bit(columns):
    xs, ys = columns
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    res = stats.spearmanr(xs, ys)
    assert spearman(xs, ys) == (float(res.statistic), float(res.pvalue))


def test_p_value_gate_bounds_scipy_on_a_grid():
    """``_log_p_bound`` against ``stdtr`` over dof 1-59 plus 300 random dof
    up to 200,000 and t from 0.5 to 10^4: it is at least log p wherever p is
    nonzero, and wherever it is below the gate's margin, p is 0.0."""
    rng = np.random.default_rng(0)
    dofs = np.concatenate((np.arange(1, 60), rng.integers(60, 200_001, 300)))
    ts = np.geomspace(0.5, 1e4, 60)
    p = 2 * stdtr(dofs[:, None], -ts)
    bound = np.array([[ensemble._log_p_bound(int(d), float(t)) for t in ts] for d in dofs])
    live, gated = p > 0, bound < ensemble._LOG_P_ZERO
    assert live.sum() > 10_000 and gated.sum() > 9_000
    assert (bound[live] >= np.log(p[live])).all()
    assert (p[gated] == 0.0).all()


# --- the collector pause ----------------------------------------------------

_GC_PLAN = SamplePlan(Variant.CASE_I, 3, 3, sample_count=40, master_seed=4)


def _paused_entry_points(tmp_path, monkeypatch) -> dict:
    """Per entry point run with the collector paused: a call that returns,
    a call that raises and the exception it raises."""
    records = run_ensemble(_GC_PLAN, workers=1)
    csv_path = str(tmp_path / "records.csv")
    write_records_csv(records, csv_path)
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("not,the,columns\n")
    job = (_GC_PLAN, draw_plan(_GC_PLAN), records[0].norm_bits)

    def fresh_norm(w):
        monkeypatch.setattr(cx, "_NORM_MEMO", {})
        return cx.normalization_constant(w, 60, 64)

    def bad_threads():
        monkeypatch.setenv("OEE_THREADS", "abc")
        return run_ensemble(_GC_PLAN)

    return {
        "draw_plan": (lambda: draw_plan(_GC_PLAN),
                      lambda: draw_plan(SamplePlan(Variant.ISOLATED, 3, sample_count=705)),
                      ValueError),
        "normalization_constant": (lambda: fresh_norm(6), lambda: fresh_norm(0), ValueError),
        "run_ensemble": (lambda: run_ensemble(_GC_PLAN, workers=1), bad_threads, ValueError),
        "_run_range": (lambda: ensemble._run_range(*job, (0, 10)),
                       lambda: ensemble._run_range(*job, None), TypeError),
        "aggregate": (lambda: aggregate(records), lambda: aggregate([]), EmptyReportError),
        "write_records_csv": (lambda: write_records_csv(records, csv_path),
                              lambda: write_records_csv(records, str(tmp_path / "no" / "r.csv")),
                              FileNotFoundError),
        "read_records_csv": (lambda: read_records_csv(csv_path),
                             lambda: read_records_csv(str(bad_csv)), ValueError),
    }


_PAUSED = ["draw_plan", "normalization_constant", "run_ensemble", "_run_range",
           "aggregate", "write_records_csv", "read_records_csv"]


@pytest.mark.parametrize("name", _PAUSED)
@pytest.mark.parametrize("enabled", [True, False])
def test_paused_entry_points_restore_the_collector_state(name, enabled, tmp_path,
                                                         monkeypatch):
    returns, raises, error = _paused_entry_points(tmp_path, monkeypatch)[name]
    try:
        (gc.enable if enabled else gc.disable)()
        returns()
        assert gc.isenabled() is enabled
        with pytest.raises(error):
            raises()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("name", _PAUSED)
def test_paused_entry_points_run_no_collection(name, tmp_path, monkeypatch):
    """With a threshold that would collect the young generation every 50 new
    containers, the only collection is the one of the young generation that
    the first allocation after the pause triggers."""
    returns, _, _ = _paused_entry_points(tmp_path, monkeypatch)[name]
    generations = []
    record = lambda phase, info: phase == "start" and generations.append(info["generation"])
    threshold = gc.get_threshold()
    gc.callbacks.append(record)
    try:
        gc.set_threshold(50)
        gc.collect()
        generations.clear()
        returns()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(record)
    assert generations in ([], [0])


def _cycles_after_pipeline(samples: int, tmp_path) -> int:
    """Objects ``gc.collect`` frees after a serial Case I ensemble, its
    aggregation and its records CSV."""
    plan = SamplePlan(Variant.CASE_I, 4, 4, sample_count=samples, master_seed=3)
    gc.collect()
    gc.disable()
    try:
        records = run_ensemble(plan, workers=1)
        aggregate(records)
        write_records_csv(records, str(tmp_path / "records.csv"))
        del records
        return gc.collect()
    finally:
        gc.enable()


def test_executions_create_no_reference_cycles(tmp_path):
    _cycles_after_pipeline(200, tmp_path)           # caches and lazy set-up
    assert _cycles_after_pipeline(200, tmp_path) == _cycles_after_pipeline(2000, tmp_path)


# --- metagenome -------------------------------------------------------------

def test_metagenome_single_rule(small_case1_records):
    _, records = small_case1_records
    rec = dataclasses.replace(records[0], attractor_rules=bytes([204, 204, 204]))
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


def test_metagenome_memory_follows_the_rules(small_case1_records):
    """20,000 one-rule cycles are counted within 20 bytes a cycle of
    tracemalloc peak: no per-cycle buffer view (``b"".join`` holds 80 bytes
    each) or per-rule int."""
    _, records = small_case1_records
    records = [dataclasses.replace(records[0], attractor_rules=bytes([rule % 256]))
               for rule in range(20_000)]
    metagenome(records)                  # the class table and numpy's first calls
    tracemalloc.start()
    try:
        table = metagenome(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row["count"] for row in table] == [79] * 32 + [78] * 224
    assert peak < 20 * len(records)


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


def _outcome(hist, values):
    """A histogram's (label, count) pairs in order, or the type of the
    arithmetic error it raises."""
    try:
        return list(hist(values).items())
    except ArithmeticError as exc:
        return type(exc)


# floats with zeros and negatives, and values whose bins share a .6g label
_HIST_VALUES = st.one_of(
    st.lists(st.one_of(st.floats(-1e9, 1e9), st.sampled_from([0.0, -0.0, -1.5, 1.0, 2.0])),
             max_size=60),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=60).map(
        lambda ns: [1e6 + i * 1e-9 for i in ns]),
)


@settings(max_examples=300, deadline=None)
@given(_HIST_VALUES, st.integers(1, 25))
@example([1e6 + i * 1e-9 for i in range(40)], 20)   # 20 bins, one label "1e+06"
@example([0.0, -0.0, -1.5, 0.5, 1.0, 2.0 - 2**-52], 20)
def test_histograms_match_per_value_oracles(values, bins):
    assert (_outcome(lambda vs: value_histogram(vs, bins), values)
            == _outcome(lambda vs: scalar_value_histogram(vs, bins), values))
    assert _outcome(log2_histogram, values) == _outcome(scalar_log2_histogram, values)


def test_report_round_trips_to_dict(small_case1_records):
    _, records = small_case1_records
    d = aggregate(records).to_dict()
    assert isinstance(d["t_r_ratio_box"], dict)
    assert set(d["t_r_ratio_box"]) == set(vars(BoxStats(0, 0, 0, 0, 0, 0, 0)))


# --- packed pipeline against the all-scalar one -----------------------------

# Plans of every variant, each with the SHA-256 of its records CSV (without
# the ``#`` lines) at norm_bits = 1000, recorded before the configs held
# packed ints.
SCALAR_PLANS = {
    "case1-4x4": (SamplePlan(Variant.CASE_I, 4, 4, sample_count=300, master_seed=5),
                  "7efb2d8c7157f87bcaa9356441a250df9e0a8c3cb9808895c23968cb5233232a"),
    "case1-5x12": (SamplePlan(Variant.CASE_I, 5, 12, sample_count=200, master_seed=6),
                   "4c3a8d3ae9f26d490cee0207f94076958b9b5203296efc76151a98ec77ffd546"),
    "case2": (SamplePlan(Variant.CASE_II, 4, sample_count=300, master_seed=7),
              "63801cee2932efdd351990edd7a917191428c7c4e937aaeded7117ed8ab1839a"),
    "case3": (SamplePlan(Variant.CASE_III, 5, mu=0.5, sample_count=300, master_seed=8),
              "2afd93bcf21eec0cc61bfbbe891d45534747ed518b5517c79a40748e582924e2"),
    "case3-capped": (SamplePlan(Variant.CASE_III, 4, mu=0.05, sample_count=200,
                                master_seed=9, step_cap=30),
                     "6ad0cd289ad95a6eab650058c4dde09036c0eb963f5214410e6eac5ed9a83c34"),
    "eca": (SamplePlan(Variant.ISOLATED, 5, sample_count=300, master_seed=10),
            "31f8d0257ece89049de8eb2737abc98c875c67744772db7384ee90ba1d30aee1"),
}


# The SHA-256 of each SCALAR_PLANS plan's report JSON file, whole, with the
# echo {"variant": ...}, recorded before the report came from the fields of
# EnsembleReport: the bench's report digest sorts the keys, so only these pin
# their order.
REPORT_GOLDEN = {
    "case1-4x4": "66b65efce60775751bcd5edd9db1e0592ee8fead1c1561837555c880b7d472f1",
    "case1-5x12": "690716c6eb99de86d16d6ea328b989a32a5a265ad7075225de07028f51d128d5",
    "case2": "535966e49ce7cfc6bd798b7d75fe0d84864ae678237873ce4b4cc7765afbbe35",
    "case3": "5e9a3262cc284206d83b0cc617dcaaa6522e44df278d4bdba446a288ee301ddb",
    "case3-capped": "708a6a15f066d567d027cbd2cd1723c7ad3fa831a488aa76d00ba036aede597d",
    "eca": "4e82df3dfc676416b2b7fb6e18ab6c02ed4c636c443d5850b5e944f09ec677e0",
}


def scalar_plan_records(name: str) -> list:
    plan = SCALAR_PLANS[name][0]
    return [ensemble.execute_tuple(plan, i, tup, 1000) for i, tup in enumerate(draw_plan(plan))]


@pytest.mark.parametrize("name", SCALAR_PLANS)
def test_execute_tuple_records_are_byte_identical(name, tmp_path):
    """The records CSV matches its digest and reads back as the records,
    without their in-memory attractor rules: censored rows, 64-bit Case III
    seeds, k = "extinct" and records without an environment among them."""
    plan, digest = SCALAR_PLANS[name]
    records = scalar_plan_records(name)
    path = tmp_path / "records.csv"
    write_records_csv(records, str(path), config_echo={"variant": plan.variant.value})
    body = b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"#"))
    assert hashlib.sha256(body).hexdigest() == digest
    assert read_records_csv(str(path)) == [dataclasses.replace(r, attractor_rules=None)
                                           for r in records]


def test_scalar_plans_cover_every_kind_of_field():
    records = [r for name in SCALAR_PLANS for r in scalar_plan_records(name)]
    assert any(r.censored for r in records)
    assert any(r.seed is not None and r.seed >= 1 << 63 for r in records)
    assert any(r.k == "extinct" for r in records)
    assert any(r.w_e is None for r in records)


def test_records_pickle_as_themselves():
    """A record pickles as its field tuple, so a pool worker sends a row;
    it comes back equal, with the same ``Variant`` member, for records of
    every variant, censored or not, with and without attractor rules."""
    capped = SamplePlan(Variant.CASE_I, 4, 4, sample_count=60, master_seed=5, step_cap=8)
    records = [r for name in SCALAR_PLANS for r in scalar_plan_records(name)]
    records += [ensemble.execute_tuple(capped, i, tup, 1000)
                for i, tup in enumerate(draw_plan(capped))]
    assert {r.variant for r in records} == set(Variant)
    assert any(r.censored and r.variant is Variant.CASE_I for r in records)
    assert any(r.variant is Variant.CASE_III and r.seed is not None for r in records)
    assert any(r.k == "extinct" for r in records)
    assert any(r.attractor_rules is None for r in records)
    assert any(r.attractor_rules is not None for r in records)
    for rec in records:
        back = pickle.loads(pickle.dumps(rec))
        assert back == rec
        assert back.variant is rec.variant
    assert pickle.loads(pickle.dumps(records)) == records


@pytest.mark.parametrize("name", SCALAR_PLANS)
def test_report_json_is_byte_identical(name, tmp_path):
    plan = SCALAR_PLANS[name][0]
    path = tmp_path / "report.json"
    write_report_json(aggregate(scalar_plan_records(name)), str(path),
                      config_echo={"variant": plan.variant.value})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_GOLDEN[name]


@pytest.mark.parametrize("name", SCALAR_PLANS)
def test_execute_tuple_matches_all_scalar_execution(name, monkeypatch):
    """Records from the packed loop, the base-reusing Lyapunov and the packed
    INN, LZW input and recurrence equal those from snapshot stepping, a
    re-simulated Lyapunov base, per-cell INN, string LZW input and the
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

    plan = SCALAR_PLANS[name][0]
    tuples = draw_plan(plan)
    packed = [ens.execute_tuple(plan, i, tup, 1000) for i, tup in enumerate(tuples)]
    monkeypatch.setattr(ens, "run_trajectory", scalar_trajectory)
    monkeypatch.setattr(cx, "lyapunov",
                        lambda base, bit, horizon: scalar_lyapunov(base.config, bit, horizon))
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
    from the run directly and checked with the per-cell and string oracles.
    A deterministic record keeps the rules of its attractor cycle, one byte
    each; a Case III record keeps none."""
    from helpers import scalar_compressibility, scalar_is_eca_reproducible
    from oee_ca.ensemble import execute_tuple
    from oee_ca.variants import detect_cycle, run_trajectory

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
        if plan.variant.deterministic:
            P, L = detect_cycle(traj)
            assert rec.attractor_rules == bytes(rules[P:P + L])
        else:
            assert rec.attractor_rules is None
        checked += t_r < len(states) - 1
    # a Case I run can outlast t_r, so its windows must stop inside the run
    assert checked or not plan.variant.deterministic


# --- symmetry oracles -------------------------------------------------------

def rotated(bits: int, k: int, width: int) -> int:
    """The ``width``-cell ring ``bits`` rotated left by ``k`` cells."""
    k %= width
    return ((bits << k) | (bits >> (width - k))) & ((1 << width) - 1)


def flags(plan: SamplePlan, index: int, tup: tuple) -> tuple:
    """t_r, t_r_rule, t_a, UE and INN of one execution, with its rule sequence."""
    _, traj, rep, _, inn = flag_stages(plan, index, tup)
    return rep.t_r, rep.t_r_rule, rep.t_a, rep.ue, inn, traj.rules


@pytest.mark.parametrize("w_o, w_e", [(4, 4), (5, 7), (3, 6)])
@settings(max_examples=60, deadline=None)
@given(r_o=st.integers(0, 255), r_e=st.integers(0, 255), data=st.data())
def test_case1_flags_are_invariant_under_rotation(w_o, w_e, r_o, r_e, data):
    """A step commutes with rotating the ring, and triplet counts, hence the
    Case I flip masks, do not change under it: rotating s_o and s_e
    independently changes no flag and no rule of the run."""
    plan = SamplePlan(Variant.CASE_I, w_o, w_e, sample_count=1)
    s_o = data.draw(st.integers(0, (1 << w_o) - 1))
    s_e = data.draw(st.integers(0, (1 << w_e) - 1))
    a, b = data.draw(st.integers(1, w_o - 1)), data.draw(st.integers(0, w_e - 1))
    assert (flags(plan, 0, (r_o, r_e, s_o, s_e))
            == flags(plan, 0, (r_o, r_e, rotated(s_o, a, w_o), rotated(s_e, b, w_e))))


@pytest.mark.parametrize("variant, mu", [(Variant.ISOLATED, None), (Variant.CASE_III, 0.3),
                                         (Variant.CASE_III, 0.5)])
@settings(max_examples=60, deadline=None)
@given(w_o=st.integers(3, 7), r_o=st.integers(0, 255), seed=st.integers(0, 2**32),
       index=st.integers(0, 999), data=st.data())
def test_flags_are_invariant_under_organism_rotation(variant, mu, w_o, r_o, seed, index, data):
    """eca, and Case III on the same stream (the same index, so the same
    seed): rotating s_o changes no flag and no rule of the run."""
    plan = SamplePlan(variant, w_o, mu=mu, sample_count=1, master_seed=seed, step_cap=2000)
    s_o = data.draw(st.integers(0, (1 << w_o) - 1))
    a = data.draw(st.integers(1, w_o - 1))
    assert flags(plan, index, (r_o, s_o)) == flags(plan, index, (r_o, rotated(s_o, a, w_o)))


@pytest.mark.parametrize("w_o", [3, 4])
def test_case2_initial_rule_matters_only_when_it_recurs(w_o):
    """Case II's first step sets r_o = s_e before it steps the organism, so
    r_o(0) is read only as rules[0] and in snapshot 0, and every later
    state, rule and environment is a function of the base (r_e, s_e, s_o).
    So every canonical r_o(0) absent from its own run's rules[1:] gives the
    same run after step 0, the same recurrence report and the same INN."""
    plan = SamplePlan(Variant.CASE_II, w_o, sample_count=1)
    canon = canonical_rules()
    rng = np.random.default_rng(w_o)
    for _ in range(8):
        r_e, s_e, s_o = (canon[int(rng.integers(88))], int(rng.integers(256)),
                         int(rng.integers(1 << w_o)))
        generic = set()
        for r_o in canon:
            _, traj, rep, _, inn = flag_stages(plan, 0, (r_o, r_e, s_o, s_e))
            if r_o not in traj.rules[1:]:
                generic.add((dataclasses.astuple(rep), inn, tuple(traj.rules[1:]),
                             tuple(traj.states)))
        assert len(generic) == 1


# the exact Case II flag counts (OEE, INN, UE) over the whole space at each
# w_o, from ``case2_exact_counts``; no run reaches the step cap
CASE2_EXACT = {
    3: (6_598_355, 12_126_928, 6_614_177),   # 41.6045 %, 76.4637 %, 41.7043 %
    4: (3_546_353, 26_167_240, 3_546_353),   # 11.1804 %, 82.4959 %
    5: (6_533_284, 55_353_408, 6_533_284),   # 10.2986 %, 87.2547 %
    6: (351_120, 111_824_944, 351_120),      # 0.2767 %, 88.1360 %
}


@pytest.mark.slow
@pytest.mark.parametrize("w_o", CASE2_EXACT)
def test_case2_exact_flag_counts(w_o):
    """Every tuple of the Case II space, through the collapse of r_o(0)
    that ``case2_exact_counts`` argues: the exact population that criteria
    4, 5 and 7 sample.  15 seconds at w_o = 3 to 80 at 6, so they run only
    with ``-m slow``."""
    flags = case2_exact_counts(w_o)
    assert (flags.n_live, flags.n_censored) == (sample_space_size(Variant.CASE_II, w_o), 0)
    assert (flags.n_oee, flags.n_inn, flags.n_ue) == CASE2_EXACT[w_o]


@pytest.mark.parametrize("w_o, seed", [(3, 281), (4, 282)])
def test_case2_flags_follow_the_exact_counts(w_o, seed):
    """The OEE and INN counts of a fresh 10,000-sample Case II plan pass
    exact binomial tests against the rates of the whole space."""
    n_oee, n_inn, _ = CASE2_EXACT[w_o]
    space = sample_space_size(Variant.CASE_II, w_o)
    flags = light_stats(SamplePlan(Variant.CASE_II, w_o, sample_count=10_000, master_seed=seed))
    assert (flags.n_live, flags.n_censored) == (10_000, 0)
    assert stats.binomtest(flags.n_oee, 10_000, n_oee / space).pvalue > 1e-4
    assert stats.binomtest(flags.n_inn, 10_000, n_inn / space).pvalue > 1e-4


def mirrored(bits: int, width: int) -> int:
    """The ``width``-cell state ``bits`` read right to left."""
    return int(f"{bits:0{width}b}"[::-1], 2)


def complemented(bits: int, width: int) -> int:
    """The ``width``-cell state ``bits`` with every cell flipped."""
    return bits ^ ((1 << width) - 1)


# how a symmetry acts on a state and on a rule number
SYMMETRIES = {"mirror": (mirrored, _mirror_number),
              "complement": (complemented, _complement_number)}


def assert_flags_map(plan: SamplePlan, index: int, tup: tuple, image: tuple, rule_map) -> None:
    """The run of ``image`` has the flags of the run of ``tup``, and its rule
    sequence is theirs mapped rule by rule through ``rule_map``."""
    *flag_values, rules = flags(plan, index, tup)
    *image_values, image_rules = flags(plan, index, image)
    assert image_values == flag_values
    assert image_rules == [rule_map(r) for r in rules]


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("w_o, w_e", [(4, 4), (5, 7), (3, 6)])
@settings(max_examples=60, deadline=None)
@given(r_o=st.integers(0, 255), r_e=st.integers(0, 255), data=st.data())
def test_case1_flags_map_under_mirror_and_complement(symmetry, w_o, w_e, r_o, r_e, data):
    """Mirroring (complementing) both states and both rules mirrors
    (complements) every later state, so triplet counts, hence the Case I
    flip masks, map with them: no flag changes, and each rule of the run
    maps through the same rule symmetry.

    Case II and Case III are left out.  In Case II the organism's rule is
    the environment state read as a number, and mirroring or complementing
    that state does not map the number through the rule's symmetry.  In
    Case III the rule bits are flipped by the seed's mask stream, which
    would have to be permuted with the rule's bits for the image run to be
    the mapped run."""
    state_map, rule_map = SYMMETRIES[symmetry]
    plan = SamplePlan(Variant.CASE_I, w_o, w_e, sample_count=1)
    s_o = data.draw(st.integers(0, (1 << w_o) - 1))
    s_e = data.draw(st.integers(0, (1 << w_e) - 1))
    image = (rule_map(r_o), rule_map(r_e), state_map(s_o, w_o), state_map(s_e, w_e))
    assert_flags_map(plan, 0, (r_o, r_e, s_o, s_e), image, rule_map)


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@settings(max_examples=60, deadline=None)
@given(w_o=st.integers(3, 7), r_o=st.integers(0, 255), data=st.data())
def test_eca_flags_map_under_mirror_and_complement(symmetry, w_o, r_o, data):
    """eca: mirroring (complementing) s_o and r_o changes no flag, and the
    run's rule maps with it."""
    state_map, rule_map = SYMMETRIES[symmetry]
    plan = SamplePlan(Variant.ISOLATED, w_o, sample_count=1, step_cap=2000)
    s_o = data.draw(st.integers(0, (1 << w_o) - 1))
    assert_flags_map(plan, 0, (r_o, s_o), (rule_map(r_o), state_map(s_o, w_o)), rule_map)
