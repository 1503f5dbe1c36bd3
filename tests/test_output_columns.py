"""The column-wise output phase against its row-wise oracles.

``write_records_csv`` formats a block of records a column at a time, each
distinct value once, ``read_records_csv`` parses each distinct text of a
column once, and ``aggregate`` reads fields as columns; the files and the
report must be exactly what the row-wise versions in ``helpers`` produce.
The benchmark's recorded digests pin the same contract on its own plans.
"""

import dataclasses
import json
import random

import pytest

from helpers import (
    BENCH,
    load_pipeline,
    rowwise_aggregate,
    rowwise_box_stats,
    rowwise_write_records_csv,
)
from oee_ca.complexity import EXTINCT
from oee_ca.ensemble import EmptyReportError, SamplePlan, aggregate, box_stats, run_ensemble
from oee_ca.io_formats import CSV_COLUMNS, read_records_csv, write_records_csv
from oee_ca.variants import Variant


@pytest.fixture(scope="module")
def variant_records():
    """Small ensembles of every variant: Case III has seeds and extinct k,
    the eca variant has no environment width."""
    plans = {
        "case1": SamplePlan(Variant.CASE_I, 3, 4, sample_count=300, master_seed=3),
        "case2": SamplePlan(Variant.CASE_II, 3, sample_count=200, master_seed=4),
        "case3": SamplePlan(Variant.CASE_III, 4, mu=0.5, sample_count=300, master_seed=5),
        "eca": SamplePlan(Variant.ISOLATED, 5, sample_count=200, master_seed=6),
    }
    return {name: run_ensemble(plan) for name, plan in plans.items()}


def odd_records(records):
    """Rows the ensembles never make: all-None live and censored rows,
    widths that change inside a block, float zeros of both signs in one
    column, and 1, 1.0 and True in one column."""
    base = records[0]
    nothing = dict.fromkeys(["w_e", "mu", "seed", "rule_e", "init_state_e", "t_r", "t_r_rule",
                             "t_a", "inn", "ue", "oee", "attractor_ue", "n_rule_transitions",
                             "innovation_I", "compressed_bits", "norm_bits", "C", "k"])
    rows = [dataclasses.replace(base, **nothing),
            dataclasses.replace(base, **nothing, censored=True),
            dataclasses.replace(base, w_o=64, init_state_o=0x0123456789ABCDEF),
            dataclasses.replace(base, w_e=9, init_state_e=0x1FF)]
    for i, rec in enumerate(records[1:40]):
        rows.append(dataclasses.replace(
            rec, C=(0.0, -0.0, 0.5)[i % 3], k=(-0.0, 0.0, EXTINCT, None)[i % 4],
            t_r=(1, 1.0, True)[i % 3], mu=(1, 1.0, True, None)[i % 4]))
    return rows


def block_records(records, n):
    """``n`` records cycled from ``records``, for the edges of 512-record blocks."""
    return [records[i % len(records)] for i in range(n)]


def record_sets(variant_records):
    sets = dict(variant_records)
    sets["odd"] = odd_records(variant_records["case1"])
    sets["odd-in-case3"] = [*variant_records["case3"], *odd_records(variant_records["case3"])]
    for n in (0, 1, 511, 512, 513, 1023, 1024, 1025):
        sets[f"block-{n}"] = block_records(sets["odd-in-case3"], n)
    return sets


def test_records_csv_matches_rowwise_writer(variant_records, tmp_path):
    assert any(rec.k == EXTINCT for rec in variant_records["case3"])
    assert all(rec.seed is not None for rec in variant_records["case3"])
    assert all(rec.w_e is None for rec in variant_records["eca"])
    echo = {"variant": "mixed", "seed": 7}
    for name, records in record_sets(variant_records).items():
        new, old = tmp_path / f"{name}.csv", tmp_path / f"{name}.oracle.csv"
        write_records_csv(records, str(new), config_echo=echo)
        rowwise_write_records_csv(records, str(old), config_echo=echo)
        assert new.read_bytes() == old.read_bytes(), name


def outcome(aggregator, records):
    """The report's repr, which tells 0.0 from -0.0 and 1 from 1.0, and its
    JSON; or the type of the exception raised."""
    try:
        report = aggregator(records)
    except Exception as exc:   # an all-None live row has no ratio to take
        return type(exc)
    return repr(report), json.dumps(report.to_dict())


def test_aggregate_matches_rowwise_aggregate(variant_records):
    sets = record_sets(variant_records)
    assert aggregate(sets["case3"]) == rowwise_aggregate(sets["case3"])
    with pytest.raises(EmptyReportError):
        aggregate(sets["block-0"])
    sets["odd-live"] = [rec for rec in sets["odd-in-case3"] if rec.t_r is not None]
    for name, records in sets.items():
        assert outcome(aggregate, records) == outcome(rowwise_aggregate, records), name


def test_box_stats_whiskers_match_the_scans():
    """The whiskers come from bisection; among equal values the scans pick
    the first, which matters where equal values print differently."""
    rng = random.Random(3)
    samples = [[0.0, -0.0], [-0.0, 0.0, 1.0], [1.0, 0.0, -0.0, 0.0], [5.0], [2.0, 2.0, 2.0],
               [1.0, 2.0, 3.0, 4.0, 100.0, -50.0]]
    samples += [[rng.choice([0.0, -0.0, 0.5, 1.0, 8.0, 30.0]) for _ in range(rng.randrange(1, 40))]
                for _ in range(300)]
    for values in samples:
        assert repr(box_stats(values)) == repr(rowwise_box_stats(values)), values


def test_no_csv_text_needs_quoting(variant_records, tmp_path):
    """No column's text holds a comma, a quote or a line break, so joining
    the texts with commas writes what ``csv.writer`` writes."""
    extreme = dataclasses.replace(
        variant_records["case1"][0], mu=float("inf"), seed=2**64 - 1, innovation_I=1e-300,
        C=float("nan"), k=-1.5e300, init_state_o=2**64 - 1, w_o=64)
    path = tmp_path / "records.csv"
    write_records_csv([*record_sets(variant_records)["odd-in-case3"], extreme], str(path))
    lines = [line for line in path.read_text().split("\n")[:-1] if not line.startswith("#")]
    assert len(lines) > 1
    assert not any('"' in line or "\r" in line for line in lines)
    assert {line.count(",") for line in lines} == {len(CSV_COLUMNS) - 1}


def test_reader_names_the_first_bad_record(variant_records, tmp_path):
    path = tmp_path / "records.csv"
    records = block_records(variant_records["case3"], 1100)   # three 512-record blocks
    write_records_csv(records, str(path))
    echo, header, *rows = path.read_text().splitlines()
    assert read_records_csv(str(path)) == [dataclasses.replace(rec, attractor_rules=None)
                                           for rec in records]
    bad_parse = rows[699].replace(",4,", ",abc,", 1)      # the w_o field of record 700
    longer = rows[699] + ",9"
    cases = {
        "record 700: w_o = 'abc' does not parse": [*rows[:699], bad_parse, longer, *rows[701:]],
        "record 700 has 25 fields, expected 24": [*rows[:699], longer, bad_parse, *rows[701:]],
        "record 3: w_o = 'abc' does not parse": [*rows[:2], bad_parse, *rows[3:699], longer],
        "record 701 has 25 fields, expected 24": [*rows[:700], longer, *rows[701:]],
        "record 1 has 23 fields, expected 24": [row.rpartition(",")[0] for row in rows],
    }
    for message, lines in cases.items():
        path.write_text("\n".join([echo, header, *lines]) + "\n")
        with pytest.raises(ValueError, match=message):
            read_records_csv(str(path))


# --- the benchmark's recorded digests -------------------------------------------

@pytest.mark.parametrize("workload", ["case1-w4x4", "case1-w6x13", "case3-w6-par2"])
def test_bench_plan_seed_0_matches_recorded_digests(workload, monkeypatch, tmp_path):
    """The first pass of ``bench/run.py --seed 0``: plan seed 0 at the
    workload's worker count writes the recorded records CSV and report."""
    pipeline = load_pipeline(monkeypatch)
    spec = pipeline.WORKLOADS[workload]
    result = pipeline.run_pass(pipeline.make_plan(spec, 0), spec.workers, str(tmp_path))
    digests = json.loads((BENCH / "digests.json").read_text())[workload]["0"]
    assert [pipeline.csv_digest(result["csv_path"]),
            pipeline.report_digest(result["json_path"])] == digests
