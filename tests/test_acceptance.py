"""The 13 acceptance criteria, one test each, each printing a PASS/FAIL line.

Statistical criteria use fixed seeds, so every verdict is reproducible.
Criteria 6 (numeric brackets), 7 and 11 encode published values that the
reconstructed dynamics do not reproduce; they are implemented faithfully and
fail honestly — the analysis lives in the project notes, not in this file.
"""

import math
from pathlib import Path
from collections import Counter

import numpy as np

import conftest
from helpers import brute_force_counterfactual, exhaustive_plan_tuples, light_stats

from oee_ca.ensemble import (
    SamplePlan,
    config_for_tuple,
    draw_plan,
    environment_width,
    run_ensemble,
)
from oee_ca.eca import WolframClass, canonical_rules, step_table
from oee_ca.innovation import is_eca_reproducible
from oee_ca.io_formats import write_records_csv
from oee_ca.recurrence import build_report, poincare_time, projected_recurrence
from oee_ca.variants import (
    Variant,
    case1_update_bits,
    flip_masks,
    run_trajectory,
)


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)
    return ok


def binom_sigma(pct: float, n: int) -> float:
    return math.sqrt(pct * (100.0 - pct) / n)


# ---------------------------------------------------------------------------

def test_criterion_01_eca_control():
    """Exhaustive isolated runs: INN% = 0, OEE% = 0, t_r <= 2^w. Exact."""
    ok = True
    details = []
    for w in (3, 4, 5):
        plan = SamplePlan(Variant.ISOLATED, w, sample_count=1)
        tuples = exhaustive_plan_tuples(plan)
        stats = light_stats(plan, tuples=tuples)
        t_r_ok = True
        for i, tup in enumerate(tuples):
            rep = build_report(run_trajectory(config_for_tuple(plan, i, tup)))
            if rep.t_r > (1 << w):
                t_r_ok = False
        ok &= (stats.inn_percent == 0.0 and stats.oee_percent == 0.0 and t_r_ok)
        details.append(f"w{w}: inn={stats.inn_percent} oee={stats.oee_percent} "
                       f"n={len(tuples)}")
    assert verdict(1, "ECA control", ok, "; ".join(details))


def test_criterion_02_poincare_bound():
    values = {w: poincare_time(w) for w in range(3, 8)}
    ok = all(values[w] == 2 ** w for w in values)
    assert verdict(2, "Poincare bound", ok, str(values))


def test_criterion_03_single_triplet_update():
    """Some (s_o, s_e) at widths (4, 6) flips exactly the 101 bit: 30 -> 62."""
    mask_101 = 1 << 5  # S3 index 2 -> rule bit 5
    witnesses = [(so, se) for so in range(16) for se in range(64)
                 if case1_update_bits(so, 4, 0, se, 6) == mask_101]
    ok = bool(witnesses) and all(
        case1_update_bits(so, 4, 30, se, 6) == 62 for so, se in witnesses)
    assert verdict(3, "rule 30 -> 62 worked example", ok,
                   f"{len(witnesses)} witness pairs at (w_o, w_e) = (4, 6)")


def test_criterion_04_case2_headline():
    plan = SamplePlan(Variant.CASE_II, 3, sample_count=10_000, master_seed=41)
    stats = light_stats(plan)
    ok = abs(stats.oee_percent - 42.47) <= 3.0
    assert verdict(4, "Case II OEE headline", ok,
                   f"OEE% = {stats.oee_percent:.2f} vs 42.47 +/- 3.0")


def test_criterion_05_case2_trend():
    values = []
    for w in (3, 4, 5, 6):
        plan = SamplePlan(Variant.CASE_II, w, sample_count=4000, master_seed=42)
        values.append(light_stats(plan).oee_percent)
    ok = all(a > b for a, b in zip(values, values[1:]))
    assert verdict(5, "Case II OEE decreasing in w_o", ok,
                   "w3..w6 = " + ", ".join(f"{v:.2f}" for v in values))


def test_criterion_06_case1_environment_scaling():
    # numeric brackets at w_o = 3 on 10^5 samples
    brackets = {}
    for w_e, target in ((3, 0.02), (6, 10.81)):
        plan = SamplePlan(Variant.CASE_I, 3, w_e, sample_count=100_000,
                          master_seed=61)
        brackets[w_e] = (light_stats(plan).oee_percent, target)
    bracket_ok = all(abs(got - target) <= 3.0
                     for got, target in brackets.values())

    # monotone trend across the five ratios for every w_o, 3-sigma slack
    n = 10_000
    mono_ok = True
    rows = {}
    for w_o in (3, 4, 5):
        row = []
        for ratio in ("1/2", "1", "3/2", "2", "5/2"):
            plan = SamplePlan(Variant.CASE_I, w_o, environment_width(w_o, ratio),
                              sample_count=n, master_seed=62)
            row.append(light_stats(plan).oee_percent)
        rows[w_o] = row
        for a, b in zip(row, row[1:]):
            slack = 3 * math.sqrt(binom_sigma(a, n) ** 2 + binom_sigma(b, n) ** 2)
            if b < a - slack:
                mono_ok = False
    ok = bracket_ok and mono_ok
    detail = ("; ".join(f"(3,{we}): {got:.2f} vs {t} +/- 3"
                        for we, (got, t) in brackets.items())
              + " | trend " + ("ok" if mono_ok else "violated")
              + " " + str({w: [round(v, 2) for v in r] for w, r in rows.items()}))
    assert verdict(6, "Case I environment scaling", ok, detail)


def test_criterion_07_inn_rates():
    details = []
    ok = True
    for variant in (Variant.CASE_II, Variant.CASE_III):
        for w in (3, 4, 5):
            plan = SamplePlan(variant, w, sample_count=10_000, master_seed=71)
            inn = light_stats(plan).inn_percent
            ok &= inn >= 99.0
            details.append(f"{variant.value} w{w}: {inn:.2f}")
    plan = SamplePlan(Variant.CASE_I, 3, 3, sample_count=10_000, master_seed=72)
    inn = light_stats(plan).inn_percent
    ok &= abs(inn - 54.6) <= 3.0
    details.append(f"case1 (3,3): {inn:.2f} vs 54.6 +/- 3")
    assert verdict(7, "INN rates", ok, "; ".join(details))


def test_criterion_08_case3_convergence():
    plan = SamplePlan(Variant.CASE_III, 4, sample_count=3000, master_seed=81)
    trs = []
    censored = 0
    for i, tup in enumerate(draw_plan(plan)):
        traj = run_trajectory(config_for_tuple(plan, i, tup))
        if traj.cap_hit:
            censored += 1
        else:
            trs.append(len(traj.states) - 1)
    hist = Counter(trs)
    pts = [(t, math.log(c)) for t, c in sorted(hist.items()) if t >= 1 and c >= 5]
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    r2 = 1.0 - float(np.sum(resid ** 2) / np.sum((y - y.mean()) ** 2))
    ok = censored == 0 and slope < 0 and r2 >= 0.9
    assert verdict(8, "Case III convergence", ok,
                   f"censored={censored}, slope={slope:.3f}, R^2={r2:.3f}")


def test_criterion_09_inn_as_proxy(case1_44_report):
    rho, p = case1_44_report.spearman_rho, case1_44_report.spearman_p
    ok = rho is not None and rho > 0 and p < 1e-3
    assert verdict(9, "Spearman(I, t_r)", ok, f"rho={rho:.3f}, p={p:.3g}")


def test_criterion_10_metagenome_skew(case1_44_report):
    low = sum(r["count"] for r in case1_44_report.metagenome_all
              if r["wolfram_class"] in (int(WolframClass.I), int(WolframClass.II)))
    high = sum(r["count"] for r in case1_44_report.metagenome_all
               if r["wolfram_class"] in (int(WolframClass.III), int(WolframClass.IV)))
    ok = low > high
    assert verdict(10, "metagenome Class I+II > III+IV", ok,
                   f"I+II = {low}, III+IV = {high}")


def test_criterion_11_complexity_directions(case1_44_records):
    live = [r for r in case1_44_records if not r.censored]
    oee = [r for r in live if r.oee]
    c_all = np.mean([r.C for r in live])
    c_oee = np.mean([r.C for r in oee])
    k_all = np.mean([r.k for r in live if isinstance(r.k, float)])
    k_oee = np.mean([r.k for r in oee if isinstance(r.k, float)])
    c_ok = c_oee < c_all
    k_ok = k_oee > k_all
    assert verdict(11, "complexity directions", c_ok and k_ok,
                   f"C: oee={c_oee:.4f} vs all={c_all:.4f} (want <); "
                   f"k: oee={k_oee:.4f} vs all={k_all:.4f} (want >)")


def test_criterion_12_oracle_equivalence():
    # exhaustive (3,3) space, deduplicated state windows
    windows = set()
    canon = canonical_rules()
    flip = flip_masks(3, 3)
    o_tab = [step_table(r, 3) for r in range(256)]
    for r_o in canon:
        for r_e in canon:
            e_tab = step_table(r_e, 3)
            for so in range(8):
                for se in range(8):
                    seen = {}
                    s, r, e, t = so, r_o, se, 0
                    seq = [s]
                    key = (s, r, e)
                    while key not in seen:
                        seen[key] = t
                        r ^= flip[s][e]
                        s = o_tab[r][s]
                        e = e_tab[e]
                        seq.append(s)
                        t += 1
                        key = (s, r, e)
                    P = seen[key]
                    _, _, t_r = projected_recurrence(seq, P, t - P)
                    windows.add(tuple(seq[:max(t_r, 1) + 1]))
    cf3 = brute_force_counterfactual(3)
    mismatches = sum(
        (is_eca_reproducible(list(w), 3) is not None)
        != cf3.contains(list(w), 3)
        for w in windows)

    # 10^4 random Case I windows at w_o = 4
    cf4 = brute_force_counterfactual(4)
    plan = SamplePlan(Variant.CASE_I, 4, 4, sample_count=10_000, master_seed=121)
    mismatches4 = 0
    for i, tup in enumerate(draw_plan(plan)):
        traj = run_trajectory(config_for_tuple(plan, i, tup))
        rep = build_report(traj)
        window = traj.states[:max(rep.t_r, 1) + 1]
        if ((is_eca_reproducible(window, 4) is not None)
                != cf4.contains(window, 4)):
            mismatches4 += 1
    ok = mismatches == 0 and mismatches4 == 0
    assert verdict(12, "oracle equivalence", ok,
                   f"exhaustive (3,3): {len(windows)} windows, "
                   f"{mismatches} mismatches; random w4: {mismatches4}/10000")


def test_criterion_13_worker_determinism(tmp_path):
    plan = SamplePlan(Variant.CASE_I, 3, 3, sample_count=300, master_seed=131)
    paths = []
    for workers in (1, 2):
        records = run_ensemble(plan, workers=workers)
        path = str(tmp_path / f"records_w{workers}.csv")
        write_records_csv(records, path, config_echo={"seed": 131})
        paths.append(path)
    a = Path(paths[0]).read_bytes()
    b = Path(paths[1]).read_bytes()
    ok = a == b
    assert verdict(13, "worker-count determinism", ok,
                   f"{len(a)} bytes, byte-identical={ok}")
