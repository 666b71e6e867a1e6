"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Seeds are registered constants chosen before looking at outcomes.  The
"Acceptance status" section of the package README gives the measured causes
of the criteria that fail at the stated sample sizes.
"""

import json
import math
import time

import numpy as np

from cesurv.aft import fit as fit_aft
from cesurv.aft import loglik_and_gradient
from cesurv.cli import main as cli_main
from cesurv.copula_entropy import EstimatorConfig, copula_entropy
from cesurv.dataio import bundled_dataset_spec, load_dataset
from cesurv.experiment import run_experiment
from cesurv.metrics import c_index
from cesurv.survsim import SimConfig, SurvivalDataset, simulate
from cesurv.varselect import rank_variables, select_variables

CFG = EstimatorConfig()  # k=3, max norm, default jitter
SIM_SEEDS = (0, 1, 2, 3, 4)
NULL_SEEDS = tuple(range(100, 110))


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def gaussian_pair(rho, n, seed):
    rng = np.random.default_rng(seed)
    z1, z2 = rng.standard_normal(n), rng.standard_normal(n)
    return np.column_stack([z1, rho * z1 + math.sqrt(1.0 - rho * rho) * z2])


def test_criterion_01_gaussian_ce_oracle():
    start = time.perf_counter()
    errors = {}
    for rho in (0.5, 0.75, 0.9):
        target = 0.5 * math.log(1.0 - rho * rho)
        ests = [copula_entropy(gaussian_pair(rho, 2000, s), CFG) for s in SIM_SEEDS]
        errors[rho] = abs(float(np.mean(ests)) - target)
    elapsed = time.perf_counter() - start
    ok = all(e <= 0.1 for e in errors.values()) and elapsed <= 10.0
    detail = (
        f"Gaussian CE oracle mean errors "
        + ", ".join(f"rho={r}: {e:.4f}" for r, e in errors.items())
        + f" (<=0.1), runtime {elapsed:.2f}s (<=10s)"
    )
    assert report(1, ok, detail), detail


def test_criterion_02_independence_null():
    ests = [
        copula_entropy(np.random.default_rng(s).random((1000, 2)), CFG)
        for s in NULL_SEEDS
    ]
    mean = float(np.mean(ests))
    n_below = sum(e < -0.1 for e in ests)
    ok = abs(mean) <= 0.05 and n_below <= 2
    detail = f"independence null mean {mean:+.4f} (|.|<=0.05), {n_below}/10 below -0.1 (<=2)"
    assert report(2, ok, detail), detail


def _simulation_rankings():
    runs = []
    for seed in SIM_SEEDS:
        ds = simulate(SimConfig(seed=seed))
        r1 = rank_variables(ds, with_status=False, cfg=CFG)
        r2 = rank_variables(ds, with_status=True, cfg=CFG)
        runs.append((r1, r2))
    return runs


def test_criterion_03_simulation_ordering():
    runs = _simulation_rankings()
    x1_top = sum(r1.entries[0].name == "x1" for r1, _ in runs)
    x3_last = sum(r1.entries[-1].name == "x3" for r1, _ in runs)
    chain = 0
    for r1, _ in runs:
        ce = {e.name: e.ce for e in r1.entries}
        chain += ce["x3"] > ce["x5"] > max(ce["x2"], ce["x4"])
    ok = x1_top >= 4 and x3_last >= 4 and chain >= 3
    detail = (
        f"simulation ordering: x1 rank-1 {x1_top}/5 (need >=4), "
        f"x3 largest CE {x3_last}/5 (need >=4), "
        f"x3>x5>max(x2,x4) {chain}/5 (need >=3)"
    )
    assert report(3, ok, detail), detail + ' [see README "Acceptance status"]'


def test_criterion_04_ce1_ce2_agreement():
    runs = _simulation_rankings()
    agree = sum(r1.entries[0].name == r2.entries[0].name for r1, r2 in runs)
    ok = agree >= 4
    detail = f"CE1/CE2 top-1 agreement {agree}/5 (need >=4)"
    assert report(4, ok, detail), detail


def test_criterion_05_cancer_selection():
    ds = load_dataset(bundled_dataset_spec("cancer"))
    top4 = set(select_variables(rank_variables(ds, cfg=CFG), top_m=4))
    overlap = len(top4 & {"sex", "ph.ecog", "ph.karno", "pat.karno"})
    ok = overlap >= 3
    detail = f"cancer top-4 {sorted(top4)} overlaps target set in {overlap} (need >=3)"
    assert report(5, ok, detail), detail + ' [see README "Acceptance status"]'


def test_criterion_06_veteran_selection():
    ds = load_dataset(bundled_dataset_spec("veteran"))
    top4 = set(select_variables(rank_variables(ds, cfg=CFG), top_m=4))
    overlap = len(top4 & {"trt", "celltype", "karno", "prior"})
    ok = overlap >= 3
    detail = f"veteran top-4 {sorted(top4)} overlaps target set in {overlap} (need >=3)"
    assert report(6, ok, detail), detail


def test_criterion_07_predictability_parity():
    results = []
    for name in ("cancer", "veteran"):
        rep = run_experiment(bundled_dataset_spec(name), estimator_cfg=CFG, top_m=4)
        evs = {e.model_label: e.c_index for e in rep.evaluations}
        results.append((name, evs["ce_selected"], evs["full"]))
    ok = all(sel >= full - 0.05 for _, sel, full in results)
    detail = "predictability parity " + ", ".join(
        f"{n}: selected {s:.4f} vs full {f:.4f}" for n, s, f in results
    )
    assert report(7, ok, detail), detail


def test_criterion_08_aft_recovery_and_gradient():
    rng = np.random.default_rng(11)
    t = math.e * rng.standard_exponential(5000) ** 0.5
    ds0 = SurvivalDataset(np.empty((5000, 0)), t, np.ones(5000, dtype=int), [])
    model = fit_aft(ds0, [])
    intercept_ok = abs(model.intercept - 1.0) <= 0.05
    scale_ok = abs(model.scale - 0.5) <= 0.05

    ds = simulate(SimConfig(seed=3, n_subjects=10))
    point_rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        params = point_rng.normal(0.0, 1.0, size=7)
        params[-1] = point_rng.normal(0.0, 0.5)
        _, grad = loglik_and_gradient(params, ds, ds.names)
        h = 1e-5
        fd = np.empty_like(grad)
        for i in range(len(params)):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (
                loglik_and_gradient(up, ds, ds.names)[0]
                - loglik_and_gradient(down, ds, ds.names)[0]
            ) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.abs(grad), 1e-8)
        worst = max(worst, float(rel.max()))
    grad_ok = worst <= 1e-5
    ok = intercept_ok and scale_ok and grad_ok
    detail = (
        f"AFT recovery intercept {model.intercept:.4f} (1±0.05), scale {model.scale:.4f} "
        f"(0.5±0.05); gradient worst rel err {worst:.2e} (<=1e-5 on 100 points)"
    )
    assert report(8, ok, detail), detail


def _c_index_bruteforce(pred, time_v, status):
    score, pairs = 0.0, 0
    n = len(pred)
    for i in range(n):
        for j in range(n):
            if time_v[i] < time_v[j] and status[i] == 1:
                pairs += 1
                if pred[i] < pred[j]:
                    score += 1.0
                elif pred[i] == pred[j]:
                    score += 0.5
    return (score / pairs, pairs) if pairs else None


def test_criterion_09_c_index_oracle():
    hand = c_index([1.5, 1.0, 2.5], [1, 2, 3], [1, 0, 1])
    hand_ok = hand == (0.5, 2)
    rng = np.random.default_rng(77)
    checked = 0
    all_match = True
    while checked < 100:
        n = int(rng.integers(2, 81)) if checked % 10 else int(rng.integers(200, 501))
        time_v = rng.integers(1, max(3, n // 3), size=n).astype(float)  # injected ties
        status = rng.integers(0, 2, size=n)
        pred = np.round(rng.random(n), 2)  # injected prediction ties
        want = _c_index_bruteforce(pred, time_v, status)
        if want is None:
            continue
        got = c_index(pred, time_v, status)
        all_match &= got == want
        checked += 1
    ok = hand_ok and all_match
    detail = (
        f"c-index: hand example {hand} == (0.5, 2); "
        f"{checked} random instances match brute force exactly: {all_match}"
    )
    assert report(9, ok, detail), detail


def test_criterion_10_reproduce_paper_determinism(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["reproduce-paper", "--out", str(d1)]) == 0
    assert cli_main(["reproduce-paper", "--out", str(d2)]) == 0
    same = True
    for name in ("simulation", "cancer", "veteran"):
        a = json.loads((d1 / f"{name}_report.json").read_text())
        b = json.loads((d2 / f"{name}_report.json").read_text())
        a.pop("created_at")
        b.pop("created_at")
        same &= json.dumps(a) == json.dumps(b)
    detail = f"reproduce-paper twice: report bodies byte-identical = {same}"
    assert report(10, same, detail), detail
