"""Self-test of the benchmark's checks, in a few seconds.

    python3 bench/selftest.py

Each check must accept the program's real output and reject a deliberately
wrong copy of it; the tracer must record a wrapped name that no longer
exists as a layer not called.  Exits 1 if any of that does not hold.
"""

import copy
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from cesurv import aft, dataio, experiment, metrics, survsim, varselect

import checks
import workloads
from tracing import LAYERS, Tracer

failures = []


def expect(accepts, label, fn):
    try:
        fn()
    except checks.CheckError as e:
        outcome = "rejected"
        detail = f": {e}"
    else:
        outcome, detail = "accepted", ""
    ok = (outcome == "accepted") == accepts
    print(f"{'ok  ' if ok else 'FAIL'} {outcome} {label}{detail}")
    if not ok:
        failures.append(label)


def evaluation_checks():
    ds = survsim.simulate(survsim.SimConfig(seed=3, n_subjects=400))
    model = aft.fit(ds, list(ds.names))
    pred = np.array([aft.predict_median(model, row) for row in ds.covariates])
    c, pairs = metrics.c_index(pred, ds.time, ds.status)
    m, n_events = metrics.mae(pred, ds.time, ds.status)
    evaluation = {"model_label": "full", "mae": m, "c_index": c,
                  "n_comparable_pairs": pairs, "n_events_used": n_events}
    reported = model.to_dict()
    ours = checks.predict(ds.covariates, reported["intercept"], reported["coefficients"], reported["scale"])
    expect(True, "C-index and MAE of the real predictions",
           lambda: checks.check_evaluation(evaluation, ours, ds.time, ds.status))
    swapped = ours.copy()
    first, last = np.flatnonzero(ds.status)[np.argmin(ds.time[ds.status == 1])], np.argmax(ds.time)
    swapped[[first, last]] = swapped[[last, first]]
    expect(False, "two predictions swapped before the C-index check",
           lambda: checks.check_evaluation(evaluation, swapped, ds.time, ds.status))
    expect(False, "MAE off by one part in 10^6",
           lambda: checks.check_evaluation({**evaluation, "mae": m * (1 + 1e-6)}, ours, ds.time, ds.status))
    expect(True, "fitted AFT parameters",
           lambda: checks.check_stationary(reported, ds.covariates, ds.time, ds.status))
    expect(False, "AFT intercept moved by 10^-3",
           lambda: checks.check_stationary({**reported, "intercept": reported["intercept"] + 1e-3},
                                           ds.covariates, ds.time, ds.status))


def ranking_checks():
    ds = survsim.simulate(survsim.SimConfig(seed=3, n_subjects=10_000))
    ranking = varselect.rank_variables(ds).to_dict()
    names = list(ds.names)
    expect(True, "CE ranking at 10^4 rows", lambda: (checks.check_ranking(ranking, names),
                                                     checks.check_signal(ranking, ds.n_rows, 0.0)))
    entries = ranking["entries"]
    x3 = next(e for e in entries if e["name"] == "x3")
    null_first = {**ranking, "entries": [x3] + [e for e in entries if e is not x3]}
    expect(False, "ranking with the null covariate x3 placed first",
           lambda: checks.check_ranking(null_first, names))
    relabelled = copy.deepcopy(ranking)
    for e in relabelled["entries"]:
        e["name"] = {"x3": entries[0]["name"], entries[0]["name"]: "x3"}.get(e["name"], e["name"])
    expect(False, "sorted ranking whose lowest CE is labelled x3",
           lambda: checks.check_signal(relabelled, ds.n_rows, 0.0))


def file_checks(tmp):
    ds = survsim.simulate(survsim.SimConfig(seed=4, n_subjects=300))
    path = tmp / "roundtrip.csv"
    dataio.save_dataset(ds, path)
    loaded = dataio.load_dataset(dataio.DatasetSpec(str(path)))
    expect(True, "save/load round trip", lambda: checks.check_roundtrip(ds, loaded))
    short = survsim.SurvivalDataset(loaded.covariates[1:], loaded.time[1:], loaded.status[1:], loaded.names)
    expect(False, "one row dropped from the round trip", lambda: checks.check_roundtrip(ds, short))

    report = experiment.run_experiment(ds, top_m=2)
    experiment.write_performance_table(report, tmp / "perf.csv")
    table = (tmp / "perf.csv").read_text()
    text = report.to_json()
    expect(True, "plot table against its report", lambda: checks.check_plot_numbers(table, text))
    last = table.rstrip("\n")
    altered = last[:-1] + str((int(last[-1]) + 1) % 10) + "\n"
    expect(False, "plot table with one digit changed", lambda: checks.check_plot_numbers(altered, text))

    first = {"r.json": text.encode()}
    later = {"r.json": report.to_json(timestamp="2000-01-01T00:00:00+00:00").encode()}
    expect(True, "two reports differing only in created_at", lambda: checks.check_same_bodies(first, later))
    changed = {"r.json": text.replace('"n_rows": 300', '"n_rows": 301').encode()}
    expect(False, "two reports differing in n_rows", lambda: checks.check_same_bodies(first, changed))

    spec = dataio.bundled_dataset_spec("cancer").to_dict()
    cancer = {"provenance": {"source": {"dataset_spec": spec}}, "dataset": {"n_raw_rows": 228}}
    expect(True, "cancer complete cases", lambda: workloads.Paper._complete_cases("cancer", cancer))
    unscreened = copy.deepcopy(cancer)
    unscreened["provenance"]["source"]["dataset_spec"]["na_screen_cols"] = []
    expect(False, "cancer complete cases without the inst screen",
           lambda: workloads.Paper._complete_cases("cancer", unscreened))


def tracer_check():
    gone = ("aft.predict_batch", "cesurv.aft", "predict_medians", "count")
    tracer = Tracer()
    tracer.install(LAYERS + (gone,))
    tracer.op = 0
    experiment.run_experiment(survsim.simulate(survsim.SimConfig(seed=5, n_subjects=200)), top_m=2)
    tracer.op = None
    totals = tracer.layer_totals(1)
    ok = (tracer.missing == [("aft.predict_batch", "cesurv.aft.predict_medians")]
          and totals["aft.predict_batch_s"] == 0 and totals["aft.predict_calls"] == 200 * 2)
    print(f"{'ok  ' if ok else 'FAIL'} tracer records a missing name as not called: {tracer.missing}")
    if not ok:
        failures.append("tracer")


def main():
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out))
    try:
        evaluation_checks()
        ranking_checks()
        file_checks(tmp)
        tracer_check()  # last: it rebinds the package's functions
    finally:
        shutil.rmtree(tmp)
    print(f"{len(failures)} self-test failure(s)" + (f": {failures}" if failures else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
