"""The benchmark's workloads: inputs built from a seed, one op, its checks.

Each workload builds its inputs in ``__init__`` (part of set-up time), runs
one op in ``op``, turns an op's output into the bytes that must repeat
exactly from op to op in ``body``, and checks one op's output in depth in
``verify``.  Ops call cesurv through module attributes, so a traced run sees
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

import numpy as np

from cesurv import cli, dataio, experiment, survsim, varselect
from cesurv.copula_entropy import EstimatorConfig, copula_entropy

import checks

# Covariates of `table_with_discrete` with no effect on survival.
NULL_COVARIATES = ("x3", "sex", "ph.ecog")

# Published complete-case counts of the bundled tables: (rows, complete rows).
PUBLISHED_ROWS = {"cancer": (228, 167), "veteran": (137, 137)}


def _head(ds, n):
    return survsim.SurvivalDataset(ds.covariates[:n], ds.time[:n], ds.status[:n], list(ds.names))


def _check_models(report, x_all, names, time, status):
    """Each model is a likelihood stationary point and its scores recompute."""
    for model, evaluation in zip(report["models"], report["evaluations"]):
        x = x_all[:, [names.index(n) for n in model["included"]]]
        checks.check_stationary(model, x, time, status)
        pred = checks.predict(x, model["intercept"], model["coefficients"], model["scale"])
        checks.check_evaluation(evaluation, pred, time, status)


def _check_selection(report, top_m):
    ranked = [e["name"] for e in report["ranking"]["entries"]]
    checks.require(report["selected"] == ranked[:top_m],
                   f"selected {report['selected']}, ranking starts {ranked[:top_m]}")


def time_status_ce(ds):
    """CE of (time, status): the with-status score of a covariate independent of both."""
    return copula_entropy(np.column_stack([ds.time, ds.status.astype(float)]), EstimatorConfig())


def table_with_discrete(seed, n):
    """The reference simulation plus two discrete covariates independent of survival.

    They are coded like the cancer table's sex (1/2) and ph.ecog (0-3).
    """
    sim = survsim.simulate(survsim.SimConfig(seed=seed, n_subjects=n))
    rng = np.random.default_rng([seed, 1])
    sex = 1.0 + (rng.random(n) < 0.4)
    ecog = rng.choice(4, size=n, p=[0.28, 0.50, 0.20, 0.02]).astype(float)
    return survsim.SurvivalDataset(np.column_stack([sim.covariates, sex, ecog]), sim.time, sim.status,
                                   [*sim.names, "sex", "ph.ecog"])


class Paper:
    """`cesurv reproduce-paper`: 1000 simulated rows plus the cancer and veteran tables.

    The command runs as shipped, with its default seed, so its inputs do
    not depend on the benchmark seed: with other seeds, about one in five
    runs has a fit that stops at the Newton iteration cap and takes 3-6
    times as long (README, "Seeds").
    """

    name = "paper"
    rows_per_op = 1000 + 167 + 137

    def __init__(self, seed, workdir):
        self.workdir = workdir

    def warm_up(self):
        self.body(self.op("warm"))

    def op(self, tag):
        out = self.workdir / f"paper-{tag}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["reproduce-paper", "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"reproduce-paper exited with code {code}")
        return out

    def body(self, out):
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return files

    def verify(self, out):
        for name in ("simulation", "cancer", "veteran"):
            text = (out / f"{name}_report.json").read_text(encoding="utf-8")
            report = json.loads(text)
            for table in ("ranking", "performance"):
                checks.check_plot_numbers((out / f"{name}_{table}.csv").read_text(encoding="utf-8"), text)
            if name == "simulation":
                ds = survsim.simulate(survsim.SimConfig.from_dict(report["provenance"]["source"]["sim_config"]))
                x, names, time, status = ds.covariates, list(ds.names), ds.time, ds.status
                checks.check_ranking(report["ranking_with_status"], names)
            else:
                x, names, time, status = self._complete_cases(name, report)
            checks.require(report["dataset"]["n_rows"] == len(time),
                           f"{name}: {report['dataset']['n_rows']} rows reported, {len(time)} expected")
            checks.check_ranking(report["ranking"], names)
            _check_selection(report, 4)
            _check_models(report, x, names, time, status)

    @staticmethod
    def _complete_cases(name, report):
        spec = report["provenance"]["source"]["dataset_spec"]
        names = spec["covariate_cols"]
        screen = [spec["time_col"], spec["status_col"], *names, *spec["na_screen_cols"]]
        rows, kept = checks.read_complete_cases(spec["path"], screen)
        checks.require((len(rows), len(kept)) == PUBLISHED_ROWS[name],
                       f"{name}: {len(kept)} of {len(rows)} rows complete, "
                       f"published {PUBLISHED_ROWS[name][1]} of {PUBLISHED_ROWS[name][0]}")
        checks.require(report["dataset"]["n_raw_rows"] == len(rows), f"{name}: raw row count differs")
        x = np.column_stack([checks.column(kept, c) for c in names])
        time = checks.column(kept, spec["time_col"])
        status = (checks.column(kept, spec["status_col"]) == float(spec["status_event_value"])).astype(int)
        return x, names, time, status


class Pipeline:
    """`run_experiment` on 10^4 simulated rows held in memory."""

    name = "pipeline-10k"
    rows_per_op = 10_000

    def __init__(self, seed, workdir):
        self.ds = survsim.simulate(survsim.SimConfig(seed=seed, n_subjects=self.rows_per_op))

    def warm_up(self):
        self._run(_head(self.ds, 1000))

    def op(self, tag):
        return self._run(self.ds)

    @staticmethod
    def _run(ds):
        return experiment.run_experiment(ds, top_m=3, include_status_ranking=True)

    def body(self, report):
        return {"report.json": report.to_json().encode()}

    def verify(self, out):
        report = json.loads(out.to_json())
        ds, names = self.ds, list(self.ds.names)
        checks.check_ranking(report["ranking"], names)
        checks.check_ranking(report["ranking_with_status"], names)
        checks.check_signal(report["ranking"], ds.n_rows, 0.0)
        checks.check_signal(report["ranking_with_status"], ds.n_rows, time_status_ce(ds))
        _check_selection(report, 3)
        _check_models(report, ds.covariates, names, ds.time, ds.status)


class Select:
    """Write 10^5 rows, read them back, rank them without and with status."""

    name = "select-100k"
    rows_per_op = 100_000

    def __init__(self, seed, workdir):
        self.ds = table_with_discrete(seed, self.rows_per_op)
        self.path = workdir / "select-100k.csv"
        self.warm_path = workdir / "select-warm.csv"

    def warm_up(self):
        self._run(_head(self.ds, 10_000), self.warm_path)

    def op(self, tag):
        return self._run(self.ds, self.path)

    @staticmethod
    def _run(ds, path):
        dataio.save_dataset(ds, path)
        loaded = dataio.load_dataset(dataio.DatasetSpec(str(path)))
        return loaded, varselect.rank_variables(loaded), varselect.rank_variables(loaded, with_status=True)

    def body(self, out):
        loaded, ce1, ce2 = out
        checks.check_roundtrip(self.ds, loaded)
        return {"rankings.json": json.dumps([ce1.to_dict(), ce2.to_dict()]).encode()}

    def verify(self, out):
        _, ce1, ce2 = out
        for ranking, null_value in ((ce1, 0.0), (ce2, time_status_ce(self.ds))):
            checks.check_ranking(ranking.to_dict(), list(self.ds.names))
            checks.check_signal(ranking.to_dict(), self.ds.n_rows, null_value, null=NULL_COVARIATES)


WORKLOADS = {w.name: w for w in (Paper, Pipeline, Select)}
