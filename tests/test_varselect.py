import importlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cesurv
from cesurv.copula_entropy import EstimatorConfig, copula_entropy
from cesurv.dataio import bundled_dataset_spec, load_dataset
from cesurv.errors import InvalidInputError
from cesurv.experiment import run_experiment
from cesurv.survsim import SimConfig, SurvivalDataset, simulate
from cesurv.varselect import RankingEntry, VariableRanking, _rank, rank_variables, select_variables

# The package re-exports the function copula_entropy under the module's name.
ce_mod = importlib.import_module("cesurv.copula_entropy")
varselect_mod = importlib.import_module("cesurv.varselect")
CFG = EstimatorConfig()
# CPU counts the search is checked under; 3 and 4 exceed the CPUs of a
# 2-CPU machine, which the search must handle alike.
CPU_COUNTS = (1, 2, 3, 4)

# Ranks the table saved at argv[1] on one CPU; prints the CPU count the
# package saw, then as JSON the rankings without and with status and those
# of run_experiment.
ONE_CPU_RANKING = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from cesurv.copula_entropy import _CPUS
from cesurv.experiment import run_experiment
from cesurv.survsim import SurvivalDataset
from cesurv.varselect import rank_variables
data = np.load(sys.argv[1])
ds = SurvivalDataset(data["covariates"], data["time"], data["status"], [str(n) for n in data["names"]])
print(_CPUS)
print(json.dumps([rank_variables(ds, with_status=s).to_dict() for s in (False, True)]))
report = run_experiment(ds, top_m=3, include_status_ranking=True)
print(json.dumps([report.ranking.to_dict(), report.ranking_with_status.to_dict()]))
"""


def table_with_discrete(n, seed):
    """A simulated table plus covariates coded like the cancer table's sex
    (1/2) and ph.ecog (0-3), and a six-level tied grid."""
    sim = simulate(SimConfig(seed=seed, n_subjects=n))
    rng = np.random.default_rng([seed, 1])
    sex = 1.0 + (rng.random(n) < 0.4)
    ecog = rng.choice(4, size=n, p=[0.28, 0.50, 0.20, 0.02]).astype(float)
    grid = rng.integers(1, 7, n) / 6.0
    return SurvivalDataset(np.column_stack([sim.covariates, sex, ecog, grid]), sim.time, sim.status,
                           [*sim.names, "sex", "ph.ecog", "grid"])


def make_ranking(values):
    entries = tuple(
        RankingEntry(name=n, ce=v, rank=i + 1) for i, (n, v) in enumerate(values)
    )
    return VariableRanking(entries=entries, with_status=False)


class TestRankVariables:
    def test_sorted_ascending_with_ranks(self):
        ds = simulate(SimConfig(seed=2))
        r = rank_variables(ds, cfg=CFG)
        ces = [e.ce for e in r.entries]
        assert ces == sorted(ces)
        assert [e.rank for e in r.entries] == [1, 2, 3, 4, 5]
        assert sorted(e.name for e in r.entries) == ["x1", "x2", "x3", "x4", "x5"]

    def test_strong_effects_rank_first(self):
        cfg = SimConfig(
            seed=0,
            coefficients=(3.0, 1.5, 0.0, 0.7, 0.3),
            covariate_params=((0, 1),) * 5,
        )
        for seed in range(3):
            ds = simulate(SimConfig.from_dict({**cfg.to_dict(), "seed": seed}))
            r = rank_variables(ds, cfg=CFG)
            assert r.entries[0].name == "x1"
            assert r.entries[1].name == "x2"

    def test_with_status_uses_three_columns(self):
        ds = simulate(SimConfig(seed=4))
        r1 = rank_variables(ds, with_status=False, cfg=CFG)
        r2 = rank_variables(ds, with_status=True, cfg=CFG)
        assert r1.with_status is False and r2.with_status is True
        ce1 = {e.name: e.ce for e in r1.entries}
        ce2 = {e.name: e.ce for e in r2.entries}
        assert any(ce1[n] != ce2[n] for n in ce1)

    @pytest.mark.parametrize("with_status", [False, True])
    def test_scores_equal_copula_entropy_of_stacked_columns(self, with_status):
        ds = simulate(SimConfig(seed=5, n_subjects=300))
        base = [ds.time, ds.status.astype(float)] if with_status else [ds.time]
        r = rank_variables(ds, with_status=with_status, cfg=CFG)
        for e in r.entries:
            want = copula_entropy(np.column_stack(base + [ds.column(e.name)]), CFG)
            assert e.ce == want

    def test_deterministic(self):
        ds = simulate(SimConfig(seed=6))
        a = rank_variables(ds, cfg=CFG)
        b = rank_variables(ds, cfg=CFG)
        assert [(e.name, e.ce) for e in a.entries] == [(e.name, e.ce) for e in b.entries]

    def test_ranking_invariant_to_monotone_transforms(self):
        ds = simulate(SimConfig(seed=7))
        r1 = rank_variables(ds, cfg=CFG)
        x = ds.covariates.copy()
        x[:, 0] = np.exp(x[:, 0] / 4.0)  # strictly increasing, tie-free column
        ds2 = SurvivalDataset(x, np.sqrt(ds.time), ds.status, ds.names)
        r2 = rank_variables(ds2, cfg=CFG)
        assert r1.names() == r2.names()
        assert [e.ce for e in r1.entries] == [e.ce for e in r2.entries]

    def test_constant_column_flagged_not_error(self):
        rng = np.random.default_rng(8)
        n = 200
        x = np.column_stack([rng.standard_normal(n), np.full(n, 7.0)])
        ds = SurvivalDataset(x, rng.random(n) + 0.5, rng.integers(0, 2, n), ["a", "const"])
        r = rank_variables(ds, cfg=CFG)
        flags = {e.name: e.constant for e in r.entries}
        assert flags == {"a": False, "const": True}
        const_ce = next(e.ce for e in r.entries if e.name == "const")
        assert abs(const_ce) < 0.25

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
    def test_one_cpu_ranking_is_bitwise_equal(self, tmp_path):
        # The kd-tree search splits large tables over the CPUs the process
        # may use, or runs whole searches side by side; a child process
        # pinned to one CPU must rank identically.
        ds = table_with_discrete(20_000, 11)
        table = tmp_path / "table.npz"
        np.savez(table, covariates=ds.covariates, time=ds.time, status=ds.status, names=np.array(ds.names))
        package_root = str(Path(cesurv.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", ONE_CPU_RANKING, str(table)], env=env,
                               capture_output=True, text=True, check=True)
        cpus, rankings, experiment_rankings = child.stdout.splitlines()
        assert cpus == "1"
        assert rankings == json.dumps([rank_variables(ds, with_status=s, cfg=CFG).to_dict() for s in (False, True)])
        report = run_experiment(ds, top_m=3, include_status_ranking=True)
        assert experiment_rankings == json.dumps([report.ranking.to_dict(), report.ranking_with_status.to_dict()])

    @pytest.mark.parametrize("n, job_max_rows", [(137, None), (1000, None), (10_000, None), (20_000, None),
                                                 (5000, 2000)],
                             ids=["137", "1000", "10000", "20000", "5000-pooled-blocks"])
    def test_joint_pass_equals_two_rankings_on_every_cpu_count(self, n, job_max_rows, monkeypatch):
        # With job_max_rows, each search of the pass, the strided view of
        # the without-status sample too, runs its blocks in the block pool.
        if job_max_rows:
            monkeypatch.setattr(ce_mod, "_JOB_MAX_ROWS", job_max_rows)
            monkeypatch.setattr(ce_mod, "_WIDTH_BLOCK_ROWS", 1024)
        ds = table_with_discrete(n, n)
        monkeypatch.setattr(ce_mod, "_CPUS", 1)
        want = [rank_variables(ds, with_status=s, cfg=CFG) for s in (False, True)]
        for cpus in CPU_COUNTS:
            monkeypatch.setattr(ce_mod, "_CPUS", cpus)
            assert _rank(ds, (False, True), CFG) == want
            assert _rank(ds, (True, False), CFG) == want[::-1]

    def test_one_copula_per_column(self, monkeypatch):
        # time, status and 5 covariates; two rank_variables calls made 13.
        calls = []

        def counting(x, cfg=CFG):
            calls.append(np.shape(x))
            return ce_mod.empirical_copula(x, cfg)

        monkeypatch.setattr(varselect_mod, "empirical_copula", counting)
        report = run_experiment(simulate(SimConfig(seed=1)), top_m=3, include_status_ranking=True)
        assert len(report.ranking_with_status.entries) == 5
        assert len(calls) == 7

    def test_rejects_zero_covariates(self):
        ds = SurvivalDataset(np.empty((10, 0)), np.arange(1, 11.0), np.ones(10, int), [])
        with pytest.raises(InvalidInputError):
            rank_variables(ds, cfg=CFG)

    def test_rejects_n_not_above_k(self):
        ds = SurvivalDataset(np.arange(3.0)[:, None], [1.0, 2.0, 3.0], [1, 0, 1], ["a"])
        with pytest.raises(InvalidInputError, match="need more than k=3 rows, got 3"):
            rank_variables(ds, cfg=EstimatorConfig(k=3))


class TestSelectVariables:
    def test_top_m(self):
        r = make_ranking([("a", -0.5), ("b", -0.2), ("c", -0.01)])
        assert select_variables(r, top_m=2) == ["a", "b"]

    def test_threshold(self):
        r = make_ranking([("a", -0.5), ("b", -0.2), ("c", -0.01)])
        assert select_variables(r, threshold=-0.1) == ["a", "b"]
        assert select_variables(r, threshold=np.float64(-0.3)) == ["a"]
        assert select_variables(r, threshold=0) == ["a", "b", "c"]

    def test_threshold_empty_is_ok(self):
        r = make_ranking([("a", -0.5)])
        assert select_variables(r, threshold=-1.0) == []

    def test_requires_exactly_one_policy(self):
        r = make_ranking([("a", -0.5)])
        with pytest.raises(InvalidInputError):
            select_variables(r)
        with pytest.raises(InvalidInputError):
            select_variables(r, top_m=1, threshold=0.0)

    def test_top_m_bounds(self):
        r = make_ranking([("a", -0.5), ("b", -0.2)])
        for top_m in (3, -1, 2.5, True):
            with pytest.raises(InvalidInputError, match="top_m must be an integer between 0 and 2"):
                select_variables(r, top_m=top_m)

    def test_nonfinite_threshold_rejected(self):
        r = make_ranking([("a", -0.5)])
        with pytest.raises(InvalidInputError):
            select_variables(r, threshold=float("nan"))

    @pytest.mark.parametrize("threshold", [True, False, np.bool_(True), "a", [0.1], np.array([0.1]), 0.1j, 10**400])
    def test_threshold_must_be_a_real_number(self, threshold):
        r = make_ranking([("a", -0.5), ("b", -0.2)])
        with pytest.raises(InvalidInputError, match="threshold must be a finite number"):
            select_variables(r, threshold=threshold)


def test_rank_with_status_scratch_memory(traced_peak, monkeypatch):
    # 10^5 rows: one (n, 3) copula matrix plus one covariate's copula or kNN
    # step at a time; a column_stack per covariate peaked at 13.0 MiB.  The
    # bound holds on a machine with many CPUs too: such a table never runs
    # searches side by side, which would copy every covariate's matrix.
    monkeypatch.setattr(ce_mod, "_CPUS", 8)
    ds = simulate(SimConfig(seed=5, n_subjects=100_000))
    ranking, peak = traced_peak(lambda: rank_variables(ds, with_status=True))
    assert len(ranking.entries) == 5
    assert peak < 9 * 2**20


class TestThreadBudget:
    """Query threads per kNN search, and searches (kd-tree builds) running at once."""

    @staticmethod
    def record(monkeypatch):
        # A search is one tree: it is built, then queried block by block.  A
        # query of a tree that is no longer the latest built, at its start or
        # its end, overlaps a later search.
        lock = threading.Lock()
        log = {"trees": 0, "workers": [], "queries": 0, "max_queries": 0, "overlapping": 0}

        class RecordingTree(ce_mod.cKDTree):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                with lock:
                    log["trees"] += 1
                    self.serial = log["trees"]

            def query(self, *args, **kwargs):
                with lock:
                    log["workers"].append(kwargs.get("workers", 1))
                    log["queries"] += 1
                    log["max_queries"] = max(log["max_queries"], log["queries"])
                    log["overlapping"] += self.serial != log["trees"]
                try:
                    return super().query(*args, **kwargs)
                finally:
                    with lock:
                        log["queries"] -= 1
                        log["overlapping"] += self.serial != log["trees"]

        monkeypatch.setattr(ce_mod, "cKDTree", RecordingTree)
        return log

    @pytest.mark.parametrize("cpus", CPU_COUNTS)
    def test_never_more_query_threads_than_cpus(self, cpus, monkeypatch):
        log = self.record(monkeypatch)
        monkeypatch.setattr(ce_mod, "_CPUS", cpus)
        ds = table_with_discrete(10_000, 3)
        _rank(ds, (False, True), CFG)
        assert log["trees"] == 2 * ds.covariates.shape[1]
        assert log["max_queries"] <= cpus
        # Whole searches side by side, each querying on one thread.
        assert log["workers"] == [1] * len(log["workers"])

    @pytest.mark.parametrize("name", ["veteran", "cancer"])
    def test_bundled_tables_start_no_thread(self, name, monkeypatch):
        log = self.record(monkeypatch)
        monkeypatch.setattr(ce_mod, "_CPUS", 4)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        ds = load_dataset(bundled_dataset_spec(name))
        assert ds.n_rows in (137, 167)
        _rank(ds, (False, True), CFG)
        assert started == []
        assert log["trees"] == 2 * ds.covariates.shape[1]
        assert log["workers"] == [1] * log["trees"]
        assert log["overlapping"] == 0

    @pytest.mark.parametrize("cpus", [2, 4, 8])
    def test_large_tables_search_one_at_a_time(self, cpus, monkeypatch):
        log = self.record(monkeypatch)
        monkeypatch.setattr(ce_mod, "_CPUS", cpus)
        rank_variables(simulate(SimConfig(seed=5, n_subjects=100_000)), with_status=True)
        assert log["trees"] == 5
        assert log["overlapping"] == 0
        # Each search's blocks are spread over the CPUs, each query on one thread.
        assert log["max_queries"] <= cpus
        assert log["workers"] == [1] * len(log["workers"])
