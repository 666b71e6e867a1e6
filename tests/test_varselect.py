import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cesurv
from cesurv.copula_entropy import EstimatorConfig, copula_entropy
from cesurv.errors import InvalidInputError
from cesurv.survsim import SimConfig, SurvivalDataset, simulate
from cesurv.varselect import RankingEntry, VariableRanking, rank_variables, select_variables

CFG = EstimatorConfig()

# Ranks the table saved at argv[1] on one CPU; prints the CPU count the
# package saw, then the rankings without and with status as JSON.
ONE_CPU_RANKING = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from cesurv.copula_entropy import _CPUS
from cesurv.survsim import SurvivalDataset
from cesurv.varselect import rank_variables
data = np.load(sys.argv[1])
ds = SurvivalDataset(data["covariates"], data["time"], data["status"], [str(n) for n in data["names"]])
print(_CPUS)
print(json.dumps([rank_variables(ds, with_status=s).to_dict() for s in (False, True)]))
"""


def make_ranking(values):
    entries = tuple(
        RankingEntry(name=n, ce=v, rank=i + 1) for i, (n, v) in enumerate(values)
    )
    return VariableRanking(entries=entries, with_status=False, estimator_cfg=CFG)


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
        # may use; a child process pinned to one CPU must rank identically.
        n = 20_000
        sim = simulate(SimConfig(seed=11, n_subjects=n))
        rng = np.random.default_rng([11, 1])
        sex = 1.0 + (rng.random(n) < 0.4)
        ecog = rng.choice(4, size=n, p=[0.28, 0.50, 0.20, 0.02]).astype(float)
        ds = SurvivalDataset(np.column_stack([sim.covariates, sex, ecog]), sim.time, sim.status,
                             [*sim.names, "sex", "ph.ecog"])
        table = tmp_path / "table.npz"
        np.savez(table, covariates=ds.covariates, time=ds.time, status=ds.status, names=np.array(ds.names))
        package_root = str(Path(cesurv.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", ONE_CPU_RANKING, str(table)], env=env,
                               capture_output=True, text=True, check=True)
        cpus, rankings = child.stdout.splitlines()
        assert cpus == "1"
        assert rankings == json.dumps([rank_variables(ds, with_status=s, cfg=CFG).to_dict() for s in (False, True)])

    def test_rejects_zero_covariates(self):
        ds = SurvivalDataset(np.empty((10, 0)), np.arange(1, 11.0), np.ones(10, int), [])
        with pytest.raises(InvalidInputError):
            rank_variables(ds, cfg=CFG)


class TestSelectVariables:
    def test_top_m(self):
        r = make_ranking([("a", -0.5), ("b", -0.2), ("c", -0.01)])
        assert select_variables(r, top_m=2) == ["a", "b"]

    def test_threshold(self):
        r = make_ranking([("a", -0.5), ("b", -0.2), ("c", -0.01)])
        assert select_variables(r, threshold=-0.1) == ["a", "b"]

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
        with pytest.raises(InvalidInputError):
            select_variables(r, top_m=3)

    def test_nonfinite_threshold_rejected(self):
        r = make_ranking([("a", -0.5)])
        with pytest.raises(InvalidInputError):
            select_variables(r, threshold=float("nan"))


def test_rank_with_status_scratch_memory(traced_peak):
    # 10^5 rows: one (n, 3) copula matrix plus one covariate's copula or kNN
    # step at a time; a column_stack per covariate peaked at 13.0 MiB.
    ds = simulate(SimConfig(seed=5, n_subjects=100_000))
    ranking, peak = traced_peak(lambda: rank_variables(ds, with_status=True))
    assert len(ranking.entries) == 5
    assert peak < 9 * 2**20
