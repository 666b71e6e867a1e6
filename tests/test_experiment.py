import csv
import hashlib
import json

import numpy as np
import pytest

from cesurv.copula_entropy import EstimatorConfig
from cesurv.dataio import DatasetSpec, bundled_dataset_spec, save_dataset
from cesurv.errors import DatasetLoadError, InvalidInputError, NoEventsError
from cesurv.experiment import (
    run_experiment,
    write_performance_table,
    write_ranking_table,
)
from cesurv.survsim import SimConfig, SurvivalDataset, simulate


class TestRunExperiment:
    def test_simulation_pipeline(self):
        rep = run_experiment(SimConfig(seed=0), top_m=4)
        assert len(rep.selected) == 4
        labels = [label for label, _ in rep.models]
        assert labels == ["full", "ce_selected"]
        full, selected = rep.models[0][1], rep.models[1][1]
        assert full.included == ["x1", "x2", "x3", "x4", "x5"]
        assert selected.included == rep.selected
        assert {e.model_label for e in rep.evaluations} == {"full", "ce_selected"}
        for ev in rep.evaluations:
            assert 0.0 <= ev.c_index <= 1.0 and ev.mae >= 0.0

    def test_dataset_spec_pipeline(self):
        rep = run_experiment(bundled_dataset_spec("veteran"), top_m=4)
        assert rep.dataset_summary["n_rows"] == 137
        assert rep.provenance["input_sha256"]
        assert rep.dataset_summary["categorical_maps"]["celltype"]["squamous"] == 1

    def test_no_signal_sim_c_index_near_half(self):
        rep = run_experiment(SimConfig(seed=1, coefficients=(0.0,) * 5), top_m=4)
        for ev in rep.evaluations:
            assert 0.4 <= ev.c_index <= 0.6

    def test_report_json_deterministic(self):
        a = run_experiment(SimConfig(seed=2), top_m=3)
        b = run_experiment(SimConfig(seed=2), top_m=3)
        assert a.to_json(timestamp="T") == b.to_json(timestamp="T")

    def test_report_settings(self):
        body = json.loads(run_experiment(SimConfig(seed=2), top_m=3).to_json(timestamp="T"))
        assert body["tool"]["name"] == "cesurv"
        assert body["estimator_cfg"] == {"k": 3, "jitter_seed": 0}
        assert sorted(body["provenance"]) == ["input_sha256", "sim_seed", "source"]

    def test_numpy_integer_settings_report_as_plain_ints(self):
        # Settings looped over np.arange: each once made the JSON writer raise TypeError.
        plain = run_experiment(SimConfig(n_subjects=300, seed=1), EstimatorConfig(k=3), top_m=2)
        numpy = run_experiment(SimConfig(n_subjects=np.int64(300), seed=np.int64(1)),
                               EstimatorConfig(k=np.int64(3), jitter_seed=np.int64(0)), top_m=np.int64(2))
        assert numpy.to_json(timestamp="T") == plain.to_json(timestamp="T")

    def test_numpy_float_settings_report_as_plain_floats(self):
        threshold, follow_up = np.float32(-0.01), np.float32(90.0)
        plain = run_experiment(SimConfig(n_subjects=200, seed=1, max_follow_up=float(follow_up)),
                               threshold=float(threshold))
        numpy = run_experiment(SimConfig(n_subjects=200, seed=1, max_follow_up=follow_up), threshold=threshold)
        assert numpy.to_json(timestamp="T") == plain.to_json(timestamp="T")

    def test_threshold_policy(self):
        rep = run_experiment(SimConfig(seed=3), threshold=-0.05)
        assert rep.selection_policy == {"threshold": -0.05}
        assert all(e.ce < -0.05 for e in rep.ranking.entries if e.name in rep.selected)

    def test_status_ranking_block(self):
        rep = run_experiment(SimConfig(seed=4), top_m=2, include_status_ranking=True)
        assert rep.ranking_with_status is not None
        body = json.loads(rep.to_json(timestamp="T"))
        assert body["ranking_with_status"]["with_status"] is True

    def test_status_ranking_ignored_when_selecting_with_status(self):
        # The selection ranking is then already the with-status one.
        alone = run_experiment(SimConfig(seed=4), with_status=True, top_m=2)
        both = run_experiment(SimConfig(seed=4), with_status=True, top_m=2, include_status_ranking=True)
        assert both.to_json(timestamp="T") == alone.to_json(timestamp="T")

    def test_load_errors_tagged_with_stage(self, tmp_path):
        spec = DatasetSpec(path=tmp_path / "missing.csv")
        with pytest.raises(DatasetLoadError, match=r"\[load\]"):
            run_experiment(spec, top_m=1)

    def test_fit_errors_tagged_with_stage(self):
        rng = np.random.default_rng(0)
        ds = SurvivalDataset(rng.standard_normal((50, 2)), rng.random(50) + 0.5,
                             np.zeros(50, dtype=int), ["a", "b"])
        with pytest.raises(NoEventsError, match=r"\[fit\]"):
            run_experiment(ds, top_m=1)

    def test_input_digest_of_each_source_kind(self, tmp_path):
        cfg = SimConfig(n_subjects=200, seed=3)
        sim = run_experiment(cfg, top_m=2).provenance
        assert sim["input_sha256"] == hashlib.sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()
        assert sim["source"]["kind"] == "simulation"

        ds = simulate(cfg)
        memory = run_experiment(ds, top_m=2).provenance
        raw = ds.covariates.tobytes() + ds.time.tobytes() + ds.status.tobytes()
        assert memory == {"input_sha256": hashlib.sha256(raw).hexdigest(), "source": {"kind": "in-memory"}}

        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        file = run_experiment(DatasetSpec(path=path), top_m=2).provenance
        assert file["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert file["source"]["kind"] == "file"

    def test_rejects_unknown_source(self):
        with pytest.raises(InvalidInputError):
            run_experiment({"not": "a source"}, top_m=1)


class TestPlotData:
    def test_tables_match_report_verbatim(self, tmp_path):
        rep = run_experiment(SimConfig(seed=5), top_m=4, include_status_ranking=True)
        rank_file = tmp_path / "rank.csv"
        perf_file = tmp_path / "perf.csv"
        write_ranking_table(rep.ranking, rank_file, rep.ranking_with_status)
        write_performance_table(rep, perf_file)
        body = rep.to_json(timestamp="T")
        rank_text = rank_file.read_text()
        assert rank_text.splitlines()[0] == "name,ce,ce_with_status"
        for line in rank_text.splitlines()[1:]:
            name, ce, ce2 = line.split(",")
            assert f'"ce": {ce}' in body and f'"ce": {ce2}' in body
        for line in perf_file.read_text().splitlines()[1:]:
            label, mae_v, c_v = line.split(",")
            assert f'"mae": {mae_v}' in body and f'"c_index": {c_v}' in body

    def test_ranking_rows_in_rank_order(self, tmp_path):
        rep = run_experiment(SimConfig(seed=6), top_m=2)
        f = tmp_path / "rank.csv"
        write_ranking_table(rep.ranking, f, rep.ranking_with_status)
        names = [line.split(",")[0] for line in f.read_text().splitlines()[1:]]
        assert names == rep.ranking.names()

    def test_names_with_delimiter_or_quote_read_back(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = SurvivalDataset(rng.standard_normal((200, 3)), rng.random(200) + 0.5,
                             rng.integers(0, 2, 200), ["a", "b,c", 'd"e'])
        rep = run_experiment(ds, top_m=2, include_status_ranking=True)
        f = tmp_path / "rank.csv"
        write_ranking_table(rep.ranking, f, rep.ranking_with_status)
        with open(f, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "ce", "ce_with_status"]
        assert [row[0] for row in rows[1:]] == rep.ranking.names()
        assert [float(row[1]) for row in rows[1:]] == [e.ce for e in rep.ranking.entries]


class TestEvaluate:
    def test_matches_run_experiment_evaluations(self):
        from cesurv.experiment import dataset_from_source, evaluate

        source = bundled_dataset_spec("cancer")
        rep = run_experiment(source, top_m=3)
        ds = dataset_from_source(source)
        got = [evaluate(model, ds, label) for label, model in rep.models]
        assert [ev.to_dict() for ev in got] == [ev.to_dict() for ev in rep.evaluations]

    def test_missing_covariate_is_invalid_input(self):
        from cesurv.aft import fit
        from cesurv.experiment import evaluate
        from cesurv.survsim import simulate

        model = fit(simulate(SimConfig(seed=7, n_subjects=200)), ["x1", "x2"])
        rng = np.random.default_rng(1)
        ds = SurvivalDataset(rng.standard_normal((50, 2)), rng.random(50) + 0.5,
                             rng.integers(0, 2, 50), ["x1", "zz"])
        with pytest.raises(InvalidInputError, match=r"covariates not in dataset: \['x2'\]"):
            evaluate(model, ds, "m")

    def test_in_memory_table_passes_through_unhashed(self, monkeypatch):
        from cesurv import experiment

        def no_hash(*args):
            raise AssertionError("an in-memory table was hashed")

        ds = simulate(SimConfig(n_subjects=50, seed=1))
        monkeypatch.setattr(experiment.hashlib, "sha256", no_hash)
        assert experiment.dataset_from_source(ds) is ds

    def test_source_resolver_is_untagged_and_run_experiment_tags(self, tmp_path):
        from cesurv.experiment import dataset_from_source

        spec = DatasetSpec(path=tmp_path / "missing.csv")
        with pytest.raises(DatasetLoadError) as untagged:
            dataset_from_source(spec)
        with pytest.raises(DatasetLoadError) as tagged:
            run_experiment(spec, top_m=1)
        assert str(untagged.value).startswith("dataset file not found")
        assert str(tagged.value) == "[load] " + str(untagged.value)
