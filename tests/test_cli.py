import csv
import json

import numpy as np
import pytest

from cesurv.cli import main


def run(*argv):
    return main(list(argv))


class TestSimulateCommand:
    def test_writes_dataset(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--out", str(out), "--seed", "3") == 0
        header = out.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,time,status"
        assert len(out.read_text().splitlines()) == 1001

    def test_config_file_and_n_override(self, tmp_path):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"n_subjects": 50, "seed": 1}))
        out = tmp_path / "sim.csv"
        assert run("simulate", "--sim-config", str(cfg), "--n", "25", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 26

    def test_requires_out(self):
        assert run("simulate") == 2


class TestSelectCommand:
    def test_ranking_and_plot_data(self, tmp_path):
        data = tmp_path / "d.csv"
        run("simulate", "--out", str(data), "--seed", "2")
        out = tmp_path / "rank.json"
        plot = tmp_path / "rank.csv"
        code = run("select", "--data", str(data), "--top", "2",
                   "--out", str(out), "--plot-data", str(plot))
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["selected"]) == 2
        assert len(report["ranking"]["entries"]) == 5
        assert plot.read_text().splitlines()[0] == "name,ce"

    def test_plot_data_quotes_names(self, tmp_path):
        from cesurv.dataio import save_dataset
        from cesurv.survsim import SurvivalDataset

        rng = np.random.default_rng(4)
        data = tmp_path / "d.csv"
        save_dataset(SurvivalDataset(rng.standard_normal((200, 3)), rng.random(200) + 0.5,
                                     rng.integers(0, 2, 200), ["a", "b,c", 'd"e']), data)
        out, plot = tmp_path / "rank.json", tmp_path / "rank.csv"
        assert run("select", "--data", str(data), "--out", str(out), "--plot-data", str(plot)) == 0
        entries = json.loads(out.read_text())["ranking"]["entries"]
        with open(plot, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["name", "ce"]] + [[e["name"], repr(e["ce"])] for e in entries]
        assert {row[0] for row in rows[1:]} == {"a", "b,c", 'd"e'}

    def test_bundled_dataset(self, tmp_path):
        out = tmp_path / "veteran.json"
        assert run("select", "--bundled", "veteran", "--out", str(out)) == 0
        names = {e["name"] for e in json.loads(out.read_text())["ranking"]["entries"]}
        assert names == {"trt", "celltype", "karno", "diagtime", "age", "prior"}

    def test_negative_seed_exit_2(self):
        assert run("select", "--bundled", "veteran", "--seed", "-1") == 2

    def test_missing_file_exit_2(self):
        assert run("select", "--data", "no-such-file.csv") == 2

    def test_dataset_spec_file(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("t,s,a,b\n1,1,0.5,3\n2,0,1.5,4\n3,1,2.5,5\n4,1,0.1,6\n5,0,0.7,7\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "path": str(data), "time_col": "t", "status_col": "s",
            "covariate_cols": ["a", "b"], "status_event_value": 1,
        }))
        out = tmp_path / "rank.json"
        assert run("select", "--dataset-spec", str(spec), "--k", "2", "--out", str(out)) == 0
        assert {e["name"] for e in json.loads(out.read_text())["ranking"]["entries"]} == {"a", "b"}

    def test_conflicting_sources_exit_2(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("time,status,a\n1,1,0.5\n2,0,1.5\n")
        assert run("select", "--data", str(data), "--bundled", "veteran") == 2


class TestFitEvaluateCommands:
    def test_fit_then_evaluate(self, tmp_path):
        data = tmp_path / "d.csv"
        run("simulate", "--out", str(data), "--seed", "4")
        model = tmp_path / "model.json"
        assert run("fit", "--data", str(data), "--covariates", "x1,x2", "--out", str(model)) == 0
        payload = json.loads(model.read_text())["model"]
        assert payload["included"] == ["x1", "x2"] and payload["converged"]
        evalout = tmp_path / "eval.json"
        assert run("evaluate", "--data", str(data), "--model", str(model),
                   "--out", str(evalout)) == 0
        ev = json.loads(evalout.read_text())
        assert 0.0 <= ev["c_index"] <= 1.0 and ev["n_events_used"] > 0

    def test_all_censored_exit_3(self, tmp_path):
        data = tmp_path / "cens.csv"
        rows = ["time,status,a"] + [f"{i + 1},0,{i * 0.5}" for i in range(30)]
        data.write_text("\n".join(rows) + "\n")
        assert run("fit", "--data", str(data)) == 3


class TestRunExperimentCommand:
    def test_report_and_plot_files(self, tmp_path):
        out = tmp_path / "rep.json"
        prefix = tmp_path / "plots"
        code = run("run-experiment", "--bundled", "veteran", "--top", "4",
                   "--out", str(out), "--plot-data", str(prefix))
        assert code == 0
        body = json.loads(out.read_text())
        assert {m["label"] for m in body["models"]} == {"full", "ce_selected"}
        assert (tmp_path / "plots.ranking.csv").exists()
        assert (tmp_path / "plots.performance.csv").exists()


class TestReproducePaperCommand:
    def test_outputs_and_determinism(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run("reproduce-paper", "--out", str(d1)) == 0
        assert run("reproduce-paper", "--out", str(d2)) == 0
        for name in ("simulation", "cancer", "veteran"):
            a = json.loads((d1 / f"{name}_report.json").read_text())
            b = json.loads((d2 / f"{name}_report.json").read_text())
            a.pop("created_at")
            b.pop("created_at")
            assert json.dumps(a) == json.dumps(b)
            assert (d1 / f"{name}_ranking.csv").exists()
            assert (d1 / f"{name}_performance.csv").exists()
