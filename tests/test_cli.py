import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cesurv.cli import build_parser, main


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


class TestDatasetReadErrors:
    @pytest.mark.parametrize("last, shown", [
        (b"2,0,caf\xe9\n", "not UTF-8 text"),
        (b"2,0," + b"9" * (csv.field_size_limit() + 1) + b"\n", "line 3: field larger than field limit"),
    ], ids=["not_utf8", "field_too_large"])
    def test_unreadable_data_exit_2(self, tmp_path, capsys, last, shown):
        data = tmp_path / "d.csv"
        data.write_bytes(b"time,status,a\n1,1,0.5\n" + last)
        assert run("select", "--data", str(data)) == 2
        assert f"{data}: {shown}" in capsys.readouterr().err


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

    def test_every_model_converges(self, tmp_path):
        # Seeds whose reports each held a fit that once ran to the 200-step
        # cap with converged false.
        for seed in (6, 11, 18, 32, 37, 38, 41, 45, 50, 52, 53, 54, 56, 57, 72, 74, 76):
            out = tmp_path / str(seed)
            assert run("reproduce-paper", "--seed", str(seed), "--out", str(out)) == 0
            for name in ("simulation", "cancer", "veteran"):
                models = json.loads((out / f"{name}_report.json").read_text())["models"]
                assert [m["converged"] for m in models] == [True, True], (seed, name)


class TestSimulateArguments:
    def test_n_zero_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--n", "0", "--out", str(out)) == 2
        assert "n_subjects must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run("simulate", "--seed", "-1", "--out", str(out)) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_exits_before_simulating(self, monkeypatch):
        import cesurv.cli as cli

        def no_simulation(cfg):
            raise AssertionError("simulated before checking --out")

        monkeypatch.setattr(cli, "simulate", no_simulation)
        assert run("simulate", "--n", "3000000") == 2


class TestJsonInputs:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--sim-config", "{file}", "--out", "{tmp}/sim.csv"),
        ("select", "--sim-config", "{file}"),
        ("select", "--dataset-spec", "{file}"),
        ("fit", "--dataset-spec", "{file}"),
        ("run-experiment", "--sim-config", "{file}", "--top", "2"),
        ("evaluate", "--bundled", "veteran", "--model", "{file}"),
    ])
    @pytest.mark.parametrize("content", ["[1, 2]", "null"])
    def test_non_object_exit_2(self, tmp_path, capsys, argv, content):
        f = tmp_path / "input.json"
        f.write_text(content)
        assert run(*(a.format(file=f, tmp=tmp_path) for a in argv)) == 2
        assert "expected a JSON object" in capsys.readouterr().err


class TestUnusableFiles:
    """A path or file the CLI cannot use exits 2 with a message, not a traceback."""

    def test_sim_config_directory_exit_2(self, tmp_path, capsys):
        assert run("select", "--sim-config", str(tmp_path)) == 2
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("select", "--sim-config", "{file}"),
        ("select", "--dataset-spec", "{file}"),
        ("evaluate", "--bundled", "veteran", "--model", "{file}"),
    ], ids=["sim_config", "dataset_spec", "model"])
    @pytest.mark.parametrize("content", [b'{"seed": "caf\xe9"}\n', b'{"seed": ' + b"9" * 5000 + b"}\n"],
                             ids=["not_utf8", "integer_too_long"])
    def test_unreadable_json_exit_2(self, tmp_path, capsys, argv, content):
        f = tmp_path / "input.json"
        f.write_bytes(content)
        assert run(*(a.format(file=f) for a in argv)) == 2
        assert f"{f}: cannot be read as JSON" in capsys.readouterr().err

    def test_reproduce_paper_out_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run("reproduce-paper", "--out", str(out)) == 2
        assert "File exists" in capsys.readouterr().err


class TestRemovedSettings:
    def test_norm_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            run("select", "--bundled", "veteran", "--norm", "max")
        assert e.value.code == 2
        assert "unrecognized arguments: --norm max" in capsys.readouterr().err

    def test_na_policy_key_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"path": "d.csv", "na_policy": "drop_rows"}))
        assert run("select", "--dataset-spec", str(spec)) == 2
        assert "unknown DatasetSpec fields: ['na_policy']" in capsys.readouterr().err


class TestReadmeCommands:
    README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def test_each_command_line_exits_0(self, tmp_path, monkeypatch):
        block = self.README.split("## Command line", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.splitlines() if line.startswith("cesurv ")]
        assert {argv[1] for argv in commands} == {
            "simulate", "select", "fit", "evaluate", "run-experiment", "reproduce-paper"}
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert run(*argv[1:]) == 0, shlex.join(argv)

    def test_common_flags_exist(self):
        text = self.README.split("Common flags:", 1)[1].split("Dataset files", 1)[0]
        flags = set(re.findall(r"`(--[a-z-]+)`", text))
        assert "--k" in flags and "--seed" in flags
        subparsers = build_parser()._subparsers._group_actions[0].choices.values()
        known = {flag for sub in subparsers for flag in sub._option_string_actions}
        assert flags <= known, sorted(flags - known)


class TestEvaluateModelFile:
    def fitted_model(self, tmp_path):
        path = tmp_path / "model.json"
        assert run("fit", "--bundled", "veteran", "--out", str(path)) == 0
        return path, json.loads(path.read_text())

    def test_without_model_entry_exit_2(self, tmp_path, capsys):
        path, payload = self.fitted_model(tmp_path)
        path.write_text(json.dumps(payload["model"]))
        assert run("evaluate", "--bundled", "veteran", "--model", str(path)) == 2
        assert 'no "model" entry' in capsys.readouterr().err

    def test_missing_field_exit_2(self, tmp_path, capsys):
        path, payload = self.fitted_model(tmp_path)
        del payload["model"]["log_scale"]
        path.write_text(json.dumps(payload))
        assert run("evaluate", "--bundled", "veteran", "--model", str(path)) == 2
        assert "missing AFTModel fields: ['log_scale']" in capsys.readouterr().err

    def test_log_scale_overflow_exit_2(self, tmp_path, capsys):
        path, payload = self.fitted_model(tmp_path)
        payload["model"]["log_scale"] = 1000
        path.write_text(json.dumps(payload))
        assert run("evaluate", "--bundled", "veteran", "--model", str(path)) == 2
        assert "AFTModel field 'log_scale' 1000 overflows exp" in capsys.readouterr().err

    @pytest.mark.parametrize("log_scale", [700, 7.7])
    def test_log_scale_underflow_exit_2(self, tmp_path, capsys, log_scale):
        # ln(2)**scale underflows to 0, so every median would be 0.
        path, payload = self.fitted_model(tmp_path)
        payload["model"]["log_scale"] = log_scale
        path.write_text(json.dumps(payload))
        assert run("evaluate", "--bundled", "veteran", "--model", str(path)) == 2
        assert f"AFTModel field 'log_scale' {log_scale} makes every median 0" in capsys.readouterr().err

    def test_large_log_scale_still_scored(self, tmp_path):
        # ln(2)**scale is about 7e-65 here: tiny medians, but in order.
        path, payload = self.fitted_model(tmp_path)
        payload["model"]["log_scale"] = 6.0
        path.write_text(json.dumps(payload))
        out = tmp_path / "ev.json"
        assert run("evaluate", "--bundled", "veteran", "--model", str(path), "--out", str(out)) == 0
        assert abs(json.loads(out.read_text())["c_index"] - 0.706) < 5e-4

    def test_covariate_absent_from_data_exit_2(self, tmp_path, capsys):
        path, payload = self.fitted_model(tmp_path)
        payload["model"]["included"][0] = "zz"
        path.write_text(json.dumps(payload))
        assert run("evaluate", "--bundled", "veteran", "--model", str(path)) == 2
        assert "covariates not in dataset: ['zz']" in capsys.readouterr().err


class TestPathsAgree:
    @pytest.mark.parametrize("name", ["veteran", "cancer"])
    def test_fit_then_evaluate_equals_run_experiment_full(self, tmp_path, name):
        model, ev, rep = tmp_path / "model.json", tmp_path / "ev.json", tmp_path / "rep.json"
        assert run("fit", "--bundled", name, "--out", str(model)) == 0
        assert run("evaluate", "--bundled", name, "--model", str(model), "--label", "full",
                   "--out", str(ev)) == 0
        assert run("run-experiment", "--bundled", name, "--top", "4", "--out", str(rep)) == 0
        body = json.loads(rep.read_text())
        full = [e for e in body["evaluations"] if e["model_label"] == "full"]
        assert json.loads(ev.read_text()) == full[0]
        assert json.loads(model.read_text())["model"] == {
            k: v for k, v in body["models"][0].items() if k != "label"
        }


class TestValueTypes:
    """A settings or model value of the wrong JSON type exits 2 with the field named."""

    @pytest.mark.parametrize("value, shown", [("5", "'5'"), (5.5, "5.5")], ids=["string", "fraction"])
    def test_sim_config_n_subjects_exit_2(self, tmp_path, capsys, value, shown):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"n_subjects": value}))
        assert run("select", "--sim-config", str(cfg)) == 2
        assert f"SimConfig field 'n_subjects' must be int, got {shown}" in capsys.readouterr().err

    def test_model_coefficient_not_a_number_exit_2(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        assert run("fit", "--bundled", "veteran", "--covariates", "karno", "--out", str(path)) == 0
        payload = json.loads(path.read_text())
        payload["model"]["coefficients"] = ["a"]
        path.write_text(json.dumps(payload))
        assert run("evaluate", "--bundled", "veteran", "--model", str(path)) == 2
        assert "AFTModel field 'coefficients' must be list[float], got ['a']" in capsys.readouterr().err
