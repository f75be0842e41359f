"""End-to-end command-line behavior, including exit codes."""

import json

import pytest

from qoehandoff.cli import EXIT_DATA, EXIT_USAGE, main
from qoehandoff.hmm import load_model

FAST_CONFIG = """
[scenario]
kind = roaming
runs = 2
duration_epochs = 40
seed = 0

[harness]
training_episodes = 8
hmm_training_runs = 4
"""


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", "roaming", "--codec", "g729",
                 "--runs", "2", "--duration", "20", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_writes_traces_and_summary(self, sim_dir):
        text = (sim_dir / "traces.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "run_id,interface,epoch,rtt_s,mos"
        assert len(lines) == 1 + 2 * 2 * 20  # runs x interfaces x epochs
        summary = json.loads((sim_dir / "summary.json").read_text())
        assert summary["runs"] == 2
        assert set(summary["mean_mos_per_interface"]) == {"WLAN", "CDMA2000"}

    def test_deterministic(self, tmp_path, sim_dir):
        other = tmp_path / "again"
        main(["simulate", "--scenario", "roaming", "--codec", "g729",
              "--runs", "2", "--duration", "20", "--seed", "0",
              "--out", str(other)])
        assert (other / "traces.csv").read_bytes() == \
            (sim_dir / "traces.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path, sim_dir):
        other = tmp_path / "seeded"
        main(["simulate", "--scenario", "roaming", "--codec", "g729",
              "--runs", "2", "--duration", "20", "--seed", "1",
              "--out", str(other)])
        assert (other / "traces.csv").read_bytes() != \
            (sim_dir / "traces.csv").read_bytes()


class TestTrainHmmAndPredict:
    def test_train_then_predict(self, tmp_path, sim_dir, capsys):
        model_dir = tmp_path / "model"
        code = main(["train-hmm", "--traces", str(sim_dir / "traces.csv"),
                     "--states", "3", "--folds", "2", "--scheme", "roaming",
                     "--seed", "0", "--out", str(model_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fold 1" in out and "mean accuracy" in out
        model = load_model(model_dir / "model.json")
        assert model.n_states == 3

        pred_dir = tmp_path / "pred"
        code = main(["predict", "--model", str(model_dir / "model.json"),
                     "--traces", str(sim_dir / "traces.csv"),
                     "--out", str(pred_dir)])
        assert code == 0
        lines = (pred_dir / "predictions.csv").read_text().splitlines()
        assert lines[0] == "run_id,interface,epoch,predicted_state"
        # One prediction per sample except the first of each trace.
        assert len(lines) == 1 + 2 * 2 * (20 - 1)


class TestComparePolicies:
    def test_report_written(self, tmp_path, capsys):
        cfg = tmp_path / "fast.ini"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "cmp"
        code = main(["compare-policies", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["policies"]) == {"best", "naive", "m4", "proposed"}
        assert "reductions" in doc
        assert "proposed" in capsys.readouterr().out

    def test_timeline_export(self, tmp_path):
        cfg = tmp_path / "fast.ini"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "cmp"
        main(["compare-policies", "--config", str(cfg), "--timeline",
              "--out", str(out)])
        lines = (out / "timeline.csv").read_text().splitlines()
        assert lines[0].startswith("policy,run,epoch,mos_WLAN,mos_CDMA2000")
        assert len(lines) == 1 + 4 * 2 * 40  # policies x runs x epochs

    @pytest.mark.parametrize("flag,value", [("--seed", "5"), ("--runs", "3"),
                                            ("--duration", "40")])
    def test_scenario_flag_with_config_is_usage_error(self, tmp_path, capsys,
                                                      flag, value):
        cfg = tmp_path / "fast.ini"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "cmp"
        code = main(["compare-policies", "--config", str(cfg), flag, value,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--config" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_scenario_flags_without_config(self, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare-policies", "--seed", "3", "--runs", "2",
                     "--duration", "20", "--out", str(out)])
        assert code == 0
        meta = json.loads((out / "report.json").read_text())["metadata"]
        assert (meta["seed"], meta["runs"], meta["duration_epochs"]) == (3, 2, 20)


class TestReport:
    def test_merges_reports(self, tmp_path):
        cfg = tmp_path / "fast.ini"
        cfg.write_text(FAST_CONFIG)
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["compare-policies", "--config", str(cfg), "--out", str(a)])
        main(["compare-policies", "--config", str(cfg), "--out", str(b)])
        out = tmp_path / "merged"
        code = main(["report", str(a / "report.json"),
                     str(b / "report.json"), "--out", str(out)])
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("source,scenario,codec,seed")


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["train-hmm", "--traces", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == EXIT_USAGE

    def test_malformed_traces_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,the,right,header,at\n1,2,3,4,5\n")
        assert main(["train-hmm", "--traces", str(bad),
                     "--out", str(tmp_path)]) == EXIT_DATA

    def test_invalid_trace_values_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("run_id,interface,epoch,rtt_s,mos\nr,WLAN,0,-1.0,4.0\n")
        assert main(["train-hmm", "--traces", str(bad),
                     "--out", str(tmp_path)]) == EXIT_DATA

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
