"""End-to-end command-line behavior, including exit codes."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from qoehandoff import harness
from qoehandoff.cli import EXIT_DATA, EXIT_USAGE, _load_dataset, main
from qoehandoff.hmm import (EmConfig, GaussianEmission, HmmModel, em_train,
                            forward_filter, load_model, predict_next_state,
                            save_model)
from qoehandoff.netsim import (ScenarioConfig, roaming_cdma_g729_model,
                               roaming_scenario)
from qoehandoff.policies import HysteresisConfig, RewardConfig, count_handoffs
from qoehandoff.qoe_model import ROAMING_SCHEME
from qoehandoff.trace_io import DelayTrace, read_traces, write_traces
from test_netsim import reference_run

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


# Every float key of each config section: the float fields of the
# dataclass the section sets. The harness's gamma is [qlearn]'s one key.
FLOAT_KEYS = [("qlearn" if f.name == "gamma" else section, f.name)
              for section, fields in [("reward", RewardConfig),
                                      ("hysteresis", HysteresisConfig),
                                      ("scenario", ScenarioConfig),
                                      ("harness", harness.HarnessConfig)]
              for f in dataclasses.fields(fields) if f.type == "float"]


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

    def test_blocks_match_stepwise_runs(self, tmp_path):
        # 33 runs are generated as two full blocks and one run; the traces
        # are the runs drawn step by step, and each interface's MOS is
        # summed run by run, in run order.
        out = tmp_path / "sim33"
        assert main(["simulate", "--scenario", "roaming", "--runs", "33",
                     "--seed", "4", "--out", str(out)]) == 0
        cfg = roaming_scenario(runs=33, seed=4)
        labels = [ch.label for ch in cfg.channels]
        traces, mos_sums = [], [0.0] * len(labels)
        for r in range(33):
            for i, (delay, mos, _) in enumerate(reference_run(cfg, r)):
                traces.append(DelayTrace(f"run{r:03d}", labels[i],
                                         np.arange(len(delay)), delay, mos))
                mos_sums[i] += np.sum(mos)
        assert (out / "traces.csv").read_text() == write_traces(traces)
        summary = json.loads((out / "summary.json").read_text())
        epochs = 33 * cfg.duration_epochs
        assert summary["mean_mos_per_interface"] == \
            {label: mos_sums[i] / epochs for i, label in enumerate(labels)}


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


def reference_predictions(model, traces_text):
    """Per-trace filter and per-epoch `predict_next_state`, in trace order."""
    rows = []
    for trace in read_traces(traces_text):
        beliefs, _ = forward_filter(model, np.asarray(trace.rtts()))
        for t in range(len(trace.samples) - 1):
            state, _ = predict_next_state(model, beliefs[t])
            rows.append([trace.run_id, trace.interface_label,
                         str(trace.samples[t + 1][0]), str(state)])
    return rows


class TestPredictBlocks:
    """`predict` filters each equal-length group of traces as one block."""

    def test_train_reports_the_winning_restart(self, tmp_path, sim_dir, capsys):
        # The final line describes the all-data fit as em_train makes it,
        # winning restart included.
        code = main(["train-hmm", "--traces", str(sim_dir / "traces.csv"),
                     "--states", "3", "--folds", "2", "--scheme", "roaming",
                     "--seed", "4", "--out", str(tmp_path / "model")])
        assert code == 0
        final = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("final log-likelihood")]
        dataset = _load_dataset(sim_dir / "traces.csv")
        model, report = em_train([obs for obs, _ in dataset], 3, EmConfig(seed=4))
        assert final == [f"final log-likelihood: {report.log_likelihoods[-1]:.6f} "
                         f"({report.iterations} iterations, "
                         f"converged={report.converged}, "
                         f"restart {report.restart_index})"]
        assert load_model(tmp_path / "model" / "model.json").to_text() == \
            model.to_text()

    def test_legacy_model_document_predicts_the_same(self, tmp_path, sim_dir):
        # Older model files also carry a quantization scheme and metadata;
        # loading ignores both.
        model = roaming_cdma_g729_model()
        legacy = dict(json.loads(model.to_text()),
                      scheme={"boundaries": list(ROAMING_SCHEME.boundaries)},
                      metadata={"channel": "roaming-cdma2000", "codec": "g729",
                                "units": "rtt_s"})
        (tmp_path / "legacy.json").write_text(
            json.dumps(legacy, indent=2, sort_keys=True) + "\n")
        save_model(model, tmp_path / "current.json")
        assert load_model(tmp_path / "legacy.json").to_text() == model.to_text()
        for name in ("legacy", "current"):
            assert main(["predict", "--model", str(tmp_path / f"{name}.json"),
                         "--traces", str(sim_dir / "traces.csv"),
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "legacy" / "predictions.csv").read_bytes() == \
            (tmp_path / "current" / "predictions.csv").read_bytes()

    def test_ragged_traces_match_per_trace_reference(self, tmp_path):
        model = roaming_cdma_g729_model()
        save_model(model, tmp_path / "model.json")
        rng = np.random.default_rng(4)
        lines = ["run_id,interface,epoch,rtt_s,mos"]
        # Lengths interleaved so that each length group spans scattered
        # traces; the length-1 traces write no rows.
        for r, length in enumerate((101, 1, 5, 2, 101, 5, 1, 2, 101, 5)):
            for label in ("CDMA2000", "WLAN"):
                for epoch, rtt in enumerate(rng.uniform(0.05, 0.6, length)):
                    lines.append(f"r{r:02d},{label},{3 * epoch + r},{rtt:.9g},")
        traces = tmp_path / "traces.csv"
        traces.write_text("\n".join(lines) + "\n")
        code = main(["predict", "--model", str(tmp_path / "model.json"),
                     "--traces", str(traces), "--out", str(tmp_path / "pred")])
        assert code == 0
        with open(tmp_path / "pred" / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "interface", "epoch", "predicted_state"]
        expected = reference_predictions(model, traces.read_text())
        assert len(expected) == 2 * (3 * 100 + 3 * 4 + 2 * 1)
        assert rows[1:] == expected

    def test_quoted_labels_match_per_trace_reference(self, tmp_path):
        # Labels that need csv quotes, or hold a `%`, come out as
        # csv.writer writes them.
        model = roaming_cdma_g729_model()
        save_model(model, tmp_path / "model.json")
        rng = np.random.default_rng(5)
        lines = ["run_id,interface,epoch,rtt_s,mos"]
        for run_id, label in (('"r,0"', "Wi-Fi café"), ("r%d", '"say ""hi"""'),
                              ("r%d", "100%")):
            for epoch, rtt in enumerate(rng.uniform(0.05, 0.6, 6)):
                lines.append(f"{run_id},{label},{2 * epoch},{rtt:.9g},")
        traces = tmp_path / "traces.csv"
        traces.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["predict", "--model", str(tmp_path / "model.json"),
                     "--traces", str(traces), "--out", str(tmp_path / "pred")])
        assert code == 0
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["run_id", "interface", "epoch", "predicted_state"])
        writer.writerows(reference_predictions(model, traces.read_text(encoding="utf-8")))
        assert (tmp_path / "pred" / "predictions.csv").read_bytes() == \
            expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("good", [
        "r0,WLAN,0,0.5,\nr0,WLAN,1,0.5,\n",
        # Same length as the bad trace: one block, where it is row 1.
        "r0,WLAN,0,0.5,\nr0,WLAN,1,0.5,\nr0,WLAN,2,0.5,\n"
        "r1,WLAN,0,0.5,\nr1,WLAN,1,0.5,\n",
    ])
    def test_zero_mass_names_the_trace(self, tmp_path, capsys, good):
        # The chain stays in state 2; an observation at state 1's mean has
        # zero density there.
        save_model(HmmModel(prior=np.array([0.0, 1.0]), transitions=np.eye(2),
                            emissions=(GaussianEmission(1.0, 1e-8),
                                       GaussianEmission(0.5, 1e-8))),
                   tmp_path / "model.json")
        traces = tmp_path / "traces.csv"
        traces.write_text("run_id,interface,epoch,rtt_s,mos\n" + good
                          + "r9,WLAN,0,0.5,\nr9,WLAN,4,0.5,\nr9,WLAN,7,1.0,\n")
        code = main(["predict", "--model", str(tmp_path / "model.json"),
                     "--traces", str(traces), "--out", str(tmp_path / "pred")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: run r9/WLAN observation 2 (epoch 7) has zero")
        assert err.count("\n") == 1 and "row" not in err


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
        # Row by row from the report's evaluation runs and paths.
        report = harness.run_comparison(harness.load_config(cfg))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["policy", "run", "epoch", "mos_WLAN", "mos_CDMA2000",
                         "chosen_interface", "cumulative_handoffs"])
        for name, result in report.policies.items():
            for r, path in enumerate(result.paths):
                run = report.runs[r]
                for t in range(run.duration):
                    writer.writerow([name, r, t]
                                    + [format(float(m[t]), ".9g") for m in run.mos]
                                    + [path[t], count_handoffs(path[:t + 1])])
        assert (out / "timeline.csv").read_text() == expected.getvalue()

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

    @pytest.mark.parametrize("text,needle", [
        ("[scenario]\nruns = abc\n", "invalid literal for int()"),
        ("runs = 2\n", "no section headers"),
        ("[harness]\ntrainig_episodes = 5\n",
         "unknown config key 'trainig_episodes' in [harness]"),
        ("[harness]\npolicies = best, best\n", "policies listed twice: ['best']"),
        ("[harness]\ntraining_episodes = -5\n", "training_episodes must be >= 0"),
    ])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text, needle):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        out = tmp_path / "cmp"
        code = main(["compare-policies", "--config", str(cfg), "--timeline",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and err.count("\n") == 1
        assert needle in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("section,key", FLOAT_KEYS)
    def test_nan_setting_is_usage_error(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "nan.ini"
        cfg.write_text(f"[{section}]\n{key} = nan\n")
        out = tmp_path / "cmp"
        code = main(["compare-policies", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and err.count("\n") == 1
        assert key in err.removeprefix(f"error: config file {cfg}: ")
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

    @pytest.mark.parametrize("command", ["train-hmm", "predict"])
    @pytest.mark.parametrize("rtt", ["nan", "inf"])
    def test_non_finite_rtt_names_the_sample(self, tmp_path, capsys, command, rtt):
        bad = tmp_path / "bad.csv"
        bad.write_text("run_id,interface,epoch,rtt_s,mos\n"
                       f"r,WLAN,0,0.1,4.0\nr,WLAN,1,{rtt},4.0\n")
        save_model(roaming_cdma_g729_model(), tmp_path / "model.json")
        argv = {"train-hmm": ["train-hmm", "--traces", str(bad)],
                "predict": ["predict", "--model", str(tmp_path / "model.json"),
                            "--traces", str(bad)]}[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == "error: run r/WLAN epoch 1: rtt_s must be finite and > 0\n"

    def test_unsplittable_trace_row_is_data_error(self, tmp_path, capsys):
        # A cell over the csv module's field size limit; the line number
        # counts records, as the other parse errors do.
        bad = tmp_path / "bad.csv"
        bad.write_text("run_id,interface,epoch,rtt_s,mos\n"
                       f"r,WLAN,0,0.1,4.0\nr,{'W' * 200_000},1,0.1,4.0\n")
        save_model(roaming_cdma_g729_model(), tmp_path / "model.json")
        code = main(["predict", "--model", str(tmp_path / "model.json"),
                     "--traces", str(bad), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == \
            "error: line 3: field larger than field limit (131072)\n"

    def test_label_with_carriage_return_reads_back_from_file(self, tmp_path):
        traces = tmp_path / "traces.csv"
        written = write_traces([DelayTrace("r", "W\rLAN", [0, 1], [0.1, 0.2],
                                           [4.0, 3.5])])
        traces.write_text(written, encoding="utf-8")
        save_model(roaming_cdma_g729_model(), tmp_path / "model.json")
        assert main(["predict", "--model", str(tmp_path / "model.json"),
                     "--traces", str(traces), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "predictions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[:3] for row in rows[1:]] == [["r", "W\rLAN", "1"]]

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestMalformedDocuments:
    """Malformed model and report files are data errors, reported on one line."""

    def assert_data_error(self, argv, capsys, needle):
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_predict_with_non_json_model(self, tmp_path, sim_dir, capsys):
        model = tmp_path / "model.json"
        model.write_text("not json")
        self.assert_data_error(["predict", "--model", str(model), "--traces",
                                str(sim_dir / "traces.csv"), "--out", str(tmp_path)],
                               capsys, "not valid JSON")

    def test_predict_with_model_missing_prior(self, tmp_path, sim_dir, capsys):
        doc = json.loads(roaming_cdma_g729_model().to_text())
        del doc["prior"]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        self.assert_data_error(["predict", "--model", str(model), "--traces",
                                str(sim_dir / "traces.csv"), "--out", str(tmp_path)],
                               capsys, "'prior'")

    @pytest.mark.parametrize("text,needle", [
        ("not json", "not valid JSON"),
        ("[]", "not a JSON object"),
        ('{"policies": {"naive": {"mean_mos": 3.0}}}', "handoff_count"),
        ('{"metadata": 5}', "must be objects"),
    ])
    def test_report_with_malformed_file(self, tmp_path, capsys, text, needle):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        self.assert_data_error(["report", str(bad), "--out", str(tmp_path / "out")],
                               capsys, needle)
        assert not (tmp_path / "out" / "summary.csv").exists()
