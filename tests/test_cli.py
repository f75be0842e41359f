"""End-to-end command-line behavior, including exit codes."""

import csv
import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from qoehandoff import cli, harness, netsim, trace_io
from qoehandoff.cli import EXIT_DATA, EXIT_USAGE, _load_dataset, main
from qoehandoff.hmm import (EmConfig, GaussianEmission, HmmModel, em_train,
                            forward_filter, inference, load_model, save_model)
from qoehandoff.netsim import (ScenarioConfig, congestion_scenario,
                               generate_runs, roaming_cdma_g729_model,
                               roaming_scenario)
from qoehandoff.policies import RewardConfig
from qoehandoff.qoe_model import ROAMING_SCHEME
from qoehandoff.trace_io import (DelayTrace, read_traces, traces_from_run,
                                 write_traces)
from references import (count_handoffs, reference_forward, reference_run,
                        reference_write_traces)

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


    # Above 1,000 runs the canonical order is not the run order (run1000
    # sorts between run100 and run101); smaller sets are cut into blocks
    # of other sizes.
    @pytest.mark.parametrize("scenario,runs,duration,block_runs", [
        ("roaming", 1003, 2, None),
        ("wlan_congestion", 1003, 2, None),
        ("roaming", 12, 101, 1),
        ("roaming", 12, 101, 7),
        ("roaming", 40, 101, 1),
        ("roaming", 40, 101, 7),
    ])
    def test_streamed_output_matches_whole_list_reference(
            self, tmp_path, monkeypatch, scenario, runs, duration, block_runs):
        if block_runs is not None:
            monkeypatch.setattr(netsim, "BLOCK_RUNS", block_runs)
        batch_sizes = []
        block_rows = trace_io.block_rows

        def spy(run_ids, *args):
            batch_sizes.append(len(run_ids))
            return block_rows(run_ids, *args)

        monkeypatch.setattr(trace_io, "block_rows", spy)
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", scenario, "--runs", str(runs),
                     "--duration", str(duration), "--seed", "3",
                     "--out", str(out)]) == 0

        factory = roaming_scenario if scenario == "roaming" else congestion_scenario
        cfg = factory(runs=runs, duration_epochs=duration, seed=3)
        labels = [ch.label for ch in cfg.channels]
        traces, mos_sums = [], [0.0] * len(labels)
        block = generate_runs(cfg, range(runs))
        for r, delays, mos in zip(block.run_indices, block.delays_s, block.mos):
            traces += traces_from_run(delays, mos, labels, f"run{r:03d}")
            for i in range(len(labels)):
                mos_sums[i] += np.sum(mos[i])
        assert (out / "traces.csv").read_bytes() == reference_write_traces(traces).encode()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_mos_per_interface"] == \
            {label: mos_sums[i] / (runs * duration) for i, label in enumerate(labels)}
        assert max(batch_sizes) <= netsim.BLOCK_RUNS
        assert sum(batch_sizes) == runs


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

    def test_fold_with_nothing_to_score(self, tmp_path, capsys):
        # Run r1 holds one sample, so the fold that holds it out makes no
        # prediction; the other folds and the mean are still scored.
        rng = np.random.default_rng(3)
        lines = ["run_id,interface,epoch,rtt_s,mos"]
        for run, length in (("r0", 30), ("r1", 1), ("r2", 30)):
            for epoch in range(length):
                lines.append(f"{run},WLAN,{epoch},{rng.uniform(0.01, 0.6):.9g},"
                             f"{rng.uniform(1.0, 4.5):.9g}")
        traces = tmp_path / "traces.csv"
        traces.write_text("\n".join(lines) + "\n")
        assert main(["train-hmm", "--traces", str(traces), "--states", "2",
                     "--folds", "3", "--out", str(tmp_path / "model")]) == 0
        folds = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("fold ", "mean accuracy"))]
        assert len(folds) == 4
        assert folds[1] == "fold 2: accuracy n/a (0/0)"
        for line in (folds[0], folds[2]):
            assert line.endswith("/29)") and "n/a" not in line
        assert re.fullmatch(r"mean accuracy: \d\.\d{4}", folds[3])


def reference_predictions(model, traces_text):
    """The predictions.csv rows of `traces_text`, trace by trace: each
    trace filtered by `reference_forward`, each epoch's state the argmax of
    its one-step belief `belief @ tm`, ties to the lower state. Returns
    (rows, near): near[i] holds row i's top two states when their
    probabilities are within 1e-9, a float-level tie that a filter
    rounding differently may break either way, and is None otherwise."""
    rows, near = [], []
    for trace in read_traces(traces_text):
        beliefs, _ = reference_forward(model.frame_log_likelihood(trace.rtt_s),
                                       model.prior, model.transitions)
        for belief, epoch in zip(beliefs, trace.epochs[1:]):
            ahead = belief @ model.transitions
            second, first = np.argsort(ahead, kind="stable")[-2:]
            rows.append([trace.run_id, trace.interface_label, str(epoch),
                         str(int(np.argmax(ahead)) + 1)])
            near.append({str(first + 1), str(second + 1)}
                        if ahead[first] - ahead[second] <= 1e-9 else None)
    return rows, near


def settle_ties(reference, rows):
    """The reference's rows, each near tie taking the state that `rows`
    (the program's) gives it when that is one of its top two states."""
    expected, near = reference
    if len(rows) != len(expected):
        return expected
    return [want[:3] + got[3:] if tie and got[:3] == want[:3] and got[3] in tie else want
            for want, got, tie in zip(expected, rows, near)]


# Chunk budgets in samples: the module's own (None), one trace per chunk,
# budgets that split an equal-length group across chunks, and the whole
# file in one chunk.
CHUNK_BUDGETS = [None, 1, 12, 250, 10**9]


def predict_by_budget(monkeypatch, tmp_path, model_path, traces, budgets=CHUNK_BUDGETS):
    """Run `predict` under each chunk budget: the exit codes, and the
    (rows, length) of each `forward_filter` block per budget."""
    codes, blocks = [], []

    def spy(model, block):
        blocks[-1].append(block.shape)
        return forward_filter(model, block)

    for budget in budgets:
        blocks.append([])
        with monkeypatch.context() as m:
            m.setattr(cli, "forward_filter", spy)
            if budget is not None:
                m.setattr(inference, "FILTER_CHUNK_SAMPLES", budget)
            codes.append(main(["predict", "--model", str(model_path), "--traces",
                               str(traces), "--out", str(tmp_path / f"pred{budget}")]))
    return codes, blocks


class TestPredictBlocks:
    """`predict` filters each equal-length group of a chunk of traces as
    one block."""

    def test_train_reports_the_winning_restart(self, tmp_path, sim_dir, capsys):
        # The final line describes the all-data fit as em_train makes it,
        # winning restart included.
        code = main(["train-hmm", "--traces", str(sim_dir / "traces.csv"),
                     "--states", "3", "--folds", "2", "--scheme", "roaming",
                     "--seed", "4", "--out", str(tmp_path / "model")])
        assert code == 0
        final = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("final log-likelihood")]
        dataset, _ = _load_dataset(sim_dir / "traces.csv")
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

    def test_ragged_traces_match_per_trace_reference(self, tmp_path, monkeypatch):
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
        codes, blocks = predict_by_budget(monkeypatch, tmp_path, tmp_path / "model.json",
                                          traces)
        assert codes == [0] * len(CHUNK_BUDGETS)
        reference = reference_predictions(model, traces.read_text())
        assert len(reference[0]) == 2 * (3 * 100 + 3 * 4 + 2 * 1)
        for budget, budget_blocks in zip(CHUNK_BUDGETS, blocks):
            with open(tmp_path / f"pred{budget}" / "predictions.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["run_id", "interface", "epoch", "predicted_state"]
            assert rows[1:] == settle_ties(reference, rows[1:])
            # Every trace is filtered once, and a block holds more than the
            # budget only when it is one trace.
            assert sum(n for n, _ in budget_blocks) == 20
            limit = budget or inference.FILTER_CHUNK_SAMPLES
            assert all(n * length <= limit or n == 1 for n, length in budget_blocks)
        assert len(blocks[-1]) == 4  # the whole file: one block per length

    def test_quoted_labels_match_per_trace_reference(self, tmp_path, monkeypatch):
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
        codes, _ = predict_by_budget(monkeypatch, tmp_path, tmp_path / "model.json",
                                     traces)
        assert codes == [0] * len(CHUNK_BUDGETS)
        reference = reference_predictions(model, traces.read_text(encoding="utf-8"))
        for budget in CHUNK_BUDGETS:
            got = (tmp_path / f"pred{budget}" / "predictions.csv").read_bytes()
            expected = io.StringIO()
            writer = csv.writer(expected, lineterminator="\n")
            writer.writerow(["run_id", "interface", "epoch", "predicted_state"])
            writer.writerows(settle_ties(
                reference, list(csv.reader(io.StringIO(got.decode("utf-8"))))[1:]))
            assert got == expected.getvalue().encode("utf-8")

    @pytest.mark.parametrize("good", [
        "r0,WLAN,0,0.5,\nr0,WLAN,1,0.5,\n",
        # Same length as the bad trace: one block, where it is row 1.
        "r0,WLAN,0,0.5,\nr0,WLAN,1,0.5,\nr0,WLAN,2,0.5,\n"
        "r1,WLAN,0,0.5,\nr1,WLAN,1,0.5,\n",
    ])
    def test_zero_mass_names_the_trace(self, tmp_path, capsys, monkeypatch, good):
        # The chain stays in state 2; an observation at state 1's mean has
        # zero density there.
        save_model(HmmModel(prior=np.array([0.0, 1.0]), transitions=np.eye(2),
                            emissions=(GaussianEmission(1.0, 1e-8),
                                       GaussianEmission(0.5, 1e-8))),
                   tmp_path / "model.json")
        traces = tmp_path / "traces.csv"
        traces.write_text("run_id,interface,epoch,rtt_s,mos\n" + good
                          + "r9,WLAN,0,0.5,\nr9,WLAN,4,0.5,\nr9,WLAN,7,1.0,\n")
        # With a one-sample budget the bad trace, which sorts last, is the
        # last of several chunks, so earlier chunks' rows are on disk when
        # it fails.
        budgets = [None, 1]
        codes, blocks = predict_by_budget(monkeypatch, tmp_path, tmp_path / "model.json",
                                          traces, budgets)
        assert codes == [EXIT_DATA] * len(budgets)
        assert len(blocks[1]) == len(read_traces(traces.read_text()))
        errs = capsys.readouterr().err.splitlines()
        assert len(errs) == len(budgets)
        for budget, err in zip(budgets, errs):
            assert err.startswith("error: run r9/WLAN observation 2 (epoch 7) has zero")
            assert "row" not in err
            assert not (tmp_path / f"pred{budget}" / "predictions.csv").exists()


def traced_allocation(fn) -> tuple[int, int]:
    """Bytes that `fn()`'s result holds and bytes allocated at its peak,
    each above the level it started at."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()  # noqa: F841 (held while it is measured)
        current, peak = tracemalloc.get_traced_memory()
        return current - base, peak - base
    finally:
        tracemalloc.stop()


class TestPredictMemory:
    # Samples per trace: 64 traces fill a chunk, so both files below are
    # filtered in full chunks.
    LENGTH = 300
    # Growth allowed beyond that of the parsed traces: the reader's and the
    # writer's per-trace bookkeeping.
    SLACK_BYTES = 512 * 1024

    def test_peak_grows_no_faster_than_the_parsed_traces(self, tmp_path, capsys):
        assert 64 * self.LENGTH > inference.FILTER_CHUNK_SAMPLES
        save_model(roaming_cdma_g729_model(), tmp_path / "model.json")
        rng = np.random.default_rng(6)
        parsed, predicted = [], []
        for count in (64, 256):
            traces = tmp_path / f"traces{count}.csv"
            traces.write_text(write_traces(
                DelayTrace(f"r{i:03d}", "WLAN", np.arange(self.LENGTH),
                           rng.uniform(0.05, 0.6, self.LENGTH), np.full(self.LENGTH, np.nan))
                for i in range(count)))
            parsed.append(traced_allocation(lambda: cli._read_trace_file(traces)))
            predicted.append(traced_allocation(lambda: main(
                ["predict", "--model", str(tmp_path / "model.json"),
                 "--traces", str(traces), "--out", str(tmp_path / "pred")]))[1])
        # No whole-file belief block or list of predictions is held.
        assert predicted[1] - predicted[0] <= \
            parsed[1][0] - parsed[0][0] + self.SLACK_BYTES
        # Each trace's slices are dropped once it is joined, so the reader
        # never holds the slices and the joined columns all together.
        kept, peak = parsed[1]
        assert peak <= 1.5 * kept


class TestSimulateMemory:
    # Growth allowed from 240 to 2,400 runs: the per-run bookkeeping (each
    # run's sort key and MOS sums, about 64 B a run, 138 KB here) and no
    # more. Rows are rendered a block of runs at a time.
    SLACK_BYTES = 256 * 1024

    def test_peak_does_not_grow_with_the_runs(self, tmp_path, capsys):
        # One run first, so that what the first call sets up once is not
        # counted against the 240-run call.
        assert main(["simulate", "--runs", "1", "--out", str(tmp_path / "warm")]) == 0
        peaks = [traced_allocation(lambda: main(
            ["simulate", "--runs", str(runs), "--out", str(tmp_path / f"sim{runs}")]))[1]
            for runs in (240, 2400)]
        assert peaks[1] - peaks[0] <= self.SLACK_BYTES


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
        # Row by row from the report's evaluation MOS and paths.
        report = harness.run_comparison(harness.load_config(cfg))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["policy", "run", "epoch", "mos_WLAN", "mos_CDMA2000",
                         "chosen_interface", "cumulative_handoffs"])
        for name, result in report.policies.items():
            for r, path in enumerate(result.paths.tolist()):
                mos = report.mos[r]
                for t in range(len(path)):
                    writer.writerow([name, r, t]
                                    + [format(float(m[t]), ".9g") for m in mos]
                                    + [path[t], count_handoffs(path[:t + 1])])
        assert (out / "timeline.csv").read_text() == expected.getvalue()

    def test_timeline_rendered_in_slices_is_unchanged(self, tmp_path, monkeypatch):
        # The MOS columns (80 cells each) are rendered RENDER_ROWS cells at
        # a time; 7 splits them unevenly.
        cfg = tmp_path / "fast.ini"
        cfg.write_text(FAST_CONFIG)
        main(["compare-policies", "--config", str(cfg), "--timeline",
              "--out", str(tmp_path / "whole")])
        monkeypatch.setattr(trace_io, "RENDER_ROWS", 7)
        main(["compare-policies", "--config", str(cfg), "--timeline",
              "--out", str(tmp_path / "sliced")])
        assert (tmp_path / "sliced" / "timeline.csv").read_bytes() == \
            (tmp_path / "whole" / "timeline.csv").read_bytes()

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
        # Beyond these sizes the run-index offsets no longer keep the
        # evaluation runs, training episodes and HMM runs apart.
        ("[scenario]\nruns = 10001\n", "runs must be <= 10000"),
        ("[harness]\ntraining_episodes = 10001\n", "training_episodes must be <= 10000"),
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

    @pytest.mark.parametrize("episodes, what", [
        ("", "training episode 0"),
        ("training_episodes = 0\n", "evaluation run 0"),
    ], ids=["training", "evaluation"])
    def test_zero_probability_names_the_run(self, tmp_path, capsys, episodes, what):
        # Three states fitted to one 3-epoch run pin each on a single
        # sample, so the first delay of any other run has zero probability.
        cfg = tmp_path / "pinned.ini"
        cfg.write_text("[scenario]\nduration_epochs = 3\n\n[harness]\n"
                       "hmm_states = 3,3\nhmm_training_runs = 1\n" + episodes)
        out = tmp_path / "cmp"
        code = main(["compare-policies", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: WLAN delay of {what}, epoch 0, has zero predicted " \
            "probability under its fitted model\n"
        assert not out.exists()

    def test_zero_probability_in_cross_validation_names_the_run(self, tmp_path, capsys):
        # Each fold fits three states to one 3-epoch run, pinning each on
        # a single sample; the held-out run's first delay then has zero
        # probability.
        cfg = tmp_path / "pinned.ini"
        cfg.write_text("[scenario]\nduration_epochs = 3\n\n[harness]\n"
                       "hmm_states = 3,3\nhmm_training_runs = 2\n")
        out = tmp_path / "cmp"
        code = main(["compare-policies", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: WLAN delay of HMM training run 0, epoch 0, has zero predicted " \
            "probability under a cross-validation fold's model\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("rows", [
        "",
        "r0,WLAN,0,0.1,4.0\nr1,WLAN,0,0.2,3.0\nr1,CDMA2000,0,0.3,3.5\n",
    ], ids=["header-only", "single-sample-traces"])
    def test_untrainable_traces_is_data_error(self, tmp_path, capsys, rows):
        bad = tmp_path / "bad.csv"
        bad.write_text("run_id,interface,epoch,rtt_s,mos\n" + rows)
        assert main(["train-hmm", "--traces", str(bad),
                     "--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == \
            f"error: {bad}: no trace holds two or more samples\n"
        assert not (tmp_path / "out").exists()

    # Data that cannot support valid arguments is a data error naming the
    # file; arguments no file could support are usage errors.
    @pytest.mark.parametrize("rows, argv, code, message", [
        ("r0,WLAN,0,0.1,4.0\nr0,WLAN,1,0.2,3.0\nr0,WLAN,2,0.3,3.5\n", [],
         EXIT_DATA, "error: {traces}: 2 folds need at least 2 runs, got 1\n"),
        ("r0,WLAN,0,0.1,4.0\nr0,WLAN,1,0.2,3.0\nr1,WLAN,0,0.3,3.5\nr1,WLAN,1,0.2,3.0\n"
         "r2,WLAN,0,0.1,3.5\nr2,WLAN,1,0.3,3.0\n", ["--folds", "5"],
         EXIT_DATA, "error: {traces}: 5 folds need at least 5 runs, got 3\n"),
        ("r0,WLAN,0,0.1,4.0\nr0,WLAN,1,0.1,3.0\nr1,WLAN,0,0.1,3.5\nr1,WLAN,1,0.1,3.5\n",
         ["--states", "2"],
         EXIT_DATA, "error: {traces}: 2 states requested but only 1 distinct values\n"),
        ("r0,WLAN,0,0.1,4.0\nr0,WLAN,1,0.2,3.0\nr1,WLAN,0,0.3,3.5\n", ["--folds", "1"],
         EXIT_USAGE, "error: folds must be >= 2\n"),
        ("r0,WLAN,0,0.1,4.0\nr0,WLAN,1,0.2,3.0\nr1,WLAN,0,0.3,3.5\n", ["--states", "0"],
         EXIT_USAGE, "error: states must be >= 1\n"),
    ], ids=["one-run", "five-folds-three-runs", "one-distinct-delay", "one-fold",
            "no-states"])
    def test_unfittable_request(self, tmp_path, capsys, rows, argv, code, message):
        traces = tmp_path / "traces.csv"
        traces.write_text("run_id,interface,epoch,rtt_s,mos\n" + rows)
        out = tmp_path / "out"
        assert main(["train-hmm", "--traces", str(traces), "--out", str(out)]
                    + argv) == code
        assert capsys.readouterr().err == message.format(traces=traces)
        assert not out.exists()

    def test_zero_probability_in_cross_validation_names_the_trace(self, tmp_path,
                                                                  capsys):
        # Fold 1 fits three states to r1 alone, each pinned on one of its
        # delays. Of the held-out runs, r0 (filtered first, on its own as it
        # is shorter) follows r1 and scores; r2's first delay (epoch 5) has
        # zero probability.
        traces = tmp_path / "traces.csv"
        traces.write_text("run_id,interface,epoch,rtt_s,mos\n"
                          + "".join(f"{run},WLAN,{t},{rtt},3.5\n"
                                    for run, first, rtts in [("r0", 0, (0.1, 0.2)),
                                                             ("r1", 0, (0.1, 0.2, 0.3)),
                                                             ("r2", 5, (10, 11, 12))]
                                    for t, rtt in enumerate(rtts, first)))
        out = tmp_path / "out"
        assert main(["train-hmm", "--traces", str(traces), "--states", "3",
                     "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == \
            f"error: {traces}: run r2/WLAN epoch 5 has zero predicted probability " \
            "under a cross-validation fold's model\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["train-hmm", "predict"])
    def test_non_utf8_traces_is_data_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"run_id,interface,epoch,rtt_s,mos\n"
                        b"r,WLAN,0,0.1,4.0\nr,W\xffLAN,1,0.1,4.0\n")
        save_model(roaming_cdma_g729_model(), tmp_path / "model.json")
        argv = {"train-hmm": ["train-hmm", "--traces", str(bad)],
                "predict": ["predict", "--model", str(tmp_path / "model.json"),
                            "--traces", str(bad)]}[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_DATA
        assert capsys.readouterr().err == \
            "error: not UTF-8 text: byte 0xff: invalid start byte\n"

    @pytest.mark.parametrize("argv", [
        ["train-hmm", "--traces", "{dir}"],
        ["predict", "--model", "{model}", "--traces", "{dir}"],
        ["predict", "--model", "{dir}", "--traces", "{traces}"],
        ["simulate", "--runs", "1", "--duration", "2", "--out", "{file}"],
        ["predict", "--model", "{model}", "--traces", "{traces}", "--out", "{file}"],
    ])
    def test_unusable_path_is_usage_error(self, tmp_path, sim_dir, capsys, argv):
        # A directory where a file is read, and a file where an output
        # directory goes.
        save_model(roaming_cdma_g729_model(), tmp_path / "model.json")
        (tmp_path / "file").write_text("x")
        paths = {"dir": tmp_path, "file": tmp_path / "file",
                 "model": tmp_path / "model.json", "traces": sim_dir / "traces.csv"}
        argv = [arg.format(**paths) for arg in argv]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        capsys.readouterr()
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", "-5"],
        ["compare-policies", "--seed", "-1"],
        ["train-hmm", "--traces", "{traces}", "--seed", "-1"],
    ], ids=["simulate", "compare-policies", "train-hmm"])
    def test_negative_seed_is_usage_error(self, tmp_path, sim_dir, capsys, argv):
        argv = [arg.format(traces=sim_dir / "traces.csv") for arg in argv]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

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

    def test_predict_with_non_utf8_model(self, tmp_path, sim_dir, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(roaming_cdma_g729_model().to_text().encode()
                          .replace(b'"format"', b'"form\xffat"'))
        self.assert_data_error(["predict", "--model", str(model), "--traces",
                                str(sim_dir / "traces.csv"), "--out", str(tmp_path)],
                               capsys, "model document is not UTF-8 text: "
                                       "'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["prior", "transitions", "mean", "variance"])
    def test_predict_with_non_finite_model(self, tmp_path, sim_dir, capsys, field,
                                           value):
        doc = json.loads(roaming_cdma_g729_model().to_text())
        if field == "prior":
            doc["prior"][0] = value
        elif field == "transitions":
            doc["transitions"][0][0] = value
        else:
            doc["emissions"][0][field] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))  # as NaN or Infinity
        self.assert_data_error(["predict", "--model", str(model), "--traces",
                                str(sim_dir / "traces.csv"), "--out", str(tmp_path)],
                               capsys, "must be finite")
        assert not (tmp_path / "predictions.csv").exists()

    # Only JSON numbers are read as numbers: a string, a bool, or an
    # integer no float can hold is a data error, not a converted value.
    @pytest.mark.parametrize("where,value,needle", [
        (["prior", 0], "1", "prior must be a list of JSON numbers"),
        (["prior", 0], True, "prior must be a list of JSON numbers"),
        (["emissions", 0, "variance"], "0.01", "variance must be a JSON number"),
        (["transitions", 0, 0], None,
         "transitions must be a list of lists of JSON numbers"),
        (["emissions", 0, "mean"], 10 ** 400, "int too large to convert to float"),
    ], ids=["string-prior", "bool-prior", "string-variance", "null-transition",
            "huge-mean"])
    def test_predict_with_non_number_model(self, tmp_path, sim_dir, capsys, where,
                                           value, needle):
        doc = json.loads(roaming_cdma_g729_model().to_text())
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        self.assert_data_error(["predict", "--model", str(model), "--traces",
                                str(sim_dir / "traces.csv"), "--out", str(tmp_path)],
                               capsys, needle)
        assert not (tmp_path / "predictions.csv").exists()

    def test_report_with_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"metadata": {"seed": "\xff"}}')
        self.assert_data_error(["report", str(bad), "--out", str(tmp_path / "out")],
                               capsys, f"report {bad} is not UTF-8 text")
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("text,needle", [
        ("not json", "not valid JSON"),
        ("[]", "not a JSON object"),
        ('{"policies": {"naive": {"mean_mos": 3.0}}}', "handoff_count"),
        ('{"metadata": 5}', "must be objects"),
        ('{"policies": {"naive": []}}', "policy 'naive' must be an object"),
        ('{"policies": {"naive": 0}}', "policy 'naive' must be an object"),
        ('{"policies": {"m4": {}}}', "with an integer handoff_count"),
        ('{"policies": {"naive": {"handoff_count": [1], "mean_mos": 3.0}}}',
         "with an integer handoff_count"),
        ('{"policies": {"naive": {"handoff_count": true, "mean_mos": 3.0}}}',
         "with an integer handoff_count"),
        ('{"policies": {"naive": {"handoff_count": 1, "mean_mos": {"a": 1}}}}',
         "a numeric mean_mos"),
        ('{"policies": {"naive": {"handoff_count": 1, "mean_mos": false}}}',
         "a numeric mean_mos"),
        ('{"metadata": {"seed": [1, 2]}}', "metadata seed must be an integer or null"),
        ('{"metadata": {"seed": 1.0}}', "metadata seed must be an integer or null"),
        ('{"metadata": {"scenario": 5}}', "metadata scenario must be a string or null"),
        ('{"metadata": {"codec": false}}', "metadata codec must be a string or null"),
    ])
    def test_report_with_malformed_file(self, tmp_path, capsys, text, needle):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        self.assert_data_error(["report", str(bad), "--out", str(tmp_path / "out")],
                               capsys, needle)
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_report_leaves_null_and_missing_values_empty(self, tmp_path):
        doc = tmp_path / "sparse.json"
        doc.write_text('{"metadata": {"seed": null, "codec": "g729"}, "policies": '
                       '{"naive": null, "m4": {"handoff_count": 3, "mean_mos": 4}}}')
        out = tmp_path / "out"
        assert main(["report", str(doc), "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["scenario"], row["codec"], row["seed"]) == ("", "g729", "")
        assert (row["naive_handoffs"], row["naive_mean_mos"]) == ("", "")
        assert (row["best_handoffs"], row["m4_handoffs"], row["m4_mean_mos"]) == \
            ("", "3", "4")
