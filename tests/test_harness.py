"""Policy comparison harness: configuration, training and reporting."""

import dataclasses
import inspect
import json
import warnings

import numpy as np
import pytest

from qoehandoff import cli, harness, netsim
from qoehandoff.errors import DomainError
from qoehandoff.harness import (ALL_POLICIES, EvaluationReport, HarnessConfig,
                                PolicyResult, default_roaming_harness,
                                joint_rows, load_config,
                                run_comparison, train_interface_models)
from qoehandoff.hmm import EmConfig, predict_belief, state_band_map
from qoehandoff.netsim import (CONGESTION_LOSS_PER_STATE, generate_run,
                               generate_runs, step_environment)
from qoehandoff.policies import (JointState, QLearningConfig, QTable,
                                 RewardConfig, exploit_action, m4_policy_step,
                                 naive_policy_step, oracle_policy, q_update,
                                 reward)
from qoehandoff.probing import RnlEstimator
from qoehandoff.qoe_model import G711, G729, mos_from_delay, quantize_mos
from references import filter_step


def small_harness(**overrides):
    cfg = default_roaming_harness(seed=0, runs=2, duration_epochs=40)
    return dataclasses.replace(cfg, training_episodes=8,
                               hmm_training_runs=4, **overrides)


def band_tables(cfg, models):
    """Each model's P(band | state) table, counted on the HMM training runs
    as `train_interface_models` counts it."""
    block = generate_runs(cfg.scenario, range(
        harness._HMM_RUN_OFFSET, harness._HMM_RUN_OFFSET + cfg.hmm_training_runs))
    return [state_band_map(m, list(zip(block.delays_s[:, i], block.mos[:, i])),
                           cfg.scenario.scheme)
            for i, m in enumerate(models)]


def policy_result(handoffs, mos_sum=0.0, epochs=1):
    """A one-run result of `epochs` epochs that stays on interface 0."""
    return PolicyResult(handoff_count=handoffs, mos_sum=mos_sum, reward_sum=0.0,
                        paths=np.zeros((1, epochs), dtype=int))


class TestEvaluationReport:
    def test_reductions_math(self):
        report = EvaluationReport(
            policies={"proposed": policy_result(20),
                      "naive": policy_result(80),
                      "m4": policy_result(50)},
            prediction_accuracy={})
        red = report.reductions()
        assert red["naive"] == pytest.approx(0.75)
        assert red["m4"] == pytest.approx(0.6)

    def test_zero_baseline_is_none(self):
        report = EvaluationReport(
            policies={"proposed": policy_result(0),
                      "naive": policy_result(0)},
            prediction_accuracy={})
        assert report.reductions()["naive"] is None

    def test_json_is_sorted_and_stable(self):
        report = EvaluationReport(
            policies={"naive": policy_result(1, mos_sum=8.0, epochs=2)},
            prediction_accuracy={"WLAN": 0.9}, metadata={"seed": 0})
        text = report.to_json()
        assert text == report.to_json()
        doc = json.loads(text)
        assert doc["policies"]["naive"]["mean_mos"] == 4.0

    def test_mean_mos_empty_is_nan(self):
        empty = PolicyResult(handoff_count=0, mos_sum=0.0, reward_sum=0.0,
                             paths=np.zeros((0, 0), dtype=int))
        assert np.isnan(empty.mean_mos)


class TestTrainInterfaceModels:
    def test_one_model_per_interface(self):
        cfg = small_harness()
        models, tables, accuracy = train_interface_models(cfg)
        assert len(models) == 2
        assert models[0].n_states == 2   # WLAN coverage on/off
        assert models[1].n_states == 3
        assert set(accuracy) == {"WLAN", "CDMA2000"}
        for phi in accuracy.values():
            assert 0.0 <= phi <= 1.0
        for table, expected in zip(tables, band_tables(cfg, models)):
            assert np.array_equal(table, expected)

    def test_congestion_table_bands_the_lossy_state_worst(self, tmp_path):
        # The 25%-loss state has the highest delay, so it is the fitted
        # model's state 1; counted on the runs' MOS, which carries the loss,
        # its table row puts most mass on band 1. The zero-loss MOS of its
        # mean delay alone would band it 2.
        assert CONGESTION_LOSS_PER_STATE[0] == 0.25
        path = tmp_path / "congestion.ini"
        path.write_text("[scenario]\nkind = wlan_congestion\n")
        cfg = load_config(path)
        models, tables, _ = train_interface_models(cfg)
        assert (tables[0].argmax(axis=1) + 1).tolist() == [1, 2, 3]
        worst_mean = models[0].emissions[0].mean
        assert quantize_mos(mos_from_delay(worst_mean, 0.0, G711),
                            cfg.scenario.scheme) == 2


def joint_row(models, beliefs, tables, current, n_states):
    bands = tuple(1 + int(np.argmax(predict_belief(m, b) @ table))
                  for m, b, table in zip(models, beliefs, tables))
    return JointState(bands, current).index(n_states)


def reference_features(run, models, tables, n_states):
    """Joint-state rows (interface 0 attached) and load series, epoch by
    epoch."""
    beliefs = [None] * run.n_interfaces
    estimators = [RnlEstimator(h=5, c=5.0) for _ in range(run.n_interfaces)]
    joint_base, rnl = [], []
    for t in range(run.duration):
        beliefs = [filter_step(m, b, float(run.delays_s[i][t]))
                   for i, (m, b) in enumerate(zip(models, beliefs))]
        joint_base.append(joint_row(models, beliefs, tables, 0, n_states))
        for est, delays in zip(estimators, run.delays_s):
            est.update(float(delays[t]))
        rnl.append([est.rnl for est in estimators])
    return joint_base, rnl


def reference_step(cfg, run, t, current, action, totals):
    """One epoch of `step_environment` and `reward`, added into `totals`
    ([handoffs, MOS sum, epochs, reward sum]); returns the reward. With
    `t` = 0 the epoch is the run's first, on `action` at the minimum cost."""
    if t == 0:
        mos, handoff = float(run.mos[action][0]), False
    else:
        step = step_environment(run, t, current, action,
                                cfg.scenario.handoff_penalty_mos)
        mos, handoff = step.realized_mos, step.handoff_occurred
    rc = cfg.reward_cfg
    r = reward(mos, rc.handoff_cost if handoff else rc.cost_min, rc)
    totals[0] += handoff
    totals[1] += mos
    totals[2] += 1
    totals[3] += r
    return r


def accounted(result):
    return [result.handoff_count, result.mos_sum, result.paths.size,
            result.reward_sum]


def reference_q_policy(cfg, run, models, tables, qtable):
    """The frozen Q-agent epoch by epoch, its state looked up from beliefs
    filtered through the previous epoch. Returns the attachment path and
    its per-epoch totals."""
    n_states = cfg.scenario.scheme.state_count
    beliefs = [filter_step(m, None, float(run.delays_s[i][0]))
               for i, m in enumerate(models)]
    current, path = 0, [0]
    totals = [0, 0.0, 0, 0.0]
    reference_step(cfg, run, 0, None, current, totals)
    for t in range(1, run.duration):
        s = joint_row(models, beliefs, tables, current, n_states)
        action = exploit_action(qtable, s)
        reference_step(cfg, run, t, current, action, totals)
        beliefs = [filter_step(m, b, float(run.delays_s[i][t]))
                   for i, (m, b) in enumerate(zip(models, beliefs))]
        current = action
        path.append(current)
    return path, totals


def reference_transitions(cfg, models, tables):
    """Every (row, action, reward, next row) of the training episodes, epoch
    by epoch: at each epoch t >= 1, for each attachment c and action a, the
    row from beliefs filtered through epoch t - 1 with c attached, the
    reward of `reference_step` moving from c to a, and the row from beliefs
    filtered through epoch t with a attached."""
    n_states = cfg.scenario.scheme.state_count
    n_if = len(cfg.scenario.channels)
    transitions = []
    for episode in range(cfg.training_episodes):
        run = generate_run(cfg.scenario, harness._TRAIN_RUN_OFFSET + episode)
        beliefs = [filter_step(m, None, float(run.delays_s[i][0]))
                   for i, m in enumerate(models)]
        for t in range(1, run.duration):
            rows = [joint_row(models, beliefs, tables, c, n_states)
                    for c in range(n_if)]
            rewards = [[reference_step(cfg, run, t, c, a, [0, 0.0, 0, 0.0])
                        for a in range(n_if)] for c in range(n_if)]
            beliefs = [filter_step(m, b, float(run.delays_s[i][t]))
                       for i, (m, b) in enumerate(zip(models, beliefs))]
            for c in range(n_if):
                for a in range(n_if):
                    transitions.append((rows[c], a, rewards[c][a],
                                        joint_row(models, beliefs, tables, a,
                                                  n_states)))
    return transitions


def reference_fixed_point(transitions, n_rows, n_actions, gamma):
    """Jacobi sweeps of Q(s, a) = mean(r + gamma * max Q(s')) over each
    pair's transitions, until no value moves by more than 1e-12; a pair
    without transitions keeps Q = 0."""
    samples = {}
    for s, a, r, s_next in transitions:
        samples.setdefault((s, a), []).append((r, s_next))
    q = [[0.0] * n_actions for _ in range(n_rows)]
    while True:
        best = [max(row) for row in q]
        new = [row[:] for row in q]
        for (s, a), pairs in samples.items():
            new[s][a] = sum(r + gamma * best[s_next] for r, s_next in pairs) / len(pairs)
        delta = max(abs(x - y) for row, new_row in zip(q, new)
                    for x, y in zip(row, new_row))
        q = new
        if delta <= 1e-12:
            return np.array(q)


def flipped_inputs(cfg):
    """Models whose one-step predictions often leave the filtered state,
    and their band tables."""
    models = [flipped(ch.generator) for ch in cfg.scenario.channels]
    return models, band_tables(cfg, models)


def reference_baseline_path(cfg, run, kind):
    """The baselines epoch by epoch, naive and m4 each deciding on the
    measurements up to the previous epoch (m4 staying put while its
    estimators warm up), and the oracle following its minimal-handoff
    sequence from interface 0. Returns the attachment path and its
    per-epoch totals."""
    estimators = [RnlEstimator(h=5, c=5.0) for _ in range(run.n_interfaces)]
    oracle = oracle_policy(run.states, start=0)
    current, path = 0, [0]
    totals = [0, 0.0, 0, 0.0]
    reference_step(cfg, run, 0, None, current, totals)
    for t in range(1, run.duration):
        last = [float(d[t - 1]) for d in run.delays_s]
        for est, rtt in zip(estimators, last):
            est.update(rtt)
        if kind == "best":
            action = oracle[t]
        elif kind == "naive":
            action = int(naive_policy_step(last, current))
        elif all(e.initialized for e in estimators):
            action = int(m4_policy_step([e.rnl for e in estimators], current,
                                        cfg.m4_margin_s))
        else:
            action = current
        reference_step(cfg, run, t, current, action, totals)
        current = action
        path.append(current)
    return path, totals


def penalising_harness():
    """`small_harness` with a non-default handoff penalty, QoE clamp range
    and cost blend, so that handoff epochs differ in both reward terms."""
    cfg = small_harness(reward_cfg=RewardConfig(w_qoe=0.6, qoe_min=1.5,
                                                qoe_max=4.2, cost_min=0.1,
                                                cost_max=0.9, handoff_cost=0.5))
    return dataclasses.replace(cfg, scenario=dataclasses.replace(
        cfg.scenario, handoff_penalty_mos=0.7))


def floored_harness():
    """`penalising_harness` with its QoE clamp below the 1.0 floor of a
    handoff epoch's MOS, so that the floor shows in the rewards too."""
    cfg = penalising_harness()
    return dataclasses.replace(cfg, reward_cfg=dataclasses.replace(cfg.reward_cfg,
                                                                   qoe_min=0.5))


def flipped(model):
    """The model with each transition row reversed, so that a one-step
    prediction often leaves the filtered state."""
    return dataclasses.replace(model, transitions=model.transitions[:, ::-1])


class TestBlockFeatures:
    def test_block_matches_per_epoch_reference(self):
        cfg = small_harness()
        scenario = cfg.scenario
        n_states = scenario.scheme.state_count
        fitted, _, _ = train_interface_models(cfg)
        generators = [ch.generator for ch in scenario.channels]
        block = generate_runs(scenario, range(5))
        # The m4 load estimates of every run, on axes (run, epoch, interface).
        load, loads = RnlEstimator(), []
        for t in range(scenario.duration_epochs):
            load.update(block.delays_s[:, :, t])
            loads.append(load.rnl)
        loads = np.stack(loads, axis=1)
        for models in (fitted, generators, [flipped(m) for m in generators]):
            tables = band_tables(cfg, models)
            rows = joint_rows(cfg, block, models, tables)
            for b in range(5):
                joint_base, rnl = reference_features(generate_run(scenario, b),
                                                     models, tables, n_states)
                assert rows[b].tolist() == joint_base
                assert loads[b].tolist() == rnl

    def test_report_independent_of_training_block_size(self, monkeypatch):
        cfg = small_harness()
        expected = run_comparison(cfg).to_json()
        for block in (1, 3, 1000):
            monkeypatch.setattr(netsim, "BLOCK_RUNS", block)
            assert run_comparison(cfg).to_json() == expected

    def test_q_table_independent_of_training_block_size(self, monkeypatch):
        cfg = small_harness()
        models, tables = flipped_inputs(cfg)
        expected = harness.fit_q_table(cfg, models, tables)
        for block in (1, 3, 1000):
            monkeypatch.setattr(netsim, "BLOCK_RUNS", block)
            table = harness.fit_q_table(cfg, models, tables)
            assert np.array_equal(table.values, expected.values)


class TestFitQTable:
    """The table is the fixed point that Q-learning over every transition
    of the training episodes converges to."""

    def test_matches_per_epoch_fixed_point(self):
        for cfg in (small_harness(), penalising_harness(), floored_harness()):
            models, tables = flipped_inputs(cfg)
            table = harness.fit_q_table(cfg, models, tables)
            transitions = reference_transitions(cfg, models, tables)
            n_rows, n_actions = table.values.shape
            expected = reference_fixed_point(transitions, n_rows, n_actions,
                                             cfg.gamma)
            assert np.abs(table.values - expected).max() <= 1e-9
            # Some pairs are never seen and keep Q = 0.
            unseen = np.ones((n_rows, n_actions), dtype=bool)
            for s, a, _, _ in transitions:
                unseen[s, a] = False
            assert unseen.any() and (table.values[unseen] == 0).all()

    def test_q_learning_replay_converges_to_it(self):
        # Constant small steps settle near the fixed point; 1/n steps at
        # gamma = 0.95 are still far from it after as many sweeps. The
        # models are the ones `run_comparison` fits.
        cfg = small_harness()
        models, tables, _ = train_interface_models(cfg)
        table = harness.fit_q_table(cfg, models, tables)
        transitions = reference_transitions(cfg, models, tables)
        replay = QTable(table.n_states, table.n_interfaces)
        step = QLearningConfig(alpha=0.02, gamma=cfg.gamma)
        for _ in range(400):
            for s, a, r, s_next in transitions:
                q_update(replay, s, a, r, s_next, step)
        assert np.abs(replay.values - table.values).max() <= 0.05

    def test_no_training_episodes_give_the_zero_table(self):
        cfg = dataclasses.replace(small_harness(), training_episodes=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = harness.fit_q_table(cfg, *flipped_inputs(cfg))
        assert not table.values.any()


class TestPolicyLoopsMatchPerEpochReference:
    """Each policy's path, and its accounted handoffs, MOS and rewards, equal
    a loop that steps the environment and computes the reward per epoch."""

    def test_q_agent_acts_as_reference(self):
        for cfg in (small_harness(), penalising_harness()):
            scenario = cfg.scenario
            models, tables = flipped_inputs(cfg)
            block = generate_runs(scenario, range(6))
            rows = joint_rows(cfg, block, models, tables)
            fitted = harness.fit_q_table(cfg, models, tables)
            drawn = QTable(fitted.n_states, fitted.n_interfaces)
            drawn.values = np.random.default_rng(4).uniform(size=drawn.values.shape)
            for table in (fitted, drawn):
                greedy = [exploit_action(table, s) for s in range(len(table.values))]
                paths = harness.run_q_policy(rows, greedy)
                assert paths.shape == (6, scenario.duration_epochs)
                for b in range(6):
                    run = generate_run(scenario, b)
                    expected, totals = reference_q_policy(cfg, run, models,
                                                          tables, table)
                    assert paths[b].tolist() == expected
                    result = harness.account(cfg, block.mos[b:b + 1], paths[b:b + 1])
                    assert accounted(result) == totals

    def test_baselines_act_as_reference(self):
        no_margin = dataclasses.replace(small_harness(), m4_margin_s=0.0)
        for cfg in (small_harness(), penalising_harness(), no_margin):
            block = generate_runs(cfg.scenario, range(6))
            for kind in ("best", "naive", "m4"):
                paths = harness._baseline_paths(cfg, kind, block)
                assert paths.shape == (6, cfg.scenario.duration_epochs)
                for b in range(6):
                    run = generate_run(cfg.scenario, b)
                    expected, totals = reference_baseline_path(cfg, run, kind)
                    assert paths[b].tolist() == expected
                    result = harness.account(cfg, block.mos[b:b + 1], paths[b:b + 1])
                    assert accounted(result) == totals

    def test_report_sums_the_runs_totals(self):
        # Each run's totals add up epoch by epoch; the report adds them run
        # by run.
        cfg = penalising_harness()
        report = run_comparison(cfg)
        runs = [generate_run(cfg.scenario, r) for r in range(cfg.scenario.runs)]
        for name, result in report.policies.items():
            totals = [0, 0.0, 0, 0.0]
            for run, path in zip(runs, result.paths.tolist()):
                run_totals = [0, 0.0, 0, 0.0]
                for t in range(run.duration):
                    reference_step(cfg, run, t, path[t - 1] if t else None,
                                   path[t], run_totals)
                totals = [a + b for a, b in zip(totals, run_totals)]
            assert accounted(result) == totals, name


class TestRunComparison:
    def test_all_policies_reported(self):
        report = run_comparison(small_harness())
        assert set(report.policies) == set(ALL_POLICIES)
        for result in report.policies.values():
            assert result.paths.shape == (2, 40)

    def test_deterministic(self):
        a = run_comparison(small_harness())
        b = run_comparison(small_harness())
        assert a.to_json() == b.to_json()

    def test_report_keeps_its_evaluation_runs(self):
        cfg = small_harness()
        report = run_comparison(cfg)
        assert report.mos.shape == (2, 2, 40)
        for r in range(2):
            again = generate_run(cfg.scenario, r)
            assert np.array_equal(report.mos[r], np.stack(again.mos))
        assert "mos" not in json.loads(report.to_json())

    def test_policy_subset(self):
        cfg = small_harness(policies_enabled=("best", "m4"))
        report = run_comparison(cfg)
        assert set(report.policies) == {"best", "m4"}
        assert report.metadata["training_episodes"] == 0

    def test_best_policy_dominates_mos(self):
        # The oracle sits on a best-band interface every epoch; over a
        # shared run set no other policy can beat its mean MOS by much
        # (the oracle still pays handoff penalties).
        report = run_comparison(small_harness())
        best = report.policies["best"].mean_mos
        for name, result in report.policies.items():
            assert result.mean_mos <= best + 0.05, name

    def test_seed_0_headline(self):
        # The default harness's numbers at seed 0, pinned exactly (handoffs
        # and accuracy) or to 1e-9 (sums), so a refactor cannot move them
        # inside criterion 8's bounds unseen.
        report = run_comparison(default_roaming_harness(seed=0))
        expected = {"best": (43, 3.7971993542019153, 847.5514043231801),
                    "naive": (69, 3.7580066685382714, 835.6760205670962),
                    "m4": (77, 3.639534279053763, 799.7788865532902),
                    "proposed": (22, 3.7838832604845614, 843.5166279268223)}
        assert list(report.policies) == list(expected)
        for name, (handoffs, mean_mos, reward_sum) in expected.items():
            result = report.policies[name]
            assert result.handoff_count == handoffs, name
            assert abs(result.mean_mos - mean_mos) <= 1e-9, name
            assert abs(result.reward_sum - reward_sum) <= 1e-9, name
        assert report.prediction_accuracy == {"CDMA2000": 0.789, "WLAN": 0.885}

    def test_headline_holds_on_every_seed(self):
        # Criterion 8's bounds, on the default harness of seeds 0-19.
        failed = []
        for seed in range(20):
            report = run_comparison(default_roaming_harness(seed=seed))
            proposed, naive, m4 = (report.policies[name]
                                   for name in ("proposed", "naive", "m4"))
            if not (proposed.handoff_count <= 0.60 * m4.handoff_count
                    and proposed.handoff_count <= 0.55 * naive.handoff_count
                    and proposed.mean_mos >= naive.mean_mos - 0.1):
                failed.append(seed)
        assert failed == []

    def test_validation(self):
        with pytest.raises(DomainError):
            small_harness(policies_enabled=("oracle",))
        with pytest.raises(DomainError):
            small_harness(policies_enabled=())
        with pytest.raises(DomainError):
            small_harness(hmm_states=(2,))


class TestLoadConfig:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "experiment.ini"
        path.write_text("""
[scenario]
kind = roaming
runs = 3
duration_epochs = 50
seed = 9

[qlearn]
gamma = 0.9

[harness]
policies = best, proposed
training_episodes = 5
hmm_states = 2, 3
""")
        cfg = load_config(path)
        assert cfg.scenario.runs == 3
        assert cfg.scenario.seed == 9
        assert cfg.gamma == 0.9
        assert cfg.policies_enabled == ("best", "proposed")
        assert cfg.training_episodes == 5
        assert cfg.hmm_states == (2, 3)

    def test_defaults_without_sections(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text("[scenario]\nkind = roaming\n")
        cfg = load_config(path)
        assert cfg.scenario.codec.name == "G729"
        assert cfg.hmm_states == (2, 3)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DomainError):
            load_config(tmp_path / "absent.ini")

    def test_unknown_codec_raises(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\ncodec = opus\n")
        with pytest.raises(DomainError):
            load_config(path)

    def test_probe_section_is_rejected(self, tmp_path):
        # No harness stage reads probe settings, so [probe] is unknown.
        path = tmp_path / "probed.ini"
        path.write_text("[scenario]\nkind = roaming\n[probe]\n"
                        "probes_per_second = 10\nlate_threshold_s = 0.5\n")
        with pytest.raises(DomainError) as exc:
            load_config(path)
        assert str(exc.value) == f"config file {path}: unknown config section [probe]"

    @pytest.mark.parametrize("text,needle", [
        ("[scenario]\nkind = roaming\n[qlern]\nalpha = 0.9\n",
         "unknown config section [qlern]"),
        ("[harness]\ntrainig_episodes = 5\n",
         "unknown config key 'trainig_episodes' in [harness]"),
        ("[reward]\nw_qoe = 1.0\nhandof_cost = 2\n",
         "unknown config key 'handof_cost' in [reward]"),
        ("[scenario]\nkind = wlan_congestion\ndwell_mean_epochs = 10\n",
         "unknown config key 'dwell_mean_epochs' in [scenario] for kind "
         "wlan_congestion"),
        ("[DEFAULT]\nseed = 3\n[scenario]\nkind = roaming\n",
         "unknown config section [DEFAULT]"),
        # The agent follows its greedy row: no gate in front of the table.
        ("[hysteresis]\nmargin = 0.1\ndwell_epochs = 2\n",
         "unknown config section [hysteresis]"),
    ] + [
        # The Q-table solve reads only gamma.
        (f"[qlearn]\n{key} = {value}\ngamma = 0.9\n",
         f"unknown config key {key!r} in [qlearn]")
        for key, value in [("alpha", "0.2"), ("alpha_decay", "constant"),
                           ("epsilon", "0.5"), ("epsilon_decay", "0.99"),
                           ("epsilon_floor", "0.1")]
    ], ids=["section", "harness-key", "reward-key", "roaming-only-key", "default",
            "hysteresis", "alpha", "alpha-decay", "epsilon", "epsilon-decay",
            "epsilon-floor"])
    def test_unknown_section_or_key_is_rejected(self, tmp_path, text, needle):
        path = tmp_path / "misspelt.ini"
        path.write_text(text)
        with pytest.raises(DomainError) as exc:
            load_config(path)
        assert str(exc.value) == f"config file {path}: {needle}"

    @pytest.mark.parametrize("text,needle", [
        ("[harness]\npolicies = best, naive, best\n",
         "policies listed twice: ['best']"),
        ("[harness]\ntraining_episodes = -5\n", "training_episodes must be >= 0"),
        ("[harness]\nhmm_training_runs = 0\n", "hmm_training_runs must be >= 1"),
        ("[harness]\nhmm_states = 0, 3\n", "hmm_states must be >= 1"),
        ("[scenario]\ndwell_mean_epochs = 0\n", "dwell_mean_epochs must be >= 1"),
        ("[qlearn]\ngamma = 1\n", "gamma must be in [0, 1)"),
        ("[qlearn]\ngamma = -0.1\n", "gamma must be in [0, 1)"),
        ("[reward]\ncost_max = inf\n", "cost_max must be finite"),
        ("[reward]\nqoe_min = -inf\n", "qoe_min must be finite"),
        ("[harness]\nm4_margin_s = -1\n", "m4_margin_s must be >= 0"),
        ("[scenario]\nseed = -2\n", "seed must be >= 0"),
        ("[harness]\nem_seed = -2\n", "em_seed must be >= 0"),
    ], ids=["repeated-policy", "negative-episodes", "no-hmm-runs", "zero-states",
            "zero-dwell", "gamma-one", "gamma-negative", "infinite-cost",
            "infinite-qoe", "negative-m4-margin", "negative-seed",
            "negative-em-seed"])
    def test_value_out_of_range_is_rejected(self, tmp_path, text, needle):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(DomainError) as exc:
            load_config(path)
        assert str(exc.value) == f"config file {path}: {needle}"

    def test_every_read_key_is_known(self, tmp_path):
        # Every key and section the parser reads loads, roaming-only
        # scenario keys included, and sets its field: each value differs
        # from its default.
        path = tmp_path / "full.ini"
        path.write_text("""
[scenario]
kind = roaming
codec = g711
duration_epochs = 30
runs = 2
seed = 4
dwell_mean_epochs = 20
handoff_penalty_mos = 0.2
[reward]
w_qoe = 0.9
qoe_min = 1.5
qoe_max = 4.5
cost_min = 0.1
cost_max = 0.9
handoff_cost = 0.8
[qlearn]
gamma = 0.8
[harness]
policies = best, proposed
hmm_states = 2, 2
m4_margin_s = 0.03
training_episodes = 6
hmm_training_runs = 2
em_seed = 7
""")
        cfg = load_config(path)
        sc = cfg.scenario
        assert (sc.kind, sc.codec, sc.duration_epochs, sc.runs, sc.seed,
                sc.dwell_mean_epochs, sc.handoff_penalty_mos) == \
            ("roaming", G711, 30, 2, 4, 20.0, 0.2)
        # HarnessConfig has no field defaults, so a new field must be
        # added here.
        assert cfg == HarnessConfig(
            scenario=sc,
            reward_cfg=RewardConfig(w_qoe=0.9, qoe_min=1.5, qoe_max=4.5,
                                    cost_min=0.1, cost_max=0.9, handoff_cost=0.8),
            gamma=0.8,
            m4_margin_s=0.03,
            policies_enabled=("best", "proposed"),
            training_episodes=6,
            hmm_training_runs=2,
            hmm_states=(2, 2),
            em=EmConfig(seed=7),
        )
        # Each parsed value has its field's declared type, not just an
        # equal value (3.0 == 3).
        for f in dataclasses.fields(cfg.reward_cfg):
            assert type(getattr(cfg.reward_cfg, f.name)).__name__ == f.type, f.name
        for name in ("gamma", "m4_margin_s", "training_episodes",
                     "hmm_training_runs"):
            assert type(getattr(cfg, name)).__name__ == \
                HarnessConfig.__dataclass_fields__[name].type, name

    def test_matches_default_harness(self, tmp_path):
        # A file with only the scenario keys that `default_roaming_harness`
        # takes gives that harness in every other setting.
        path = tmp_path / "defaults.ini"
        path.write_text("[scenario]\nseed = 3\nruns = 2\nduration_epochs = 20\n")
        cfg = load_config(path)
        default = default_roaming_harness(seed=3, runs=2, duration_epochs=20)
        for harness_cfg in (default, default_roaming_harness()):
            assert dataclasses.replace(cfg, scenario=harness_cfg.scenario) == harness_cfg
        assert [(sc.kind, sc.codec, sc.seed, sc.runs, sc.duration_epochs,
                 sc.dwell_mean_epochs, sc.handoff_penalty_mos)
                for sc in (cfg.scenario, default.scenario)] == \
            [("roaming", G729, 3, 2, 20, 40.0, 0.3)] * 2

    def test_scenario_keys_are_the_factory_parameters(self):
        # Each [scenario] key besides `kind` sets the factory parameter of
        # its name; an unset one keeps the factory's default.
        def parameters(factory):
            return inspect.signature(factory).parameters.keys()

        assert harness._SCENARIO_KEYS.keys() == parameters(netsim.roaming_scenario)
        assert harness._SCENARIO_KEYS.keys() - harness._ROAMING_ONLY_KEYS == \
            parameters(netsim.congestion_scenario)

    @pytest.mark.parametrize("kind,factory", [
        ("roaming", netsim.roaming_scenario),
        ("wlan_congestion", netsim.congestion_scenario),
    ])
    def test_unset_settings_keep_the_factory_defaults(self, tmp_path, kind, factory):
        # A config file that names only the kind, the default harness and a
        # `simulate` without flags all build the factory-default scenario.
        def settings(sc):
            return [getattr(sc, f.name) for f in dataclasses.fields(sc)
                    if f.name != "channels"] + [ch.label for ch in sc.channels]

        path = tmp_path / "kind.ini"
        path.write_text(f"[scenario]\nkind = {kind}\n")
        args = cli.build_parser().parse_args(
            ["simulate", "--scenario", kind, "--out", str(tmp_path)])
        built = [load_config(path).scenario, cli._scenario_from_args(args)]
        if kind == "roaming":
            built.append(default_roaming_harness().scenario)
        for scenario in built:
            assert settings(scenario) == settings(factory())
