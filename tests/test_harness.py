"""Policy comparison harness: configuration, training and reporting."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from qoehandoff import harness, netsim
from qoehandoff.errors import DomainError
from qoehandoff.harness import (ALL_POLICIES, EvaluationReport, HarnessConfig,
                                PolicyResult, default_roaming_harness,
                                load_config, run_comparison, run_features,
                                state_to_qoe_map, train_interface_models)
from qoehandoff.hmm import EmConfig, predict_belief
from qoehandoff.netsim import (generate_run, generate_runs,
                               roaming_cdma_g729_model, roaming_scenario,
                               roaming_wlan_g729_model, step_environment)
from qoehandoff.policies import (HysteresisConfig, JointState, QLearningConfig,
                                 QTable, RewardConfig, decide_handoff,
                                 exploit_action, m4_policy_step,
                                 naive_policy_step, oracle_policy, q_update,
                                 reward)
from qoehandoff.probing import RnlEstimator
from qoehandoff.qoe_model import G711, G729, ROAMING_SCHEME


def small_harness(**overrides):
    cfg = default_roaming_harness(seed=0, runs=2, duration_epochs=40)
    return dataclasses.replace(cfg, training_episodes=8,
                               hmm_training_runs=4, **overrides)


class TestStateToQoeMap:
    def test_wlan_states_split_bands(self):
        # Out-of-coverage RTT ~0.99 s maps to the worst band, in-coverage
        # ~0.05 s to a good one.
        mapping = state_to_qoe_map(roaming_wlan_g729_model(),
                                   delay_is_rtt=True, codec=G729,
                                   scheme=ROAMING_SCHEME)
        assert len(mapping) == 2
        assert mapping[0] == 1
        assert mapping[1] >= 2

    def test_cdma_monotone(self):
        mapping = state_to_qoe_map(roaming_cdma_g729_model(),
                                   delay_is_rtt=True, codec=G729,
                                   scheme=ROAMING_SCHEME)
        assert mapping == sorted(mapping)


class TestEvaluationReport:
    def test_reductions_math(self):
        report = EvaluationReport(
            policies={"proposed": PolicyResult(handoff_count=20),
                      "naive": PolicyResult(handoff_count=80),
                      "m4": PolicyResult(handoff_count=50)},
            prediction_accuracy={})
        red = report.reductions()
        assert red["naive"] == pytest.approx(0.75)
        assert red["m4"] == pytest.approx(0.6)

    def test_zero_baseline_is_none(self):
        report = EvaluationReport(
            policies={"proposed": PolicyResult(handoff_count=0),
                      "naive": PolicyResult(handoff_count=0)},
            prediction_accuracy={})
        assert report.reductions()["naive"] is None

    def test_json_is_sorted_and_stable(self):
        report = EvaluationReport(
            policies={"naive": PolicyResult(handoff_count=1, mos_sum=8.0,
                                            mos_epochs=2)},
            prediction_accuracy={"WLAN": 0.9}, metadata={"seed": 0})
        text = report.to_json()
        assert text == report.to_json()
        doc = json.loads(text)
        assert doc["policies"]["naive"]["mean_mos"] == 4.0

    def test_mean_mos_empty_is_nan(self):
        assert np.isnan(PolicyResult().mean_mos)


class TestTrainInterfaceModels:
    def test_one_model_per_interface(self):
        cfg = small_harness()
        models, accuracy = train_interface_models(cfg)
        assert len(models) == 2
        assert models[0].n_states == 2   # WLAN coverage on/off
        assert models[1].n_states == 3
        assert set(accuracy) == {"WLAN", "CDMA2000"}
        for phi in accuracy.values():
            assert 0.0 <= phi <= 1.0


def filter_step(model, belief, observation):
    """One forward-filter update of one interface's belief, one sample at a
    time; `belief` None starts from the prior."""
    flp = model.frame_log_likelihood(np.array([observation]))[0]
    pred = model.prior if belief is None else predict_belief(model, belief)
    post = pred * np.exp(flp - flp.max())
    return post / post.sum()


def joint_row(models, beliefs, qoe_maps, current, n_states):
    bands = tuple(qmap[int(np.argmax(predict_belief(m, b)))]
                  for m, b, qmap in zip(models, beliefs, qoe_maps))
    return JointState(bands, current).index(n_states)


def reference_features(run, models, qoe_maps, n_states):
    """Joint-state rows (interface 0 attached) and load series, epoch by
    epoch."""
    beliefs = [None] * run.n_interfaces
    estimators = [RnlEstimator(h=5, c=5.0) for _ in range(run.n_interfaces)]
    joint_base, rnl = [], []
    for t in range(run.duration):
        beliefs = [filter_step(m, b, float(run.delays_s[i][t]))
                   for i, (m, b) in enumerate(zip(models, beliefs))]
        joint_base.append(joint_row(models, beliefs, qoe_maps, 0, n_states))
        for est, delays in zip(estimators, run.delays_s):
            est.update(float(delays[t]))
        rnl.append([est.rnl if est.initialized else None for est in estimators])
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
    return [result.handoff_count, result.mos_sum, result.mos_epochs,
            result.reward_sum]


def reference_q_policy(cfg, run, models, qoe_maps, qtable):
    """The frozen Q-agent epoch by epoch, its state looked up from beliefs
    filtered through the previous epoch. Returns the attachment path and
    its per-epoch totals."""
    n_states = cfg.scenario.scheme.state_count
    beliefs = [filter_step(m, None, float(run.delays_s[i][0]))
               for i, m in enumerate(models)]
    current, path = 0, [0]
    totals = [0, 0.0, 0, 0.0]
    reference_step(cfg, run, 0, None, current, totals)
    since_handoff = cfg.hysteresis.dwell_epochs
    for t in range(1, run.duration):
        s = joint_row(models, beliefs, qoe_maps, current, n_states)
        proposed = exploit_action(qtable, s)
        gain = qtable.values[s][proposed] - qtable.values[s][current]
        action = decide_handoff(proposed, current, gain, cfg.hysteresis,
                                since_handoff)
        reference_step(cfg, run, t, current, action, totals)
        beliefs = [filter_step(m, b, float(run.delays_s[i][t]))
                   for i, (m, b) in enumerate(zip(models, beliefs))]
        since_handoff = 0 if action != current else since_handoff + 1
        current = action
        path.append(current)
    return path, totals


def reference_transitions(cfg, models, qoe_maps):
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
            rows = [joint_row(models, beliefs, qoe_maps, c, n_states)
                    for c in range(n_if)]
            rewards = [[reference_step(cfg, run, t, c, a, [0, 0.0, 0, 0.0])
                        for a in range(n_if)] for c in range(n_if)]
            beliefs = [filter_step(m, b, float(run.delays_s[i][t]))
                       for i, (m, b) in enumerate(zip(models, beliefs))]
            for c in range(n_if):
                for a in range(n_if):
                    transitions.append((rows[c], a, rewards[c][a],
                                        joint_row(models, beliefs, qoe_maps, a,
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
    and their state -> QoE band maps."""
    scenario = cfg.scenario
    models = [flipped(ch.generator) for ch in scenario.channels]
    qoe_maps = [state_to_qoe_map(m, ch.delay_is_rtt, scenario.codec,
                                 scenario.scheme)
                for m, ch in zip(models, scenario.channels)]
    return models, qoe_maps


def reference_baseline_path(cfg, run, kind):
    """The baselines epoch by epoch, naive and m4 each deciding on the
    measurements up to the previous epoch, and the oracle following its
    minimal-handoff sequence from interface 0. Returns the attachment path
    and its per-epoch totals."""
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
            action = naive_policy_step([rtt / 2.0 for rtt in last], current)
        else:
            action = m4_policy_step([e.rnl if e.initialized else None
                                     for e in estimators], current, cfg.m4_margin_s)
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


def flipped(model):
    """The model with each transition row reversed, so that a one-step
    prediction often leaves the filtered state."""
    return dataclasses.replace(model, transitions=model.transitions[:, ::-1])


class TestRunFeatures:
    def test_block_matches_per_epoch_reference(self):
        cfg = small_harness()
        scenario = cfg.scenario
        n_states = scenario.scheme.state_count
        fitted, _ = train_interface_models(cfg)
        generators = [ch.generator for ch in scenario.channels]
        block = generate_runs(scenario, range(5))
        for models in (fitted, generators, [flipped(m) for m in generators]):
            qoe_maps = [state_to_qoe_map(m, ch.delay_is_rtt, scenario.codec,
                                         scenario.scheme)
                        for m, ch in zip(models, scenario.channels)]
            features = run_features(block.delays_s, models, qoe_maps, n_states,
                                    with_rnl=True)
            for b, run in enumerate(block.runs):
                joint_base, rnl = reference_features(run, models, qoe_maps,
                                                     n_states)
                assert features.joint_base[b].tolist() == joint_base
                assert features.rnl[b] == rnl

    def test_baseline_only_block_skips_filtering(self):
        block = generate_runs(roaming_scenario(duration_epochs=20), range(2))
        features = run_features(block.delays_s)
        assert features.observations.shape == (2, 2, 20)
        assert features.joint_base is None and features.rnl is None

    def test_report_independent_of_training_block_size(self, monkeypatch):
        cfg = small_harness()
        expected = run_comparison(cfg).to_json()
        for block in (1, 3, 1000):
            monkeypatch.setattr(netsim, "BLOCK_RUNS", block)
            assert run_comparison(cfg).to_json() == expected

    def test_q_table_independent_of_training_block_size(self, monkeypatch):
        cfg = small_harness()
        models, qoe_maps = flipped_inputs(cfg)
        expected = harness.fit_q_table(cfg, models, qoe_maps)
        for block in (1, 3, 1000):
            monkeypatch.setattr(netsim, "BLOCK_RUNS", block)
            table = harness.fit_q_table(cfg, models, qoe_maps)
            assert np.array_equal(table.values, expected.values)


class TestFitQTable:
    """The table is the fixed point that Q-learning over every transition
    of the training episodes converges to."""

    def test_matches_per_epoch_fixed_point(self):
        for cfg in (small_harness(), penalising_harness()):
            models, qoe_maps = flipped_inputs(cfg)
            table = harness.fit_q_table(cfg, models, qoe_maps)
            transitions = reference_transitions(cfg, models, qoe_maps)
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
        models, _ = train_interface_models(cfg)
        scenario = cfg.scenario
        qoe_maps = [state_to_qoe_map(m, ch.delay_is_rtt, scenario.codec,
                                     scenario.scheme)
                    for m, ch in zip(models, scenario.channels)]
        table = harness.fit_q_table(cfg, models, qoe_maps)
        transitions = reference_transitions(cfg, models, qoe_maps)
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
            models, qoe_maps = flipped_inputs(cfg)
            block = generate_runs(scenario, range(6))
            runs = block.runs
            features = run_features(block.delays_s, models, qoe_maps,
                                    scenario.scheme.state_count)
            fitted = harness.fit_q_table(cfg, models, qoe_maps)
            drawn = QTable(fitted.n_states, fitted.n_interfaces)
            drawn.values = np.random.default_rng(4).uniform(size=drawn.values.shape)
            for table in (fitted, drawn):
                for run, joint_base in zip(runs, features.joint_base):
                    path = harness.run_q_policy(cfg, joint_base, table)
                    expected, totals = reference_q_policy(cfg, run, models,
                                                          qoe_maps, table)
                    assert path == expected
                    result = harness.account(cfg, run, path)
                    assert result.paths == [expected]
                    assert accounted(result) == totals

    def test_baselines_act_as_reference(self):
        for cfg in (small_harness(), penalising_harness()):
            block = generate_runs(cfg.scenario, range(6))
            features = run_features(block.delays_s, with_rnl=True)
            for b, run in enumerate(block.runs):
                for kind in ("best", "naive", "m4"):
                    path = harness._baseline_path(cfg, run, kind,
                                                  features.observations[b],
                                                  features.rnl[b])
                    expected, totals = reference_baseline_path(cfg, run, kind)
                    assert path == expected
                    assert accounted(harness.account(cfg, run, path)) == totals

    def test_report_sums_the_runs_totals(self):
        # Each run's totals add up epoch by epoch; the report adds them run
        # by run.
        cfg = penalising_harness()
        report = run_comparison(cfg)
        for name, result in report.policies.items():
            totals = [0, 0.0, 0, 0.0]
            for run, path in zip(report.runs, result.paths):
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
            assert result.mos_epochs == 2 * 40
            assert len(result.paths) == 2
            assert all(len(p) == 40 for p in result.paths)

    def test_deterministic(self):
        a = run_comparison(small_harness())
        b = run_comparison(small_harness())
        assert a.to_json() == b.to_json()

    def test_report_keeps_its_evaluation_runs(self):
        cfg = small_harness()
        report = run_comparison(cfg)
        assert [run.run_index for run in report.runs] == [0, 1]
        for run in report.runs:
            again = generate_run(cfg.scenario, run.run_index)
            assert all(np.array_equal(a, b) for a, b in zip(run.mos, again.mos))
        assert "runs" not in json.loads(report.to_json())

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
                        "probes_per_second = 10\nimputation = carry_forward\n")
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
    ] + [
        # The Q-table solve reads only gamma.
        (f"[qlearn]\n{key} = {value}\ngamma = 0.9\n",
         f"unknown config key {key!r} in [qlearn]")
        for key, value in [("alpha", "0.2"), ("alpha_decay", "constant"),
                           ("epsilon", "0.5"), ("epsilon_decay", "0.99"),
                           ("epsilon_floor", "0.1")]
    ], ids=["section", "harness-key", "reward-key", "roaming-only-key", "default",
            "alpha", "alpha-decay", "epsilon", "epsilon-decay", "epsilon-floor"])
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
    ], ids=["repeated-policy", "negative-episodes", "no-hmm-runs", "zero-states",
            "zero-dwell", "gamma-one", "gamma-negative", "infinite-cost",
            "infinite-qoe", "negative-m4-margin"])
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
[hysteresis]
margin = 0.2
dwell_epochs = 3
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
            hysteresis=HysteresisConfig(margin=0.2, dwell_epochs=3),
            m4_margin_s=0.03,
            policies_enabled=("best", "proposed"),
            training_episodes=6,
            hmm_training_runs=2,
            hmm_states=(2, 2),
            em=EmConfig(seed=7),
        )
        # Each parsed value has its field's declared type, not just an
        # equal value (3.0 == 3).
        for section in (cfg.reward_cfg, cfg.hysteresis):
            for f in dataclasses.fields(section):
                assert type(getattr(section, f.name)).__name__ == f.type, f.name
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
