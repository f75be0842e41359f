"""Reward shaping, Q-table updates, baselines and the exact MDP solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoehandoff.errors import DomainError
from qoehandoff.policies import (JointState, QLearningConfig, QTable,
                                 RewardConfig, epsilon_greedy_action,
                                 exploit_action, m4_policy_step,
                                 naive_policy_step, oracle_policy, q_star,
                                 q_update, reward, value_iteration)
from references import count_handoffs, exhaustive_min_handoffs, reference_oracle


class TestReward:
    def test_qoe_clamp_boundaries_exact(self):
        cfg = RewardConfig()
        assert reward(5.0, 0.0, cfg) == 1.0
        assert reward(6.0, 0.0, cfg) == 1.0
        assert reward(1.0, 0.0, cfg) == 0.0
        assert reward(0.5, 0.0, cfg) == 0.0

    def test_qoe_midpoint(self):
        assert reward(3.0, 0.0, RewardConfig()) == pytest.approx(0.5, abs=1e-12)

    def test_cost_clamp_boundaries_exact(self):
        cfg = RewardConfig(w_qoe=0.0)
        assert reward(3.0, 0.0, cfg) == 1.0
        assert reward(3.0, -0.5, cfg) == 1.0
        assert reward(3.0, 1.0, cfg) == 0.0
        assert reward(3.0, 2.0, cfg) == 0.0

    def test_cost_midpoint(self):
        assert reward(3.0, 0.5, RewardConfig(w_qoe=0.0)) == pytest.approx(
            0.5, abs=1e-12)

    def test_blend(self):
        # Half weight: 0.5*f(4.0) + 0.5*f(0.25) = 0.5*0.75 + 0.5*0.75
        cfg = RewardConfig(w_qoe=0.5)
        assert reward(4.0, 0.25, cfg) == pytest.approx(0.75, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            RewardConfig(w_qoe=1.5)
        with pytest.raises(DomainError):
            RewardConfig(qoe_min=5.0, qoe_max=1.0)
        with pytest.raises(DomainError):
            RewardConfig(handoff_cost=-1.0)

    @given(st.floats(min_value=0.0, max_value=6.0),
           st.floats(min_value=-1.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_always_in_unit_interval(self, qoe, cost, w):
        assert 0.0 <= reward(qoe, cost, RewardConfig(w_qoe=w)) <= 1.0

    @given(st.floats(min_value=1.0, max_value=5.0),
           st.floats(min_value=1.0, max_value=5.0))
    def test_monotone_in_qoe(self, a, b):
        lo, hi = sorted((a, b))
        cfg = RewardConfig()
        assert reward(lo, 0.0, cfg) <= reward(hi, 0.0, cfg)

    def test_elementwise_matches_scalar(self):
        # Criterion 6's clamp points and midpoints, values beyond both clamp
        # ranges, and neighbours one ulp inside the bounds.
        qoe = [5.0, 1.0, 3.0, 6.0, 0.5, -np.inf, np.inf, np.nextafter(1.0, 2.0),
               np.nextafter(5.0, 0.0), 1.5, 4.5, 2.2]
        cost = [0.0, 1.0, 0.5, -0.5, 2.0, 0.1, 0.9, np.nextafter(0.0, 1.0),
                np.nextafter(1.0, 0.0), 0.25]
        for cfg in (RewardConfig(), RewardConfig(w_qoe=0.0),
                    RewardConfig(w_qoe=0.3, qoe_min=1.5, qoe_max=4.5,
                                 cost_min=0.1, cost_max=0.9)):
            grid = reward(np.array(qoe)[:, None], np.array(cost), cfg)
            assert grid.shape == (len(qoe), len(cost))
            for i, q in enumerate(qoe):
                for j, c in enumerate(cost):
                    scalar = reward(q, c, cfg)
                    assert type(scalar) is float
                    assert grid[i, j] == scalar == piecewise_reward(q, c, cfg)

    def test_random_values_match_piecewise_definition(self):
        rng = np.random.default_rng(3)
        cfg = RewardConfig(w_qoe=0.7, qoe_min=1.2, qoe_max=4.3,
                           cost_min=0.05, cost_max=0.8)
        qoe, cost = rng.uniform(0.0, 6.0, 500), rng.uniform(-0.5, 1.5, 500)
        expected = [piecewise_reward(q, c, cfg)
                    for q, c in zip(qoe.tolist(), cost.tolist())]
        assert reward(qoe, cost, cfg).tolist() == expected


def piecewise_reward(q, c, cfg):
    """The reward's definition, one clamp branch per case."""
    f_q = 1.0 if q >= cfg.qoe_max else 0.0 if q <= cfg.qoe_min \
        else (q - cfg.qoe_min) / (cfg.qoe_max - cfg.qoe_min)
    f_c = 1.0 if c <= cfg.cost_min else 0.0 if c >= cfg.cost_max \
        else (cfg.cost_max - c) / (cfg.cost_max - cfg.cost_min)
    return cfg.w_qoe * f_q + (1.0 - cfg.w_qoe) * f_c


class TestJointState:
    def test_row_major_index(self):
        # (state_if0, state_if1, current) over 3 states, 2 interfaces.
        assert JointState((1, 1), 0).index(3) == 0
        assert JointState((1, 1), 1).index(3) == 1
        assert JointState((1, 2), 0).index(3) == 2
        assert JointState((2, 1), 0).index(3) == 6
        assert JointState((3, 3), 1).index(3) == 17

    def test_index_is_bijective(self):
        seen = set()
        for s0 in (1, 2, 3):
            for s1 in (1, 2, 3):
                for cur in (0, 1):
                    seen.add(JointState((s0, s1), cur).index(3))
        assert seen == set(range(18))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            JointState((0, 1), 0).index(3)
        with pytest.raises(DomainError):
            JointState((1, 4), 0).index(3)
        with pytest.raises(DomainError):
            JointState((1, 1), 2).index(3)


class TestQUpdate:
    def test_golden_backup(self):
        # Q <- 0.2 + 0.8 * (0.5 + 0.95*0.6 - 0.2) = 0.896
        q = QTable(3, 2)
        s = JointState((1, 1), 0).index(3)
        s_next = JointState((2, 1), 1).index(3)
        q.values[s, 0] = 0.2
        q.values[s_next] = [0.1, 0.6]
        cfg = QLearningConfig(alpha=0.8, gamma=0.95)
        q_update(q, s, 0, 0.5, s_next, cfg)
        assert q.values[s, 0] == pytest.approx(0.896, abs=1e-12)

    def test_alpha_one_gamma_zero_writes_reward(self):
        q = QTable(3, 2)
        s = JointState((1, 1), 0).index(3)
        cfg = QLearningConfig(alpha=1.0, gamma=0.0)
        q_update(q, s, 1, 0.7, JointState((3, 3), 1).index(3), cfg)
        assert q.values[s, 1] == 0.7

    def test_inverse_visit_averages_rewards(self):
        # With gamma=0 and rewards r_1..r_n, 1/(1+visits) steps produce the
        # running mean.
        q = QTable(3, 2)
        s = JointState((2, 2), 0).index(3)
        cfg = QLearningConfig(alpha=1.0, gamma=0.0, alpha_decay="inverse_visit")
        rewards = [0.2, 0.6, 0.1, 0.9]
        for r in rewards:
            q_update(q, s, 0, r, s, cfg)
        assert q.values[s, 0] == pytest.approx(np.mean(rewards), abs=1e-12)
        assert q.visit_counts[s, 0] == len(rewards)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QLearningConfig(alpha=0.0)
        with pytest.raises(DomainError):
            QLearningConfig(gamma=1.0)
        with pytest.raises(DomainError):
            QLearningConfig(alpha_decay="linear")


class TestActionSelection:
    def test_exploit_prefers_max(self):
        q = QTable(3, 2)
        s = JointState((1, 1), 0).index(3)
        q.values[s] = [0.1, 0.9]
        assert exploit_action(q, s) == 1

    def test_tie_prefers_current_interface(self):
        q = QTable(3, 2)
        s = JointState((1, 1), 1).index(3)
        assert exploit_action(q, s) == 1  # all-zero row, stay put

    def test_tie_without_current_prefers_lowest(self):
        q = QTable(3, 3)
        s = JointState((1, 1, 1), 2).index(3)
        q.values[s] = [0.5, 0.5, 0.1]
        assert exploit_action(q, s) == 0

    def test_exploration_draw_order(self):
        # One uniform decides; only an exploring step then draws the action.
        q = QTable(3, 2)
        s = JointState((1, 2), 0).index(3)
        q.values[s] = [0.3, 0.8]
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for epsilon in (0.0, 0.5, 1.0) * 20:
            explore = ref.random() < epsilon
            expected = int(ref.integers(2)) if explore else exploit_action(q, s)
            assert epsilon_greedy_action(q, s, epsilon, rng) == expected

    def test_epsilon_zero_is_greedy(self):
        q = QTable(3, 2)
        s = JointState((1, 2), 0).index(3)
        q.values[s] = [0.3, 0.8]
        rng = np.random.default_rng(0)
        picks = {epsilon_greedy_action(q, s, 0.0, rng)
                 for _ in range(20)}
        assert picks == {1}

    def test_epsilon_one_explores_uniformly(self):
        q = QTable(3, 2)
        s = JointState((1, 2), 0).index(3)
        q.values[s] = [0.3, 0.8]
        rng = np.random.default_rng(0)
        picks = [epsilon_greedy_action(q, s, 1.0, rng)
                 for _ in range(2000)]
        frac = np.mean(np.array(picks) == 0)
        assert 0.4 < frac < 0.6


class TestM4Policy:
    def test_switches_past_margin(self):
        assert m4_policy_step([0.20, 0.10], 0, 0.02) == 1

    def test_within_margin_stays(self):
        assert m4_policy_step([0.11, 0.10], 0, 0.02) == 0

    def test_already_on_best_stays(self):
        assert m4_policy_step([0.10, 0.30], 0, 0.02) == 0

    def test_tie_stays_else_lowest_index(self):
        assert m4_policy_step([0.10, 0.10, 0.30], 1, 0.0) == 1
        assert m4_policy_step([0.10, 0.30, 0.10], 1, 0.0) == 0

    def test_rows_act_as_single_calls(self):
        # Few distinct loads, so rows tie often.
        rng = np.random.default_rng(0)
        rnl = rng.choice([0.10, 0.11, 0.12, 0.30], size=(200, 3))
        current = rng.integers(3, size=200)
        for margin in (0.0, 0.015, 0.02):
            rows = m4_policy_step(rnl, current, margin)
            assert rows.shape == (200,)
            assert rows.tolist() == [int(m4_policy_step(r.tolist(), int(c), margin))
                                     for r, c in zip(rnl, current)]


class TestNaivePolicy:
    def test_weighted_scores_golden(self):
        # Scores are reciprocal delays: 1/0.01 = 100 beats 1/0.02 = 50.
        assert naive_policy_step([0.01, 0.02], current=1) == 0
        assert naive_policy_step([0.3, 0.1, 0.2], current=0) == 1

    def test_tie_stays_on_current(self):
        assert naive_policy_step([0.1, 0.1], current=1) == 1
        assert naive_policy_step([0.1, 0.1], current=0) == 0

    def test_zero_denominator_rejected(self):
        for delays in ([0.0], [0.1, -0.2], [0.1, np.nan]):
            with pytest.raises(DomainError):
                naive_policy_step(delays, 0)
        with pytest.raises(DomainError):
            naive_policy_step([[0.1, 0.2], [0.3, 0.0]], [0, 0])

    def test_rows_act_as_single_calls(self):
        rng = np.random.default_rng(1)
        delays = rng.choice([0.05, 0.1, 0.2], size=(200, 3))
        current = rng.integers(3, size=200)
        rows = naive_policy_step(delays, current)
        assert rows.shape == (200,)
        assert rows.tolist() == [int(naive_policy_step(d.tolist(), int(c)))
                                 for d, c in zip(delays, current)]


class TestOraclePolicy:
    def test_simple_alternation(self):
        # Best interface flips once; one handoff is optimal.
        states = [[3, 3, 1, 1], [1, 1, 3, 3]]
        path = oracle_policy(states, start=0)
        assert path == [0, 0, 1, 1]
        assert count_handoffs(path, start=0) == 1

    def test_sits_on_best_interface_every_epoch(self):
        rng = np.random.default_rng(0)
        states = [rng.integers(1, 4, 15).tolist() for _ in range(2)]
        path = oracle_policy(states)
        for t, i in enumerate(path):
            assert states[i][t] == max(states[0][t], states[1][t])

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            length = int(rng.integers(2, 9))
            states = [rng.integers(1, 4, length).tolist() for _ in range(2)]
            start = int(rng.integers(0, 2)) if rng.random() < 0.5 else None
            path = oracle_policy(states, start=start)
            assert count_handoffs(path, start) == \
                exhaustive_min_handoffs(states, start)

    def test_start_interface_penalized(self):
        # Starting off-best costs one handoff when start is pinned.
        states = [[1, 1], [3, 3]]
        assert count_handoffs(oracle_policy(states, start=0), start=0) == 1
        assert count_handoffs(oracle_policy(states), None) == 0

    def test_rejects_ragged_input(self):
        with pytest.raises(DomainError):
            oracle_policy([[1, 2], [1, 2, 3]])


class TestOracleBlock:
    """A block of runs gives, row by row, the paths of one-run list calls,
    which are the per-epoch reference loop's, ties included."""

    @pytest.mark.parametrize("start", [None, 0, 1])
    @pytest.mark.parametrize("n_if", [1, 2, 3])
    def test_rows_act_as_single_calls(self, n_if, start):
        rng = np.random.default_rng(10 * n_if + (start or 0))
        for horizon in (1, 2, 9):
            # Two bands tie often; run 0 ties every interface at every epoch.
            block = rng.integers(1, 3, (24, n_if, horizon))
            block[0] = 2
            paths = oracle_policy(block, start=start)
            assert paths.shape == (24, horizon)
            for states, path in zip(block.tolist(), paths.tolist()):
                assert path == oracle_policy(states, start=start)
                assert path == reference_oracle(states, start=start)
                assert count_handoffs(path, start) == \
                    exhaustive_min_handoffs(states, start)


class TestCountHandoffs:
    def test_counts_switches(self):
        assert count_handoffs([0, 0, 1, 1, 0]) == 2
        assert count_handoffs([0, 0, 0]) == 0
        assert count_handoffs([1, 0], start=0) == 2


class TestValueIteration:
    def test_single_state_geometric_sum(self):
        # U = 1 / (1 - 0.95) = 20 regardless of action.
        tm = np.ones((2, 1, 1))
        u, policy = value_iteration(tm, np.array([1.0]), 0.95)
        assert u[0] == pytest.approx(20.0, abs=1e-6)

    def test_two_state_absorbing(self):
        # Action 0 stays (reward 0 state), action 1 jumps to the reward
        # state which self-absorbs; optimal from state 0 is to jump.
        tm = np.array([
            [[1.0, 0.0], [0.0, 1.0]],   # action 0: identity
            [[0.0, 1.0], [0.0, 1.0]],   # action 1: go to state 1
        ])
        r = np.array([0.0, 1.0])
        u, policy = value_iteration(tm, r, 0.5)
        # U(1) = 1/(1-0.5) = 2; U(0) = 0 + 0.5*U(1) = 1
        assert u == pytest.approx([1.0, 2.0], abs=1e-9)
        assert policy[0] == 1

    def test_bellman_fixed_point(self):
        rng = np.random.default_rng(11)
        tm = rng.dirichlet(np.ones(4), size=(3, 4))
        r = rng.uniform(0, 1, 4)
        gamma = 0.9
        u, _ = value_iteration(tm, r, gamma)
        residual = r + gamma * (tm @ u).max(axis=0) - u
        assert np.abs(residual).max() <= 1e-8

    def test_q_star_consistent_with_u(self):
        rng = np.random.default_rng(12)
        tm = rng.dirichlet(np.ones(5), size=(2, 5))
        r = rng.uniform(0, 1, 5)
        u, _ = value_iteration(tm, r, 0.8)
        q = q_star(tm, r, 0.8)
        assert q.shape == (5, 2)
        assert np.abs(q.max(axis=1) - u).max() <= 1e-8

    def test_input_validation(self):
        with pytest.raises(DomainError):
            value_iteration(np.ones((2, 2, 3)), np.ones(2), 0.9)
        with pytest.raises(DomainError):
            value_iteration(np.ones((2, 2, 2)), np.ones(2), 0.9)  # rows sum 2
        with pytest.raises(DomainError):
            value_iteration(np.full((1, 2, 2), 0.5), np.ones(2), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.floats(min_value=0.0, max_value=2.0))
    def test_reward_shift_moves_values_affinely(self, seed, shift):
        # Adding a constant to every reward raises U by shift/(1-gamma)
        # and leaves the greedy policy's argmax structure unchanged.
        rng = np.random.default_rng(seed)
        tm = rng.dirichlet(np.ones(3), size=(2, 3))
        r = rng.uniform(0, 1, 3)
        gamma = 0.7
        u1, p1 = value_iteration(tm, r, gamma)
        u2, p2 = value_iteration(tm, r + shift, gamma)
        assert np.allclose(u2, u1 + shift / (1 - gamma), atol=1e-6)
        assert (p1 == p2).all()
