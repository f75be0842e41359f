"""Baum-Welch training, canonicalization and cross-validated prediction."""

import numpy as np
import pytest

from qoehandoff.errors import DegenerateModelError, DomainError
from qoehandoff.hmm import (EmConfig, GaussianEmission, HmmModel,
                            cross_validate_folds, em_train, forward_filter,
                            predict_next_state, prediction_accuracy)
from qoehandoff.hmm.em import (REL_TOL, SCREEN_ITERATIONS, _lockstep_em,
                               _restart_starts, state_band_map)
from qoehandoff.hmm.model import VARIANCE_FLOOR
from qoehandoff.qoe_model import CONGESTION_SCHEME, ROAMING_SCHEME, quantize_mos
from references import reference_log_forward_backward, sample_chain


def well_separated_model():
    return HmmModel(
        prior=np.array([0.5, 0.5]),
        transitions=np.array([[0.9, 0.1], [0.2, 0.8]]),
        emissions=(GaussianEmission(1.0, 0.01), GaussianEmission(0.0, 0.01)))


class TestEmTrain:
    def test_loglik_monotone(self):
        rng = np.random.default_rng(0)
        _, obs = sample_chain(well_separated_model(), 300, rng)
        _, report = em_train([obs], 2, EmConfig(seed=0))
        ll = report.log_likelihoods
        assert len(ll) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(ll, ll[1:]))

    def test_canonical_state_order(self):
        # State 1 must end up with the highest emission mean.
        rng = np.random.default_rng(1)
        _, obs = sample_chain(well_separated_model(), 400, rng)
        model, _ = em_train([obs], 2, EmConfig(seed=1))
        means = model.means()
        assert means[0] > means[1]

    def test_recovers_two_state_chain(self):
        rng = np.random.default_rng(2)
        true = well_separated_model()
        seqs = [sample_chain(true, 300, rng)[1] for _ in range(5)]
        model, report = em_train(seqs, 2, EmConfig(seed=2))
        assert model.means() == pytest.approx(true.means(), abs=0.02)
        assert np.abs(model.transitions - true.transitions).max() < 0.05
        assert report.converged

    def test_multiple_sequences_beat_single(self):
        # The fit must use all sequences: its log-likelihood under the data
        # cannot be below the true model's by much.
        rng = np.random.default_rng(3)
        true = well_separated_model()
        seqs = [sample_chain(true, 200, rng)[1] for _ in range(3)]
        model, _ = em_train(seqs, 2, EmConfig(seed=3))
        ll_fit = sum(forward_filter(model, s)[1] for s in seqs)
        ll_true = sum(forward_filter(true, s)[1] for s in seqs)
        assert ll_fit >= ll_true - 1.0

    def test_k1_closed_form(self):
        obs = np.array([0.1, 0.2, 0.3, 0.4])
        model, report = em_train([obs], 1)
        assert model.n_states == 1
        assert model.emissions[0].mean == pytest.approx(0.25, abs=1e-15)
        assert model.emissions[0].variance == pytest.approx(np.var(obs),
                                                            abs=1e-15)
        assert model.prior[0] == 1.0
        assert model.transitions[0, 0] == 1.0
        assert report.converged

    def test_variance_floor_applied(self):
        # Constant-ish data would otherwise collapse a variance to zero.
        obs = np.array([0.5, 0.5, 0.5, 0.5000001])
        model, _ = em_train([obs], 1)
        assert model.emissions[0].variance >= 1e-8

    def test_degenerate_data_raises(self):
        with pytest.raises(DegenerateModelError):
            em_train([np.array([0.5, 0.5, 0.5])], 2)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            em_train([], 2)
        with pytest.raises(DomainError):
            em_train([np.array([1.0])], 2)
        with pytest.raises(DomainError):
            em_train([np.array([0.1, np.inf])], 2)
        with pytest.raises(DomainError):
            em_train([np.array([0.1, 0.2])], 0)

    @pytest.mark.parametrize("field", ["max_iterations", "restarts"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_config_rejects_fewer_than_one(self, field, value):
        # 0 iterations used to end in a TypeError from the winner pick, and
        # 0 restarts to run one restart.
        with pytest.raises(DomainError, match=f"^{field} must be >= 1$"):
            EmConfig(**{field: value})

    def test_one_iteration_and_one_restart_fit(self):
        obs = np.array([0.1, 0.2, 0.15, 0.3, 0.12])
        for k in (1, 2):
            _, report = em_train([obs], k, EmConfig(max_iterations=1))
            assert report.iterations == 1
        _, report = em_train([obs], 2, EmConfig(restarts=1))
        assert report.restart_index == 0

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(4)
        _, obs = sample_chain(well_separated_model(), 200, rng)
        m1, _ = em_train([obs], 2, EmConfig(seed=7))
        m2, _ = em_train([obs], 2, EmConfig(seed=7))
        assert m1.to_text() == m2.to_text()


def reference_em(seqs, means, variances, prior, tm, cfg):
    """EM one sequence at a time through a per-sequence log-space smoother.
    Returns (ll_history, best, converged, iterations) as `run_em` does."""
    k = means.size
    history, best, prev = [], None, -np.inf
    for iteration in range(1, cfg.max_iterations + 1):
        ll = 0.0
        acc = [np.zeros(k), np.zeros((k, k)), np.zeros(k), np.zeros(k), np.zeros(k)]
        for s in seqs:
            diff = s[:, None] - means[None, :]
            flp = -0.5 * (diff * diff / variances + np.log(2.0 * np.pi * variances))
            gamma, xi_sum, seq_ll = reference_log_forward_backward(flp, prior, tm)
            ll += seq_ll
            for total, part in zip(acc, (gamma[0], xi_sum, gamma.sum(axis=0),
                                         gamma.T @ s, gamma.T @ (s * s))):
                total += part
        history.append(ll)
        if best is None or ll > best[0]:
            best = (ll, means, variances, prior, tm)
        if np.isfinite(prev) and ll - prev < REL_TOL * abs(prev):
            return history, best, True, iteration
        prev = ll
        prior_acc, xi_acc, w, wx, wxx = acc
        prior = prior_acc / prior_acc.sum()
        row = xi_acc.sum(axis=1, keepdims=True)
        tm = np.where(row > 0, xi_acc / np.where(row > 0, row, 1.0), 1.0 / k)
        means = wx / w
        variances = np.maximum(wxx / w - means * means, VARIANCE_FLOOR)
    return history, best, False, cfg.max_iterations


def three_state_model():
    return HmmModel(
        prior=np.array([0.2, 0.3, 0.5]),
        transitions=np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1],
                              [0.05, 0.15, 0.8]]),
        emissions=(GaussianEmission(0.6, 0.01), GaussianEmission(0.3, 0.01),
                   GaussianEmission(0.1, 0.005)))


class TestLockStep:
    """Lock-step EM against running each restart alone."""

    def ragged(self, seed=11):
        rng = np.random.default_rng(seed)
        return [sample_chain(three_state_model(), length, rng)[1]
                for length in (80, 101, 57, 101, 120)]

    def test_every_start_matches_per_sequence_em(self):
        # Each start is its own fit, so screening leaves every one running.
        seqs = self.ragged()
        cfg = EmConfig(seed=3, max_iterations=60)
        starts = _restart_starts(seqs, 3, cfg)
        batched = _lockstep_em(
            seqs, [(fit, range(len(seqs)), *s) for fit, s in enumerate(starts)], cfg)
        alone = [reference_em(seqs, *s, cfg) for s in starts]
        # Restarts stop at different iterations, so starts leave the batch
        # while others go on, some of them past the screening iteration.
        assert len({iters for _, _, _, iters in alone}) > 1
        assert max(iters for _, _, _, iters in alone) > SCREEN_ITERATIONS
        for (hist, best, conv, iters), (ref_hist, ref_best, ref_conv, ref_iters) \
                in zip(batched, alone):
            assert (conv, iters) == (ref_conv, ref_iters)
            np.testing.assert_allclose(hist, ref_hist, rtol=1e-12)
            for got, want in zip(best, ref_best):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    # The leader converges before the screen, at it or after it, or is a
    # later restart that runs past it. In each case, running every restart
    # to the end would pick another winner.
    @pytest.mark.parametrize("data_seed, em_seed", [(12, 5), (18, 1), (14, 0),
                                                    (15, 2)],
                             ids=["before", "at", "after", "later-restart"])
    def test_em_train_runs_the_screened_leader(self, data_seed, em_seed):
        # Brute force of the screening rule: run each restart alone to the
        # end, take the leader by the best likelihood of its first
        # SCREEN_ITERATIONS iterations (ties to the lowest restart), and
        # expect its full run.
        seqs = self.ragged(seed=data_seed)
        cfg = EmConfig(seed=em_seed)
        starts = _restart_starts(seqs, 3, cfg)
        full = [reference_em(seqs, *s, cfg) for s in starts]
        leader = max(range(len(starts)),
                     key=lambda r: (max(full[r][0][:SCREEN_ITERATIONS]), -r))
        assert leader != max(range(len(starts)), key=lambda r: (full[r][1][0], -r))
        model, report = em_train(seqs, 3, cfg)
        history, (_, means, variances, prior, tm), converged, iters = full[leader]
        assert report.restart_index == leader
        assert (report.iterations, report.converged) == (iters, converged)
        np.testing.assert_allclose(report.log_likelihoods, history, rtol=1e-12)
        order = np.argsort(-means)
        np.testing.assert_allclose(model.means(), means[order], rtol=1e-12)
        np.testing.assert_allclose(model.variances(), variances[order], rtol=1e-12)
        np.testing.assert_allclose(model.prior, prior[order], atol=1e-12)
        np.testing.assert_allclose(model.transitions, tm[np.ix_(order, order)],
                                   atol=1e-12)

    @pytest.mark.parametrize("data_seed, em_seed", [(14, 0), (18, 1)],
                             ids=["all-stopped", "some-converged"])
    def test_screening_stops_the_other_unconverged_starts(self, data_seed, em_seed):
        # Each start runs as it would alone until the screen; after it only the
        # leader goes on, and converged starts keep their result.
        seqs = self.ragged(seed=data_seed)
        cfg = EmConfig(seed=em_seed)
        starts = _restart_starts(seqs, 3, cfg)
        runs = _lockstep_em(seqs, [(0, range(len(seqs)), *s) for s in starts], cfg)
        short = EmConfig(seed=em_seed, max_iterations=SCREEN_ITERATIONS)
        screened = [reference_em(seqs, *s, short) for s in starts]
        leader = max(range(len(starts)), key=lambda r: (screened[r][1][0], -r))
        expected = [reference_em(seqs, *s, cfg) if r == leader else screened[r]
                    for r, s in enumerate(starts)]
        assert any(not conv for _, _, conv, _ in expected)
        for (hist, best, conv, iters), (ref_hist, ref_best, ref_conv, ref_iters) \
                in zip(runs, expected):
            assert (conv, iters) == (ref_conv, ref_iters)
            np.testing.assert_allclose(hist, ref_hist, rtol=1e-12)
            for got, want in zip(best, ref_best):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_tied_leader_is_the_lowest_start(self):
        # Two copies of one slow start tie at every iteration: the first
        # runs on, the second stops at the screen.
        seqs = self.ragged(seed=14)
        cfg = EmConfig(seed=0)
        start = _restart_starts(seqs, 3, cfg)[1]
        first, second = _lockstep_em(
            seqs, [(0, range(len(seqs)), *start), (0, range(len(seqs)), *start)], cfg)
        assert first[2:] == reference_em(seqs, *start, cfg)[2:]
        assert first[3] > SCREEN_ITERATIONS
        assert second[2:] == (False, SCREEN_ITERATIONS)
        assert second[0] == first[0][:SCREEN_ITERATIONS]


class TestStateBandMap:
    def test_maps_hidden_states_to_majority_band(self):
        model = well_separated_model()
        rng = np.random.default_rng(5)
        traces = []
        for _ in range(4):
            states, obs = sample_chain(model, 100, rng)
            # MOS tracks the hidden state: high-delay state -> bad band.
            mos = np.where(states == 0, 1.5, 4.5)
            traces.append((obs, mos))
        table = state_band_map(model, traces, ROAMING_SCHEME)
        assert table.shape == (2, 3)
        np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert (table.argmax(axis=1) + 1).tolist() == [1, 3]

    def test_unvisited_state_falls_back_to_canonical_order(self):
        model = well_separated_model()
        # Single trace far from state 1's mean: state 1 never MAP, and gets
        # all its mass on its canonical band, 2 of 3.
        traces = [(np.full(20, 0.0) + 1e-3 * np.arange(20), np.full(20, 4.5))]
        table = state_band_map(model, traces, ROAMING_SCHEME)
        assert table.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        # Of three states, the two never MAP take bands 1 and 2.
        traces = [(np.full(20, 0.1), np.full(20, 3.0))]
        table = state_band_map(three_state_model(), traces, ROAMING_SCHEME)
        assert table.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]


def micro_average(scores):
    return sum(c for c, _ in scores) / sum(t for _, t in scores)


class TestCrossValidation:
    def make_dataset(self, n_traces=6, length=120, seed=0):
        model = well_separated_model()
        rng = np.random.default_rng(seed)
        dataset = []
        for _ in range(n_traces):
            states, obs = sample_chain(model, length, rng)
            mos = np.where(states == 0, 1.5, 4.5)
            dataset.append((obs, mos.astype(float)))
        return dataset

    def test_every_trace_held_out_once(self):
        dataset = self.make_dataset()
        _, scores = cross_validate_folds(dataset, 3, 2, ROAMING_SCHEME,
                                         EmConfig(seed=0))
        assert len(scores) == 3
        total = sum(t for _, t in scores)
        # Each held-out trace contributes length-1 scored predictions.
        assert total == sum(len(obs) - 1 for obs, _ in dataset)

    def test_accuracy_high_on_separable_data(self):
        dataset = self.make_dataset()
        _, scores = cross_validate_folds(dataset, 2, 2, ROAMING_SCHEME,
                                         EmConfig(seed=0))
        assert micro_average(scores) > 0.75

    def test_mismatched_state_count_supported(self):
        # 2-state model scored against the 3-band scheme via its band table.
        dataset = self.make_dataset()
        _, scores = cross_validate_folds(dataset, 2, 2, ROAMING_SCHEME,
                                         EmConfig(seed=0))
        assert 0.0 <= micro_average(scores) <= 1.0

    def test_folds_match_separate_fits(self):
        # One lock-step EM over the all-data fit and all folds fits each as
        # em_train fits it alone.
        dataset = self.make_dataset(n_traces=7, seed=4)
        cfg = EmConfig(seed=2)
        (model, report), scores = cross_validate_folds(dataset, 3, 2,
                                                       ROAMING_SCHEME, cfg)
        alone_model, alone_report = em_train([obs for obs, _ in dataset], 2, cfg)
        assert model.to_text() == alone_model.to_text()
        assert report == alone_report
        expected = []
        for fold in range(3):
            train = [d for i, d in enumerate(dataset) if i % 3 != fold]
            held = [d for i, d in enumerate(dataset) if i % 3 == fold]
            model, _ = em_train([obs for obs, _ in train], 2, cfg)
            table = state_band_map(model, train, ROAMING_SCHEME)
            expected.append(prediction_accuracy(model, held, ROAMING_SCHEME, table))
        assert scores == expected

    def test_groups_hold_out_whole_runs(self):
        # Two traces per run, as train-hmm reads a two-interface scenario:
        # folds go round-robin over the runs, so both traces of a run are
        # held out together.
        dataset = self.make_dataset(n_traces=6, seed=5)
        runs = ["run000", "run000", "run001", "run001", "run002", "run002"]
        cfg = EmConfig(seed=1)
        _, scores = cross_validate_folds(dataset, 2, 2, ROAMING_SCHEME, cfg,
                                         groups=runs)
        expected = []
        for held_runs in ({"run000", "run002"}, {"run001"}):
            train = [d for d, r in zip(dataset, runs) if r not in held_runs]
            held = [d for d, r in zip(dataset, runs) if r in held_runs]
            model, _ = em_train([obs for obs, _ in train], 2, cfg)
            table = state_band_map(model, train, ROAMING_SCHEME)
            expected.append(prediction_accuracy(model, held, ROAMING_SCHEME, table))
        assert scores == expected
        with pytest.raises(DomainError, match="^4 folds need at least 4 runs, got 3$"):
            cross_validate_folds(dataset, 4, 2, ROAMING_SCHEME, groups=runs)
        with pytest.raises(DomainError, match="one key per trace"):
            cross_validate_folds(dataset, 2, 2, ROAMING_SCHEME, groups=runs[:5])

    def test_fold_bounds(self):
        dataset = self.make_dataset(n_traces=4)
        with pytest.raises(DomainError):
            cross_validate_folds(dataset, 1, 2, ROAMING_SCHEME)
        with pytest.raises(DomainError):
            cross_validate_folds(dataset, 5, 2, ROAMING_SCHEME)

    def test_prediction_accuracy_counts(self):
        model = well_separated_model()
        dataset = self.make_dataset(n_traces=1, length=50)
        correct, total = prediction_accuracy(model, dataset, ROAMING_SCHEME,
                                             band_table=np.eye(3)[[0, 2]])
        assert total == 49
        assert 0 <= correct <= total


def reference_band_map(model, traces, scheme):
    """`state_band_map` one trace and one epoch at a time: per state, the
    share of each band among the epochs it was MAP, or all the mass on its
    canonical band if it never was."""
    n_bands = scheme.state_count
    counts = [[0] * n_bands for _ in range(model.n_states)]
    for obs, mos in traces:
        beliefs, _ = forward_filter(model, obs)
        for t in range(len(obs)):
            counts[int(np.argmax(beliefs[t]))][quantize_mos(mos[t], scheme) - 1] += 1
    for s, row in enumerate(counts):
        if sum(row) == 0:
            row[max(1, n_bands - (model.n_states - 1 - s)) - 1] = 1
    return [[c / sum(row) for c in row] for row in counts]


def reference_accuracy(model, traces, scheme, table):
    """`prediction_accuracy` one trace and one epoch at a time: the band of
    highest probability under the one-step-ahead belief, ties to the
    lower band."""
    correct = total = 0
    for obs, mos in traces:
        beliefs, _ = forward_filter(model, obs)
        for t in range(len(obs) - 1):
            _, ahead = predict_next_state(model, beliefs[t])
            scores = [sum(float(ahead[s]) * table[s][b] for s in range(len(table)))
                      for b in range(len(table[0]))]
            band = scores.index(max(scores)) + 1
            correct += band == quantize_mos(mos[t + 1], scheme)
            total += 1
    return correct, total


class TestBlockScoring:
    """CV scoring filters each equal-length group of traces as one block;
    it must score like per-trace, per-epoch loops."""

    def ragged_dataset(self, seed=6):
        rng = np.random.default_rng(seed)
        model = three_state_model()
        dataset = []
        for length in (101, 1, 5, 2, 101, 57, 5, 2, 101, 1, 57, 5):
            states, obs = sample_chain(model, length, rng)
            mos = np.array([4.4, 3.5, 1.8])[states] + rng.normal(0, 0.3, length)
            dataset.append((obs, np.clip(mos, 1.0, 5.0)))
        return dataset

    @pytest.mark.parametrize("scheme", [ROAMING_SCHEME, CONGESTION_SCHEME])
    def test_scores_match_per_epoch_reference(self, scheme):
        dataset = self.ragged_dataset()
        model = three_state_model()
        table = state_band_map(model, dataset, scheme)
        assert table.tolist() == reference_band_map(model, dataset, scheme)
        drawn = np.random.default_rng(3).dirichlet(np.ones(3), size=3)
        # One-hot tables of state -> band maps, and a table with no zeros.
        for band_table in (table, np.eye(3), np.eye(3)[[2, 0, 1]], drawn):
            got = prediction_accuracy(model, dataset, scheme, band_table)
            assert got == reference_accuracy(model, dataset, scheme,
                                              band_table.tolist())
        assert got[1] == sum(len(obs) - 1 for obs, _ in dataset)

    @pytest.mark.parametrize("k", [2, 3])
    def test_cross_validation_matches_per_epoch_reference(self, k):
        dataset = self.ragged_dataset(seed=8)
        cfg = EmConfig(seed=1, max_iterations=40)
        expected = []
        for fold in range(3):
            train = [d for i, d in enumerate(dataset) if i % 3 != fold]
            held = [d for i, d in enumerate(dataset) if i % 3 == fold]
            model, _ = em_train([obs for obs, _ in train], k, cfg)
            table = reference_band_map(model, train, ROAMING_SCHEME)
            expected.append(reference_accuracy(model, held, ROAMING_SCHEME, table))
        assert cross_validate_folds(dataset, 3, k, ROAMING_SCHEME, cfg)[1] == expected
