"""Simulator determinism, chain statistics and environment stepping."""

import numpy as np
import pytest

from qoehandoff.errors import DomainError
from qoehandoff.netsim import (MIN_DELAY_S, ChannelModel,
                               ScenarioConfig, _sample_chains,
                               congestion_scenario, congestion_wlan_g711_model,
                               generate_run, generate_runs,
                               roaming_cdma_g729_model, roaming_scenario,
                               roaming_wlan_g729_model, step_environment)
from qoehandoff.probing import RnlEstimator
from qoehandoff.qoe_model import quantize_mos
from references import reference_run


def stationary_distribution(tm):
    """Left eigenvector of the transition matrix for eigenvalue 1."""
    values, vectors = np.linalg.eig(tm.T)
    idx = np.argmin(np.abs(values - 1.0))
    pi = np.real(vectors[:, idx])
    return pi / pi.sum()


class TestGroundTruthModels:
    def test_rows_are_stochastic(self):
        for model in (congestion_wlan_g711_model(), roaming_wlan_g729_model(),
                      roaming_cdma_g729_model()):
            assert np.allclose(model.transitions.sum(axis=1), 1.0, atol=1e-12)
            assert np.isclose(model.prior.sum(), 1.0)

    def test_states_ordered_by_descending_mean(self):
        for model in (congestion_wlan_g711_model(), roaming_wlan_g729_model(),
                      roaming_cdma_g729_model()):
            means = model.means()
            assert all(b < a for a, b in zip(means, means[1:]))

    def test_published_values_survive_renormalization(self):
        # Rounded rows are renormalized; entries move by less than 1e-4.
        model = roaming_cdma_g729_model()
        published = np.array([[0.7852, 0.1333, 0.0815],
                              [0.1111, 0.8148, 0.0741],
                              [0.0696, 0.0435, 0.8870]])
        assert np.abs(model.transitions - published).max() < 1e-4


class TestGenerateRun:
    def test_deterministic_per_seed_and_index(self):
        cfg = roaming_scenario(seed=3, runs=2, duration_epochs=40)
        a = generate_run(cfg, 0)
        b = generate_run(cfg, 0)
        c = generate_run(cfg, 1)
        assert np.array_equal(a.delays_s[0], b.delays_s[0])
        assert not np.array_equal(a.delays_s[0], c.delays_s[0])

    def test_shapes_and_floors(self):
        cfg = roaming_scenario(seed=0, runs=1, duration_epochs=64)
        run = generate_run(cfg, 0)
        assert run.n_interfaces == 2
        assert run.duration == 64
        for d in run.delays_s:
            assert (d >= MIN_DELAY_S).all()

    def test_states_consistent_with_mos(self):
        cfg = roaming_scenario(seed=1, runs=1, duration_epochs=50)
        run = generate_run(cfg, 0)
        for mos, states in zip(run.mos, run.states):
            expected = [quantize_mos(m, cfg.scheme) for m in mos]
            assert states.tolist() == expected

    def test_congestion_occupancy_matches_stationary(self):
        # Long-run state occupancy of the sampled hidden chain should sit
        # near the analytic stationary distribution of the transition
        # matrix (left eigenvector for eigenvalue 1).
        model = congestion_wlan_g711_model()
        pi = stationary_distribution(model.transitions)
        rng = np.random.default_rng(0)
        (states,) = _sample_chains(model, rng.random((1, 10_000)))
        counts = np.bincount(states, minlength=3) / states.size
        assert np.abs(counts - pi).max() < 0.03

    def test_congestion_mean_mos_in_calibrated_band(self):
        cfg = congestion_scenario(seed=0, runs=1, duration_epochs=5000)
        run = generate_run(cfg, 0)
        assert 1.8 <= run.mos[0].mean() <= 2.4

    def test_roaming_regimes_alternate_dominance(self):
        # Over a long horizon the WLAN spends time both in and out of
        # coverage, so its band sequence must take both extremes.
        cfg = roaming_scenario(seed=0, runs=1, duration_epochs=2000)
        run = generate_run(cfg, 0)
        wlan_bands = set(run.states[0].tolist())
        assert 1 in wlan_bands and 3 in wlan_bands


class TestMatchesStepwiseReference:
    @pytest.mark.parametrize("make", [roaming_scenario, congestion_scenario])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_arrays_equal_stepwise_draws(self, make, seed):
        cfg = make(seed=seed, runs=4, duration_epochs=60)
        for r in range(4):
            run = generate_run(cfg, r)
            for i, (delay, mos, state) in enumerate(reference_run(cfg, r)):
                assert run.delays_s[i].tolist() == delay
                assert run.mos[i].tolist() == mos
                assert run.states[i].tolist() == state


class TestGenerateRuns:
    """A block is its runs generated one by one: each run draws from its
    own streams, so no output depends on the block it was generated in."""

    @pytest.mark.parametrize("make", [roaming_scenario, congestion_scenario])
    @pytest.mark.parametrize("indices", [[3], list(range(16)), list(range(17)),
                                         [5, 0, 20_000]])
    def test_rows_equal_stepwise_draws(self, make, indices):
        # A block holds no QoE bands; the one-run view quantizes its MOS.
        cfg = make(seed=2, runs=1, duration_epochs=30)
        block = generate_runs(cfg, indices)
        n_if = len(cfg.channels)
        assert block.delays_s.shape == (len(indices), n_if, 30)
        assert block.mos.shape == block.delays_s.shape
        assert block.run_indices == tuple(indices)
        for b, r in enumerate(indices):
            alone = generate_run(cfg, r)
            for i, (delay, mos, state) in enumerate(reference_run(cfg, r)):
                assert block.delays_s[b, i].tolist() == delay
                assert block.mos[b, i].tolist() == mos
                assert alone.states[i].tolist() == state
            for name in ("delays_s", "mos"):
                assert getattr(block, name)[b].tolist() == getattr(alone, name).tolist()

    @pytest.mark.parametrize("make", [roaming_scenario, congestion_scenario])
    def test_empty_block(self, make):
        cfg = make(duration_epochs=12)
        block = generate_runs(cfg, [])
        assert block.run_indices == ()
        for array in (block.delays_s, block.mos):
            assert array.shape == (0, len(cfg.channels), 12)


class TestStepEnvironment:
    def make_run(self):
        cfg = roaming_scenario(seed=5, runs=1, duration_epochs=30)
        return generate_run(cfg, 0)

    def test_stay_returns_true_mos(self):
        run = self.make_run()
        step = step_environment(run, 3, current=0, action=0,
                                handoff_penalty_mos=0.3)
        assert not step.handoff_occurred
        assert step.realized_mos == float(run.mos[0][3])
        assert step.handoff_penalty_mos == 0.0

    def test_switch_pays_penalty(self):
        run = self.make_run()
        step = step_environment(run, 3, current=0, action=1,
                                handoff_penalty_mos=0.3)
        assert step.handoff_occurred
        expected = max(float(run.mos[1][3]) - 0.3, 1.0)
        assert step.realized_mos == expected
        assert step.handoff_penalty_mos == 0.3

    def test_penalty_floored_at_mos_min(self):
        run = self.make_run()
        epoch = int(np.argmin(run.mos[1]))
        step = step_environment(run, epoch, current=0, action=1,
                                handoff_penalty_mos=1.0)
        assert step.realized_mos >= 1.0

    def test_probes_cover_all_interfaces(self):
        # Probing is multi-homed and always on: every epoch observes every
        # interface, and a lossless probe carries the epoch's delay sample,
        # so each interface's load estimate follows its own delays. One
        # estimator over the block's (run, interface) slabs keeps, element
        # by element, the estimate of a scalar estimator of that pair.
        cfg = roaming_scenario(seed=5, runs=3, duration_epochs=30)
        block = generate_runs(cfg, range(3))
        load = RnlEstimator()
        scalar = [[RnlEstimator() for _ in run] for run in block.delays_s]
        for t in range(cfg.duration_epochs):
            load.update(block.delays_s[:, :, t])
            assert load.rnl.shape == (3, len(cfg.channels))
            for b, estimators in enumerate(scalar):
                for i, estimator in enumerate(estimators):
                    estimator.update(float(block.delays_s[b, i, t]))
                    assert load.rnl[b, i] == estimator.rnl
                    assert load.initialized == estimator.initialized

    def test_bounds_checked(self):
        run = self.make_run()
        with pytest.raises(DomainError):
            step_environment(run, run.duration, 0, 0, 0.3)
        with pytest.raises(DomainError):
            step_environment(run, 0, 0, 5, 0.3)


class TestScenarioValidation:
    def test_loss_vector_must_match_states(self):
        with pytest.raises(DomainError):
            ChannelModel(generator=roaming_wlan_g729_model(),
                         loss_per_state=(0.0,), label="x")

    def test_duration_and_runs_bounds(self):
        with pytest.raises(DomainError):
            roaming_scenario(duration_epochs=1)
        with pytest.raises(DomainError):
            roaming_scenario(runs=0)

    @pytest.mark.parametrize("dwell", [0.0, 0.5, -3.0, float("nan")])
    def test_dwell_mean_is_at_least_one_epoch(self, dwell):
        with pytest.raises(DomainError):
            roaming_scenario(dwell_mean_epochs=dwell)
        roaming_scenario(dwell_mean_epochs=1.0)

    def test_unknown_kind_rejected(self):
        wlan = ChannelModel(generator=roaming_wlan_g729_model(),
                            loss_per_state=(0.0, 0.0), label="WLAN")
        with pytest.raises(DomainError):
            ScenarioConfig(kind="mesh", duration_epochs=10, runs=1, seed=0,
                           codec=congestion_scenario().codec,
                           channels=(wlan,),
                           scheme=congestion_scenario().scheme)
