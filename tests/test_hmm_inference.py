"""Forward filtering against independent oracles, batched kernels against
a per-sequence reference, and one-step prediction."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qoehandoff.errors import DomainError, ZeroProbabilityError
from qoehandoff.hmm import (GaussianEmission, HmmModel, forward_filter,
                            predict_belief, predict_next_bands,
                            predict_next_state)
from qoehandoff.hmm import _kernels_py
from qoehandoff.hmm.em import _Pool, _e_step
from qoehandoff.hmm.model import VARIANCE_FLOOR
from references import reference_forward, reference_forward_backward


def random_model(rng, n):
    prior = rng.dirichlet(np.ones(n))
    tm = rng.dirichlet(np.ones(n), size=n)
    means = np.sort(rng.uniform(0.0, 1.0, n))[::-1]
    variances = rng.uniform(0.005, 0.1, n)
    return HmmModel(prior, tm,
                    tuple(GaussianEmission(float(m), float(v))
                          for m, v in zip(means, variances)))


def enumerate_posteriors(model, obs):
    """Brute-force filtered posteriors by summing over all state paths."""
    n = model.n_states
    dens = np.exp(model.frame_log_likelihood(obs))
    posts = []
    for t in range(len(obs)):
        post = np.zeros(n)
        for path in itertools.product(range(n), repeat=t + 1):
            p = model.prior[path[0]] * dens[0, path[0]]
            for u in range(1, t + 1):
                p *= model.transitions[path[u - 1], path[u]] * dens[u, path[u]]
            post[path[t]] += p
        posts.append(post / post.sum())
    return np.array(posts)


def enumerate_log_evidence(model, obs):
    n = model.n_states
    dens = np.exp(model.frame_log_likelihood(obs))
    total = 0.0
    for path in itertools.product(range(n), repeat=len(obs)):
        p = model.prior[path[0]] * dens[0, path[0]]
        for u in range(1, len(obs)):
            p *= model.transitions[path[u - 1], path[u]] * dens[u, path[u]]
        total += p
    return np.log(total)


class TestForwardFilterOracle:
    @pytest.mark.parametrize("n,length", [(n, t) for n in (2, 3)
                                          for t in range(1, 7)])
    def test_matches_path_enumeration(self, n, length):
        rng = np.random.default_rng(100 * n + length)
        model = random_model(rng, n)
        obs = rng.uniform(0.0, 1.0, length)
        beliefs, logev = forward_filter(model, obs)
        assert np.abs(beliefs - enumerate_posteriors(model, obs)).max() <= 1e-9
        assert logev == pytest.approx(enumerate_log_evidence(model, obs),
                                      abs=1e-9)

    def test_beliefs_normalized(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3)
        beliefs, _ = forward_filter(model, rng.uniform(0, 1, 50))
        assert np.allclose(beliefs.sum(axis=1), 1.0, atol=1e-12)
        assert (beliefs >= 0).all()

    def test_zero_predicted_mass_raises(self):
        # The chain starts in and never leaves state 2, whose density at
        # 1.0 underflows to zero: no state can explain the observation.
        model = HmmModel(
            prior=np.array([0.0, 1.0]),
            transitions=np.eye(2),
            emissions=(GaussianEmission(1.0, 1e-8), GaussianEmission(0.0, 1e-8)))
        with pytest.raises(DomainError, match="observation 0"):
            forward_filter(model, np.array([1.0]))

    def test_block_rows_equal_single_sequence_calls(self):
        rng = np.random.default_rng(11)
        for n in (2, 3):
            model = random_model(rng, n)
            block = rng.uniform(0.0, 1.0, (7, 25))
            beliefs, logev = forward_filter(model, block)
            assert beliefs.shape == (7, 25, n) and logev.shape == (7,)
            for row, obs in enumerate(block):
                one, one_logev = forward_filter(model, obs)
                assert np.array_equal(beliefs[row], one)
                # The per-step log normalizers are summed in a different
                # order for a block than for one row.
                assert logev[row] == pytest.approx(one_logev, rel=1e-13)

    def test_zero_mass_row_is_named(self):
        model = HmmModel(
            prior=np.array([0.0, 1.0]),
            transitions=np.eye(2),
            emissions=(GaussianEmission(1.0, 1e-8), GaussianEmission(0.0, 1e-8)))
        block = np.zeros((3, 4))
        block[1, 2] = 1.0
        with pytest.raises(DomainError, match="row 1, observation 2"):
            forward_filter(model, block)

    def test_rejects_higher_rank_blocks(self):
        model = random_model(np.random.default_rng(0), 2)
        with pytest.raises(DomainError):
            forward_filter(model, np.zeros((2, 3, 4)))


def brute_log_evidence(flp, prior, tm):
    T, n = flp.shape
    dens = np.exp(flp)
    total = 0.0
    for path in itertools.product(range(n), repeat=T):
        p = prior[path[0]] * dens[0, path[0]]
        for u in range(1, T):
            p *= tm[path[u - 1], path[u]] * dens[u, path[u]]
        total += p
    return np.log(total)


def random_batch(seed, rows, length, n):
    """Emission log-densities (rows, length, n) with a prior and a
    transition matrix per row; `forward` uses row 0's for every row."""
    rng = np.random.default_rng(seed)
    flp = rng.normal(0.0, 3.0, (rows, length, n))
    prior = rng.dirichlet(np.ones(n), size=rows)
    tm = rng.dirichlet(np.ones(n), size=(rows, n))
    return flp, prior, tm


batches = st.tuples(st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
                    st.integers(1, 25), st.integers(2, 4))


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestBatchedKernels:
    @settings(max_examples=60, deadline=None)
    @given(batches)
    def test_rows_match_per_sequence_reference(self, batch):
        flp, prior, tm = random_batch(*batch)
        filtered, logev = _kernels_py.forward(flp, prior[0], tm[0])
        gamma, xi_sum, loglik = _kernels_py.forward_backward(flp, prior, tm)
        for r in range(flp.shape[0]):
            ref_filtered, ref_logev = reference_forward(flp[r], prior[0], tm[0])
            ref_gamma, ref_xi, ref_loglik = reference_forward_backward(
                flp[r], prior[r], tm[r])
            close(filtered[r], ref_filtered)
            close(logev[r], ref_logev)
            close(gamma[r], ref_gamma)
            close(xi_sum[r], ref_xi)
            close(loglik[r], ref_loglik)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1),
           st.lists(st.integers(2, 15), min_size=1, max_size=6),
           st.integers(2, 3))
    def test_ragged_e_step_matches_per_sequence_reference(self, seed, lengths, n):
        # Rows of several lengths, each under its own start's parameters.
        rng = np.random.default_rng(seed)
        seqs = [rng.uniform(0.0, 1.0, size) for size in lengths]
        starts = 2
        means = rng.uniform(0.0, 1.0, (starts, n))
        variances = rng.uniform(0.01, 0.1, (starts, n))
        prior = rng.dirichlet(np.ones(n), size=starts)
        tm = rng.dirichlet(np.ones(n), size=(starts, n))
        row_start = np.repeat(np.arange(starts), len(seqs))
        row_seq = np.tile(np.arange(len(seqs)), starts)
        ll, gamma0, xi, w, wx, wxx = _e_step(
            _Pool(seqs), row_start, row_seq, means, variances, prior, tm)
        for r, (j, i) in enumerate(zip(row_start, row_seq)):
            model = HmmModel(prior[j], tm[j],
                             tuple(GaussianEmission(float(mu), float(v))
                                   for mu, v in zip(means[j], variances[j])))
            x = seqs[i]
            gamma, ref_xi, ref_ll = reference_forward_backward(
                model.frame_log_likelihood(x), prior[j], tm[j])
            close(ll[r], ref_ll)
            close(gamma0[r], gamma[0])
            close(xi[r], ref_xi)
            close(w[r], gamma.sum(axis=0))
            close(wx[r], gamma.T @ x)
            close(wxx[r], gamma.T @ (x * x))

    @settings(max_examples=60, deadline=None)
    @given(batches)
    def test_posteriors_are_probability_vectors(self, batch):
        flp, prior, tm = random_batch(*batch)
        filtered, _ = _kernels_py.forward(flp, prior[0], tm[0])
        gamma, _, _ = _kernels_py.forward_backward(flp, prior, tm)
        for post in (filtered, gamma):
            assert np.isfinite(post).all()
            assert (post >= 0).all()
            assert np.abs(post.sum(axis=2) - 1.0).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(batches)
    def test_xi_sum_totals_transition_count(self, batch):
        flp, prior, tm = random_batch(*batch)
        _, xi_sum, _ = _kernels_py.forward_backward(flp, prior, tm)
        length = flp.shape[1]
        assert np.abs(xi_sum.sum(axis=(1, 2)) - (length - 1)).max() <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(st.integers(0, 2 ** 31 - 1), st.integers(1, 3),
                     st.integers(1, 6), st.integers(2, 3)))
    def test_log_evidence_matches_path_enumeration(self, batch):
        flp, prior, tm = random_batch(*batch)
        _, logev = _kernels_py.forward(flp, prior[0], tm[0])
        _, _, loglik = _kernels_py.forward_backward(flp, prior, tm)
        for r in range(flp.shape[0]):
            assert logev[r] == pytest.approx(
                brute_log_evidence(flp[r], prior[0], tm[0]), abs=1e-9)
            assert loglik[r] == pytest.approx(
                brute_log_evidence(flp[r], prior[r], tm[r]), abs=1e-9)


@st.composite
def sparse_filter_cases(draw):
    """A model with zero entries in its prior and transition rows and
    variances down to VARIANCE_FLOOR, and observations (T,) or (B, T)
    drawn both near its means and anywhere in the delay range."""
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    support = st.lists(st.booleans(), min_size=n, max_size=n).filter(any)

    def stochastic(mask):
        weights = rng.uniform(0.01, 1.0, n) * np.array(mask)
        return weights / weights.sum()

    prior = stochastic(draw(support))
    tm = np.array([stochastic(draw(support)) for _ in range(n)])
    variances = draw(st.lists(
        st.sampled_from([VARIANCE_FLOOR, 1e-6, 1e-4, 1e-2, 0.1]),
        min_size=n, max_size=n))
    means = rng.uniform(0.0, 1.0, n)
    model = HmmModel(prior, tm, tuple(GaussianEmission(float(m), v)
                                      for m, v in zip(means, variances)))
    shape = draw(st.one_of(st.tuples(st.integers(1, 30)),
                           st.tuples(st.integers(1, 4), st.integers(1, 30))))
    near = means[rng.integers(0, n, shape)] + \
        rng.normal(0.0, 1.0, shape) * np.sqrt(VARIANCE_FLOOR)
    anywhere = rng.uniform(-0.2, 1.2, shape)
    obs = np.where(rng.random(shape) < draw(st.floats(0.0, 1.0)), near, anywhere)
    return model, obs


class TestSparseModels:
    @settings(max_examples=200, deadline=None)
    @given(sparse_filter_cases())
    def test_filter_is_defined_or_raises(self, case):
        # Zero prior or transition entries and floor variances either give
        # probability vectors with a finite evidence or a named
        # zero-probability step, never NaN.
        model, obs = case
        try:
            beliefs, logev = forward_filter(model, obs)
        except ZeroProbabilityError as exc:
            assert 0 <= exc.observation < obs.shape[-1]
            assert exc.row is None if obs.ndim == 1 else 0 <= exc.row < obs.shape[0]
            return
        assert beliefs.shape == obs.shape + (model.n_states,)
        assert np.isfinite(beliefs).all()
        assert (beliefs >= 0).all()
        assert np.abs(beliefs.sum(axis=-1) - 1.0).max() <= 1e-9
        assert np.isfinite(logev).all()


class TestPrediction:
    def test_predict_belief_is_chain_push(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3)
        belief = np.array([0.5, 0.3, 0.2])
        expected = belief @ model.transitions
        assert np.allclose(predict_belief(model, belief), expected, atol=1e-15)

    def test_predict_next_state_is_one_based_map(self):
        model = HmmModel(
            prior=np.array([0.5, 0.5]),
            transitions=np.array([[0.0, 1.0], [1.0, 0.0]]),
            emissions=(GaussianEmission(1.0, 0.01), GaussianEmission(0.0, 0.01)))
        state, predicted = predict_next_state(model, np.array([1.0, 0.0]))
        assert state == 2
        assert np.allclose(predicted, [0.0, 1.0])

    def test_tie_prefers_lower_state(self):
        model = HmmModel(
            prior=np.array([0.5, 0.5]),
            transitions=np.array([[0.5, 0.5], [0.5, 0.5]]),
            emissions=(GaussianEmission(1.0, 0.01), GaussianEmission(0.0, 0.01)))
        state, _ = predict_next_state(model, np.array([0.5, 0.5]))
        assert state == 1

    def test_rejects_invalid_belief(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 2)
        with pytest.raises(DomainError):
            predict_belief(model, np.array([0.7, 0.7]))
        with pytest.raises(DomainError):
            predict_belief(model, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_equals_per_belief_calls(self, n):
        # Under the identity table each state is its own band.
        rng = np.random.default_rng(n)
        model = random_model(rng, n)
        beliefs = rng.dirichlet(np.ones(n), size=(4, 7))
        states = predict_next_bands(model, beliefs, np.eye(n))
        assert states.shape == (4, 7)
        expected = [[predict_next_state(model, b)[0] for b in row] for row in beliefs]
        assert states.tolist() == expected
        assert predict_next_bands(model, beliefs[0, 0], np.eye(n)) == expected[0][0]

    @pytest.mark.parametrize("tm", [
        [[0.7, 0.3], [0.3, 0.7]],
        # Symmetric circulant: every column holds the same dyadic entries.
        [[0.5, 0.125, 0.25, 0.125], [0.125, 0.5, 0.125, 0.25],
         [0.25, 0.125, 0.5, 0.125], [0.125, 0.25, 0.125, 0.5]],
    ])
    def test_block_ties_prefer_lower_state(self, tm):
        n = len(tm)
        model = HmmModel(np.full(n, 1.0 / n), np.array(tm),
                         tuple(GaussianEmission(float(n - i), 0.01)
                               for i in range(n)))
        uniform = np.full((3, 5, n), 1.0 / n)
        assert (predict_next_bands(model, uniform, np.eye(n)) == 1).all()
        assert predict_next_state(model, uniform[0, 0])[0] == 1

    @pytest.mark.parametrize("bad", [
        [[0.5, 0.5], [1.2, -0.2]],         # a negative entry
        [[0.5, 0.5], [0.6, 0.6]],          # a row summing to 1.2
        [[0.5, 0.5], [np.nan, 0.5]],       # a NaN
        [[1 / 3, 1 / 3, 1 / 3]],           # wrong state count
        0.5,                               # no state axis
    ])
    def test_block_rejects_invalid_beliefs(self, bad):
        model = random_model(np.random.default_rng(2), 2)
        with pytest.raises(DomainError):
            predict_next_bands(model, bad, np.eye(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_log_evidence_invariant_to_observation_scale_shift(self, seed):
        # Shifting both the observations and the emission means by the same
        # constant leaves the whole inference problem unchanged.
        rng = np.random.default_rng(seed)
        model = random_model(rng, 2)
        obs = rng.uniform(0, 1, 20)
        shift = 3.5
        shifted = HmmModel(
            model.prior, model.transitions,
            tuple(GaussianEmission(e.mean + shift, e.variance)
                  for e in model.emissions))
        b1, ll1 = forward_filter(model, obs)
        b2, ll2 = forward_filter(shifted, obs + shift)
        assert np.abs(b1 - b2).max() <= 1e-9
        assert ll1 == pytest.approx(ll2, abs=1e-7)


class TestBandPrediction:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_hot_table_of_a_permutation_maps_the_map_state(self, n):
        # One band per state: the predicted band is the MAP next state's.
        rng = np.random.default_rng(10 + n)
        model = random_model(rng, n)
        beliefs = rng.dirichlet(np.ones(n), size=(4, 7))
        order = rng.permutation(n)
        bands = predict_next_bands(model, beliefs, np.eye(n)[order])
        states = np.array([[predict_next_state(model, b)[0] for b in row]
                           for row in beliefs])
        assert bands.tolist() == (order[states - 1] + 1).tolist()

    def test_band_mass_adds_over_states(self):
        # States 2 and 3 share band 2: together they outweigh state 1, the
        # MAP next state, so band 2 is predicted.
        model = HmmModel(np.full(3, 1.0 / 3), np.eye(3),
                         tuple(GaussianEmission(float(3 - i), 0.01)
                               for i in range(3)))
        belief = np.array([0.4, 0.35, 0.25])
        assert predict_next_state(model, belief)[0] == 1
        table = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        assert predict_next_bands(model, belief, table) == 2
        # Equal band mass ties to the lower band.
        assert predict_next_bands(model, np.array([0.5, 0.25, 0.25]), table) == 1

    @pytest.mark.parametrize("table", [np.eye(3), np.ones(2), np.ones((2, 3, 1))])
    def test_table_needs_one_row_per_state(self, table):
        model = random_model(np.random.default_rng(2), 2)
        with pytest.raises(DomainError, match="one row per state"):
            predict_next_bands(model, np.array([0.5, 0.5]), table)
