"""The benchmark's reference computations against brute-force enumeration
on short inputs.

Run with:  python3 -m pytest -q perfbench/test_bench_reference.py
"""

import itertools
import math
import random

import pytest

import reference as ref


def _random_chain(rng, n):
    def simplex():
        w = [rng.random() + 0.05 for _ in range(n)]
        return [v / sum(w) for v in w]
    prior = simplex()
    transitions = [simplex() for _ in range(n)]
    means = sorted((rng.uniform(0.0, 1.0) for _ in range(n)), reverse=True)
    variances = [rng.uniform(0.005, 0.1) for _ in range(n)]
    return prior, transitions, means, variances


def _density(x, mean, var):
    return math.exp(-(x - mean) ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _path_weights(prior, transitions, means, variances, obs):
    """Joint density of every state path with the observations."""
    n = len(prior)
    for path in itertools.product(range(n), repeat=len(obs)):
        w = prior[path[0]]
        for t, s in enumerate(path):
            if t:
                w *= transitions[path[t - 1]][s]
            w *= _density(obs[t], means[s], variances[s])
        yield path, w


@pytest.mark.parametrize("case", range(20))
def test_forward_filter_matches_path_enumeration(case):
    rng = random.Random(case)
    n = rng.choice([2, 3])
    chain = _random_chain(rng, n)
    obs = [rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 5))]
    beliefs, loglik = ref.forward_filter(*chain, obs)

    total = sum(w for _, w in _path_weights(*chain, obs))
    assert loglik == pytest.approx(math.log(total), abs=1e-9)
    for t in range(len(obs)):
        # P(state_t | obs_0..t): enumerate paths over the prefix only.
        prefix = list(_path_weights(*chain, obs[:t + 1]))
        z = sum(w for _, w in prefix)
        for s in range(n):
            brute = sum(w for p, w in prefix if p[-1] == s) / z
            assert beliefs[t][s] == pytest.approx(brute, abs=1e-9)


@pytest.mark.parametrize("case", range(20))
def test_one_step_prediction_matches_path_enumeration(case):
    rng = random.Random(100 + case)
    n = rng.choice([2, 3])
    prior, transitions, means, variances = _random_chain(rng, n)
    obs = [rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 4))]
    beliefs, _ = ref.forward_filter(prior, transitions, means, variances, obs)
    state, lead = ref.predict_next(beliefs[-1], transitions)

    # P(state_{T} | obs_0..T-1) over paths one step longer than the data.
    weights = [0.0] * n
    for path, w in _path_weights(prior, transitions, means, variances, obs):
        for s in range(n):
            weights[s] += w * transitions[path[-1]][s]
    z = sum(weights)
    brute = [w / z for w in weights]
    assert state == brute.index(max(brute)) + 1
    assert lead == pytest.approx(max(brute) - sorted(brute)[-2], abs=1e-9)


def test_prediction_ties_go_to_lower_state():
    assert ref.predict_next([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]]) == (1, 0.0)


def _brute_min_handoffs(bands, start):
    horizon = len(bands[0])
    best_sets = [[i for i in range(len(bands))
                  if bands[i][t] == max(b[t] for b in bands)]
                 for t in range(1, horizon)]
    return min(sum(a != b for a, b in zip((start,) + tail, tail))
               for tail in itertools.product(*best_sets))


@pytest.mark.parametrize("case", range(60))
def test_min_handoffs_matches_enumeration(case):
    rng = random.Random(200 + case)
    n_if = rng.choice([2, 3])
    horizon = rng.randint(1, 7)
    bands = [[rng.randint(1, 3) for _ in range(horizon)] for _ in range(n_if)]
    start = rng.randrange(n_if)
    assert ref.min_handoffs(bands, start) == _brute_min_handoffs(bands, start)


def test_first_epoch_is_free():
    # Interface 1 is better at epoch 0 only: a host that starts on 0 stays.
    assert ref.min_handoffs([[1, 3, 3], [3, 3, 3]], start=0) == 0
    assert ref.on_best_band([[1, 3, 3], [3, 3, 3]], [0, 0, 0])
    assert not ref.on_best_band([[3, 1], [3, 3]], [0, 0])


@pytest.mark.parametrize("case", range(20))
def test_account_matches_per_epoch_enumeration(case):
    rng = random.Random(300 + case)
    n_if, horizon, penalty = 2, rng.randint(1, 8), rng.choice([0.0, 0.3, 1.0])
    mos = [[rng.choice([1.0, 1.2, 2.5, 4.4]) for _ in range(horizon)]
           for _ in range(n_if)]
    path = [rng.randrange(n_if) for _ in range(horizon)]
    switches = [t for t in range(1, horizon) if path[t] != path[t - 1]]
    expected = sum(max(mos[path[t]][t] - penalty, 1.0) if t in switches
                   else mos[path[t]][t] for t in range(horizon))
    handoffs, total = ref.account(mos, path, penalty)
    assert handoffs == len(switches)
    assert total == pytest.approx(expected, abs=1e-12)


def test_account_floors_penalised_mos_at_one():
    assert ref.account([[4.0, 4.0], [1.1, 1.1]], [0, 1], 0.3) == (1, 5.0)


def test_band_boundaries_belong_to_upper_band():
    assert [ref.band(m, (2.0, 3.0)) for m in (1.0, 1.99, 2.0, 2.5, 3.0, 5.0)] == \
        [1, 1, 2, 2, 3, 3]
