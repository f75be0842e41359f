"""Reference computations for the benchmark's output checks.

Written apart from the program, in plain Python floats, so that a fault
in `qoehandoff` cannot hide itself by being checked against itself:

- a scaled forward filter with one-step state prediction;
- the fewest handoffs a host can make while sitting on a best-band
  interface at every epoch after the first (dynamic programme);
- handoff and realized-MOS accounting of a chosen-interface sequence.
"""

from __future__ import annotations

import math


def push(belief, transitions):
    """One-step-ahead state distribution: belief pushed through the chain."""
    n = len(belief)
    return [sum(belief[i] * transitions[i][j] for i in range(n)) for j in range(n)]


def forward_filter(prior, transitions, means, variances, obs):
    """Filtered posteriors P(state_t | obs_0..t) and the total log-evidence.

    Each step is rescaled by its largest emission density, so long traces
    cannot underflow.
    """
    n = len(prior)
    norm = [math.log(2.0 * math.pi * v) for v in variances]
    beliefs = []
    loglik = 0.0
    pred = list(prior)
    for x in obs:
        lp = [-0.5 * ((x - means[i]) ** 2 / variances[i] + norm[i]) for i in range(n)]
        m = max(lp)
        a = [pred[i] * math.exp(lp[i] - m) for i in range(n)]
        c = sum(a)
        belief = [v / c for v in a]
        loglik += math.log(c) + m
        beliefs.append(belief)
        pred = push(belief, transitions)
    return beliefs, loglik


def predict_next(belief, transitions) -> tuple[int, float]:
    """1-based argmax of the one-step prediction (ties to the lower state)
    and its lead over the runner-up, for judging float-level ties."""
    p = push(belief, transitions)
    best = max(range(len(p)), key=lambda j: (p[j], -j))
    runner_up = max((p[j] for j in range(len(p)) if j != best), default=-math.inf)
    return best + 1, p[best] - runner_up


def band(mos: float, boundaries) -> int:
    """1-based QoE band of a MOS: one more than the number of band
    boundaries at or below it (a boundary value belongs to the upper band)."""
    return 1 + sum(mos >= b for b in boundaries)


def min_handoffs(bands, start: int) -> int:
    """Fewest switches of a host attached to `start` at epoch 0 that sits on
    an interface of the highest QoE band at every later epoch.

    `bands[i][t]` is interface i's true QoE band at epoch t.
    """
    horizon = len(bands[0])
    cost = {start: 0}
    for t in range(1, horizon):
        top = max(b[t] for b in bands)
        cost = {i: min(c + (i != j) for j, c in cost.items())
                for i in range(len(bands)) if bands[i][t] == top}
    return min(cost.values())


def on_best_band(bands, path) -> bool:
    """Whether `path` sits on a highest-band interface at every epoch >= 1."""
    return all(bands[path[t]][t] == max(b[t] for b in bands)
               for t in range(1, len(path)))


def account(mos, path, penalty: float) -> tuple[int, float]:
    """(handoffs, summed realized MOS) of an interface sequence.

    Epoch 0 is the initial attachment. A later epoch that switches
    interface pays `penalty` MOS, floored at 1.0.
    """
    handoffs = 0
    total = float(mos[path[0]][0])
    for t in range(1, len(path)):
        value = float(mos[path[t]][t])
        if path[t] != path[t - 1]:
            handoffs += 1
            value = max(value - penalty, 1.0)
        total += value
    return handoffs, total
