"""Plain-Python references the tests check the package against: the
per-sample MOS chain, per-run stepwise generation, per-sequence scaled
filtering, per-sequence log-space filtering and forward-backward,
one-start EM, the pure load update, brute-force minimal handoffs, the
per-run oracle loop and a trace writer that formats value by value.
Nothing the commands run lives here."""

import bisect
import copy
import csv
import io
import itertools

import numpy as np

from qoehandoff.hmm.em import _lockstep_em
from qoehandoff.hmm.inference import predict_belief
from qoehandoff.netsim import MIN_DELAY_S, ROAMING
from qoehandoff.qoe_model import DELAY_KNEE_S, MOS_MAX, MOS_MIN, R0
from qoehandoff.trace_io import HEADER


def reference_mos(owd_s, loss_fraction, codec):
    """The MOS chain for one sample, in Python floats with min/max clamps."""
    d_ms = owd_s * 1000.0
    delay_impairment = 0.024 * d_ms
    if owd_s > DELAY_KNEE_S:
        delay_impairment += 0.11 * (d_ms - DELAY_KNEE_S * 1000.0)
    ie = codec.equipment_impairment
    loss_impairment = ie + (95.0 - ie) * loss_fraction / (loss_fraction
                                                         + codec.loss_robustness)
    r = min(max(R0 - delay_impairment - loss_impairment, 0.0), 100.0)
    mos = 1.0 + 0.035 * r + 7e-6 * r * (r - 60.0) * (100.0 - r)
    return min(max(mos, MOS_MIN), MOS_MAX)


def reference_band(mos, scheme):
    """The band of one MOS value by `bisect_right` over the boundaries."""
    return bisect.bisect_right(scheme.boundaries, min(max(mos, MOS_MIN), MOS_MAX)) + 1


def sample_chain(model, horizon, rng):
    """A state path drawn with one `rng.choice` per step, and its Gaussian
    observations."""
    states = np.empty(horizon, dtype=int)
    states[0] = rng.choice(model.n_states, p=model.prior)
    for t in range(1, horizon):
        states[t] = rng.choice(model.n_states, p=model.transitions[states[t - 1]])
    obs = rng.normal(model.means()[states], np.sqrt(model.variances()[states]))
    return states, obs


def reference_run(cfg, run_index):
    """`generate_run` step by step: one `rng.choice` per chain step, one
    regime flip per epoch, and the MOS chain and band of each sample."""
    horizon = cfg.duration_epochs
    regime = None
    if cfg.kind == ROAMING:
        rng = np.random.default_rng([cfg.seed, run_index, 0xFF])
        flips = rng.random(horizon) < 1.0 / cfg.dwell_mean_epochs
        regime = [0]
        for t in range(1, horizon):
            regime.append(1 - regime[-1] if flips[t] else regime[-1])
    columns = []
    for ci, channel in enumerate(cfg.channels):
        rng = np.random.default_rng([cfg.seed, run_index, ci])
        gen = channel.generator
        if regime is not None and channel.regime_states is not None:
            dominant, recessive = channel.regime_states
            hidden = [dominant - 1 if r == ci else recessive - 1 for r in regime]
        else:
            hidden = [int(rng.choice(gen.n_states, p=gen.prior))]
            for t in range(1, horizon):
                hidden.append(int(rng.choice(gen.n_states,
                                             p=gen.transitions[hidden[-1]])))
        hidden = np.array(hidden)
        delay = np.clip(rng.normal(gen.means()[hidden],
                                   np.sqrt(gen.variances()[hidden])),
                        MIN_DELAY_S, None)
        owd = delay / 2.0 if channel.delay_is_rtt else delay
        mos = [reference_mos(o, channel.loss_per_state[h], cfg.codec)
               for o, h in zip(owd.tolist(), hidden.tolist())]
        columns.append((delay.tolist(), mos,
                        [reference_band(m, cfg.scheme) for m in mos]))
    return columns


def reference_forward(flp, prior, tm):
    """Per-sequence scaled forward recursion, one frame at a time."""
    T, n = flp.shape
    filtered = np.empty((T, n))
    loglik = 0.0
    pred = prior
    for t in range(T):
        m = flp[t].max()
        a = pred * np.exp(flp[t] - m)
        filtered[t] = a / a.sum()
        loglik += np.log(a.sum()) + m
        pred = filtered[t] @ tm
    return filtered, loglik


def filter_step(model, belief, observation):
    """One frame of `reference_forward` for one interface's belief;
    `belief` None starts from the prior."""
    flp = model.frame_log_likelihood(np.array([observation]))
    pred = model.prior if belief is None else predict_belief(model, belief)
    return reference_forward(flp, pred, model.transitions)[0][0]


def reference_log_forward(flp, prior, tm):
    """Per-sequence forward recursion in log space, one frame at a time with
    `np.logaddexp`. Each frame's densities are taken relative to its
    largest and each step is normalized by its own log-sum-exp, so no log
    value grows with the sequence. Returns the log filtered posteriors
    (T, N) and the log-evidence."""
    m = flp.max(axis=1)
    flp = flp - m[:, None]
    with np.errstate(divide="ignore"):
        pred, log_tm = np.log(prior), np.log(tm)
    log_alpha = np.empty(flp.shape)
    loglik = m.sum()
    for t in range(flp.shape[0]):
        a = pred + flp[t]
        scale = np.logaddexp.reduce(a)
        loglik += scale
        log_alpha[t] = a - scale
        pred = np.logaddexp.reduce(log_alpha[t][:, None] + log_tm, axis=0)
    return log_alpha, loglik


def reference_log_forward_backward(flp, prior, tm):
    """`reference_log_forward`, then the backward recursion the same way;
    each frame's gamma and each step's xi are normalized by their own
    log-sum-exp too. Returns (gamma (T, N), xi_sum (N, N), log-evidence)."""
    log_alpha, loglik = reference_log_forward(flp, prior, tm)
    flp = flp - flp.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        log_tm = np.log(tm)
    log_beta = np.zeros(flp.shape)
    for t in range(flp.shape[0] - 2, -1, -1):
        b = np.logaddexp.reduce(log_tm + flp[t + 1] + log_beta[t + 1], axis=1)
        log_beta[t] = b - np.logaddexp.reduce(b)
    gamma = _normalized_exp(log_alpha + log_beta, axis=1)
    xi = _normalized_exp(log_alpha[:-1, :, None] + log_tm
                         + (flp[1:] + log_beta[1:])[:, None], axis=(1, 2))
    return gamma, xi.sum(axis=0), loglik


def _normalized_exp(log_p, axis):
    """exp(log_p), each slice along `axis` divided by its own sum."""
    return np.exp(log_p - np.logaddexp.reduce(log_p, axis=axis, keepdims=True))


def run_em(seqs, means, variances, prior, tm, cfg):
    """One EM run from the given starting point. Returns (ll_history, best,
    converged, iterations) as the lock-step EM does for one start."""
    return _lockstep_em(seqs, [(0, range(len(seqs)), means, variances, prior, tm)],
                        cfg)[0]


def rnl_update(est, rtt_s):
    """Pure-style load update: an updated copy of the estimator and the new
    load value; `est` is left as it was."""
    est = copy.copy(est)
    rnl = est.update(rtt_s)
    return est, rnl


def count_handoffs(path, start=None):
    switches = sum(1 for a, b in zip(path, path[1:]) if a != b)
    if start is not None and path and path[0] != start:
        switches += 1
    return switches


def exhaustive_min_handoffs(per_interface_states, start=None):
    """Brute-force reference for `oracle_policy` on short traces."""
    states = [list(s) for s in per_interface_states]
    n_if = len(states)
    horizon = len(states[0])
    best_sets = [
        [i for i in range(n_if)
         if states[i][t] == max(states[j][t] for j in range(n_if))]
        for t in range(horizon)
    ]
    best = None
    for combo in itertools.product(*best_sets):
        c = count_handoffs(combo, start)
        if best is None or c < best:
            best = c
    return best


def reference_oracle(per_interface_states, start=None):
    """`oracle_policy` of one run, epoch by epoch in Python: each epoch's
    best-state interfaces take the fewest-handoff predecessor, staying on
    a tie, else the lowest index; the path ends on the lowest-cost, then
    lowest, index."""
    states = [list(s) for s in per_interface_states]
    n_if, horizon = len(states), len(states[0])
    best_sets = [[i for i in range(n_if)
                  if states[i][t] == max(s[t] for s in states)]
                 for t in range(horizon)]
    cost = [float("inf")] * n_if
    for i in best_sets[0]:
        cost[i] = 0 if start is None or i == start else 1
    choice = [None]
    for t in range(1, horizon):
        nxt, back = [float("inf")] * n_if, [None] * n_if
        for i in best_sets[t]:
            for j in best_sets[t - 1]:
                c = cost[j] + (i != j)
                if c < nxt[i] or (c == nxt[i] and j == i):
                    nxt[i], back[i] = c, j
        cost = nxt
        choice.append(back)
    path = [min(best_sets[-1], key=lambda i: (cost[i], i))]
    for t in range(horizon - 1, 0, -1):
        path.append(choice[t][path[-1]])
    return path[::-1]


def _reference_rows(keys, row_format, columns):
    """CSV rows, one per row of `columns`: the cells `keys`, quoted by
    csv.writer, then `row_format % values`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(keys)
    template = buf.getvalue()[:-2].replace("%", "%%") + "," + row_format + "\n"
    return (template * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def reference_write_traces(traces):
    """`trace_io.write_traces` with each value formatted by Python: "%d"
    epochs, "%.9g" delays and MOS, and an empty cell for a NaN MOS."""
    blocks = [",".join(HEADER) + "\n"]
    for trace in sorted(traces, key=lambda t: (t.run_id, t.interface_label)):
        mos = ["" if m != m else "%.9g" % m for m in trace.mos.tolist()]
        blocks.append(_reference_rows([trace.run_id, trace.interface_label], "%d,%.9g,%s",
                                      (trace.epochs.tolist(), trace.rtts(), mos)))
    return "".join(blocks)
