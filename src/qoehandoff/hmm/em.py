"""EM (Baum-Welch) training for the Gaussian-emission HMM, plus k-fold
cross-validated one-step prediction accuracy.

Initialization is quantile-based and therefore deterministic for a given
seed; restarts re-seed the means from skewed quantiles and then random
data points, which guards against poor local optima when state occupancy
is lopsided.
All restarts of a fit, and the fits of all cross-validation folds, run
in lock-step: every E-step is one batched kernel call over the rows
(start, sequence) of the starts still running, and a start leaves the
batch when it converges. Restarts are screened ("short runs, then one
long run"): after `SCREEN_ITERATIONS` lock-step iterations, each fit
keeps running only its leader, the start with the highest likelihood so
far (ties to the lowest restart); its other unconverged starts stop
there, and starts that converged earlier keep their result. A start's
best likelihood so far never falls, so the fit's winner (the
best-likelihood iteration of any start, ties to the lowest restart) is
always its leader. A fit with one start runs exactly as EM on its own.
Trained models are canonicalized by sorting states by descending emission
mean, so state 1 is always the worst-delay state regardless of how the
optimizer happened to label states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateModelError, DomainError, ZeroProbabilityError
from ..qoe_model import QuantizationScheme, quantize_mos
from . import _kernels_py
from .inference import forward_filter, length_blocks, predict_next_bands
# Unused here; kept bound because perfbench/tracer.py patches this name.
from .inference import predict_next_state  # noqa: F401
from .model import VARIANCE_FLOOR, GaussianEmission, HmmModel, gaussian_log_density


# A start converges when an iteration raises its log-likelihood by less
# than this fraction of the previous one.
REL_TOL = 1e-6
# Every restart starts with this self-transition probability, the rest of
# each row spread evenly over the other states (a lone state keeps it all).
SELF_TRANSITION_INIT = 0.8


@dataclass(frozen=True)
class EmConfig:
    max_iterations: int = 200
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("max_iterations", "restarts"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")


@dataclass
class TrainingReport:
    log_likelihoods: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    restart_index: int = 0


def _validate_sequences(observations) -> list[np.ndarray]:
    seqs = [np.asarray(o, dtype=float) for o in observations]
    if not seqs or not any(len(s) >= 2 for s in seqs):
        raise DomainError("need at least one observation sequence of length >= 2")
    for s in seqs:
        if s.ndim != 1 or s.size == 0:
            raise DomainError("each observation sequence must be non-empty and 1-D")
        if not np.isfinite(s).all():
            raise DomainError("observations must be finite")
    return seqs


# Lock-step iterations after which each fit runs only its leading start.
SCREEN_ITERATIONS = 20


class _Pool:
    """Observation sequences stacked by length, for batched kernel calls."""

    def __init__(self, seqs):
        self.lengths = np.array([s.size for s in seqs])
        self.pos = np.empty(len(seqs), dtype=int)
        self.stacks = {}
        for ids, block in length_blocks(seqs):
            self.pos[ids] = np.arange(ids.size)
            self.stacks[block.shape[1]] = block


def _e_step(pool: _Pool, row_start, row_seq, means, variances, prior, tm):
    """Sufficient statistics of each row (start, sequence), one kernel call
    per sequence length.

    Returns per-row log-likelihood, first-frame posterior, expected
    transition counts and the gamma-weighted zeroth, first and second
    moments of the observations.
    """
    n, k = row_seq.size, means.shape[1]
    ll = np.empty(n)
    gamma0, w, wx, wxx = (np.empty((n, k)) for _ in range(4))
    xi = np.empty((n, k, k))
    row_len = pool.lengths[row_seq]
    for length, stacked in pool.stacks.items():
        sel = np.flatnonzero(row_len == length)
        if sel.size == 0:
            continue
        x = stacked[pool.pos[row_seq[sel]]]
        st = row_start[sel]
        flp = gaussian_log_density(x[:, :, None], means[st][:, None, :],
                                   variances[st][:, None, :])
        gamma, xi[sel], ll[sel] = _kernels_py.forward_backward(flp, prior[st], tm[st])
        gamma0[sel] = gamma[:, 0]
        w[sel] = gamma.sum(axis=1)
        wx[sel] = np.einsum("btk,bt->bk", gamma, x)
        wxx[sel] = np.einsum("btk,bt->bk", gamma, x * x)
    return ll, gamma0, xi, w, wx, wxx


def _lockstep_em(seqs, starts, cfg: EmConfig):
    """EM from every start at once, with restart screening.

    `starts` holds (fit, seq_ids, means, variances, prior, tm): the index
    of the fit the start belongs to, the indices into `seqs` of the
    sequences it is fitted to, and its starting point; a fit's starts come
    in restart order. After `SCREEN_ITERATIONS` iterations each fit's
    leader (highest best-so-far likelihood, ties to the lowest start) goes
    on, and its other unconverged starts stop there.
    Returns, per start, (ll_history, best, converged, iterations), where
    best is (ll, means, variances, prior, tm) at its best-likelihood
    iteration.
    """
    pool = _Pool([np.asarray(s, dtype=float) for s in seqs])
    fit = [start[0] for start in starts]
    seq_ids = [np.asarray(start[1], dtype=int) for start in starts]
    n, k = len(starts), len(starts[0][2])
    # Row j holds start j's means, variances, prior and transition rows;
    # `best` holds them at its best-likelihood iteration so far.
    params = np.array([np.vstack(start[2:]) for start in starts], dtype=float)
    means, variances, prior, tm = params[:, 0], params[:, 1], params[:, 2], params[:, 3:]
    best = np.empty_like(params)
    best_ll = np.empty(n)
    trail = []  # each iteration's log-likelihood of every start
    prev_ll = np.full(n, -np.inf)
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    active = np.arange(n)
    changed = True
    for iteration in range(1, cfg.max_iterations + 1):
        if active.size == 0:
            break
        iterations[active] += 1
        # E-step over all rows of the running starts; rows of one start are
        # contiguous, so reduceat sums them in sequence order.
        if changed:
            counts = np.array([seq_ids[j].size for j in active])
            row_start = np.repeat(active, counts)
            row_seq = np.concatenate([seq_ids[j] for j in active])
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ll, prior_acc, xi_acc, w_acc, wx_acc, wxx_acc = (
            np.add.reduceat(a, offsets, axis=0)
            for a in _e_step(pool, row_start, row_seq, means, variances, prior, tm))
        trail.append(np.empty(n))
        trail[-1][active] = ll
        better = active[(iteration == 1) | (ll > best_ll[active])]
        best_ll[better] = trail[-1][better]
        best[better] = params[better]
        prev = prev_ll[active]
        done = np.isfinite(prev) & (ll - prev < REL_TOL * np.abs(prev))
        converged[active[done]] = True
        prev_ll[active] = ll
        go = ~done
        if iteration == SCREEN_ITERATIONS:
            leaders, lls = {}, best_ll.tolist()
            for j in range(n):
                if fit[j] not in leaders or lls[j] > lls[leaders[fit[j]]]:
                    leaders[fit[j]] = j
            go &= np.isin(active, list(leaders.values()))
        # M-step for the starts that go on.
        changed = not go.all()
        if changed:
            active = active[go]
            prior_acc, xi_acc = prior_acc[go], xi_acc[go]
            w_acc, wx_acc, wxx_acc = w_acc[go], wx_acc[go], wxx_acc[go]
        prior[active] = prior_acc / prior_acc.sum(axis=1, keepdims=True)
        row = xi_acc.sum(axis=2, keepdims=True)
        tm[active] = np.where(row > 0, xi_acc / np.where(row > 0, row, 1.0), 1.0 / k)
        mu = wx_acc / w_acc
        means[active] = mu
        variances[active] = np.maximum(wxx_acc / w_acc - mu * mu, VARIANCE_FLOOR)
    histories = np.array(trail).T.tolist()
    return [(histories[j][:iterations[j]], (ll_j, *best[j, :3], best[j, 3:]),
             bool(converged[j]), int(iterations[j]))
            for j, ll_j in enumerate(best_ll.tolist())]


def _restart_starts(seqs, k: int, config: EmConfig) -> list:
    """Starting (means, variances, prior, tm) of every restart of one fit.
    The means are evenly spaced quantiles first, then quantile grids skewed
    low and high (all three from one quantile call), then random data
    points drawn in restart order from a generator seeded with
    `config.seed`."""
    all_obs = np.concatenate(seqs)
    prior0 = np.full(k, 1.0 / k)
    tm0 = np.full((k, k), (1.0 - SELF_TRANSITION_INIT) / max(k - 1, 1))
    np.fill_diagonal(tm0, SELF_TRANSITION_INIT if k > 1 else 1.0)
    var0 = max(float(all_obs.var()) / (k * k), VARIANCE_FLOOR)
    base = (np.arange(k) + 0.5) / k
    grids = np.quantile(all_obs, np.stack([base, base ** 2, np.sqrt(base)]))
    rng = np.random.default_rng(config.seed)
    return [(grids[r] if r < 3 else np.sort(rng.choice(all_obs, size=k, replace=False)),
             np.full(k, var0), prior0, tm0) for r in range(config.restarts)]


def _canonical_winner(runs) -> tuple[HmmModel, TrainingReport]:
    """Best-likelihood restart (ties to the lowest index), states sorted by
    descending emission mean."""
    winner = None
    for restart, (history, best, converged, iters) in enumerate(runs):
        if winner is None or best[0] > winner[1][0]:
            winner = (restart, best, history, converged, iters)
    restart_index, (_, means, variances, prior, tm), history, converged, iters = winner
    order = np.argsort(-means, kind="stable")
    model = HmmModel(
        prior=prior[order],
        transitions=tm[np.ix_(order, order)],
        emissions=tuple(GaussianEmission(float(means[i]), float(variances[i]))
                        for i in order),
    )
    report = TrainingReport(log_likelihoods=history, iterations=iters,
                            converged=converged, restart_index=restart_index)
    return model, report


def _fit_all(observation_sets, k: int,
             config: EmConfig) -> list[tuple[HmmModel, TrainingReport]]:
    """Fit one k-state model per observation set, every restart of every
    fit in one lock-step EM."""
    if k < 1:
        raise DomainError("state count k must be >= 1")
    fits = [_validate_sequences(obs) for obs in observation_sets]
    for seqs in fits:
        distinct = np.unique(np.concatenate(seqs)).size
        if distinct < k:
            raise DegenerateModelError(
                f"{k} states requested but only {distinct} distinct values")
    pool, starts, spans = [], [], []
    for fit, seqs in enumerate(fits):
        ids = range(len(pool), len(pool) + len(seqs))
        pool.extend(seqs)
        first = len(starts)
        starts.extend((fit, ids, *start)
                      for start in _restart_starts(seqs, k, config))
        spans.append(slice(first, len(starts)))
    runs = _lockstep_em(pool, starts, config)
    return [_canonical_winner(runs[span]) for span in spans]


def em_train(observations, k: int,
             config: EmConfig = EmConfig()) -> tuple[HmmModel, TrainingReport]:
    """Fit a k-state model to one or more delay sequences.

    Returns the model at the best-likelihood iteration of the best restart
    (restarts screened as the module describes), with states sorted by
    descending emission mean.
    """
    return _fit_all([observations], k, config)[0]


def _filtered_blocks(model: HmmModel, traces, scheme: QuantizationScheme):
    """Per length group of (observations, mos) traces: (beliefs (B, T, N),
    QoE bands (B, T)), each group filtered in one `forward_filter` call.
    A ZeroProbabilityError's row is the index of its trace in `traces`."""
    for ids, block in length_blocks([obs for obs, _ in traces]):
        try:
            beliefs, _ = forward_filter(model, block)
        except ZeroProbabilityError as exc:
            raise ZeroProbabilityError(exc.observation, int(ids[exc.row])) from None
        mos = np.array([traces[i][1] for i in ids], dtype=float)
        yield beliefs, quantize_mos(mos, scheme)


def state_band_map(model: HmmModel, traces, scheme: QuantizationScheme) -> np.ndarray:
    """P(band | state), shape (N, bands): the share of each QoE band among
    the epochs of (observations, mos) traces at which each hidden state was
    the MAP state. A state never MAP puts all its mass on its canonical
    band (state N on the best band, state N-1 on the next, ...)."""
    counts = np.zeros((model.n_states, scheme.state_count))
    for beliefs, bands in _filtered_blocks(model, traces, scheme):
        np.add.at(counts, (beliefs.argmax(axis=-1), bands - 1), 1)
    for s in np.flatnonzero(counts.sum(axis=1) == 0):
        counts[s, max(0, scheme.state_count - model.n_states + s)] = 1
    return counts / counts.sum(axis=1, keepdims=True)


def prediction_accuracy(model: HmmModel, traces, scheme: QuantizationScheme,
                        band_table) -> tuple[int, int]:
    """(correct, total) one-step predictions over (observations, mos) traces.

    The band predicted (`predict_next_bands` under `band_table`) from the
    belief at epoch t is scored against the band quantized from the
    trace's true MOS at t+1 (micro-average).
    """
    correct = total = 0
    for beliefs, bands in _filtered_blocks(model, traces, scheme):
        predicted = predict_next_bands(model, beliefs[:, :-1], band_table)
        correct += int((predicted == bands[:, 1:]).sum())
        total += predicted.size
    return correct, total


def cross_validate_folds(dataset, folds: int, k: int, scheme: QuantizationScheme,
                         config: EmConfig = EmConfig(), groups=None):
    """Fit the all-data model and score it by cross-validation.

    Returns ((model, report), scores): the `em_train` fit of every trace,
    and each fold's (correct, total) one-step prediction score. `groups`
    holds one key per trace (by default each trace is its own group);
    folds are assigned round-robin over the groups in order of first
    appearance, so every trace is held out exactly once, together with
    the rest of its group. The all-data fit and the folds' fits run in one
    lock-step EM. A delay of zero probability under a fold's model raises
    ZeroProbabilityError with `row` the index of its trace in `dataset`.
    """
    keys = range(len(dataset)) if groups is None else list(groups)
    if len(keys) != len(dataset):
        raise DomainError("groups must give one key per trace")
    order = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    if folds < 2:
        raise DomainError("folds must be >= 2")
    if folds > len(order):
        raise DomainError(f"{folds} folds need at least {folds} runs, got {len(order)}")
    fold_of = [order[key] % folds for key in keys]
    trains = [[i for i, f in enumerate(fold_of) if f != fold] for fold in range(folds)]
    full, *fits = _fit_all([[obs for obs, _ in dataset]]
                           + [[dataset[i][0] for i in train] for train in trains],
                           k, config)
    scores = []
    for fold, (train, (model, _)) in enumerate(zip(trains, fits)):
        held = [i for i, f in enumerate(fold_of) if f == fold]
        table = _on_subset(state_band_map, model, dataset, train, scheme)
        scores.append(_on_subset(prediction_accuracy, model, dataset, held, scheme,
                                 table))
    return full, scores


def _on_subset(score, model: HmmModel, dataset, ids, *args):
    """`score(model, traces, *args)` over the traces of `dataset` at `ids`;
    a ZeroProbabilityError's row is made the index of its trace in `dataset`."""
    try:
        return score(model, [dataset[i] for i in ids], *args)
    except ZeroProbabilityError as exc:
        raise ZeroProbabilityError(exc.observation, ids[exc.row]) from None
