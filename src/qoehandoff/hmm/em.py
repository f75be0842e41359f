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

from ..errors import DegenerateModelError, DomainError
from ..qoe_model import QuantizationScheme, quantize_mos
from . import _kernels_py
from .inference import forward_filter, length_blocks, predict_next_states
# Unused here; kept bound because perfbench/tracer.py patches this name.
from .inference import predict_next_state  # noqa: F401
from .model import VARIANCE_FLOOR, GaussianEmission, HmmModel


@dataclass(frozen=True)
class EmConfig:
    max_iterations: int = 200
    rel_tol: float = 1e-6
    restarts: int = 5
    variance_floor: float = VARIANCE_FLOOR
    self_transition_init: float = 0.8
    seed: int = 0


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


def _restart_means(all_obs: np.ndarray, k: int, restart: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Starting means for one restart: evenly spaced quantiles first, then
    quantile grids skewed low/high, then random data points."""
    base = (np.arange(k) + 0.5) / k
    if restart == 0:
        return np.quantile(all_obs, base)
    if restart == 1:
        return np.quantile(all_obs, base ** 2)
    if restart == 2:
        return np.quantile(all_obs, np.sqrt(base))
    return np.sort(rng.choice(all_obs, size=k, replace=False))


def _labeled_init(seqs, labels, k: int, cfg: EmConfig):
    x = np.concatenate(seqs)
    lab = np.concatenate([np.asarray(l, dtype=int) for l in labels])
    if lab.shape != x.shape:
        raise DomainError("state labels must align with observations")
    means = np.empty(k)
    variances = np.empty(k)
    overall_var = max(x.var(), cfg.variance_floor)
    for s in range(k):
        sel = x[lab == s + 1]
        means[s] = sel.mean() if sel.size else x.mean()
        variances[s] = max(sel.var(), cfg.variance_floor) if sel.size else overall_var
    return means, variances


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
        var = variances[st][:, None, :]
        diff = x[:, :, None] - means[st][:, None, :]
        flp = -0.5 * (diff * diff / var + np.log(2.0 * np.pi * var))
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
    means, variances, prior, tm = (
        np.array([start[i] for start in starts], dtype=float) for i in range(2, 6))
    n, k = means.shape
    histories: list[list[float]] = [[] for _ in range(n)]
    best = [None] * n
    prev_ll = np.full(n, -np.inf)
    converged = np.zeros(n, dtype=bool)
    iterations = np.zeros(n, dtype=int)
    active = np.arange(n)
    for iteration in range(1, cfg.max_iterations + 1):
        if active.size == 0:
            break
        iterations[active] += 1
        # E-step over all rows of the running starts; rows of one start are
        # contiguous, so reduceat sums them in sequence order.
        counts = np.array([seq_ids[j].size for j in active])
        row_start = np.repeat(active, counts)
        row_seq = np.concatenate([seq_ids[j] for j in active])
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ll, prior_acc, xi_acc, w_acc, wx_acc, wxx_acc = (
            np.add.reduceat(a, offsets, axis=0)
            for a in _e_step(pool, row_start, row_seq, means, variances, prior, tm))
        for j, ll_j in zip(active, ll.tolist()):
            histories[j].append(ll_j)
            if best[j] is None or ll_j > best[j][0]:
                best[j] = (ll_j, means[j].copy(), variances[j].copy(),
                           prior[j].copy(), tm[j].copy())
        prev = prev_ll[active]
        done = np.isfinite(prev) & (ll - prev < cfg.rel_tol * np.abs(prev))
        converged[active[done]] = True
        prev_ll[active] = ll
        go = ~done
        if iteration == SCREEN_ITERATIONS:
            leaders = {}
            for j in range(n):
                if fit[j] not in leaders or best[j][0] > best[leaders[fit[j]]][0]:
                    leaders[fit[j]] = j
            go &= np.isin(active, list(leaders.values()))
        # M-step for the starts that go on.
        active = active[go]
        prior_acc, xi_acc = prior_acc[go], xi_acc[go]
        w_acc, wx_acc, wxx_acc = w_acc[go], wx_acc[go], wxx_acc[go]
        prior[active] = prior_acc / prior_acc.sum(axis=1, keepdims=True)
        row = xi_acc.sum(axis=2, keepdims=True)
        tm[active] = np.where(row > 0, xi_acc / np.where(row > 0, row, 1.0), 1.0 / k)
        means[active] = wx_acc / w_acc
        variances[active] = np.maximum(
            wxx_acc / w_acc - means[active] * means[active], cfg.variance_floor)
    return [(histories[j], best[j], bool(converged[j]), int(iterations[j]))
            for j in range(n)]


def _run_em(seqs, means, variances, prior, tm, cfg: EmConfig):
    """One EM run from the given starting point. Returns (ll_history, best,
    converged, iterations) as `_lockstep_em` does for one start."""
    return _lockstep_em(seqs, [(0, range(len(seqs)), means, variances, prior, tm)],
                        cfg)[0]


def _restart_starts(seqs, k: int, config: EmConfig, state_labels=None) -> list:
    """Starting (means, variances, prior, tm) of every restart of one fit,
    drawn in restart order from a generator seeded with `config.seed`."""
    all_obs = np.concatenate(seqs)
    prior0 = np.full(k, 1.0 / k)
    tm0 = np.full((k, k), (1.0 - config.self_transition_init) / max(k - 1, 1))
    np.fill_diagonal(tm0, config.self_transition_init)
    var0 = max(float(all_obs.var()) / (k * k), config.variance_floor)
    rng = np.random.default_rng(config.seed)
    starts = []
    for restart in range(max(config.restarts, 1)):
        if state_labels is not None and restart == 0:
            means, vars_init = _labeled_init(seqs, state_labels, k, config)
        else:
            means = _restart_means(all_obs, k, restart, rng)
            vars_init = np.full(k, var0)
        starts.append((means, vars_init, prior0, tm0))
    return starts


def _canonical_winner(runs, scheme) -> tuple[HmmModel, TrainingReport]:
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
        scheme=scheme,
    )
    report = TrainingReport(log_likelihoods=history, iterations=iters,
                            converged=converged, restart_index=restart_index)
    return model, report


def _fit_single_state(seqs, config: EmConfig) -> tuple[HmmModel, TrainingReport]:
    """Closed form: single-state chain with population-moment emission."""
    all_obs = np.concatenate(seqs)
    mean = float(all_obs.mean())
    var = max(float(all_obs.var()), config.variance_floor)
    model = HmmModel(prior=np.ones(1), transitions=np.ones((1, 1)),
                     emissions=(GaussianEmission(mean, var),), scheme=None)
    ll = sum(forward_filter(model, s)[1] for s in seqs)
    return model, TrainingReport([ll], iterations=1, converged=True)


def _fit_all(observation_sets, k: int, config: EmConfig,
             scheme: QuantizationScheme | None = None,
             state_labels=None) -> list[tuple[HmmModel, TrainingReport]]:
    """Fit one k-state model per observation set, every restart of every
    fit in one lock-step EM. `state_labels`, when given, holds one entry
    (or None) per set and seeds that set's first restart."""
    if k < 1:
        raise DomainError("state count k must be >= 1")
    if scheme is not None and scheme.state_count != k:
        raise DomainError("scheme state count does not match k")
    fits = [_validate_sequences(obs) for obs in observation_sets]
    for seqs in fits:
        distinct = np.unique(np.concatenate(seqs)).size
        if distinct < k:
            raise DegenerateModelError(
                f"{k} states requested but only {distinct} distinct values")
    if k == 1:
        return [_fit_single_state(seqs, config) for seqs in fits]

    pool, starts, spans = [], [], []
    labels = state_labels if state_labels is not None else [None] * len(fits)
    for fit, (seqs, fit_labels) in enumerate(zip(fits, labels)):
        ids = range(len(pool), len(pool) + len(seqs))
        pool.extend(seqs)
        first = len(starts)
        starts.extend((fit, ids, *start)
                      for start in _restart_starts(seqs, k, config, fit_labels))
        spans.append(slice(first, len(starts)))
    runs = _lockstep_em(pool, starts, config)
    return [_canonical_winner(runs[span], scheme) for span in spans]


def em_train(observations, k: int, config: EmConfig = EmConfig(),
             scheme: QuantizationScheme | None = None,
             state_labels_for_init=None) -> tuple[HmmModel, TrainingReport]:
    """Fit a k-state model to one or more delay sequences.

    Returns the model at the best-likelihood iteration of the best restart
    (restarts screened as the module describes), with states sorted by
    descending emission mean.
    """
    return _fit_all([observations], k, config, scheme, [state_labels_for_init])[0]


def _filtered_blocks(model: HmmModel, traces, scheme: QuantizationScheme):
    """Per length group of (observations, mos) traces: (beliefs (B, T, N),
    QoE bands (B, T)), each group filtered in one `forward_filter` call."""
    for ids, block in length_blocks([obs for obs, _ in traces]):
        beliefs, _ = forward_filter(model, block)
        mos = np.array([traces[i][1] for i in ids], dtype=float)
        yield beliefs, quantize_mos(mos, scheme)


def state_band_map(model: HmmModel, traces, scheme: QuantizationScheme) -> list[int]:
    """Majority QoE band observed while each hidden state was the MAP state.

    Lets a model with fewer states than the scheme has bands (e.g. a
    2-state fit of 3-band data) still be scored against quantized MOS.
    """
    counts = np.zeros((model.n_states, scheme.state_count), dtype=int)
    for beliefs, bands in _filtered_blocks(model, traces, scheme):
        np.add.at(counts, (beliefs.argmax(axis=-1), bands - 1), 1)
    mapping = []
    for s in range(model.n_states):
        if counts[s].sum() == 0:
            # Unvisited state: fall back to the canonical ordering.
            mapping.append(max(1, scheme.state_count - (model.n_states - 1 - s)))
        else:
            mapping.append(int(counts[s].argmax()) + 1)
    return mapping


def prediction_accuracy(model: HmmModel, traces, scheme: QuantizationScheme,
                        state_map: list[int] | None = None) -> tuple[int, int]:
    """(correct, total) one-step predictions over (observations, mos) traces.

    The state predicted from the belief at epoch t is scored against the
    state quantized from the trace's true MOS at t+1 (micro-average).
    `state_map` translates hidden-state indices to QoE bands; identity when
    omitted (model states must then coincide with the scheme's bands).
    """
    band_of = np.arange(1, model.n_states + 1) if state_map is None \
        else np.asarray(state_map)
    correct = 0
    total = 0
    for beliefs, bands in _filtered_blocks(model, traces, scheme):
        predicted = band_of[predict_next_states(model, beliefs[:, :-1]) - 1]
        correct += int((predicted == bands[:, 1:]).sum())
        total += predicted.size
    return correct, total


def cross_validate_folds(dataset, folds: int, k: int, scheme: QuantizationScheme,
                         config: EmConfig = EmConfig()):
    """Fit the all-data model and score it by cross-validation.

    Returns ((model, report), scores): the `em_train` fit of every trace,
    and each fold's (correct, total) one-step prediction score. Folds are
    assigned round-robin by trace index, so every trace is held out
    exactly once. The all-data fit and the folds' fits run in one
    lock-step EM.
    """
    n = len(dataset)
    if not 2 <= folds <= n:
        raise DomainError(f"folds must be in [2, {n}]")
    trains = [[dataset[i] for i in range(n) if i % folds != fold]
              for fold in range(folds)]
    full, *fits = _fit_all([[obs for obs, _ in train] for train in [dataset, *trains]],
                           k, config, scheme if k == scheme.state_count else None)
    scores = []
    for fold, (train, (model, _)) in enumerate(zip(trains, fits)):
        held = [dataset[i] for i in range(n) if i % folds == fold]
        state_map = state_band_map(model, train, scheme)
        scores.append(prediction_accuracy(model, held, scheme, state_map))
    return full, scores
