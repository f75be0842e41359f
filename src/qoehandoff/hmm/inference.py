"""Forward filtering and one-step state and QoE band prediction."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ZeroProbabilityError
from . import _kernels_py
from .model import HmmModel


def forward_filter(model: HmmModel,
                   observations) -> tuple[np.ndarray, np.ndarray | float]:
    """Filtered posteriors over states for each observation.

    `observations` is one sequence (T,) or a block of equal-length
    sequences (B, T), all filtered in one pass. Returns (beliefs,
    log_evidence): beliefs[..., t, :] is the normalized posterior
    P(state_t | obs_0..t), seeded from the model prior, and the evidence
    is a float for one sequence or one value per row (B,) for a block.
    Raises ZeroProbabilityError (a DomainError) naming the row and step
    when an observation has zero density under every state the chain can
    be in at that step.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim not in (1, 2):
        raise DomainError("observations must be a sequence (T,) or a block (B, T)")
    block = obs if obs.ndim == 2 else obs[None]
    rows, n = block.shape[0], model.n_states
    frame_logprob = model.frame_log_likelihood(block.reshape(-1))
    beliefs, loglik = _kernels_py.forward(
        frame_logprob.reshape(*block.shape, n), np.broadcast_to(model.prior, (rows, n)),
        np.broadcast_to(model.transitions, (rows, n, n)))
    bad = np.flatnonzero(~np.isfinite(loglik))
    if bad.size:
        row = int(bad[0])
        t = int(np.argmin(np.isfinite(beliefs[row]).all(axis=1)))
        raise ZeroProbabilityError(t, row if obs.ndim == 2 else None)
    if obs.ndim == 1:
        return beliefs[0], float(loglik[0])
    return beliefs, loglik


def _probability_vectors(model: HmmModel, beliefs) -> np.ndarray:
    """`beliefs` as a float array (..., N), or DomainError unless every
    vector is non-negative and sums to 1 within 1e-9."""
    beliefs = np.asarray(beliefs, dtype=float)
    if beliefs.shape[-1:] != (model.n_states,):
        raise DomainError("belief length does not match state count")
    if not ((beliefs >= 0).all()
            and (np.abs(beliefs.sum(axis=-1) - 1.0) <= 1e-9).all()):
        raise DomainError("belief is not a probability vector")
    return beliefs


def predict_belief(model: HmmModel, belief: np.ndarray) -> np.ndarray:
    """One-step-ahead belief: current posterior pushed through the chain."""
    belief = _probability_vectors(model, belief)
    if belief.ndim != 1:
        raise DomainError("belief must be one vector (N,)")
    return belief @ model.transitions


def predict_next_state(model: HmmModel, belief: np.ndarray) -> tuple[int, np.ndarray]:
    """MAP state (1-based) for the next epoch, ties toward the lower index."""
    predicted = predict_belief(model, belief)
    return int(np.argmax(predicted)) + 1, predicted


def predict_next_bands(model: HmmModel, beliefs, band_table) -> np.ndarray:
    """The 1-based most probable next QoE bands for a block of beliefs
    (..., N), under `band_table` P(band | state), one row per state
    (`hmm.em.state_band_map`); ties toward the lower band."""
    beliefs = _probability_vectors(model, beliefs)
    table = np.asarray(band_table, dtype=float)
    if table.ndim != 2 or table.shape[0] != model.n_states:
        raise DomainError("band table needs one row per state")
    return np.argmax(beliefs @ model.transitions @ table, axis=-1) + 1


def length_blocks(sequences) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sequences grouped by length, for one block call per length: a list
    of (indices, block) pairs in order of first appearance, where `block`
    stacks the sequences at `indices` as rows (B, T)."""
    by_length: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(i)
    return [(np.array(ids), np.array([sequences[i] for i in ids], dtype=float))
            for ids in by_length.values()]
