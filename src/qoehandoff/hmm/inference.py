"""Forward filtering and one-step state prediction."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from . import _backend
from .model import HmmModel


def forward_filter(model: HmmModel,
                   observations) -> tuple[np.ndarray, np.ndarray | float]:
    """Filtered posteriors over states for each observation.

    `observations` is one sequence (T,) or a block of equal-length
    sequences (B, T), all filtered in one pass. Returns (beliefs,
    log_evidence): beliefs[..., t, :] is the normalized posterior
    P(state_t | obs_0..t), seeded from the model prior, and the evidence
    is a float for one sequence or one value per row (B,) for a block.
    Raises DomainError when an observation has zero density under every
    state the chain can be in at that step.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim not in (1, 2):
        raise DomainError("observations must be a sequence (T,) or a block (B, T)")
    block = obs if obs.ndim == 2 else obs[None]
    frame_logprob = model.frame_log_likelihood(block.reshape(-1))
    beliefs, loglik = _backend.forward(
        frame_logprob.reshape(*block.shape, model.n_states), model.prior,
        model.transitions)
    bad = np.flatnonzero(~np.isfinite(loglik))
    if bad.size:
        row = int(bad[0])
        t = int(np.argmin(np.isfinite(beliefs[row]).all(axis=1)))
        where = f"row {row}, observation {t}" if obs.ndim == 2 else f"observation {t}"
        raise DomainError(f"{where} has zero predicted probability under the model")
    if obs.ndim == 1:
        return beliefs[0], float(loglik[0])
    return beliefs, loglik


def predict_belief(model: HmmModel, belief: np.ndarray) -> np.ndarray:
    """One-step-ahead belief: current posterior pushed through the chain."""
    belief = np.asarray(belief, dtype=float)
    if belief.shape != (model.n_states,):
        raise DomainError("belief length does not match state count")
    if (belief < 0).any() or abs(belief.sum() - 1.0) > 1e-9:
        raise DomainError("belief is not a probability vector")
    return belief @ model.transitions


def predict_next_state(model: HmmModel, belief: np.ndarray) -> tuple[int, np.ndarray]:
    """MAP state (1-based) for the next epoch, ties toward the lower index."""
    predicted = predict_belief(model, belief)
    return int(np.argmax(predicted)) + 1, predicted
