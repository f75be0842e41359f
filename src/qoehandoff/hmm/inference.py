"""Forward filtering and one-step state prediction."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from . import _backend
from .model import HmmModel


def forward_filter(model: HmmModel, observations) -> tuple[np.ndarray, float]:
    """Filtered posteriors over states for each observation.

    Returns (beliefs, log_evidence) where beliefs[t] is the normalized
    posterior P(state_t | obs_0..t), seeded from the model prior. Raises
    DomainError when an observation has zero density under every state the
    chain can be in at that step.
    """
    frame_logprob = model.frame_log_likelihood(observations)
    beliefs, loglik = _backend.forward(frame_logprob[None], model.prior,
                                       model.transitions)
    if not np.isfinite(loglik[0]):
        t = int(np.argmin(np.isfinite(beliefs[0]).all(axis=1)))
        raise DomainError(f"observation {t} has zero predicted probability "
                          "under the model")
    return beliefs[0], float(loglik[0])


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
