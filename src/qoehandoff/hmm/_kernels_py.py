"""Batched NumPy forward / forward-backward kernels.

Both kernels take per-frame emission log-densities for a batch of
equal-length sequences, shape (B, T, N), and step over time once for all
rows. `forward` filters every row under one model: a prior (N,) and a
row-stochastic transition matrix (N, N). `forward_backward` takes a prior
(B, N) and a transition matrix (B, N, N) per row. The recursions are
scaled per step so that traces of arbitrary length cannot underflow, and
each row's log-evidence is accumulated from its scaling factors. A row
whose predicted mass vanishes at some frame gets NaN posteriors from that
frame on and a non-finite log-evidence; callers check the evidence.

Internally the arrays are time-major, (T, B, N), so that each step reads
and writes one contiguous (B, N) slab.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def _forward_pass(frame_logprob, prior, push):
    """Scaled forward recursion; `push` maps filtered beliefs (B, N) to the
    next step's predicted ones.

    Returns, time-major, the filtered posteriors (T, B, N), the per-step
    normalizers (T, B, 1) and the densities relative to each frame's
    maximum (T, B, N), plus each row's log-evidence (B,).
    """
    m = frame_logprob.max(axis=2)
    b = np.exp(frame_logprob - m[..., None]).transpose(1, 0, 2).copy()
    T, B, N = b.shape
    alpha = np.empty((T, B, N))
    scale = np.empty((T, B, 1))
    pred = prior
    for t in range(T):
        a = pred * b[t]
        np.add.reduce(a, axis=1, keepdims=True, out=scale[t])
        np.divide(a, scale[t], out=alpha[t])
        pred = push(alpha[t])
    loglik = np.log(scale[:, :, 0]).sum(axis=0) + m.sum(axis=1)
    return alpha, scale, b, loglik


def forward(frame_logprob: np.ndarray, prior: np.ndarray,
            tm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filtered state posteriors (B, T, N) plus each row's log-evidence (B,)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha, _, _, loglik = _forward_pass(frame_logprob, prior,
                                            lambda belief: belief @ tm)
    return alpha.transpose(1, 0, 2), loglik


def forward_backward(frame_logprob: np.ndarray, prior: np.ndarray,
                     tm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smoothed posteriors and summed pairwise transition posteriors.

    Returns (gamma, xi_sum, loglik) with shapes (B, T, N), (B, N, N) and
    (B,): gamma[r, t] is row r's posterior over states at frame t given
    its whole sequence, and xi_sum[r, i, j] the expected number of i->j
    transitions in row r.
    """
    alpha, scale, b, loglik = _forward_pass(
        frame_logprob, prior, lambda belief: np.einsum("bi,bij->bj", belief, tm))

    # w[t] = b[t] * beta[t] / scale[t] is the backward message entering
    # frame t - 1; beta and the xi sum both use it.
    T = alpha.shape[0]
    b /= scale
    beta = np.empty_like(alpha)
    w = np.empty_like(alpha)
    beta[T - 1] = 1.0
    for t in range(T - 1, 0, -1):
        np.multiply(b[t], beta[t], out=w[t])
        np.einsum("bij,bj->bi", tm, w[t], out=beta[t - 1])
    xi_sum = np.einsum("tbi,tbj->bij", alpha[:-1], w[1:]) * tm

    gamma = alpha * beta
    gamma /= gamma.sum(axis=2, keepdims=True)
    return gamma.transpose(1, 0, 2), xi_sum, loglik
