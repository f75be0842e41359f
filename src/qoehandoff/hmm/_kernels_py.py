"""Batched NumPy forward / forward-backward kernels.

Both kernels take per-frame emission log-densities for a batch of
equal-length sequences, shape (B, T, N), with a prior (B, N) and a
row-stochastic transition matrix (B, N, N) per row, and both run one loop
of T steps over all rows (`_scan`). Every recursion step is scaled by its
own sum so that traces of arbitrary length cannot underflow, and each
row's log-evidence is accumulated from its forward scaling factors. A row
whose predicted mass vanishes at some frame gets NaN posteriors from that
frame on and a non-finite log-evidence; callers check the evidence.

The loop works on a state-major slab (T, N, B). Each frame's densities,
relative to its largest, are exponentiated once, into the slab; the
largest is taken over states off the innermost axis, where NumPy reduces
about ten times slower. Step t works on the contiguous (N, B) slab
`slab[t]` in four NumPy calls: multiply by the emission densities, sum
over states, divide by the sum, push through the transition matrices.
The loop steps over per-frame views, passes outputs positionally and
skips np.einsum's Python wrapper, so a step does only its NumPy work.
Each step's products overwrite that frame's densities, so after the loop
the slab holds the filtered posteriors alpha, which `forward` returns.

`forward_backward` runs the loop on a slab (T, N, 2B) whose columns B:
take the densities mirrored in time, so both recursions share its steps.
- Columns :B run the scaled forward recursion on frame t, with the float
  operations of `forward`, so alpha and the log-evidence are
  bit-identical to the filter's.
- Columns B: run the backward recursion on frame T-1-t, time-reversed and
  pushed through each row's transposed transition matrix. Each step is
  normalized by its own sum, not by the forward scales (those of frame
  T-1-t are not known yet), so `slab[T-1-t, :, B:]` ends up holding w[t],
  frame t's densities times its backward message, summing to one.
Then beta[t] = tm @ w[t + 1] is rebuilt in one `einsum`, and
z[t] = alpha[t] . beta[t] normalizes both gamma = alpha * beta and the
pairwise posteriors alpha[t] (x) w[t + 1] * tm, whose sum over time is
one matrix product. Gamma and the transition counts differ from those of
the forward-scaled backward pass by rounding only (about 1e-15 relative).

Normalized by their own sums, the backward messages can put their mass
on states the forward pass rules out, until the products of the states
that matter underflow. The transitions into each state then no longer add
up to its smoothed occupancy; a row where they miss by more than rounding
is smoothed again with both recursions in log space.
"""

from __future__ import annotations

import numpy as np

# np.einsum's C core, a private NumPy name that every NumPy 2.x has: the
# Python wrapper costs as much as a loop step's call.
from numpy._core.multiarray import c_einsum as _einsum

BACKEND = "python"


def forward(frame_logprob: np.ndarray, prior: np.ndarray,
            tm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filtered state posteriors (B, T, N) plus each row's log-evidence (B,)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha, _, loglik = _scan(frame_logprob, prior, tm, mirror=False)
    return alpha.transpose(2, 0, 1), loglik


def forward_backward(frame_logprob: np.ndarray, prior: np.ndarray,
                     tm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smoothed posteriors and summed pairwise transition posteriors.

    Returns (gamma, xi_sum, loglik) with shapes (B, T, N), (B, N, N) and
    (B,): gamma[r, t] is row r's posterior over states at frame t given
    its whole sequence, and xi_sum[r, i, j] the expected number of i->j
    transitions in row r.
    """
    B, T, N = frame_logprob.shape
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slab, push, loglik = _scan(frame_logprob, prior, tm, mirror=True)
        alpha = slab[:, :, :B]
        w = slab[::-1, :, B:]
        # gamma holds beta until alpha / z scales it into the posteriors.
        gamma = np.empty((T, N, B))
        gamma[-1] = 1.0
        np.einsum("ijb,tjb->tib", push[:, :, :B], w[1:], out=gamma[:-1])
        inv_z = np.einsum("tib,tib->tb", alpha, gamma)
        np.divide(1.0, inv_z, out=inv_z)
        np.einsum("tib,tb->tib", alpha, inv_z, out=alpha)
        xi_sum = np.matmul(alpha[:-1].transpose(2, 1, 0), w[1:].transpose(2, 0, 1)) * tm
        gamma *= alpha

        # Transitions into each state against its occupancy of frames
        # 1..T-1; rounding alone stays far inside this bound.
        drift = np.abs(xi_sum.sum(axis=1) - gamma[1:].sum(axis=0).T).max(axis=1)
        lost = np.flatnonzero(np.isfinite(loglik) & ~(drift <= 1e-13 + 1e-15 * T * T))
        if lost.size:
            gamma[:, :, lost], xi_sum[lost] = _log_smooth(
                frame_logprob[lost], prior[lost], tm[lost])
    return gamma.transpose(2, 0, 1), xi_sum, loglik


def _scan(frame_logprob, prior, tm, mirror):
    """The loop both kernels run, over a slab (T, N, B), or (T, N, 2B)
    with `mirror`: returns the slab, the matrices (N, N, B or 2B) its
    columns were pushed through and each row's log-evidence (B,)."""
    B, T, N = frame_logprob.shape
    width = 2 * B if mirror else B
    # Frame t's densities in columns :B, each relative to the frame's
    # maximum, and frame T-1-t's, copied from them, in columns B:.
    slab = np.empty((T, N, width))
    ahead = slab[:, :, :B]
    ahead[...] = frame_logprob.transpose(1, 2, 0)
    m = ahead.max(axis=1)
    loglik = np.ascontiguousarray(m.T).sum(axis=1)  # as (B, T) sums it
    np.subtract(ahead, m[:, None], ahead)
    np.exp(ahead, ahead)
    del m
    # push[i, j] carries state i's mass to state j: tm in the forward
    # columns, tm transposed in the backward ones.
    push = np.empty((N, N, width))
    push[:, :, :B] = tm.transpose(1, 2, 0)
    msg = np.empty((N, width))
    msg[:, :B] = prior.T
    if mirror:
        slab[:, :, B:] = ahead[::-1]
        push[:, :, B:] = tm.transpose(2, 1, 0)
        msg[:, B:] = 1.0
    scale = np.empty((T, width))
    for a, s in zip(slab, scale):
        np.multiply(msg, a, a)
        np.add.reduce(a, 0, None, s)
        np.divide(a, s, a)
        _einsum("ib,ijb->jb", a, push, out=msg)
    loglik += np.log(scale[:, :B]).sum(axis=0)
    return slab, push, loglik


def _log_smooth(frame_logprob, prior, tm):
    """Gamma (T, N, B) and xi_sum (B, N, N) with both recursions in log
    space: a Python step per frame and direction, but nothing underflows.
    Frames are shifted by their largest log-density, so the messages keep
    their digits however far below zero the log-evidence goes."""
    flp = frame_logprob.transpose(1, 2, 0)
    flp = flp - flp.max(axis=1, keepdims=True)
    log_tm = np.log(tm).transpose(1, 2, 0)
    log_alpha = np.empty_like(flp)
    log_alpha[0] = np.log(prior.T) + flp[0]
    log_beta = np.zeros_like(flp)
    T = flp.shape[0]
    for t in range(1, T):
        log_alpha[t] = _log_sum_exp(log_alpha[t - 1][:, None] + log_tm, axis=0) + flp[t]
        log_beta[T - 1 - t] = _log_sum_exp(log_tm + flp[T - t] + log_beta[T - t], axis=1)
    gamma = _normalized_exp(log_alpha + log_beta, axis=(1,))
    xi = _normalized_exp(log_alpha[:-1, :, None] + log_tm
                         + (flp[1:] + log_beta[1:])[:, None], axis=(1, 2))
    return gamma, xi.sum(axis=0).transpose(2, 0, 1)


def _log_sum_exp(x, axis):
    top = x.max(axis=axis)
    top[np.isinf(top)] = 0.0
    return np.log(np.exp(x - np.expand_dims(top, axis)).sum(axis=axis)) + top


def _normalized_exp(log_p, axis):
    p = np.exp(log_p - log_p.max(axis=axis, keepdims=True))
    return p / p.sum(axis=axis, keepdims=True)
