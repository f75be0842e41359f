"""Kernel backend selection.

Both backends are exposed through the batched contract of `_kernels_py`:
`forward(flp[B, T, N], prior[N], tm[N, N])` and
`forward_backward(flp[B, T, N], prior[B, N], tm[B, N, N])`. The NumPy
kernels step over time once for the whole batch. When the compiled
extension was built it is preferred, and its per-sequence kernels are
looped over the rows. Set QOEHANDOFF_PURE_PYTHON=1 to force the NumPy
kernels.
"""

import os

import numpy as np

from . import _kernels_py

try:
    if os.environ.get("QOEHANDOFF_PURE_PYTHON"):
        raise ImportError("NumPy kernels requested")
    from . import _kernels_c  # type: ignore[attr-defined]
except ImportError:
    _kernels_c = None


def _compiled_forward(frame_logprob, prior, tm):
    out = [_kernels_c.forward(flp, prior, tm) for flp in frame_logprob]
    return np.stack([f for f, _ in out]), np.array([ll for _, ll in out])


def _compiled_forward_backward(frame_logprob, prior, tm):
    out = [_kernels_c.forward_backward(*row)
           for row in zip(frame_logprob, prior, tm)]
    return (np.stack([g for g, _, _ in out]), np.stack([x for _, x, _ in out]),
            np.array([ll for _, _, ll in out]))


if _kernels_c is None:
    forward = _kernels_py.forward
    forward_backward = _kernels_py.forward_backward
    BACKEND = _kernels_py.BACKEND
else:
    forward = _compiled_forward
    forward_backward = _compiled_forward_backward
    BACKEND = _kernels_c.BACKEND
