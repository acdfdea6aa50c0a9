"""Dense-transport oracle for `gauss.row_moments`: the single-mode state
embedded at mode k of a vacuum register as the whole (f, sigma) of 2N
moments and a 2N x 2N covariance (`embed`), then R f and R sigma Rᵀ.  The
library skips the vacuum covariance and should match this bit for bit."""

import numpy as np

from cavityclock import embed


def dense_row_moments(rows: np.ndarray, state, k: int):
    """(moments, covariance) of mode k after row pairs `rows` (..., 2, 2N)
    act on `state` embedded at mode k (1-based) of an N-mode register."""
    embedded = embed(state, rows.shape[-1] // 2, k)
    flat = rows.reshape(-1, rows.shape[-1])
    moments = (flat @ embedded.first_moments).reshape(rows.shape[:-1])
    half = (flat @ embedded.covariance).reshape(rows.shape)
    return moments, half @ np.swapaxes(rows, -1, -2)
