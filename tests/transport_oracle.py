"""Dense multimode transport, the oracle for the clock-mode row transport
(`gauss.row_moments`, `apply_reduced`): a single-mode state embedded at mode
k of a vacuum register as the whole (f, sigma) of 2N moments and a 2N x 2N
covariance (`embed`), the full symplectic action on all of it
(`apply_full`), and the partial trace back to mode k.  The library skips
the vacuum covariance and should match `dense_row_moments` bit for bit."""

import numpy as np

from cavityclock import BogoliubovMap, GaussianState, ValidationError
from cavityclock.modes import symplectic_matrix


def vacuum(mode_count: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * mode_count),
                         0.25 * np.eye(2 * mode_count))


def embed(state: GaussianState, mode_count: int, k: int) -> GaussianState:
    """Place a single-mode state at mode k (1-based) of an otherwise vacuum
    `mode_count`-mode register."""
    if state.mode_count != 1:
        raise ValidationError("embed expects a single-mode state")
    if not 1 <= k <= mode_count:
        raise ValidationError(f"mode index {k} outside [1, {mode_count}]")
    f = np.zeros(2 * mode_count)
    c = 0.25 * np.eye(2 * mode_count)
    i = 2 * (k - 1)
    f[i:i + 2] = state.first_moments
    c[i:i + 2, i:i + 2] = state.covariance
    return GaussianState(f, c)


def apply_full(bmap: BogoliubovMap, state: GaussianState) -> GaussianState:
    """Full multimode symplectic action on all 2N moments."""
    n = state.mode_count
    if bmap.n_max != n:
        raise ValidationError(
            f"map size {bmap.n_max} does not match state with {n} modes")
    s = symplectic_matrix(bmap.alpha, bmap.beta)
    cov = s @ state.covariance @ s.T
    return GaussianState(s @ state.first_moments, 0.5 * (cov + cov.T))


def partial_trace(state: GaussianState, keep: int) -> GaussianState:
    """Discard all modes but `keep` (1-based): row/column deletion."""
    if not 1 <= keep <= state.mode_count:
        raise ValidationError(f"mode index {keep} outside [1, {state.mode_count}]")
    i = 2 * (keep - 1)
    idx = [i, i + 1]
    return GaussianState(state.first_moments[idx],
                         state.covariance[np.ix_(idx, idx)])


def dense_row_moments(rows: np.ndarray, state, k: int):
    """(moments, covariance) of mode k after row pairs `rows` (..., 2, 2N)
    act on `state` embedded at mode k (1-based) of an N-mode register."""
    embedded = embed(state, rows.shape[-1] // 2, k)
    flat = rows.reshape(-1, rows.shape[-1])
    moments = (flat @ embedded.first_moments).reshape(rows.shape[:-1])
    half = (flat @ embedded.covariance).reshape(rows.shape)
    return moments, half @ np.swapaxes(rows, -1, -2)
