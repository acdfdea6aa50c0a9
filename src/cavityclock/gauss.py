"""Gaussian states in the covariance-matrix formalism, and their transport
under Bogoliubov maps.

Quadratures are X_{2n-1} = (a_n + a_n†)/2 and X_{2n} = -i(a_n - a_n†)/2, so
the vacuum covariance is I/4 and moments are ordered (q1, p1, q2, p2, ...).
One mode is transported by its row pair R of the real symplectic matrix:
its moments after the map are R f and R sigma Rᵀ for the multimode state
(f, sigma) before it.  `row_moments` and `apply_reduced` take a
single-mode state at the tracked mode k of a vacuum register, whose
covariance is I/4 outside mode k's 2 x 2 block, so R sigma is R/4 with two
columns replaced and the 2N x 2N covariance is never built; `row_moments`
returns the readout's det sigma' from the same pass over the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .modes import BogoliubovMap, gated_residual, symplectic_matrix

_TWO_PI = 2.0 * math.pi
_ADJ_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])
# the physicality gate's allowance for rounding: purity may read up to 1 + it
_PURITY_SLACK = 1e-9


def _remainder(x, y: float, out: np.ndarray | None = None) -> np.ndarray:
    """`math.remainder(x, y)` elementwise for y > 0, exact like the IEEE
    operation (ties to the even quotient), as an array; written into `out`
    when given, which may be `x`."""
    # fmod by 2y is exact and keeps the quotient's parity; every later
    # subtraction is exact by Sterbenz' lemma
    r = np.asarray(np.fmod(x, 2.0 * y, out=out))
    a = np.abs(r)
    step = np.where(a - y < 0.5 * y, y, 2.0 * y)
    return np.subtract(r, np.copysign(step, r, out=step), out=r,
                       where=a > 0.5 * y)


def _wrap_angle(x):
    """Wrap to the canonical branch (-pi, pi], elementwise."""
    y = _remainder(x, _TWO_PI)
    return np.where(y <= -math.pi, y + _TWO_PI, y)


@dataclass(frozen=True)
class GaussianState:
    """First moments (length 2N) and covariance matrix (2N x 2N) of N modes."""

    first_moments: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        f = np.array(self.first_moments, dtype=float)
        c = np.array(self.covariance, dtype=float)
        if f.ndim != 1 or f.size % 2 or c.shape != (f.size, f.size):
            raise ValidationError("moments must be length 2N, covariance 2N x 2N")
        # exact symmetry first: allclose is the slow part of building a state
        if not (np.array_equal(c, c.T) or np.allclose(
                c, c.T, atol=1e-12 * max(1.0, float(np.max(np.abs(c)))))):
            raise ValidationError("covariance matrix must be symmetric")
        c = 0.5 * (c + c.T)
        f.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "first_moments", f)
        object.__setattr__(self, "covariance", c)

    @property
    def mode_count(self) -> int:
        return self.first_moments.size // 2


def coherent(amplitude: float, phase: float = 0.0) -> GaussianState:
    """Single-mode coherent state: <a> = amplitude * exp(i phase)."""
    if amplitude < 0:
        raise ValidationError(f"amplitude must be >= 0, got {amplitude}")
    moments = np.array([amplitude * math.cos(phase), amplitude * math.sin(phase)])
    return GaussianState(moments, 0.25 * np.eye(2))


def squeezed_vacuum(mean_n: float, angle: float = 0.0) -> GaussianState:
    """Single-mode squeezed vacuum with <N> = sinh^2 r, r = arcsinh(sqrt N).

    `angle` is the extracted squeeze angle phi; the covariance principal axes
    sit at phi/2 with variances exp(±2r)/4.
    """
    if mean_n < 0:
        raise ValidationError(f"mean_n must be >= 0, got {mean_n}")
    r = math.asinh(math.sqrt(mean_n))
    half = 0.5 * angle
    rot = np.array([[math.cos(half), -math.sin(half)],
                    [math.sin(half), math.cos(half)]])
    cov = rot @ np.diag([0.25 * math.exp(2 * r), 0.25 * math.exp(-2 * r)]) @ rot.T
    return GaussianState(np.zeros(2), cov)


def row_moments(rows: np.ndarray, state: GaussianState, k: int, out=None,
                work: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moments of one mode after maps whose row pairs of the symplectic
    matrix are `rows` (shape (..., 2, 2N)), applied to the single-mode
    `state` placed at mode k (1-based) of an N-mode vacuum register (f,
    sigma): moments' = R f, sigma' = R sigma Rᵀ and det sigma', over any
    leading batch axes.  R sigma is R/4 with mode k's two columns replaced
    by R_k sigma_k, entry for entry the dense product, so sigma is never
    built.  The det assumes a pure state (det sigma_k = 1/16): sigma' = A +
    G, A = R_k sigma_k R_kᵀ and G = V Vᵀ/4 for V the rows without mode k's
    columns, and adj is linear on 2 x 2 matrices, so det sigma' = det(R_k)^2
    / 16 + tr(adj(sigma' - G/2) G), a sum of terms >= 0 (identity rows read
    exactly 1/16), never s11 s22 - s12^2 of O(N^2) products.

    `out` = (moments, cov, det), contiguous buffers of shapes (..., 2),
    (..., 2, 2) and (...), and `work`, shaped like `rows` (it holds R sigma,
    then V/4), are written in place like numpy's out=; each is allocated
    when not given.  sigma' is symmetric up to rounding; its consumers
    (`GaussianState`, `_covariance_terms`) symmetrize."""
    i = 2 * k - 2
    flat = rows.reshape(-1, rows.shape[-1])
    moments, cov, det = out if out is not None else (
        np.empty(rows.shape[:-1]), np.empty(rows.shape[:-1] + (2,)),
        np.empty(rows.shape[:-2]))
    # R f over all 2N columns: from R_k f_k alone the sum rounds differently
    f = np.zeros(rows.shape[-1])
    f[i:i + 2] = state.first_moments
    np.matmul(flat, f, out=moments.reshape(-1))
    work = np.multiply(rows, 0.25, out=work)
    # for a coherent state's I/4 each product is x 0.25 + y 0, exactly R/4
    np.matmul(flat[:, i:i + 2], state.covariance,
              out=work.reshape(flat.shape)[:, i:i + 2])
    # work and rows are separate buffers: numpy would route rows @ rowsᵀ to
    # a symmetric rank-k update, whose rounding differs
    np.matmul(work, rows.swapaxes(-1, -2), out=cov)
    work[..., i:i + 2] = 0.0
    g = np.matmul(work, rows.swapaxes(-1, -2))
    r_k = rows[..., i:i + 2]
    det_k = r_k[..., 0, 0] * r_k[..., 1, 1] - r_k[..., 0, 1] * r_k[..., 1, 0]
    # tr(adj(M) G) sums adj(M)ᵀ * G, and adj(M)ᵀ is M turned by 180 degrees
    # with its off-diagonal negated
    np.add(det_k * det_k / 16.0, np.einsum(
        "...ij,ij,...ij->...", (cov - 0.5 * g)[..., ::-1, ::-1], _ADJ_SIGN, g),
        out=det)
    return moments, cov, det


def apply_reduced(bmap: BogoliubovMap, k: int, state: GaussianState,
                  residual_gate: float | None = 1e-4) -> GaussianState:
    """Evolution of mode k (1-based) with all other modes in vacuum: row
    pair k of the map applied to the single-mode `state` placed at mode k
    (`row_moments`; its det, which assumes a pure state, is dropped).  When
    `residual_gate` is set, the map must pass `gated_residual` for mode k
    (truncation would silently corrupt the vacuum noise); None skips it.
    """
    if state.mode_count != 1:
        raise ValidationError("apply_reduced expects a single-mode state")
    if not 1 <= k <= bmap.n_max:
        raise ValidationError(f"mode index {k} outside [1, {bmap.n_max}]")
    if residual_gate is not None:
        gated_residual(bmap.alpha, bmap.beta, k, residual_gate,
                       "transport-map")
    rows = symplectic_matrix(bmap.alpha[k - 1:k], bmap.beta[k - 1:k])
    return GaussianState(*row_moments(rows, state, k)[:2])


@dataclass(frozen=True)
class GaussianParams:
    """Single-mode parameters: displacement alpha >= 0, phase theta, squeezing
    xi = r exp(i phi), and purity P, all on canonical branches.  Fields are
    floats, or equal-shape arrays for a batch from `_parameters`."""

    displacement: float
    phase: float
    squeeze_magnitude: float
    squeeze_angle: float
    purity: float


def _covariance_terms(cov: np.ndarray, det: np.ndarray):
    """The physicality gate of the parameter readout, on single-mode
    covariances (..., 2, 2) and their determinants `det` (...); a covariance
    need be symmetric only up to rounding (the off-diagonal entries are
    averaged).  Returns ((s11, s22, s12, det, purity, trace, split,
    squeezed), None), or (None, (i, message)) naming the first entry i (flat
    index) whose covariance is not positive definite or violates the
    uncertainty relation (purity > 1 + `_PURITY_SLACK`); the caller picks
    the error."""
    s11, s22 = cov[..., 0, 0], cov[..., 1, 1]
    s12 = 0.5 * (cov[..., 0, 1] + cov[..., 1, 0])
    # negated comparisons, so that a NaN entry fails the gate
    not_pd = ~(s11 > 0) | ~(s22 > 0) | ~(det > 0)
    with np.errstate(invalid="ignore", divide="ignore"):
        purity = 1.0 / (4.0 * np.sqrt(det))
    bad = np.flatnonzero(not_pd | ~(purity <= 1.0 + _PURITY_SLACK))
    if bad.size:
        i = int(bad[0])
        if np.ravel(not_pd)[i]:
            return None, (i, "covariance matrix is not positive definite")
        return None, (i, "covariance violates the uncertainty relation "
                         f"(purity {float(np.ravel(purity)[i])!r})")

    trace = s11 + s22
    split = np.hypot(s11 - s22, 2.0 * s12)
    squeezed = split > 1e-14 * trace  # degenerate: angle undefined, report 0
    return (s11, s22, s12, det, purity, trace, split, squeezed), None


def _angles(moments: np.ndarray, terms):
    """(displacement, phase theta, squeeze angle phi) of `_parameters`,
    without the squeeze magnitude and purity."""
    s11, s22, s12, _, _, _, _, squeezed = terms
    q, p = moments[..., 0], moments[..., 1]
    displacement = np.hypot(q, p)
    theta = np.where(displacement > 0, np.arctan2(p, q), 0.0)
    phi = np.where(squeezed,
                   _wrap_angle(np.arctan2(2.0 * s12, s11 - s22) - 2.0 * theta),
                   0.0)
    return displacement, theta, phi


def _parameters(moments: np.ndarray, terms) -> GaussianParams:
    """Parameters from moments (..., 2) and the covariance terms of
    `_covariance_terms` that passed its gate, elementwise over the leading
    axes.  r is evaluated as (1/4) ln((T+s)^2 / (4 det sigma)), the
    cancellation-free form of (1/2) artanh(s/T) with T = tr sigma and s the
    eigenvalue split."""
    _, _, _, det, purity, trace, split, squeezed = terms
    displacement, theta, phi = _angles(moments, terms)
    r = np.where(squeezed, 0.25 * np.log((trace + split) ** 2 / (4.0 * det)),
                 0.0)
    return GaussianParams(displacement, theta, r, phi, np.minimum(purity, 1.0))


def extract_params(state: GaussianState) -> GaussianParams:
    """Parameters from the first and second moments of a single-mode state
    (`_covariance_terms`, then `_parameters`); an unphysical state raises
    ValidationError.  A state given by its entries has no rows to take det
    sigma from (`row_moments`): it is s11 s22 - s12^2, which can cancel."""
    if state.mode_count != 1:
        raise ValidationError("extract_params expects a single-mode state")
    c = state.covariance
    terms, fault = _covariance_terms(c, c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])
    if fault is not None:
        raise ValidationError(fault[1])
    params = _parameters(state.first_moments, terms)
    # vars(), not dataclasses.astuple: astuple deep-copies every array field
    return GaussianParams(*map(float, vars(params).values()))
