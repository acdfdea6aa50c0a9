"""Cavity mode bases and Bogoliubov maps.

Conventions (fixed here, used everywhere downstream):

* Natural units: c = 1, lengths in meters, times in meters (ct).  A
  Minkowski cavity [x1, x2] of length L has mode frequencies w_n = n pi / L
  per meter of ct; a Rindler cavity [chi1, chi2] has Omega_n = n pi / u_max
  per unit Rindler time eta, with u_max = ln(chi2/chi1).
* Mode functions carry exp(-i w t) and the normalization 1/sqrt(n pi), which
  makes them orthonormal under the Klein-Gordon inner product on the t = 0
  (equivalently eta = 0) slice.
* A map with coefficient matrices (alpha, beta) takes annihilation operators
  of the old basis to b_m = sum_n (conj(alpha_mn) a_n - conj(beta_mn) a_n†);
  rows index the new basis, columns the old.  Under this convention a free
  segment advances the extracted state phase by +w_n t.
* All maps are truncated at n_max modes; `symplectic_residual` quantifies the
  truncation error on a leading interior block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import IO

import numpy as np

from .constants import C
from .errors import (HorizonError, QuadratureError, TruncationError,
                     ValidationError)
from .trajectory import SegmentKind, Trajectory


class BasisKind(Enum):
    MINKOWSKI = "minkowski"
    RINDLER = "rindler"


@dataclass(frozen=True)
class ModeBasis:
    """Dirichlet mode basis of a cavity, truncated at n_max modes."""

    kind: BasisKind
    x1: float
    x2: float
    n_max: int

    def __post_init__(self):
        if self.x2 <= self.x1:
            raise ValidationError("basis needs x2 > x1")
        if self.kind is BasisKind.RINDLER and self.x1 <= 0:
            raise ValidationError("Rindler basis needs x1 > 0 (horizon at chi = 0)")
        if self.n_max < 1:
            raise ValidationError("n_max must be >= 1")

    @property
    def length(self) -> float:
        return self.x2 - self.x1

    @property
    def log_ratio(self) -> float:
        """u_max = ln(x2/x1); the Rindler conformal length."""
        return math.log(self.x2 / self.x1)

    def frequency(self, n: int) -> float:
        """w_n (per meter of ct) or Omega_n (per unit eta)."""
        if not 1 <= n <= self.n_max:
            raise ValidationError(f"mode index {n} outside [1, {self.n_max}]")
        if self.kind is BasisKind.MINKOWSKI:
            return n * math.pi / self.length
        return n * math.pi / self.log_ratio

    def frequencies(self) -> np.ndarray:
        n = np.arange(1, self.n_max + 1)
        if self.kind is BasisKind.MINKOWSKI:
            return n * (np.pi / self.length)
        return n * (np.pi / self.log_ratio)


# Panel budget of the composite quadrature: doubling stops beyond it.
_MAX_PANELS = 1024


@lru_cache(maxsize=8)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _composite_nodes(a: float, b: float, panels: int,
                     order: int = 32) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


@dataclass(frozen=True)
class BogoliubovMap:
    """Truncated Bogoliubov coefficient matrices (alpha, beta)."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.array(self.alpha, dtype=complex)
        b = np.array(self.beta, dtype=complex)
        if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError("alpha and beta must be equal square matrices")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def n_max(self) -> int:
        return self.alpha.shape[0]

    @classmethod
    def identity(cls, n_max: int) -> "BogoliubovMap":
        return cls(np.eye(n_max, dtype=complex), np.zeros((n_max, n_max), complex))

    def compose(self, first: "BogoliubovMap") -> "BogoliubovMap":
        """self ∘ first: apply `first`, then this map."""
        if first.n_max != self.n_max:
            raise ValidationError(
                f"cannot compose maps of size {self.n_max} and {first.n_max}")
        a2, b2 = self.alpha, self.beta
        a1, b1 = first.alpha, first.beta
        return BogoliubovMap(a2 @ a1 + b2 @ np.conj(b1),
                             a2 @ b1 + b2 @ np.conj(a1))

    def inverse(self) -> "BogoliubovMap":
        """Symplectic inverse: alpha -> alpha†, beta -> -betaᵀ."""
        return BogoliubovMap(self.alpha.conj().T, -self.beta.T)

    def passive_part(self) -> "BogoliubovMap":
        """Mode-mixing-only map: beta zeroed, alpha re-unitarized by polar
        decomposition (the particle-creation content is discarded)."""
        u, _, vh = np.linalg.svd(self.alpha)
        return BogoliubovMap(u @ vh, np.zeros_like(self.beta))


def _diag_phase_map(frequencies: np.ndarray, duration: float) -> BogoliubovMap:
    phases = np.exp(-1j * frequencies * duration)
    n = frequencies.size
    return BogoliubovMap(np.diag(phases), np.zeros((n, n), complex))


def free_phase_map(basis: ModeBasis, duration: float) -> BogoliubovMap:
    """Free evolution for `duration` of the basis' own time coordinate
    (meters of ct for Minkowski, Rindler time eta for Rindler)."""
    if duration < 0:
        raise ValidationError(f"duration must be >= 0, got {duration}")
    return _diag_phase_map(basis.frequencies(), duration)


def _atanh_minus_z(z: float) -> float:
    """artanh(z) - z without cancellation for small z."""
    if z < 0.1:
        z2 = z * z
        acc = 0.0
        term = z * z2
        for k in (3, 5, 7, 9, 11, 13):
            acc += term / k
            term *= z2
        return acc
    return math.atanh(z) - z


def junction_map(h: float, n_max: int, tol: float = 1e-12) -> BogoliubovMap:
    """Instantaneous Minkowski -> Rindler basis change on the matching slice.

    Depends on the geometry only through h = aL/c^2; computed in rescaled
    units L = 1, chi1 = 1/h - 1/2.  Rows index Rindler modes, columns
    Minkowski modes.  The integrals run over u = ln(chi/chi1), where the
    Rindler profile is a pure sine; large 1/h terms are regrouped so every
    entry stays accurate down to h ~ 1e-12 in absolute terms only (~1e-15):
    there (alpha - I)/h and beta/h are off by up to ~1e-3.
    """
    if not 0 < h:
        raise ValidationError(f"junction needs h > 0, got {h}")
    if h >= 2:
        raise HorizonError(f"cavity intersects the Rindler horizon: h = {h} >= 2")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")

    u_max = 2.0 * math.atanh(h / 2.0)
    chi1 = 1.0 / h - 0.5
    # d = chi1 - 1/u_max, the O(1) remainder of two ~1/h terms
    d = 2.0 * _atanh_minus_z(h / 2.0) / (h * u_max) - 0.5
    n = np.arange(1.0, n_max + 1.0)
    inv_s = 1.0 / np.sqrt(np.outer(n, n))
    sum_nm = (n[:, None] + n[None, :]) / u_max
    dif_nm = (n[None, :] - n[:, None]) / u_max

    def level(panels: int) -> tuple[np.ndarray, np.ndarray]:
        u, w = _composite_nodes(0.0, u_max, panels)
        xi = chi1 * np.expm1(u)
        rind = np.sin(np.pi * np.outer(n, u) / u_max)
        mink = np.sin(np.pi * np.outer(n, xi))
        a0 = (rind * w) @ mink.T
        a1 = (rind * (w * (d + xi))) @ mink.T
        base = n[None, :] * a1
        return inv_s * (base + sum_nm * a0), inv_s * (base + dif_nm * a0)

    panels = max(2, n_max // 8)
    alpha, beta = level(panels)
    estimate = math.inf
    while panels <= _MAX_PANELS:
        panels *= 2
        alpha2, beta2 = level(panels)
        estimate = max(float(np.max(np.abs(alpha2 - alpha))),
                       float(np.max(np.abs(beta2 - beta))))
        if estimate <= tol:
            return BogoliubovMap(alpha2, beta2)
        alpha, beta = alpha2, beta2
    raise QuadratureError("junction_map quadrature did not converge", estimate)


def _parity_conjugate(bmap: BogoliubovMap) -> BogoliubovMap:
    """Spatial reflection x -> x1 + x2 - x: conjugation by diag((-1)^(n+1)).

    Maps the Bogoliubov content of a +x-accelerated segment onto that of a
    -x-accelerated one (the Rindler wedge sits on the opposite side).
    """
    s = np.where(np.arange(1, bmap.n_max + 1) % 2 == 1, 1.0, -1.0)
    sign = np.outer(s, s)
    return BogoliubovMap(bmap.alpha * sign, bmap.beta * sign)


def _map_power(block: BogoliubovMap, exponent: int) -> BogoliubovMap:
    """block^exponent for exponent >= 1: the squares of `block` for the set
    bits of `exponent`, lowest first, each composed on the left.  Costs
    bit_length - 1 squarings and popcount - 1 products."""
    result = None
    base = block
    while True:
        if exponent & 1:
            result = base if result is None else base.compose(result)
        exponent >>= 1
        if not exponent:
            return result
        base = base.compose(base)


def trajectory_map(traj: Trajectory, L: float, n_max: int,
                   tol: float = 1e-12) -> BogoliubovMap:
    """Whole-trajectory Bogoliubov map in the co-moving Minkowski basis.

    Each accelerated segment contributes inverse(junction) ∘ rindler_free ∘
    junction evaluated in the segment's instantaneous rest frame; inertial
    segments contribute Minkowski free evolution for their proper duration.
    Repetitions are expanded by squaring the single-block map, so 500
    repetitions cost 13 compositions.
    """
    if L <= 0:
        raise ValidationError(f"cavity length must be > 0, got {L}")
    mink = ModeBasis(BasisKind.MINKOWSKI, 0.0, L, n_max)
    jcache: dict[float, BogoliubovMap] = {}
    block = BogoliubovMap.identity(n_max)
    for seg in traj.segments:
        block = _segment_map(seg, mink, L, n_max, tol, jcache).compose(block)
    return _map_power(block, traj.repetitions)


def _segment_map(seg, mink: ModeBasis, L: float, n_max: int, tol: float,
                 jcache: dict[float, BogoliubovMap]) -> BogoliubovMap:
    a = seg.proper_acceleration
    if seg.kind is SegmentKind.INERTIAL or a == 0.0:
        return free_phase_map(mink, C * seg.proper_duration)
    h = abs(a) * L / C**2
    junction = jcache.get(h)
    if junction is None:
        junction = junction_map(h, n_max, tol)
        jcache[h] = junction
    # Omega_n from u_max = 2 artanh(h/2) directly: the boundary-ratio route
    # log(chi2/chi1) loses ~1e-9 relative precision once h ~ 1e-7
    u_max = 2.0 * math.atanh(h / 2.0)
    omegas = np.arange(1, n_max + 1) * (math.pi / u_max)
    eta = abs(a) * seg.proper_duration / C
    segment = junction.inverse().compose(
        _diag_phase_map(omegas, eta).compose(junction))
    if a < 0:
        segment = _parity_conjugate(segment)
    return segment


def symplectic_residual(bmap: BogoliubovMap, interior: int) -> tuple[float, float]:
    """(eps1, eps2) = max-norm defects of the symplectic identities
    alpha alpha† - beta beta† = I and alpha betaᵀ - beta alphaᵀ = 0,
    restricted to the leading interior x interior block."""
    if not 1 <= interior <= bmap.n_max:
        raise ValidationError(
            f"interior block size {interior} outside [1, {bmap.n_max}]")
    a = bmap.alpha[:interior, :]
    b = bmap.beta[:interior, :]
    g1 = a @ a.conj().T - b @ b.conj().T - np.eye(interior)
    g2 = a @ b.T - b @ a.T
    return float(np.max(np.abs(g1))), float(np.max(np.abs(g2)))


def gated_residual(bmap: BogoliubovMap, clock_mode: int, gate: float | None,
                   what: str) -> tuple[float, float]:
    """`symplectic_residual` on the interior block trusted for the 1-based
    `clock_mode`: the leading min(clock_mode + 4, n_max) modes.

    Raises TruncationError unless eps1 <= `gate`, so a NaN residual fails
    too (None disables the gate); `what` names the map in the message.
    """
    interior = min(clock_mode + 4, bmap.n_max)
    eps1, eps2 = symplectic_residual(bmap, interior)
    if gate is not None and not eps1 <= gate:
        raise TruncationError(
            f"{what} symplectic residual {eps1:.3e} exceeds gate {gate:.3e} "
            f"on the leading {interior}x{interior} block; increase n_max")
    return eps1, eps2


_DUMP_HEADER = "# cavityclock bogoliubov map v1"
_CONVENTION = "modes exp(-iwt); b_m = conj(alpha) a - conj(beta) a_dag; row=new, col=old"


def dump_map(bmap: BogoliubovMap, fh: IO[str],
             meta: dict[str, object] | None = None) -> None:
    """Textual dump: header with n_max and convention tag, then one row per
    (m, n) pair in row-major order with shortest round-trip float fields."""
    fh.write(_DUMP_HEADER + "\n")
    fh.write(f"# n_max={bmap.n_max}\n")
    fh.write(f"# convention={_CONVENTION}\n")
    for key in sorted(meta or {}):
        fh.write(f"# {key}={meta[key]!r}\n")
    fh.write("# m n alpha_re alpha_im beta_re beta_im\n")
    for m in range(bmap.n_max):
        for n in range(bmap.n_max):
            al, be = bmap.alpha[m, n], bmap.beta[m, n]
            fh.write(f"{m + 1} {n + 1} {float(al.real)!r} {float(al.imag)!r} "
                     f"{float(be.real)!r} {float(be.imag)!r}\n")
