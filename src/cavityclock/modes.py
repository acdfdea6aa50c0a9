"""Cavity-mode Bogoliubov maps.

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
* `BogoliubovMap` holds (alpha, beta) and is what the library hands out, but
  the pipeline does its map arithmetic on the real 2n x 2n symplectic matrix
  S (`symplectic_matrix`), multiplied right to left (`S_second @ S_first`):
  one real product per step, and coasts as elementwise turns of row pairs.
  `trajectory_map` converts S back once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Callable

import numpy as np

from .constants import C
from .errors import (HorizonError, QuadratureError, TruncationError,
                     ValidationError)
from .trajectory import Trajectory


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

    def passive_part(self) -> "BogoliubovMap":
        """Mode-mixing-only map: beta zeroed, alpha re-unitarized by polar
        decomposition (the particle-creation content is discarded)."""
        u, _, vh = np.linalg.svd(self.alpha)
        return BogoliubovMap(u @ vh, np.zeros_like(self.beta))


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

    def level(panels: int) -> tuple[np.ndarray, np.ndarray]:
        """The raw overlap sums (a0, a1) on `panels` panels.  The n_max x
        nodes tables are built in place: a broadcast product would add a
        numpy iterator buffer of their size on top of its output."""
        u, w = _composite_nodes(0.0, u_max, panels)
        xi = chi1 * np.expm1(u)
        rind = np.einsum("i,j->ij", n, u)
        np.multiply(np.pi, rind, out=rind)
        np.divide(rind, u_max, out=rind)
        np.sin(rind, out=rind)
        mink = np.einsum("i,j->ij", n, xi)
        np.multiply(np.pi, mink, out=mink)
        np.sin(mink, out=mink)
        weighted = np.einsum("ij,j->ij", rind, w)
        a0 = weighted @ mink.T
        np.einsum("ij,j->ij", rind, w * (d + xi), out=weighted)
        return a0, weighted @ mink.T

    panels = max(2, n_max // 8)
    coarse = level(panels)
    tables = None
    estimate = math.inf
    while panels <= _MAX_PANELS:
        panels *= 2
        fine = level(panels)
        if tables is None:
            # built once, after the first finer level: alive through it, the
            # combination tables would add to its peak allocation
            tables = (1.0 / np.sqrt(np.outer(n, n)),
                      (n[:, None] + n[None, :]) / u_max,
                      (n[None, :] - n[:, None]) / u_max)
            alpha, beta = _junction_entries(*coarse, n, *tables)
        alpha2, beta2 = _junction_entries(*fine, n, *tables)
        estimate = max(float(np.max(np.abs(alpha2 - alpha))),
                       float(np.max(np.abs(beta2 - beta))))
        if estimate <= tol:
            return BogoliubovMap(alpha2, beta2)
        alpha, beta = alpha2, beta2
    raise QuadratureError("junction_map quadrature did not converge", estimate)


def _junction_entries(a0: np.ndarray, a1: np.ndarray, n: np.ndarray,
                      inv_s: np.ndarray, sum_nm: np.ndarray,
                      dif_nm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of `junction_map` from one level's raw sums."""
    base = n[None, :] * a1
    return inv_s * (base + sum_nm * a0), inv_s * (base + dif_nm * a0)


def symplectic_matrix(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Real 2m x 2n matrix acting on quadratures (q1, p1, q2, p2, ...) for m
    rows of a map's (alpha, beta); row pair k holds the M_kn blocks."""
    amb, apb = alpha - beta, alpha + beta
    s = np.empty((2 * alpha.shape[0], 2 * alpha.shape[1]))
    s[0::2, 0::2] = amb.real
    s[0::2, 1::2] = apb.imag
    s[1::2, 0::2] = -amb.imag
    s[1::2, 1::2] = apb.real
    return s


def _bogoliubov(s: np.ndarray) -> BogoliubovMap:
    """The map whose `symplectic_matrix` is `s` (up to rounding)."""
    qq, qp = s[0::2, 0::2], s[0::2, 1::2]
    pq, pp = s[1::2, 0::2], s[1::2, 1::2]
    return BogoliubovMap(0.5 * ((qq + pp) + 1j * (qp - pq)),
                         0.5 * ((pp - qq) + 1j * (qp + pq)))


def _rotate_rows(s: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """rot @ s for the free-phase map rot = exp(-i phi_n) with cos(phi_n)
    and sin(phi_n) given: row pair n of `s` turned by phi_n, elementwise.
    The product of two such rotations is again exactly one (equal diagonal,
    opposite off-diagonal entries), so beta stays exactly zero."""
    q, p = s[0::2], s[1::2]
    cos, sin = cos[:, None], sin[:, None]
    out = np.empty_like(s)
    out[0::2] = cos * q - sin * p
    out[1::2] = sin * q + cos * p
    return out


def _rotation_product(rot: np.ndarray, s: np.ndarray) -> np.ndarray:
    """rot @ s for a rotation `rot` built by `_rotate_rows`."""
    return _rotate_rows(s, np.diagonal(rot)[0::2], np.diagonal(rot, -1)[0::2])


def _map_power(base: np.ndarray, exponent: int,
               product: Callable = np.matmul) -> np.ndarray:
    """base^exponent for exponent >= 1: the squares of `base` for the set
    bits of `exponent`, lowest first, each multiplied on the left by
    `product`.  Costs bit_length - 1 squarings and popcount - 1 products."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else product(base, result)
        exponent >>= 1
        if not exponent:
            return result
        base = product(base, base)


def _block_symplectic(traj: Trajectory, L: float, n_max: int,
                      tol: float) -> tuple[np.ndarray, Callable]:
    """Real symplectic matrix S of one pass through `traj.segments`, and the
    product that powers it: `np.matmul`, or `_rotation_product` when no
    segment accelerates and S is a pure rotation.

    An accelerated segment is S_J^-1 rot(Omega eta) S_J for the junction
    S_J at its h, in the segment's instantaneous rest frame; a coast turns
    the row pairs of the running product, which starts from the first
    segment, and a zero-length coast after the first segment is skipped.
    Each distinct accelerated segment is built once per call.
    """
    if L <= 0:
        raise ValidationError(f"cavity length must be > 0, got {L}")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    omegas = np.arange(1, n_max + 1) * (np.pi / L)
    junctions: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    segments: dict[tuple[float, float], np.ndarray] = {}
    block = None
    for seg in traj.segments:
        a = seg.proper_acceleration
        if a == 0.0:
            if seg.proper_duration == 0.0 and block is not None:
                continue  # a turn by cos 0 and sin 0 changes nothing
            phases = omegas * (C * seg.proper_duration)
            block = _rotate_rows(np.eye(2 * n_max) if block is None else block,
                                 np.cos(phases), np.sin(phases))
            continue
        key = (a, seg.proper_duration)
        s = segments.get(key)
        if s is None:
            s = segments[key] = _accelerated_segment(a, seg.proper_duration, L,
                                                     n_max, tol, junctions)
        block = s if block is None else s @ block
    return block, np.matmul if segments else _rotation_product


def _junction_pair(h: float, n_max: int,
                   tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(S_J, S_J^-1) of `junction_map(h, n_max, tol)`: the symplectic
    inverse (alpha†, -betaᵀ) is S_J's entries rearranged."""
    jmap = junction_map(h, n_max, tol)
    return (symplectic_matrix(jmap.alpha, jmap.beta),
            symplectic_matrix(jmap.alpha.conj().T, -jmap.beta.T))


def _accelerated_segment(a: float, duration: float, L: float, n_max: int,
                         tol: float, junctions: dict) -> np.ndarray:
    """S of one segment at proper acceleration `a` for `duration` seconds;
    `junctions` caches S_J and S_J^-1 by h across calls."""
    h = abs(a) * L / C**2
    pair = junctions.get(h)
    if pair is None:
        pair = junctions[h] = _junction_pair(h, n_max, tol)
    s_j, s_j_inv = pair
    # Omega_n from u_max = 2 artanh(h/2) directly: the boundary-ratio route
    # log(chi2/chi1) loses ~1e-9 relative precision once h ~ 1e-7
    u_max = 2.0 * math.atanh(h / 2.0)
    omegas = np.arange(1, n_max + 1) * (math.pi / u_max)
    phases = omegas * (abs(a) * duration / C)
    s = s_j_inv @ _rotate_rows(s_j, np.cos(phases), np.sin(phases))
    if a < 0:
        # the Rindler wedge on the other side: the spatial reflection
        # x -> x1 + x2 - x conjugates the map by diag((-1)^(n+1))
        parity = np.where(np.arange(2 * n_max) % 4 < 2, 1.0, -1.0)
        s *= np.outer(parity, parity)
    return s


def trajectory_map(traj: Trajectory, L: float, n_max: int,
                   tol: float = 1e-12) -> BogoliubovMap:
    """Whole-trajectory Bogoliubov map in the co-moving Minkowski basis.

    Each accelerated segment contributes S_J^-1 rot(Omega eta) S_J for the
    junction S_J (`_junction_pair`) in the segment's instantaneous rest
    frame; inertial segments contribute Minkowski free evolution for their
    proper duration.
    The arithmetic runs on the real symplectic matrix (`_block_symplectic`),
    converted to (alpha, beta) once at the end.  Repetitions are expanded
    by squaring the block's matrix, so 500 repetitions cost 13 products.
    """
    block, product = _block_symplectic(traj, L, n_max, tol)
    return _bogoliubov(_map_power(block, traj.repetitions, product))


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


_TRUSTED_MARGIN = 4  # modes above the clock mode in its trusted block


def _trusted_interior(clock_mode: int, n_max: int) -> int:
    """The leading min(clock_mode + _TRUSTED_MARGIN, n_max) modes are
    trusted for the 1-based `clock_mode`: the block residuals are read on."""
    return min(clock_mode + _TRUSTED_MARGIN, n_max)


def gated_residual(bmap: BogoliubovMap, clock_mode: int, gate: float | None,
                   what: str) -> tuple[float, float]:
    """`symplectic_residual` on the interior block trusted for the 1-based
    `clock_mode` (`_trusted_interior`).

    Raises TruncationError unless eps1 <= `gate`, so a NaN residual fails
    too (None disables the gate); `what` names the map in the message.
    """
    interior = _trusted_interior(clock_mode, bmap.n_max)
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
