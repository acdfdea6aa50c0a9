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
  S (`symplectic_matrix`), multiplied right to left (`S_second @ S_first`),
  and converts back only the rows it reads (`_coefficients`); the junction
  is real (`_junction_blocks`), and coasts turn row pairs elementwise.
"""

from __future__ import annotations

import math
import sys
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
    if h * u_max == 0:  # underflows for h below about 1.5e-162
        raise QuadratureError(f"junction_map cannot resolve h = {h!r}: "
                              "h * u_max underflows to 0", math.inf)
    # d = chi1 - 1/u_max, the O(1) remainder of two ~1/h terms
    d = 2.0 * _atanh_minus_z(h / 2.0) / (h * u_max) - 0.5
    n = np.arange(1.0, n_max + 1.0)

    def level(panels: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The raw overlap sums (a0, a1) on `panels` panels: the Minkowski
        table (n_max x nodes) whole, the Rindler table and its weighted copy
        in blocks of `rows` modes (the last takes the rest).  Tables are
        built in place, with no broadcast product: its numpy iterator buffer
        would add to the peak allocation."""
        u, w = _composite_nodes(0.0, u_max, panels)
        xi = chi1 * np.expm1(u)
        mink = np.dot(n[:, None], xi[None], out=np.empty((n_max, u.size)))
        np.multiply(np.pi, mink, out=mink)
        np.sin(mink, out=mink)
        w_shift = w * (d + xi)
        del xi
        a0, a1 = np.empty((2, n_max, n_max))
        edges = [i * rows for i in range(max(1, n_max // rows))] + [n_max]
        rind, weighted = np.empty((2, n_max - edges[-2], u.size))
        for lo, hi in zip(edges, edges[1:]):
            r, wr = rind[:hi - lo], weighted[:hi - lo]
            np.dot(n[lo:hi, None], u[None], out=r)
            np.multiply(np.pi, r, out=r)
            np.divide(r, u_max, out=r)
            np.sin(r, out=r)
            for weight, sums in ((w, a0), (w_shift, a1)):
                wr[...] = weight
                np.multiply(r, wr, out=wr)
                np.matmul(wr, mink.T, out=sums[lo:hi])
        return a0, a1

    def entries(a0: np.ndarray, a1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, beta) from one level's raw sums."""
        inv_s, sum_nm, dif_nm = tables
        base = n[None, :] * a1
        return inv_s * (base + sum_nm * a0), inv_s * (base + dif_nm * a0)

    panels = max(2, n_max // 8)
    # finer levels in blocks of 8 Rindler rows, at n_max <= 32 only: a block
    # must round like the whole product, and OpenBLAS takes other kernels
    # for one row, or for a product of more than about 1200 entries
    rows = 8 if n_max <= 32 else n_max
    tables, estimate = None, math.inf
    while panels <= _MAX_PANELS:
        fine = level(2 * panels, rows)
        if tables is None:
            # finer level first: the coarser one's smaller, whole tables are
            # then the ones built beside the other level's sums
            coarse = level(panels, n_max)
            tables = (1.0 / np.sqrt(np.outer(n, n)),
                      (n[:, None] + n[None, :]) / u_max,
                      (n[None, :] - n[:, None]) / u_max)
            alpha, beta = entries(*coarse)
            del coarse
        alpha2, beta2 = entries(*fine)
        del fine
        estimate = max(float(np.max(np.abs(alpha2 - alpha))),
                       float(np.max(np.abs(beta2 - beta))))
        if estimate <= tol:
            return BogoliubovMap(alpha2, beta2)
        alpha, beta = alpha2, beta2
        panels *= 2
    raise QuadratureError("junction_map quadrature did not converge", estimate)


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


def _alpha(s: np.ndarray) -> np.ndarray:
    """alpha of the rows of a map whose `symplectic_matrix` rows are `s`."""
    return 0.5 * ((s[0::2, 0::2] + s[1::2, 1::2])
                  + 1j * (s[0::2, 1::2] - s[1::2, 0::2]))


def _coefficients(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) for the rows `s` of a `symplectic_matrix`, up to rounding."""
    qq, qp, pq, pp = s[0::2, 0::2], s[0::2, 1::2], s[1::2, 0::2], s[1::2, 1::2]
    return _alpha(s), 0.5 * ((pp - qq) + 1j * (qp + pq))


def _rotate_rows(s: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """rot @ s for the free-phase map rot = exp(-i phi_n), given cos(phi_n)
    and sin(phi_n): row pair n of `s` turned by phi_n, elementwise.  The
    product of two rotations is exactly one, so beta stays exactly zero."""
    q, p = s[0::2], s[1::2]
    cos, sin = cos[:, None], sin[:, None]
    out = np.empty_like(s)
    np.subtract(cos * q, sin * p, out=out[0::2])
    np.add(sin * q, cos * p, out=out[1::2])
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


def _block_symplectic(traj: Trajectory, L: float, n_max: int, tol: float,
                      junctions=None) -> tuple[np.ndarray, Callable]:
    """Real symplectic matrix S of one pass through `traj.segments`, and the
    product that powers it: `np.matmul`, or `_rotation_product` when no
    segment accelerates and S is a pure rotation.

    An accelerated segment (`_accelerated_segment`) is built once per call
    and kept until its last use; a coast turns the row pairs of the running
    product, and a zero-length coast after the first segment is skipped.
    `junctions` seeds the call's cache of `_junction_blocks` by h.
    """
    if L <= 0:
        raise ValidationError(f"cavity length must be > 0, got {L}")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    omegas = np.arange(1, n_max + 1) * (np.pi / L)
    keys = [(g.proper_acceleration, g.proper_duration) for g in traj.segments]
    # by h; by (a, duration) until last use
    junctions, segments = dict(junctions or {}), {}
    block = None
    for i, (a, duration) in enumerate(keys):
        if a == 0.0:
            if duration == 0.0 and block is not None:
                continue  # a turn by cos 0 and sin 0 changes nothing
            phases = _segment_phases(omegas, C * duration, duration)
            block = _rotate_rows(np.eye(2 * n_max) if block is None else block,
                                 np.cos(phases), np.sin(phases))
            continue
        s = segments.pop((a, duration), None)
        if s is None:
            s = _accelerated_segment(a, duration, L, n_max, tol, junctions)
        if (a, duration) in keys[i + 1:]:
            segments[a, duration] = s
        block = s if block is None else s @ block
        del s
    return block, np.matmul if any(a for a, _ in keys) else _rotation_product


def _segment_phases(omegas: np.ndarray, scale: float,
                    duration: float) -> np.ndarray:
    """omegas * scale, the modes' phases over one segment of `duration`
    seconds, ascending; one that overflows, which np.cos would read as NaN,
    raises ValidationError."""
    phases = omegas * scale
    if not phases[-1] <= sys.float_info.max:
        raise ValidationError(
            f"phase of mode {len(phases)} over a segment of {duration:.3g} s "
            "exceeds the representable range")
    return phases


def _junction_blocks(h: float, n_max: int, tol: float) -> tuple[tuple, tuple]:
    """(X, Y) = (alpha - beta, alpha + beta) of `junction_map(h, n_max,
    tol)`, and (Yᵀ, Xᵀ) as views: alpha and beta are real, so in (q1..qn;
    p1..pn) order S_J = diag(X, Y), and S_J^-1 = diag(Yᵀ, Xᵀ)."""
    jmap = junction_map(h, n_max, tol)
    x, y = jmap.alpha.real - jmap.beta.real, jmap.alpha.real + jmap.beta.real
    return (x, y), (y.T, x.T)


def _accelerated_segment(a: float, duration: float, L: float, n_max: int,
                         tol: float, junctions: dict) -> np.ndarray:
    """S = S_J^-1 rot(Omega eta) S_J of one segment at proper acceleration
    `a` for `duration` seconds; `junctions` caches `_junction_blocks` by h.
    rot S_J has q rows (C X, -S Y) and p rows (S X, C Y), columns interleaved
    (C, S: cos and sin of the Rindler phases); S_J^-1 takes them by Yᵀ, Xᵀ."""
    h = abs(a) * L / C**2
    if h not in junctions:
        junctions[h] = _junction_blocks(h, n_max, tol)
    (x, y), inverse = junctions[h]
    # Omega_n from u_max = 2 artanh(h/2) directly: the boundary-ratio route
    # log(chi2/chi1) loses ~1e-9 relative precision once h ~ 1e-7
    u_max = 2.0 * math.atanh(h / 2.0)
    omegas = np.arange(1, n_max + 1) * (math.pi / u_max)
    phases = _segment_phases(omegas, abs(a) * duration / C, duration)
    cos, sin = np.cos(phases)[:, None], np.sin(phases)[:, None]
    s, turned = np.empty((n_max, 2, 2 * n_max)), np.empty((n_max, n_max, 2))
    for kind, (left, right) in enumerate(((cos, -sin), (sin, cos))):
        np.multiply(left, x, out=turned[..., 0])
        np.multiply(right, y, out=turned[..., 1])
        np.matmul(inverse[kind], turned.reshape(n_max, -1), out=s[:, kind])
    del turned  # not alive through the sign flips' iterator buffer
    if a < 0:
        # the Rindler wedge on the other side: the reflection x -> x1 + x2 -
        # x conjugates by diag((-1)^(n+1)), flipping entries between modes
        # of opposite parity
        s4 = s.reshape(n_max, 2, n_max, 2)
        for part in (s4[0::2, :, 1::2], s4[1::2, :, 0::2]):
            np.negative(part, out=part)
    return s.reshape(2 * n_max, 2 * n_max)


def trajectory_map(traj: Trajectory, L: float, n_max: int,
                   tol: float = 1e-12) -> BogoliubovMap:
    """Whole-trajectory Bogoliubov map in the co-moving Minkowski basis:
    S_J^-1 rot(Omega eta) S_J per accelerated segment, for the junction S_J
    in its instantaneous rest frame, and Minkowski free evolution per coast,
    on the real symplectic matrix (`_block_symplectic`), powered by squaring
    (500 repetitions cost 13 products) and converted back once at the end.
    """
    block, product = _block_symplectic(traj, L, n_max, tol)
    return BogoliubovMap(*_coefficients(_map_power(block, traj.repetitions,
                                                   product)))


def symplectic_residual(bmap: BogoliubovMap, interior: int) -> tuple[float, float]:
    """(eps1, eps2) = max-norm defects of the symplectic identities
    alpha alpha† - beta beta† = I and alpha betaᵀ - beta alphaᵀ = 0,
    restricted to the leading interior x interior block."""
    if not 1 <= interior <= bmap.n_max:
        raise ValidationError(
            f"interior block size {interior} outside [1, {bmap.n_max}]")
    return _residual(bmap.alpha[:interior], bmap.beta[:interior])


def _residual(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """`symplectic_residual` of the leading rows (a, b) of (alpha, beta)."""
    g1 = a @ a.conj().T - b @ b.conj().T - np.eye(len(a))
    g2 = a @ b.T - b @ a.T
    return float(np.max(np.abs(g1))), float(np.max(np.abs(g2)))


_TRUSTED_MARGIN = 4  # modes above the clock mode in its trusted block


def _trusted_interior(clock_mode: int, n_max: int) -> int:
    """The leading min(clock_mode + _TRUSTED_MARGIN, n_max) modes are
    trusted for the 1-based `clock_mode`: the block residuals are read on."""
    return min(clock_mode + _TRUSTED_MARGIN, n_max)


def gated_residual(alpha: np.ndarray, beta: np.ndarray, clock_mode: int,
                   gate: float | None, what: str) -> tuple[float, float]:
    """`symplectic_residual` on the block trusted for the 1-based
    `clock_mode`, of (alpha, beta) that may hold just its rows.  Raises
    TruncationError unless eps1 <= `gate`, so a NaN residual fails too (None
    disables the gate); `what` names the map in the message."""
    interior = _trusted_interior(clock_mode, alpha.shape[1])
    eps1, eps2 = _residual(alpha[:interior], beta[:interior])
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
