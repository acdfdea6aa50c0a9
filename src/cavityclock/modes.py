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
  and converts back only the rows it reads (`_coefficients`).  The junction
  is real: its blocks X = alpha - beta and Y = alpha + beta come from one
  product each with a cached Rindler node table (`_junction_blocks`).  No
  segment matrix is formed: each segment acts on the running block's row
  pairs (`_block_symplectic`), and the block is powered by squaring in
  three rotating buffers (`_map_power`).
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


# Gauss-Legendre nodes per panel of the composite quadrature, and its panel
# budget: no level takes more panels
_ORDER = 32
_MAX_PANELS = 1024
# Bernstein ellipses E_rho that `_quadrature_bound` tries, as (a - 1, b,
# log((64/15) rho^(-2 _ORDER) / (rho^2 - 1))) for semi-axes a and b
_ELLIPSES = tuple((0.5 * (rho + 1.0 / rho) - 1.0, 0.5 * (rho - 1.0 / rho),
                   math.log(64.0 / 15.0) - 2 * _ORDER * math.log(rho)
                   - math.log(rho * rho - 1.0))
                  for rho in (1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0))
# rounding of one level's entries, in units of eps * n_max: at most 1.4 over
# h from 1e-9 to 1.99 and n_max from 8 to 128 (tests/test_modes.py)
_ROUNDING_FLOOR = 4.0


@lru_cache(maxsize=8)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _composite_nodes(a: float, b: float,
                     panels: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(_ORDER)
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


def _junction_geometry(h: float) -> tuple[float, float, float]:
    """(u_max, chi1, d) of the junction at h in rescaled units L = 1: u_max =
    ln(chi2/chi1) = 2 artanh(h/2), chi1 = 1/h - 1/2 and d = chi1 - 1/u_max,
    the O(1) remainder of two ~1/h terms."""
    u_max = 2.0 * math.atanh(h / 2.0)
    if h * u_max == 0:  # underflows for h below about 1.5e-162
        raise QuadratureError(f"junction_map cannot resolve h = {h!r}: "
                              "h * u_max underflows to 0", math.inf)
    return (u_max, 1.0 / h - 0.5,
            2.0 * _atanh_minus_z(h / 2.0) / (h * u_max) - 0.5)


def _quadrature_bound(n_max: int, panels: int, u_max: float, chi1: float,
                      d: float) -> float:
    """A-priori bound on the error of every entry of `junction_map` from
    `panels` panels of _ORDER Gauss-Legendre nodes, plus a rounding floor of
    _ROUNDING_FLOOR * eps * n_max.

    A panel of half-width w maps to [-1, 1], where each integrand (Rindler
    sine times Minkowski sine, times 1 or d + xi) is entire.  In a Bernstein
    ellipse E_rho of semi-axes a and b, Re u exceeds the panel by at most w(a
    - 1), so the Rindler sine is at most exp(pi n_max w b / u_max), the
    Minkowski sine sin(pi n chi1 (e^u - 1)) at most exp(pi n_max chi2 g w b)
    with g = exp(w (a - 1)), and |d + xi| at most |d| + chi2 g + chi1.  There
    Gauss-Legendre errs by at most (64/15) M rho^(-2 _ORDER) / (rho^2 - 1)
    for |f| <= M (Trefethen, SIAM Review 50, 2008); the panels add up to
    u_max / 2 times that, and an entry weighs the two sums by at most
    sqrt(n_max) and 2 sqrt(n_max) / u_max.  The best of the `_ELLIPSES` is
    taken."""
    w = 0.5 * u_max / panels
    chi2 = chi1 + 1.0
    best = math.inf
    for a_1, b, log_gauss in _ELLIPSES:
        grow = math.exp(w * a_1)
        exponent = math.pi * n_max * w * b * (1.0 / u_max + chi2 * grow)
        weight = 0.5 * u_max * (abs(d) + chi2 * grow + chi1) + 1.0
        best = min(best, exponent + log_gauss
                   + math.log(math.sqrt(n_max) * weight))
    # math.exp raises OverflowError beyond 709.78
    return (math.exp(min(best, 700.0))
            + _ROUNDING_FLOOR * sys.float_info.epsilon * n_max)


def junction_map(h: float, n_max: int, tol: float = 1e-12) -> BogoliubovMap:
    """Instantaneous Minkowski -> Rindler basis change on the matching slice.

    Depends on the geometry only through h = aL/c^2; computed in rescaled
    units L = 1, chi1 = 1/h - 1/2.  Rows index Rindler modes, columns
    Minkowski modes.  The integrals run over u = ln(chi/chi1), where the
    Rindler profile is a pure sine; large 1/h terms are regrouped so every
    entry stays accurate down to h ~ 1e-12 in absolute terms only (~1e-15):
    there (alpha - I)/h and beta/h are off by up to ~1e-3.

    One quadrature level is computed, with no doubling: the fewest panels,
    max(2, n_max // 8) times a power of 2, whose a-priori bound
    (`_quadrature_bound`) is within `tol` on every entry.  QuadratureError
    when no level within _MAX_PANELS panels is.  The level's real blocks
    (X, Y) = (alpha - beta, alpha + beta) come from `_junction_blocks`,
    and alpha = (X + Y) / 2, beta = (Y - X) / 2.
    """
    (x, y), _ = _junction_blocks(h, n_max, tol)
    return BogoliubovMap(0.5 * (x + y), 0.5 * (y - x))


@lru_cache(maxsize=2)
def _rindler_table(n_max: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, R): the nodes t of `panels` panels on [0, 1], and the weighted
    Rindler table R_nt = sin(n pi t) w_t for modes n = 1..n_max, both
    read-only.  In t = u / u_max the Rindler profile sin(n pi u / u_max) and
    the weights over u_max do not depend on h."""
    t, w = _composite_nodes(0.0, 1.0, panels)
    table = np.dot(np.arange(1.0, n_max + 1.0)[:, None], t[None],
                   out=np.empty((n_max, t.size)))
    np.multiply(np.pi, table, out=table)
    np.sin(table, out=table)
    np.multiply(table, w, out=table)
    t.setflags(write=False)
    table.setflags(write=False)
    return t, table


def _junction_blocks(h: float, n_max: int, tol: float) -> tuple[tuple, tuple]:
    """(X, Y) = (alpha - beta, alpha + beta) of `junction_map(h, n_max,
    tol)`, and (Yᵀ, Xᵀ) as views: alpha and beta are real, so in (q1..qn;
    p1..pn) order S_J = diag(X, Y), and S_J^-1 = diag(Yᵀ, Xᵀ).

    Over t = u / u_max, with the Rindler table R (`_rindler_table`) and the
    Minkowski table M_nt = sin(n pi xi_t), xi = chi1 (e^u - 1), X_mn =
    2 sqrt(m/n) sum_t R_mt M_nt and Y_mn = 2 sqrt(n/m) sum_t R_mt (1 +
    u_max (d + xi_t)) M_nt: one product per weight.  M is weighted in
    place, row by row: a broadcast product's numpy iterator buffer, the
    size of M, would add to the peak allocation.
    """
    if not 0 < h:
        raise ValidationError(f"junction needs h > 0, got {h}")
    if h >= 2:
        raise HorizonError(f"cavity intersects the Rindler horizon: h = {h} >= 2")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")

    u_max, chi1, d = _junction_geometry(h)
    panels = max(2, n_max // 8)
    while not (bound := _quadrature_bound(n_max, panels, u_max, chi1,
                                          d)) <= tol:
        panels *= 2
        if panels > _MAX_PANELS:
            raise QuadratureError(
                f"junction_map quadrature did not converge: its error bound "
                f"exceeds tol {tol:.3e} up to {_MAX_PANELS} panels", bound)

    t, rind = _rindler_table(n_max, panels)
    n = np.arange(1.0, n_max + 1.0)
    xi = np.multiply(u_max, t)
    np.expm1(xi, out=xi)
    np.multiply(chi1, xi, out=xi)
    mink = np.dot(n[:, None], xi[None], out=np.empty((n_max, t.size)))
    np.multiply(np.pi, mink, out=mink)
    np.sin(mink, out=mink)
    x = np.matmul(rind, mink.T)
    np.add(d, xi, out=xi)  # xi becomes Y's weight 1 + u_max (d + xi)
    np.multiply(u_max, xi, out=xi)
    np.add(1.0, xi, out=xi)
    for row in mink:
        np.multiply(row, xi, out=row)
    y = np.matmul(rind, mink.T)
    del mink, row
    root2, inv_root = 2.0 * np.sqrt(n), 1.0 / np.sqrt(n)
    scale = np.dot(root2[:, None], inv_root[None], out=np.empty_like(x))
    np.multiply(x, scale, out=x)
    np.dot(inv_root[:, None], root2[None], out=scale)
    np.multiply(y, scale, out=y)
    return (x, y), (y.T, x.T)


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
    """alpha of the rows of a map whose `symplectic_matrix` rows are `s`,
    over any leading batch axes."""
    return 0.5 * ((s[..., 0::2, 0::2] + s[..., 1::2, 1::2])
                  + 1j * (s[..., 0::2, 1::2] - s[..., 1::2, 0::2]))


def _coefficients(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) for the rows `s` of a `symplectic_matrix`, up to
    rounding, over any leading batch axes."""
    qq, qp = s[..., 0::2, 0::2], s[..., 0::2, 1::2]
    pq, pp = s[..., 1::2, 0::2], s[..., 1::2, 1::2]
    return _alpha(s), 0.5 * ((pp - qq) + 1j * (qp + pq))


def _rotate_rows(s: np.ndarray, cos: np.ndarray, sin: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """rot @ s into `out` for the free-phase map rot = exp(-i phi_n), given
    cos(phi_n) and sin(phi_n): row pair n of `s` turned by phi_n,
    elementwise.  The product of two rotations is exactly one, so beta
    stays exactly zero."""
    q, p = s[0::2], s[1::2]
    cos, sin = cos[:, None], sin[:, None]
    np.subtract(cos * q, sin * p, out=out[0::2])
    np.add(sin * q, cos * p, out=out[1::2])
    return out


def _rotation_product(rot: np.ndarray, s: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """rot @ s into `out` for a rotation `rot` built by `_rotate_rows`."""
    return _rotate_rows(s, np.diagonal(rot)[0::2], np.diagonal(rot, -1)[0::2],
                        out)


def _rotations(cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The stack of 2 x 2 rotations [[cos, -sin], [sin, cos]], one per row
    pair: a batched product with it turns the row pairs of a map."""
    rot = np.empty((len(cos), 2, 2))
    rot[:, 0, 0] = rot[:, 1, 1] = cos
    rot[:, 0, 1] = -sin
    rot[:, 1, 0] = sin
    return rot


def _map_power(base: np.ndarray, exponent: int,
               product: Callable = np.matmul) -> np.ndarray:
    """base^exponent for exponent >= 1: the squares of `base` for the set
    bits of `exponent`, lowest first, each multiplied on the left by
    `product(left, right, out=)`.  Costs bit_length - 1 squarings and
    popcount - 1 products in three rotating buffers: `base`, which it
    consumes (its bytes are gone unless exponent is 1, when it is the
    result), the result and one spare, so no more than three matrices are
    alive at once."""
    result = spare = None
    while True:
        if exponent & 1:
            if result is None:
                result = base
            else:
                if spare is None:
                    spare = np.empty_like(base)
                result, spare = product(base, result, out=spare), result
        exponent >>= 1
        if not exponent:
            return result
        if spare is None:
            spare = np.empty_like(base)
        # the result may hold the old square; then no buffer is spare
        base, spare = (product(base, base, out=spare),
                       None if base is result else base)


def _block_symplectic(traj: Trajectory, L: float, n_max: int, tol: float,
                      junctions=None) -> tuple[np.ndarray, Callable]:
    """Real symplectic matrix S of one pass through `traj.segments`, and the
    product that powers it: `np.matmul`, or `_rotation_product` when no
    segment accelerates and S is a pure rotation.

    Each segment is applied, in place of its matrix, to the running block,
    held from the identity on as n row pairs (q_n, p_n) of 2n columns, with
    a spare to write into; the q rows and the p rows are strided halves.
    A coast turns the row pairs by its Minkowski phases, and a zero-length
    one is skipped.  An accelerated segment maps the halves by S_J =
    diag(X, Y), turns the row pairs by its Rindler phases and maps them
    back by S_J^-1 = diag(Yᵀ, Xᵀ): four n x n by n x 2n products.  At -a
    the reflection x -> x1 + x2 - x conjugates the segment by
    diag((-1)^(n+1)), a ±1 scaling of the row pairs before and after.
    Turns and scalings are batched 2 x 2 products (`_rotations`), which
    need no numpy iterator buffer, so S is built within two 2n x 2n
    matrices besides the junction blocks, all computed first, with
    `junctions` seeding them by h.  A pure rotation turns its rows
    elementwise instead (`_rotate_rows`), so that its beta stays exactly
    zero.
    """
    if L <= 0:
        raise ValidationError(f"cavity length must be > 0, got {L}")
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    junctions = dict(junctions or {})
    accelerates = False
    for segment in traj.segments:  # first, so no quadrature's peak adds to S
        if segment.proper_acceleration:
            accelerates = True
            h = abs(segment.proper_acceleration) * L / C**2
            if h not in junctions:
                junctions[h] = _junction_blocks(h, n_max, tol)
    omegas = np.arange(1, n_max + 1) * (np.pi / L)
    # diag((-1)^(n+1)) on the row pairs: turns by 0 and by pi
    parity = _rotations(1.0 - 2.0 * (np.arange(n_max) % 2), np.zeros(n_max))
    block = np.eye(2 * n_max).reshape(n_max, 2, 2 * n_max)
    spare = np.empty_like(block)
    for segment in traj.segments:
        a, duration = segment.proper_acceleration, segment.proper_duration
        if a == 0.0:
            if duration != 0.0:  # a turn by cos 0 and sin 0 changes nothing
                phases = _segment_phases(omegas, C * duration, duration)
                cos, sin = np.cos(phases), np.sin(phases)
                if accelerates:
                    np.matmul(_rotations(cos, sin), block, out=spare)
                else:
                    _rotate_rows(block.reshape(2 * n_max, -1), cos, sin,
                                 spare.reshape(2 * n_max, -1))
                block, spare = spare, block
            continue
        h = abs(a) * L / C**2
        (x, y), (y_t, x_t) = junctions[h]
        # Omega_n from u_max = 2 artanh(h/2) directly: the boundary-ratio
        # route log(chi2/chi1) loses ~1e-9 relative precision once h ~ 1e-7
        u_max = 2.0 * math.atanh(h / 2.0)
        phases = _segment_phases(np.arange(1, n_max + 1) * (math.pi / u_max),
                                 abs(a) * duration / C, duration)
        if a < 0:
            block, spare = np.matmul(parity, block, out=spare), block
        np.matmul(x, block[:, 0], out=spare[:, 0])
        np.matmul(y, block[:, 1], out=spare[:, 1])
        np.matmul(_rotations(np.cos(phases), np.sin(phases)), spare,
                  out=block)
        np.matmul(y_t, block[:, 0], out=spare[:, 0])
        np.matmul(x_t, block[:, 1], out=spare[:, 1])
        block, spare = spare, block
        if a < 0:
            block, spare = np.matmul(parity, block, out=spare), block
    return (block.reshape(2 * n_max, 2 * n_max),
            np.matmul if accelerates else _rotation_product)


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
    eps1, eps2 = _residual(bmap.alpha[:interior], bmap.beta[:interior])
    return float(eps1), float(eps2)


def _residual(a: np.ndarray, b: np.ndarray) -> tuple:
    """`symplectic_residual` of the leading rows (a, b) of (alpha, beta),
    each of eps1 and eps2 an array over any leading batch axes."""
    g1 = (a @ a.conj().swapaxes(-1, -2) - b @ b.conj().swapaxes(-1, -2)
          - np.eye(a.shape[-2]))
    g2 = a @ b.swapaxes(-1, -2) - b @ a.swapaxes(-1, -2)
    return np.abs(g1).max(axis=(-2, -1)), np.abs(g2).max(axis=(-2, -1))


_TRUSTED_MARGIN = 4  # modes above the clock mode in its trusted block


def _trusted_interior(clock_mode: int, n_max: int) -> int:
    """The leading min(clock_mode + _TRUSTED_MARGIN, n_max) modes are
    trusted for the 1-based `clock_mode`: the block residuals are read on."""
    return min(clock_mode + _TRUSTED_MARGIN, n_max)


def gated_residual(alpha: np.ndarray, beta: np.ndarray, clock_mode: int,
                   gate: float | None, what: str) -> tuple[float, float]:
    """`symplectic_residual` on the block trusted for the 1-based
    `clock_mode`, of (alpha, beta) that may hold just its rows: (eps1, eps2),
    with `what` naming the map in the gate's message.  Raises
    TruncationError when eps1 is not <= `gate`, so a NaN residual fails too
    (None disables the gate)."""
    interior = _trusted_interior(clock_mode, alpha.shape[-1])
    eps1, eps2 = _residual(alpha[:interior], beta[:interior])
    eps1, eps2 = float(eps1), float(eps2)
    if gate is not None and not eps1 <= gate:
        raise TruncationError(
            f"{what} symplectic residual {eps1:.3e} exceeds gate "
            f"{gate:.3e} on the leading {interior}x{interior} block; "
            "increase n_max")
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
