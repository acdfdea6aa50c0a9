"""Compose-chain oracle for `trajectory_map`: the whole-trajectory map built
on complex (alpha, beta) pairs with `compose`, segment by segment, and
powered by composing squares.  The library builds the same map on the real
symplectic matrix instead, so the two share only `junction_map` and the map
algebra's conventions: maps compose right to left, `compose(second, first)`.

Also the oracles of the map stage: `whole_table_junction`, one level of
the junction quadrature on whole node tables; `doubling_junction`, the
quadrature whose levels double until two agree, which the one bounded
level of `junction_map` replaced; `pair_block_symplectic`, the block map
applied segment by segment to the running block's row pairs in
whole-array expressions; `segment_product_symplectic`, the block matrix
assembled as a product of segment matrices S_J^-1 @ rot(S_J) on
interleaved 2n x 2n matrices, as it once was; and `allocating_map_power`,
the power by squaring with a fresh matrix for every product.
"""

import math

import numpy as np

from cavityclock import (BogoliubovMap, C, Trajectory, ValidationError,
                         junction_map, modes)
from cavityclock.modes import _composite_nodes
from kg_oracle import BasisKind, ModeBasis


def compose(second: BogoliubovMap, first: BogoliubovMap) -> BogoliubovMap:
    """second ∘ first: apply `first`, then `second`."""
    if first.n_max != second.n_max:
        raise ValidationError(
            f"cannot compose maps of size {second.n_max} and {first.n_max}")
    a2, b2 = second.alpha, second.beta
    a1, b1 = first.alpha, first.beta
    return BogoliubovMap(a2 @ a1 + b2 @ np.conj(b1),
                         a2 @ b1 + b2 @ np.conj(a1))


def inverse(bmap: BogoliubovMap) -> BogoliubovMap:
    """Symplectic inverse: alpha -> alpha†, beta -> -betaᵀ."""
    return BogoliubovMap(bmap.alpha.conj().T, -bmap.beta.T)


def free_phase_map(basis: ModeBasis, duration: float) -> BogoliubovMap:
    """Free evolution for `duration` of the basis' own time coordinate
    (meters of ct for Minkowski, Rindler time eta for Rindler)."""
    if duration < 0:
        raise ValidationError(f"duration must be >= 0, got {duration}")
    phases = np.exp(-1j * basis.frequencies() * duration)
    return BogoliubovMap(np.diag(phases), np.zeros((basis.n_max,) * 2, complex))


def parity_conjugate(bmap: BogoliubovMap) -> BogoliubovMap:
    """Spatial reflection x -> x1 + x2 - x: conjugation by diag((-1)^(n+1)).

    Maps the Bogoliubov content of a +x-accelerated segment onto that of a
    -x-accelerated one (the Rindler wedge sits on the opposite side).
    """
    s = np.where(np.arange(1, bmap.n_max + 1) % 2 == 1, 1.0, -1.0)
    sign = np.outer(s, s)
    return BogoliubovMap(bmap.alpha * sign, bmap.beta * sign)


def passive_part(bmap: BogoliubovMap) -> BogoliubovMap:
    """Mode-mixing-only map: beta zeroed, alpha re-unitarized by polar
    decomposition (the particle-creation content is discarded)."""
    u, _, vh = np.linalg.svd(bmap.alpha)
    return BogoliubovMap(u @ vh, np.zeros_like(bmap.beta))


def compose_power(block: BogoliubovMap, exponent: int) -> BogoliubovMap:
    """block^exponent for exponent >= 1: the squares of `block` for the set
    bits of `exponent`, lowest first, each composed on the left."""
    result = None
    base = block
    while True:
        if exponent & 1:
            result = base if result is None else compose(base, result)
        exponent >>= 1
        if not exponent:
            return result
        base = compose(base, base)


def segment_map(seg, mink: ModeBasis, L: float, n_max: int, tol: float,
                jcache: dict[float, BogoliubovMap]) -> BogoliubovMap:
    """inverse(junction) ∘ rindler_free ∘ junction for an accelerated
    segment, Minkowski free evolution for an inertial one."""
    a = seg.proper_acceleration
    if a == 0.0:
        return free_phase_map(mink, C * seg.proper_duration)
    h = abs(a) * L / C**2
    junction = jcache.get(h)
    if junction is None:
        junction = jcache[h] = junction_map(h, n_max, tol)
    u_max = 2.0 * math.atanh(h / 2.0)
    omegas = np.arange(1, n_max + 1) * (math.pi / u_max)
    eta = abs(a) * seg.proper_duration / C
    rindler_free = BogoliubovMap(np.diag(np.exp(-1j * omegas * eta)),
                                 np.zeros((n_max, n_max), complex))
    segment = compose(inverse(junction), compose(rindler_free, junction))
    if a < 0:
        segment = parity_conjugate(segment)
    return segment


def compose_chain_map(traj: Trajectory, L: float, n_max: int,
                      tol: float = 1e-12) -> BogoliubovMap:
    """The whole-trajectory map, one compose per segment from the identity,
    then `compose_power` over the repetitions."""
    mink = ModeBasis(BasisKind.MINKOWSKI, 0.0, L, n_max)
    jcache: dict[float, BogoliubovMap] = {}
    block = BogoliubovMap.identity(n_max)
    for seg in traj.segments:
        block = compose(segment_map(seg, mink, L, n_max, tol, jcache), block)
    return compose_power(block, traj.repetitions)


def whole_table_junction(h: float, n_max: int, panels: int) -> BogoliubovMap:
    """One level of `junction_map`'s quadrature on `panels` panels, in
    whole-array expressions: the blocks X and Y from the weighted Rindler
    table over t = u / u_max and the Minkowski table, then alpha = (X + Y)
    / 2 and beta = (Y - X) / 2; it shares the nodes and the junction
    geometry with the library."""
    u_max, chi1, d = modes._junction_geometry(h)
    n = np.arange(1.0, n_max + 1.0)
    t, w = _composite_nodes(0.0, 1.0, panels)
    rind = np.sin(np.pi * np.outer(n, t)) * w
    xi = chi1 * np.expm1(u_max * t)
    mink = np.sin(np.pi * np.outer(n, xi))
    root2, inv_root = 2.0 * np.sqrt(n), 1.0 / np.sqrt(n)
    x = np.outer(root2, inv_root) * (rind @ mink.T)
    y = (np.outer(inv_root, root2)
         * (rind @ (mink * (1.0 + u_max * (d + xi))).T))
    return BogoliubovMap(0.5 * (x + y), 0.5 * (y - x))


def doubling_junction(h: float, n_max: int,
                      tol: float = 1e-12) -> tuple[BogoliubovMap, int]:
    """The junction quadrature by doubling, and the panel count it returns:
    from max(2, n_max // 8) panels, the panels double until two levels agree
    within `tol` on every entry, and the finer level is returned."""
    panels = max(2, n_max // 8)
    coarse = whole_table_junction(h, n_max, panels)
    while True:
        panels *= 2
        fine = whole_table_junction(h, n_max, panels)
        if max(np.max(np.abs(fine.alpha - coarse.alpha)),
               np.max(np.abs(fine.beta - coarse.beta))) <= tol:
            return fine, panels
        coarse = fine


def rotate_rows(s: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """rot @ s for the free-phase map rot = exp(-i phi_n): row pair n of `s`
    turned by phi_n."""
    q, p = s[0::2], s[1::2]
    out = np.empty_like(s)
    out[0::2] = cos[:, None] * q - sin[:, None] * p
    out[1::2] = sin[:, None] * q + cos[:, None] * p
    return out


def junction_pair(h: float, n_max: int, tol: float = 1e-12):
    """(S_J, S_J^-1) as interleaved 2n x 2n matrices, from the junction's
    real blocks (`modes._junction_blocks`): S_J holds X on its q rows and
    columns and Y on its p rows and columns, S_J^-1 Yᵀ and Xᵀ, which is
    `symplectic_matrix` of the junction's (alpha, beta) and of its
    symplectic inverse (alpha†, -betaᵀ), up to rounding."""
    (x, y), _ = modes._junction_blocks(h, n_max, tol)
    s_j, s_j_inv = np.zeros((2, 2 * n_max, 2 * n_max))
    s_j[0::2, 0::2], s_j[1::2, 1::2] = x, y
    s_j_inv[0::2, 0::2], s_j_inv[1::2, 1::2] = y.T, x.T
    return s_j, s_j_inv


def pair_block_symplectic(traj: Trajectory, L: float, n_max: int,
                          tol: float = 1e-12) -> np.ndarray:
    """`modes._block_symplectic`'s matrix for a trajectory that
    accelerates, in whole-array expressions: the running block's row pairs
    from the identity, turned per coast by a stack of 2 x 2 rotations,
    mapped per accelerated segment by X and Y of `modes._junction_blocks`,
    turned the same way and mapped back by Yᵀ and Xᵀ, with the -a parity
    as a stack of ±1 diagonals."""
    omegas = np.arange(1, n_max + 1) * (np.pi / L)
    block = np.eye(2 * n_max).reshape(n_max, 2, 2 * n_max)

    def rotations(cos, sin):
        return np.stack((np.stack((cos, -sin), -1),
                         np.stack((sin, cos), -1)), 1)

    parity = rotations(np.where(np.arange(n_max) % 2 == 0, 1.0, -1.0),
                       np.zeros(n_max))
    for seg in traj.segments:
        a, tau = seg.proper_acceleration, seg.proper_duration
        if a == 0.0:
            if tau != 0.0:
                phases = omegas * (C * tau)
                block = rotations(np.cos(phases), np.sin(phases)) @ block
            continue
        h = abs(a) * L / C**2
        (x, y), _ = modes._junction_blocks(h, n_max, tol)
        u_max = 2.0 * math.atanh(h / 2.0)
        phases = (np.arange(1, n_max + 1) * (math.pi / u_max)
                  * (abs(a) * tau / C))
        if a < 0:
            block = parity @ block
        turned = (rotations(np.cos(phases), np.sin(phases))
                  @ np.stack((x @ block[:, 0], y @ block[:, 1]), 1))
        block = np.stack((y.T @ turned[:, 0], x.T @ turned[:, 1]), 1)
        if a < 0:
            block = parity @ block
    return block.reshape(2 * n_max, 2 * n_max)


def segment_product_symplectic(traj: Trajectory, L: float, n_max: int,
                               tol: float = 1e-12) -> np.ndarray:
    """The block matrix as a product of segment matrices, each accelerated
    segment built as S_J^-1 @ rot(S_J) from `junction_pair`, the -a parity
    conjugation as a product with np.outer(parity, parity)."""
    omegas = np.arange(1, n_max + 1) * (np.pi / L)
    block = None
    for seg in traj.segments:
        a, tau = seg.proper_acceleration, seg.proper_duration
        if a == 0.0:
            if tau == 0.0 and block is not None:
                continue
            phases = omegas * (C * tau)
            block = rotate_rows(np.eye(2 * n_max) if block is None else block,
                                np.cos(phases), np.sin(phases))
            continue
        h = abs(a) * L / C**2
        s_j, s_j_inv = junction_pair(h, n_max, tol)
        u_max = 2.0 * math.atanh(h / 2.0)
        phases = (np.arange(1, n_max + 1) * (math.pi / u_max)
                  * (abs(a) * tau / C))
        s = s_j_inv @ rotate_rows(s_j, np.cos(phases), np.sin(phases))
        if a < 0:
            parity = np.where(np.arange(2 * n_max) % 4 < 2, 1.0, -1.0)
            s *= np.outer(parity, parity)
        block = s if block is None else s @ block
    return block


def allocating_map_power(base: np.ndarray, exponent: int) -> np.ndarray:
    """base^exponent for exponent >= 1 as `modes._map_power` computes it,
    the squares of `base` for the set bits of `exponent`, lowest first,
    each multiplied on the left, but into a fresh matrix per product and
    with `base` left as it was."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else base @ result
        exponent >>= 1
        if not exponent:
            return result
        base = base @ base
