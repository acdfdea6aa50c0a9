"""Compose-chain oracle for `trajectory_map`: the whole-trajectory map built
on complex (alpha, beta) pairs with `compose`, segment by segment, and
powered by composing squares.  The library builds the same map on the real
symplectic matrix instead, so the two share only `junction_map` and the map
algebra's conventions: maps compose right to left, `compose(second, first)`.
"""

import math

import numpy as np

from cavityclock import (BogoliubovMap, C, Trajectory, ValidationError,
                         junction_map)
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
