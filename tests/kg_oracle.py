"""Klein-Gordon overlap oracle for the junction map: cavity mode bases,
mode functions evaluated pointwise and their inner products on the matching
slice, by the composite quadrature `junction_map` uses, but integrated in the
cavity coordinate chi instead of the log coordinate u.  The Rindler-wedge
layout of a rigid cavity (`rindler_geometry`) places the bases, and
`near_horizon_geometry` maps a stationary cavity near a Schwarzschild
horizon onto it."""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from cavityclock import (C, G_NEWTON, HorizonError, QuadratureError,
                         ValidationError, schwarzschild_acceleration)
from cavityclock.modes import _MAX_PANELS, _composite_nodes


@dataclass(frozen=True)
class RindlerGeometry:
    """Rindler-wedge layout of a rigid cavity: chi_center = c^2/|a| and the
    dimensionless size parameter h = |a| L / c^2 (horizon at h = 2)."""

    chi_center: float
    chi_inner: float
    chi_outer: float
    h: float


def rindler_geometry(a: float, L: float) -> RindlerGeometry:
    """Geometry for proper acceleration a (m/s^2, |a| used) and length L (m)."""
    if a == 0:
        raise ValidationError("rindler_geometry needs a != 0")
    if L <= 0:
        raise ValidationError(f"cavity length must be > 0, got {L}")
    h = abs(a) * L / C**2
    if h >= 2:
        raise HorizonError(
            f"cavity intersects the Rindler horizon: h = aL/c^2 = {h:.6g} >= 2")
    chi_c = C**2 / abs(a)
    return RindlerGeometry(chi_c, chi_c - L / 2, chi_c + L / 2, h)


def near_horizon_geometry(mass: float, r: float,
                          L: float) -> tuple[RindlerGeometry, float]:
    """Map a stationary cavity near a Schwarzschild horizon onto the Rindler
    wedge with matching center acceleration.

    Returns the geometry and validity = (r - r_s)/r_s; the Rindler
    approximation is good when validity is small.
    """
    a_s = schwarzschild_acceleration(mass, r)
    rs = 2.0 * G_NEWTON * mass / C**2
    return rindler_geometry(a_s, L), (r - rs) / rs


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


@dataclass(frozen=True)
class Mode:
    """A single (possibly conjugated) mode of a basis, for overlap integrals."""

    basis: ModeBasis
    n: int
    conjugate: bool = False

    def __post_init__(self):
        if not 1 <= self.n <= self.basis.n_max:
            raise ValidationError(
                f"mode index {self.n} outside [1, {self.basis.n_max}]")


def mode_value(basis: ModeBasis, n: int, t: float, x: float) -> complex:
    """Mode function at (t, x): the basis' own chart coordinates.

    For Rindler bases `t` is the Rindler time eta and `x` the Rindler spatial
    coordinate chi.  Boundary points are legal and give 0.
    """
    if not 1 <= n <= basis.n_max:
        raise ValidationError(f"mode index {n} outside [1, {basis.n_max}]")
    if not basis.x1 <= x <= basis.x2:
        raise ValidationError(f"point x={x} outside cavity [{basis.x1}, {basis.x2}]")
    if basis.kind is BasisKind.MINKOWSKI:
        profile = math.sin(n * math.pi * (x - basis.x1) / basis.length)
    else:
        profile = math.sin(n * math.pi * math.log(x / basis.x1) / basis.log_ratio)
    return (profile / math.sqrt(n * math.pi)) * complex(
        math.cos(basis.frequency(n) * t), -math.sin(basis.frequency(n) * t))


def _slice_profile(mode: Mode, x: np.ndarray) -> np.ndarray:
    b = mode.basis
    if b.kind is BasisKind.MINKOWSKI:
        s = np.sin(mode.n * np.pi * (x - b.x1) / b.length)
    else:
        s = np.sin(mode.n * np.pi * np.log(x / b.x1) / b.log_ratio)
    return s / math.sqrt(mode.n * math.pi)


def _slice_frequency(mode: Mode, x: np.ndarray) -> np.ndarray:
    """Local frequency w(x) with d/dt mode = -i w(x) mode on the matching
    slice; Rindler time derivatives convert as d/dt = (1/chi) d/d(eta)."""
    b = mode.basis
    sign = -1.0 if mode.conjugate else 1.0
    if b.kind is BasisKind.MINKOWSKI:
        return np.full_like(x, sign * b.frequency(mode.n))
    return sign * b.frequency(mode.n) / x


def kg_inner_product(f: Mode, g: Mode, tol: float = 1e-10) -> complex:
    """Klein-Gordon inner product (f, g) = -i int dx (f dt g* - g* dt f)
    on the t = 0 / eta = 0 matching slice.

    Both cavities must occupy the same slice interval.  Quadrature is
    composite Gauss-Legendre with panel doubling until two successive levels
    agree to `tol`; raises QuadratureError with the achieved estimate if the
    panel budget runs out.
    """
    fb, gb = f.basis, g.basis
    scale = max(abs(fb.x1), abs(fb.x2), 1.0)
    if abs(fb.x1 - gb.x1) > 1e-12 * scale or abs(fb.x2 - gb.x2) > 1e-12 * scale:
        raise ValidationError("modes live on different slice intervals")

    def level(panels: int) -> float:
        x, w = _composite_nodes(fb.x1, fb.x2, panels)
        integrand = ((_slice_frequency(f, x) + _slice_frequency(g, x))
                     * _slice_profile(f, x) * _slice_profile(g, x))
        return float(np.dot(w, integrand))

    panels = max(2, (f.n + g.n) // 8)
    prev = level(panels)
    estimate = math.inf
    while panels <= _MAX_PANELS:
        panels *= 2
        cur = level(panels)
        estimate = abs(cur - prev)
        if estimate <= tol * max(1.0, abs(cur)):
            return complex(cur)
        prev = cur
    raise QuadratureError("kg_inner_product did not converge", estimate)
