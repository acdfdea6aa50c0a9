"""Piecewise clock trajectories and their elapsed times.

A trajectory is an ordered list of segments, each at a constant proper
acceleration (zero for an inertial coast), with durations given as proper
time at the cavity center.  This module does purely classical
special-relativistic bookkeeping in SI units (seconds, meters, m/s^2); the
field-mode machinery lives in :mod:`cavityclock.modes`.

Sign convention: proper_acceleration > 0 accelerates toward +x.  A rigid
cavity of length L accelerating at a sits at Rindler coordinates
[chi_c - L/2, chi_c + L/2] with chi_c = c^2/|a|; it must stay outside the
Rindler horizon, i.e. h = |a| L / c^2 < 2.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .constants import C
from .errors import ValidationError


@dataclass(frozen=True)
class Segment:
    """One piece of a trajectory: proper duration at the cavity center (s)
    and signed proper acceleration (m/s^2); it is inertial exactly when the
    acceleration is zero."""

    proper_duration: float
    proper_acceleration: float = 0.0

    def __post_init__(self):
        # comparisons, unlike math.isfinite, are False for NaN and never
        # raise for an integer too large for a double
        if not 0 <= self.proper_duration <= sys.float_info.max:
            raise ValidationError(f"proper_duration must be >= 0 and finite, "
                                  f"got {self.proper_duration}")
        if not abs(self.proper_acceleration) <= sys.float_info.max:
            raise ValidationError(f"proper_acceleration must be finite, "
                                  f"got {self.proper_acceleration}")


@dataclass(frozen=True)
class Trajectory:
    """An ordered block of segments, repeated `repetitions` times."""

    segments: tuple[Segment, ...]
    repetitions: int = 1

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if (isinstance(self.repetitions, bool)
                or not isinstance(self.repetitions, numbers.Integral)):
            raise ValidationError(
                f"repetitions must be an integer, got {self.repetitions!r}")
        if self.repetitions < 1:
            raise ValidationError(
                f"repetitions must be >= 1, got {self.repetitions}")
        if not self.segments:
            raise ValidationError("trajectory needs at least one segment")

    @property
    def proper_duration(self) -> float:
        """Total proper time at the cavity center (s), repetitions included."""
        return self.repetitions * sum(s.proper_duration for s in self.segments)


def build_twin_trajectory(t_a: float, t_i: float, repetitions: int,
                          a: float) -> Trajectory:
    """Round-trip block [+a, t_a][coast t_i][-a, 2 t_a][coast t_i][+a, t_a].

    The block starts and ends at rest at the same position (closure), so the
    composed trajectory is `repetitions` consecutive round trips.  Zero-length
    coasts are kept as explicit segments.
    """
    # float() raises OverflowError for an integer too large for a double;
    # this comparison is False for it, and for NaN and +-inf, instead
    for name, value in (("t_a", t_a), ("t_i", t_i), ("a", a)):
        if not abs(value) <= sys.float_info.max:
            raise ValidationError(f"{name} must be finite, got {value}")
    if t_a <= 0:
        raise ValidationError(f"t_a must be > 0, got {t_a}")
    if t_i < 0:
        raise ValidationError(f"t_i must be >= 0, got {t_i}")
    coast = Segment(float(t_i))
    block = (
        Segment(float(t_a), float(a)),
        coast,
        Segment(2.0 * float(t_a), -float(a)),
        coast,
        Segment(float(t_a), float(a)),
    )
    return Trajectory(block, repetitions)


_MAX_RAPIDITY = 700.0  # cosh overflows just beyond this


def _propagate(w: float, seg: Segment) -> tuple[float, float, float]:
    """Advance (coordinate time, displacement, rapidity) across one segment
    starting at rapidity w, in the initial rest frame of the trajectory."""
    tau = seg.proper_duration
    a = seg.proper_acceleration
    if a == 0.0:
        return tau * math.cosh(w), C * tau * math.sinh(w), 0.0
    dw = a * tau / C
    if max(abs(w), abs(w + dw)) > _MAX_RAPIDITY:
        raise ValidationError(
            f"rapidity {w + dw:.3g} exceeds the representable range")
    # product forms of sinh(w+dw)-sinh(w) etc.: no cancellation for small dw
    half = math.sinh(0.5 * dw)
    dt = (2.0 * C / a) * math.cosh(w + 0.5 * dw) * half
    dx = (2.0 * C**2 / a) * math.sinh(w + 0.5 * dw) * half
    return dt, dx, dw


def final_kinematics(traj: Trajectory) -> tuple[float, float, float]:
    """(coordinate time s, net displacement m, final rapidity) in the frame
    where the trajectory starts at rest."""
    t = x = w = 0.0
    for _ in range(traj.repetitions):
        for seg in traj.segments:
            dt, dx, dw = _propagate(w, seg)
            t += dt
            x += dx
            w += dw
    return t, x, w


def elapsed_times(traj: Trajectory) -> tuple[float, float]:
    """(tau_rob, tau_alice): proper time of the moving clock's center vs
    coordinate time of a stationary observer in the initial rest frame."""
    t, _, _ = final_kinematics(traj)
    return traj.proper_duration, t
