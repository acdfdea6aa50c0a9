import math

import numpy as np
import pytest
from scipy.integrate import quad

from cavityclock import (C, HorizonError, Segment, Trajectory,
                         ValidationError, build_twin_trajectory,
                         elapsed_times)
from kg_oracle import rindler_geometry
from cavityclock.trajectory import _propagate, final_kinematics


def is_closed(traj: Trajectory, rtol: float = 1e-12) -> bool:
    """True if the trajectory returns to rest at its starting position.

    Residuals are judged relative to the largest rapidity and displacement
    excursions actually reached, so closure is meaningful even for
    ultrarelativistic legs whose outbound terms cancel.
    """
    x = w = 0.0
    w_scale = x_scale = 0.0
    for _ in range(traj.repetitions):
        for seg in traj.segments:
            _, dx, dw = _propagate(w, seg)
            x += dx
            w += dw
            w_scale = max(w_scale, abs(w))
            x_scale = max(x_scale, abs(x), abs(dx))
    w_ok = abs(w) <= rtol * max(w_scale, 1.0)
    x_ok = abs(x) <= rtol * max(x_scale, 1.0)
    return w_ok and x_ok


class TestMakeSegment:
    def test_zero_length_inertial_is_legal(self):
        seg = Segment(0.0, 0.0)
        assert seg.proper_duration == 0.0

    def test_squid_scale_accelerated_segment(self):
        seg = Segment(1e-9, 1.7e15)
        assert seg.proper_duration == 1e-9
        assert seg.proper_acceleration == 1.7e15

    def test_signed_deceleration_is_legal(self):
        seg = Segment(1.0, -5.0)
        assert seg.proper_acceleration == -5.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            Segment(-1.0)

    # The ids keep the names these cases had when Segment carried a kind:
    # a coast is a zero-acceleration segment, and the accelerated case now
    # carries a nonzero acceleration.
    @pytest.mark.parametrize("duration", [
        math.nan, math.inf, pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("acceleration", [
        pytest.param(1.7e15, id="SegmentKind.ACCELERATED"),
        pytest.param(0.0, id="SegmentKind.INERTIAL")])
    def test_non_finite_duration_rejected(self, acceleration, duration):
        with pytest.raises(ValidationError, match="finite"):
            Segment(duration, acceleration)

    @pytest.mark.parametrize("acceleration", [
        math.nan, math.inf, -math.inf, pytest.param(-10**400, id="-10**400")])
    def test_non_finite_acceleration_rejected(self, acceleration):
        with pytest.raises(ValidationError, match="finite"):
            Segment(1.0, acceleration)


class TestRindlerGeometry:
    def test_direct_arithmetic(self):
        # chi_c = 1 m corresponds to a = c^2 / 1 m
        geom = rindler_geometry(C**2, 0.2)
        assert geom.chi_center == pytest.approx(1.0, rel=1e-15)
        assert geom.chi_inner == pytest.approx(0.9, rel=1e-15)
        assert geom.chi_outer == pytest.approx(1.1, rel=1e-15)
        assert geom.h == pytest.approx(0.2, rel=1e-15)

    def test_squid_scale_h(self):
        geom = rindler_geometry(1.7e15, 0.011)
        expected = 1.7e15 * 0.011 / C**2
        assert geom.h == pytest.approx(expected, rel=1e-15)
        assert 2.0e-4 < geom.h < 2.2e-4

    def test_exact_width(self):
        geom = rindler_geometry(3.3e14, 0.013)
        assert geom.chi_outer - geom.chi_inner == pytest.approx(0.013, rel=1e-15)

    def test_horizon_crossing_rejected(self):
        # chi_c = 1 m, L = 2.5 m: h = 2.5
        with pytest.raises(HorizonError):
            rindler_geometry(C**2, 2.5)

    def test_zero_acceleration_rejected(self):
        with pytest.raises(ValidationError):
            rindler_geometry(0.0, 0.1)

    @pytest.mark.parametrize("s", [0.1, 2.0, 1e6])
    def test_h_invariant_under_reciprocal_rescaling(self, s):
        a, L = 5e14, 0.02
        assert rindler_geometry(s * a, L / s).h == pytest.approx(
            rindler_geometry(a, L).h, rel=1e-12)


class TestBuildTwinTrajectory:
    def test_squid_scenario_has_2500_segments(self):
        traj = build_twin_trajectory(1e-9, 0.0, 500, 1.7e15)
        assert len(traj.segments) == 5
        assert traj.repetitions == 500

    def test_block_closure(self):
        traj = build_twin_trajectory(1e-9, 2e-9, 1, 1.7e15)
        _, x, w = final_kinematics(traj)
        assert w == 0.0
        assert abs(x) < 1e-12 * C * traj.proper_duration
        assert is_closed(traj)

    def test_closure_over_parameter_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t_a = 10.0 ** rng.uniform(-10, 1)
            t_i = rng.uniform(0, 3) * t_a
            rapidity = 10.0 ** rng.uniform(-8, 1.3)  # up to ~20
            a = rapidity * C / t_a * rng.choice([-1, 1])
            assert is_closed(build_twin_trajectory(t_a, t_i, 3, a))

    def test_total_proper_time(self):
        traj = build_twin_trajectory(1.0, 1.0, 2, 9.8)
        assert traj.proper_duration == pytest.approx(12.0, rel=1e-15)

    def test_rapidity_cancellation_mid_block(self):
        # +a then -a for 2 t_a then +a returns the rapidity to zero
        traj = build_twin_trajectory(0.5, 0.0, 1, 100.0)
        _, _, w = final_kinematics(traj)
        assert w == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            build_twin_trajectory(0.0, 0.0, 1, 1.0)
        with pytest.raises(ValidationError):
            build_twin_trajectory(1.0, -1.0, 1, 1.0)
        with pytest.raises(ValidationError):
            build_twin_trajectory(1.0, 0.0, 0, 1.0)

    @pytest.mark.parametrize("repetitions", [2.5, 3.0, "3", True])
    def test_repetitions_must_be_an_integer(self, repetitions):
        # 2.5 was accepted and elapsed_times raised TypeError; True ran once
        for make in (lambda: Trajectory([Segment(1e-9)], repetitions),
                     lambda: build_twin_trajectory(1e-9, 0.0, repetitions,
                                                   1e15)):
            with pytest.raises(ValidationError,
                               match="repetitions must be an integer"):
                make()

    def test_numpy_integer_repetitions_accepted(self):
        traj = build_twin_trajectory(1e-9, 0.0, np.int64(3), 1e15)
        assert traj.proper_duration == pytest.approx(12e-9, rel=1e-15)

    @pytest.mark.parametrize("args", [(math.nan, 0.0, 2, 1.7e15),
                                      (1e-9, math.nan, 2, 1.7e15),
                                      (1e-9, math.inf, 2, 1.7e15),
                                      (1e-9, 0.0, 2, math.nan),
                                      (math.inf, 0.0, 2, 1.7e15)])
    def test_non_finite_parameters_rejected(self, args):
        # each was accepted, and elapsed_times returned NaN or inf
        with pytest.raises(ValidationError, match="finite"):
            build_twin_trajectory(*args)

    @pytest.mark.parametrize("args", [(10**400, 0.0, 1, 1.7e15),
                                      (1e-9, 10**400, 1, 1.7e15),
                                      (1e-9, 0.0, 1, 10**400),
                                      (1e-9, 0.0, 1, -10**400)])
    def test_integer_too_large_for_a_double_rejected(self, args):
        # float() raised a bare OverflowError on each
        with pytest.raises(ValidationError, match="must be finite"):
            build_twin_trajectory(*args)


def _alice_time_by_integration(traj: Trajectory) -> float:
    """Oracle: integrate dt = cosh(w(tau)) dtau over the rapidity profile."""
    total = 0.0
    w = 0.0
    for _ in range(traj.repetitions):
        for seg in traj.segments:
            rate = seg.proper_acceleration / C
            val, _ = quad(lambda tau: math.cosh(w + rate * tau),
                          0.0, seg.proper_duration, limit=200)
            total += val
            w += rate * seg.proper_duration
    return total


class TestElapsedTimes:
    def test_at_rest_times_agree(self):
        traj = Trajectory((Segment(2.5),), 3)
        tau_rob, tau_alice = elapsed_times(traj)
        assert tau_rob == tau_alice == pytest.approx(7.5)

    def test_single_block_against_integration_oracle(self):
        traj = build_twin_trajectory(1e-9, 0.0, 1, 1.7e15)
        tau_rob, tau_alice = elapsed_times(traj)
        assert tau_alice > tau_rob
        assert tau_alice == pytest.approx(_alice_time_by_integration(traj),
                                          rel=1e-10)

    @pytest.mark.parametrize("t_a,t_i,a", [
        (1e-9, 0.0, 1.7e15),
        (2e-9, 1e-9, -8e14),
        (0.5, 0.25, 3.0),
    ])
    def test_oracle_agreement_with_coasts(self, t_a, t_i, a):
        traj = build_twin_trajectory(t_a, t_i, 2, a)
        _, tau_alice = elapsed_times(traj)
        assert tau_alice == pytest.approx(_alice_time_by_integration(traj),
                                          rel=1e-10)

    def test_dilation_inequality_on_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            t_a = 10.0 ** rng.uniform(-9, 0)
            t_i = rng.uniform(0, 2) * t_a
            rapidity = 10.0 ** rng.uniform(-10, 1)
            tau_rob, tau_alice = elapsed_times(
                build_twin_trajectory(t_a, t_i, 1, rapidity * C / t_a))
            assert tau_alice >= tau_rob

    def test_equality_iff_no_acceleration(self):
        tau_rob, tau_alice = elapsed_times(
            build_twin_trajectory(1.0, 0.5, 2, 0.0))
        assert tau_alice == pytest.approx(tau_rob, rel=1e-15)

    def test_additivity_under_concatenation(self):
        first = build_twin_trajectory(1e-9, 1e-9, 2, 1e15)
        second = build_twin_trajectory(3e-9, 0.0, 1, -4e14)
        joined = Trajectory(first.segments * first.repetitions
                            + second.segments * second.repetitions)
        rob1, alice1 = elapsed_times(first)
        rob2, alice2 = elapsed_times(second)
        rob, alice = elapsed_times(joined)
        assert rob == pytest.approx(rob1 + rob2, rel=1e-14)
        assert alice == pytest.approx(alice1 + alice2, rel=1e-14)
