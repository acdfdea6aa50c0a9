import math
import threading

import numpy as np
import pytest

from cavityclock import (C, G_NEWTON, CavityClockError, HorizonError,
                         QuadratureError, ScenarioConfig, TruncationError,
                         UnboundedVarianceError, ValidationError,
                         apply_reduced, classical_cavity_ratio, coherent,
                         extract_params, phase_qfi, run_twin,
                         schwarzschild_acceleration, squeezed_vacuum, sweep,
                         trajectory_map)
import cavityclock.clock as clock
from cavityclock.clock import _clock_frame, _span_phase
from conftest import entry_det, moment_params
from kg_oracle import near_horizon_geometry
from transport_oracle import vacuum
from map_oracle import compose, inverse
from test_modes import twin_block

SQUID_DEFAULTS = dict(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15)


class TestClassicalCavityRatio:
    def test_inertial_limit(self):
        assert classical_cavity_ratio(0.0) == 1.0

    def test_leading_order_value(self):
        # oracle: 50-digit evaluation of the closed form h / ln((2+h)/(2-h));
        # the h^2 series misses it by h^4/180 ~ 9e-6 at h = 0.2
        import mpmath
        mpmath.mp.dps = 50
        h = mpmath.mpf("0.2")
        oracle = float(h / mpmath.log((2 + h) / (2 - h)))
        value = classical_cavity_ratio(0.2)
        assert value == pytest.approx(oracle, rel=1e-14)
        assert value == pytest.approx(1 - 0.2**2 / 12, abs=0.2**4)

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 0.2, 0.5])
    def test_series_remainder_bound(self, h):
        assert abs(classical_cavity_ratio(h) - (1 - h * h / 12)) <= h**4

    def test_even_in_h(self):
        for h in (0.1, 0.735, 1.9):
            assert classical_cavity_ratio(-h) == classical_cavity_ratio(h)

    def test_strictly_below_one_on_open_interval(self):
        values = [classical_cavity_ratio(h)
                  for h in np.linspace(1e-3, 1.999, 40)]
        assert all(v < 1.0 for v in values)
        assert values == sorted(values, reverse=True)

    def test_horizon_rejected(self):
        with pytest.raises(HorizonError):
            classical_cavity_ratio(2.0)


class TestScenarioConfig:
    def test_horizon_rejected(self):
        with pytest.raises(HorizonError):
            ScenarioConfig(t_a=1e-9, t_i=0.0, L=1.0, a=2.5 * C**2,
                           repetitions=1)

    def test_interior_block_requirement(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, clock_mode=3, n_max=6)

    def test_state_kind_validation(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, state_kind="thermal")

    def test_zero_energy_clock_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, mean_n=0.0)

    @pytest.mark.parametrize("kind, mean_n", [("coherent", 1e308),
                                              ("squeezed_vacuum", 1e200),
                                              ("squeezed_vacuum", 1e308)])
    def test_state_without_finite_qfi_rejected(self, kind, mean_n):
        # finite inputs whose state overflows: an inf or NaN QFI, or an
        # OverflowError while the squeezed state is built
        with pytest.raises(ValidationError, match="QFI is not finite"):
            ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, state_kind=kind,
                           mean_n=mean_n)

    @pytest.mark.parametrize("kind, mean_n", [("coherent", 4e307),
                                              ("squeezed_vacuum", 1e150)])
    def test_largest_states_with_finite_qfi_accepted(self, kind, mean_n):
        config = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1,
                                state_kind=kind, mean_n=mean_n)
        qfi = phase_qfi(extract_params(config.initial_state()))
        assert math.isfinite(qfi)

    @pytest.mark.parametrize("field", [
        dict(t_a=math.nan), dict(t_i=math.nan), dict(t_i=math.inf),
        dict(L=math.inf), dict(a=math.nan), dict(a=-math.inf),
        dict(mean_n=math.inf), dict(theta0=math.nan),
        dict(quadrature_tol=math.inf), dict(residual_gate=math.inf)])
    def test_non_finite_numbers_rejected(self, field):
        # NaN slips through every comparison, and +inf through "> 0"
        with pytest.raises(ValidationError, match="finite"):
            ScenarioConfig(**{**SQUID_DEFAULTS, **field}, repetitions=1)

    @pytest.mark.parametrize("name", ["L", "a", "t_a", "t_i", "mean_n",
                                      "theta0", "quadrature_tol",
                                      "residual_gate"])
    def test_integer_too_large_for_a_double_rejected(self, name):
        # math.isfinite(10**400) raises OverflowError instead of answering
        with pytest.raises(ValidationError, match="finite"):
            ScenarioConfig(**{**SQUID_DEFAULTS, name: 10**400},
                           repetitions=1)

    @pytest.mark.parametrize("field", [dict(n_max=24.0), dict(repetitions=2.5),
                                       dict(clock_mode=1.0),
                                       dict(repetitions=True)])
    def test_counts_must_be_integers(self, field):
        # a float or bool count used to raise TypeError inside run_twin
        with pytest.raises(ValidationError, match="must be an integer"):
            ScenarioConfig(**{**SQUID_DEFAULTS, "repetitions": 1, **field})

    def test_numpy_integer_counts_accepted(self):
        counts = dict(repetitions=3, clock_mode=1, n_max=12)
        plain = ScenarioConfig(**SQUID_DEFAULTS, **counts)
        numpy = ScenarioConfig(**SQUID_DEFAULTS, **{
            name: np.int64(value) for name, value in counts.items()})
        got, want = run_twin(numpy), run_twin(plain)
        for name, value in vars(want).items():
            if name != "config":
                np.testing.assert_array_equal(getattr(got, name), value)
        # plain floats, not numpy scalars, in the time fields and pc_fraction
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("field", [dict(quadrature_tol=0.0),
                                       dict(quadrature_tol=math.nan),
                                       dict(residual_gate=0.0),
                                       dict(residual_gate=-1e-4),
                                       dict(residual_gate=math.nan)])
    def test_tolerances_must_be_positive(self, field):
        with pytest.raises(ValidationError, match="must be > 0"):
            ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, **field)


class TestRunTwinInertialLimit:
    def test_zero_acceleration_is_pure_free_evolution(self):
        cfg = ScenarioConfig(t_a=1e-9, t_i=0.5e-9, L=0.011, a=0.0,
                             repetitions=4, n_max=8)
        res = run_twin(cfg)
        omega_c = math.pi / cfg.L * C
        tau = res.tau_rob_pointlike
        assert res.tau_alice == pytest.approx(tau, rel=1e-15)
        assert res.tau_rob_classical_extended == pytest.approx(tau, rel=1e-15)
        assert res.theta_full == pytest.approx(omega_c * tau, rel=1e-12)
        assert res.phase_difference_vs_alice == pytest.approx(0.0, abs=1e-9)
        assert res.qfi_after == pytest.approx(res.qfi_before, rel=1e-12)
        assert res.pc_fraction == pytest.approx(0.0, abs=1e-12)

    def test_no_dilation_attributes_nothing_to_particle_creation(self):
        # at a = 0 the lane phase and the mode-mixing-only phase differ here
        # by a rounding (-2.8e-14 rad), which once gave pc_fraction = inf
        res = run_twin(ScenarioConfig(t_a=1e-9, t_i=0.3e-9, L=0.1, a=0.0,
                                      repetitions=4, n_max=8, mean_n=2.0,
                                      theta0=0.3))
        assert res.tau_alice == res.tau_rob_pointlike
        assert res.pc_fraction == 0.0

    def test_small_acceleration_continuity(self):
        diffs = []
        for a in (1e13, 1e12):
            cfg = ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=a,
                                 repetitions=2, n_max=8)
            diffs.append(abs(run_twin(cfg).phase_difference_vs_alice))
        assert diffs[0] > diffs[1]
        assert diffs[1] < 1e-8


@pytest.fixture(scope="module")
def squid_result():
    return run_twin(ScenarioConfig(**SQUID_DEFAULTS, repetitions=10, n_max=20))


class TestRunTwinSquidDefaults:
    @pytest.fixture
    def result(self, squid_result):
        return squid_result

    def test_time_ordering(self, result):
        assert (result.tau_alice > result.tau_rob_pointlike
                > result.tau_rob_classical_extended)

    def test_phase_difference_grows_monotonically(self, result):
        series = result.phase_difference_series
        assert series.shape == (10,)
        assert np.all(np.diff(np.concatenate([[0.0], series])) > 0)

    def test_phase_difference_positive(self, result):
        assert result.phase_difference_vs_alice > 0

    def test_block_particle_content_shows_up(self, result):
        assert result.qfi_after != result.qfi_before
        assert result.residual[0] < 1e-6

    def test_squeezed_more_fragile_than_coherent_under_mode_mixing(self):
        coh = run_twin(ScenarioConfig(**SQUID_DEFAULTS, repetitions=10, n_max=20,
                                      state_kind="coherent", mean_n=10.0))
        sq = run_twin(ScenarioConfig(**SQUID_DEFAULTS, repetitions=10, n_max=20,
                                     state_kind="squeezed_vacuum", mean_n=10.0))
        assert sq.qfi_change_pct_full < 0
        assert sq.qfi_change_pct_mm_only < 0
        assert coh.qfi_change_pct_mm_only < 0
        assert abs(sq.qfi_change_pct_mm_only) >= abs(coh.qfi_change_pct_mm_only)


class TestFaintCoherentClock:
    @pytest.mark.parametrize("mean_n", [1e-24, 1e-30])
    def test_reads_like_a_bright_one(self, mean_n):
        # transport is linear, so a coherent clock's phase cannot depend on
        # its amplitude; a faint one once switched to the squeeze angle and
        # read a lag 1.4 rad off (README config, theta0 0.3)
        def result(n):
            return run_twin(ScenarioConfig(**SQUID_DEFAULTS, repetitions=500,
                                           n_max=24, theta0=0.3, mean_n=n))

        bright, faint = result(1.0), result(mean_n)
        assert faint.phase_difference_vs_alice == pytest.approx(
            bright.phase_difference_vs_alice, abs=1e-12)
        assert faint.pc_fraction == pytest.approx(bright.pc_fraction,
                                                  rel=1e-9)


class TestTimeReversal:
    def test_backwards_run_block_restores_the_phase(self):
        # evolving through the block and its inverse leaves the clock reading
        # the free-evolution phase of the null net evolution, i.e. theta0
        block = twin_block(1e-9, 0.5e-9, 3e15)
        bmap = trajectory_map(block, 0.011, 16)
        undone = compose(inverse(bmap), bmap)
        state = apply_reduced(undone, 1, coherent(1.0, 0.25),
                              residual_gate=None)
        params = extract_params(state)
        assert params.phase == pytest.approx(0.25, abs=1e-8)
        assert params.purity == pytest.approx(1.0, abs=1e-8)


class TestParticleCreationSubdominance:
    def test_pc_deviation_much_smaller_than_mode_mixing_deviation(self):
        # particle creation moves the clock reading far less than
        # mode-mixing does, uniformly as h -> 0 (both vanish like h^2)
        for a in (4e15, 1e15):
            cfg = ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=a,
                                 repetitions=3, n_max=16)
            res = run_twin(cfg)
            omega_c = math.pi / cfg.L * C
            mm_dev = abs(res.theta_mm_only
                         - omega_c * res.tau_rob_classical_extended)
            pc_dev = abs(res.theta_full - res.theta_mm_only)
            assert pc_dev < 0.05 * mm_dev


class TestResidualGate:
    def test_gate_trips_for_coarse_truncation(self):
        cfg = ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011,
                             a=1.8 * C**2 / 0.011, repetitions=1, n_max=5,
                             residual_gate=1e-8)
        with pytest.raises(TruncationError):
            run_twin(cfg)



class TestSqueezedLossSensitivity:
    def test_qfi_change_is_linear_in_mean_n(self):
        # a squeezed state's QFI 8N(N+1) is sensitive to loss in proportion
        # to N: the QFI change is about -1.65e-5 % per unit N at this block,
        # -0.0166 % at N 1e3 and -0.165 % at 1e4, a physical effect and not
        # cancellation (theta0 0, where qfi_before is exact)
        change = [run_twin(ScenarioConfig(
            **SQUID_DEFAULTS, repetitions=3, state_kind="squeezed_vacuum",
            mean_n=n)).qfi_change_pct_full for n in (1e3, 1e4)]
        assert 9.9 <= change[1] / change[0] <= 10.1


class TestFaintSqueezedClock:
    # below about mean_n 1e-29 the covariance no longer resolves the
    # squeezing, and the phase QFI reads 0: a numerical limit
    def test_unresolved_squeezing_fails_before_the_lanes(self, monkeypatch):
        # the initial state is read by identity rows at the clock mode, in
        # the one span that also reads the two row pairs of S_B^reps; no
        # lane runs
        seen = []
        row_moments = clock.row_moments

        def recording(rows, *args, **kwargs):
            seen.append(rows.copy())
            return row_moments(rows, *args, **kwargs)

        monkeypatch.setattr(clock, "row_moments", recording)
        monkeypatch.setattr(clock, "_lane_route", lambda *args: pytest.fail(
            "the lanes ran"))
        with pytest.raises(UnboundedVarianceError, match="mean_n 1e-30"):
            run_twin(ScenarioConfig(**SQUID_DEFAULTS, repetitions=3,
                                    n_max=12, state_kind="squeezed_vacuum",
                                    mean_n=1e-30))
        [rows] = seen
        assert rows.shape == (3, 2, 24)
        assert rows[0].tobytes() == np.eye(2, 24).tobytes()

    def test_initial_fault_comes_before_a_transported_one(self, monkeypatch):
        # the span reads all three states at once; an unresolved initial
        # state is still reported before a fault of the transported state
        row_moments = clock.row_moments

        def breaking(rows, state, k, out=None, work=None):
            moments, cov, det = row_moments(rows, state, k, out=out,
                                            work=work)
            if len(rows) == 3:
                det[1] = 0.04
            return moments, cov, det

        monkeypatch.setattr(clock, "row_moments", breaking)
        with pytest.raises(UnboundedVarianceError, match="mean_n 1e-30"):
            run_twin(ScenarioConfig(**SQUID_DEFAULTS, repetitions=3,
                                    n_max=12, state_kind="squeezed_vacuum",
                                    mean_n=1e-30))

    def test_unresolved_squeezing_collected_as_numerical_error(self):
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=3, n_max=12,
                              state_kind="squeezed_vacuum")
        points = sweep(base, "mean_n", [1e-30, 1.0])
        assert isinstance(points[0].exception, UnboundedVarianceError)
        assert not isinstance(points[0].exception, ValidationError)
        assert "mean_n 1e-30" in points[0].error
        assert points[1].result.qfi_before == pytest.approx(16.0, rel=1e-12)

    def test_unreadable_squeezing_collected_as_numerical_error(self):
        # the faint squeezed vacuum is the state the readout cannot read, at
        # any angle; mean_n 1e6 at theta0 0.3, whose entry det cancels,
        # reads, since the readout takes det sigma from the rows
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=3, n_max=12,
                              state_kind="squeezed_vacuum", theta0=0.3)
        points = sweep(base, "mean_n", [1e-30, 1e6])
        assert isinstance(points[0].exception, CavityClockError)
        assert not isinstance(points[0].exception, ValidationError)
        assert "mean_n 1e-30" in points[0].error
        assert points[0].result is None
        assert points[1].exception is None
        assert points[1].result.qfi_before == pytest.approx(8e6 * (1e6 + 1),
                                                            rel=1e-13)

    def test_faintest_resolved_squeezing_still_runs(self):
        result = run_twin(ScenarioConfig(
            **SQUID_DEFAULTS, repetitions=3, n_max=12,
            state_kind="squeezed_vacuum", mean_n=1e-28))
        assert result.qfi_before == pytest.approx(8e-28, rel=0.01)

# h ~ 0.0095 with n_max 24: the residual gate passes (eps1 ~ 4e-8), but
# truncation lets the transported state break the uncertainty relation
TRUNCATION_ARTIFACT = dict(t_a=1e-9, t_i=1e-9, L=0.05, a=1.7e16,
                           repetitions=500, n_max=24)


class TestLastEntry:
    def test_fields_are_plain_floats(self):
        # the initial state read alone, by identity rows at the clock mode,
        # reads like the readout of the state, in plain floats
        for clock_mode in (1, 3):
            config = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1,
                                    n_max=12, clock_mode=clock_mode,
                                    mean_n=0.13, theta0=-0.98)
            frame = _clock_frame(config)
            assert type(frame.theta_start) is float
            assert type(frame.qfi) is float
            assert frame.readings == []
            params = extract_params(config.initial_state())
            assert (frame.theta_start, frame.qfi) == (params.phase,
                                                      phase_qfi(params))


def entry(moments, state):
    """Single-mode (moments, covariance): `state`'s covariance, displaced to
    `moments`."""
    return np.array(moments, dtype=float), state.covariance


# Displaced entries with ordinary, degenerate and artanh-boundary
# (s/T >= 1 - 1e-15) covariances, and undisplaced ones.  Either readout
# reads any of them: the clock's state kind, not a displacement threshold,
# picks the readout.
DISPLACED = [entry([-1.27, 0.31], coherent(1.3)),
             entry([0.4, -1.1], squeezed_vacuum(2.0, -0.6)),
             entry([-2.0, 1e-3], squeezed_vacuum(1e8)),           # boundary
             entry([1e-12, 1e-12], vacuum(1)),
             entry([0.0, -0.7], squeezed_vacuum(1e8, math.pi))]  # boundary
BARELY_DISPLACED = entry([1e-13, 0.0], squeezed_vacuum(0.5, 1.0))
UNDISPLACED = [entry([0.0, 0.0], squeezed_vacuum(0.5, 3.0)),
               BARELY_DISPLACED]
NOT_POSITIVE_DEFINITE = np.array([[0.25, 0.3], [0.3, 0.25]])
PURITY_ABOVE_ONE = 0.2 * np.eye(2)


def span(entries):
    return (np.array([m for m, _ in entries]),
            np.array([c for _, c in entries]))


SPANS = {"displaced": DISPLACED * 3,
         "undisplaced": DISPLACED + UNDISPLACED + DISPLACED,
         "barely displaced": DISPLACED + [BARELY_DISPLACED] + DISPLACED}

# the two readouts, by `_span_phase`'s `squeezed` argument
READOUTS = (False, True)


class TestSpanPhase:
    """The span readout of either clock against the full parameter readout
    of the same entries: the displacement phase of a coherent clock, half
    the squeeze angle of a squeezed-vacuum clock."""

    @pytest.mark.parametrize("kind", list(SPANS))
    def test_phase_is_bit_identical(self, kind):
        moments, cov = span(SPANS[kind])
        params, fault = moment_params(moments, cov)
        assert fault is None
        for squeezed, reference in zip(
                READOUTS, (params.phase, 0.5 * params.squeeze_angle)):
            phase, got = _span_phase(moments, cov, entry_det(cov), 1,
                                     "transported state", squeezed)
            # the parameters of the gated terms, for the caller's QFI
            for field in vars(params):
                assert (getattr(got, field).tobytes()
                        == getattr(params, field).tobytes())
            assert phase.dtype == reference.dtype
            assert phase.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kind", list(SPANS))
    @pytest.mark.parametrize("faults", [
        {4: NOT_POSITIVE_DEFINITE},
        {4: PURITY_ABOVE_ONE},
        {2: PURITY_ABOVE_ONE, 6: NOT_POSITIVE_DEFINITE},
        {1: NOT_POSITIVE_DEFINITE, 9: PURITY_ABOVE_ONE}])
    def test_first_fault_and_message_unchanged(self, kind, faults):
        moments, cov = span(SPANS[kind])
        for index, bad in faults.items():
            cov[index] = bad
        index, message = moment_params(moments, cov)[1]
        expected = (f"transported state at repetition {97 + index}: "
                    f"{message}; truncation artifact, increase n_max")
        for squeezed in READOUTS:
            with pytest.raises(TruncationError) as raised:
                _span_phase(moments, cov, entry_det(cov), 97,
                            "transported state", squeezed)
            assert str(raised.value) == expected
            assert f"at repetition {97 + min(faults)}: " in str(raised.value)

    @pytest.mark.parametrize("kind", list(SPANS))
    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)])
    def test_nan_covariance_fails_the_gate(self, kind, entry):
        # every comparison with NaN is False, so the gate must fail closed
        moments, cov = span(SPANS[kind])
        cov[5][entry] = math.nan
        for squeezed in READOUTS:
            with pytest.raises(TruncationError,
                               match="repetition 102: .*not positive definite"):
                _span_phase(moments, cov, entry_det(cov), 97,
                            "transported state", squeezed)
        assert moment_params(moments, cov)[1][0] == 5


class TestQfiAfter:
    @pytest.mark.parametrize("reps", [1, 25, 600])
    def test_reads_the_last_entry_alone(self, reps, monkeypatch):
        # run_twin reads one three-entry span, the initial, the final and
        # the mode-mixing-only state, and the QFI reuses the span's
        # parameters, so no state is read twice and no lane runs
        sizes = []
        gated_parameters = clock._gated_parameters

        def recording(moments, cov, det):
            sizes.append((len(moments), len(cov), len(det)))
            return gated_parameters(moments, cov, det)

        monkeypatch.setattr(clock, "_gated_parameters", recording)
        run_twin(ScenarioConfig(**SQUID_DEFAULTS, repetitions=reps, n_max=12))
        assert sizes == [(3, 3, 3)]


class TestGatedStates:
    """No state is read twice: the physicality gate sees the initial, the
    final and the mode-mixing-only state of `run_twin` once each, and each
    repetition's state in the lanes once."""

    @pytest.mark.parametrize("state_kind", ["coherent", "squeezed_vacuum"])
    @pytest.mark.parametrize("reps", [1, 8, 200, 385])
    def test_gate_sees_each_state_once(self, reps, state_kind,
                                       monkeypatch):
        entries = []
        gated_parameters = clock._gated_parameters

        def counting(moments, cov, det):
            entries.append(cov[..., 0, 0].size)
            return gated_parameters(moments, cov, det)

        monkeypatch.setattr(clock, "_gated_parameters", counting)
        result = run_twin(ScenarioConfig(**SQUID_DEFAULTS, repetitions=reps,
                                         n_max=12, state_kind=state_kind))
        # run_twin reads the initial state, then the final state and the
        # mode-mixing-only state from S_B^reps, in one span; the series
        # reads the initial state and runs the lanes
        assert entries == [3]
        entries.clear()
        assert len(result.phase_difference_series) == reps
        assert entries[0] == 1 and sum(entries) == reps + 1


class TestTruncationArtifact:
    def test_unphysical_transported_state_is_truncation_error(self):
        # run_twin exits on the drift horizon first (184 round trips here);
        # the lanes, which gate every repetition, find the unphysical state
        config = ScenarioConfig(**TRUNCATION_ARTIFACT)
        with pytest.raises(TruncationError,
                           match=r"repetition \d+: .*uncertainty relation.*"
                                 r"increase n_max"):
            clock._lane_route(config)

    @pytest.mark.parametrize("reps", [1, 25, 337])
    def test_unphysical_mode_mixing_only_state(self, reps, monkeypatch):
        # the mode-mixing-only state is the last det of the span, read from
        # its rows after the final state, for either state kind; a det of
        # 0.04 reads purity 1.25
        row_moments = clock.row_moments
        for state_kind in ("coherent", "squeezed_vacuum"):
            config = ScenarioConfig(**SQUID_DEFAULTS, repetitions=reps,
                                    n_max=12, state_kind=state_kind)
            mm_rows = clock._map_stage(config).mm_rows

            def breaking(rows, state, k, out=None, work=None):
                moments, cov, det = row_moments(rows, state, k, out=out,
                                                work=work)
                if len(rows) == 3 and (rows[2] == mm_rows).all():
                    det[2] = 0.04
                return moments, cov, det

            monkeypatch.setattr(clock, "row_moments", breaking)
            with pytest.raises(TruncationError) as raised:
                run_twin(config)
            message = str(raised.value)
            assert message.startswith(
                f"mode-mixing-only state at repetition {reps}: covariance "
                "violates the uncertainty relation (purity ")
            assert message.endswith("; truncation artifact, increase n_max")

    def test_larger_truncation_reads_out(self):
        res = run_twin(ScenarioConfig(**{**TRUNCATION_ARTIFACT, "n_max": 48}))
        assert res.qfi_after > 0


class TestSweep:
    def test_singleton_grid_matches_run_twin(self):
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=3, n_max=12)
        points = sweep(base, "L", [0.011])
        direct = run_twin(base)
        assert len(points) == 1
        assert points[0].error is None
        assert points[0].result.theta_full == direct.theta_full
        assert points[0].result.qfi_after == direct.qfi_after

    def test_results_in_grid_order(self):
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=2, n_max=12)
        grid = [0.009, 0.013, 0.011, 0.010]
        points = sweep(base, "L", grid)
        assert [p.value for p in points] == grid
        assert all(p.result.config.L == v for p, v in zip(points, grid))

    def test_empty_grid_rejected(self):
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, n_max=12)
        with pytest.raises(ValidationError):
            sweep(base, "L", [])

    def test_unknown_axis_rejected(self):
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, n_max=12)
        with pytest.raises(ValidationError):
            sweep(base, "chirality", [1.0])

    def test_grid_value_too_large_for_a_double_rejected(self, monkeypatch):
        ran = []
        monkeypatch.setattr(clock, "run_twin", ran.append)
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, n_max=12)
        with pytest.raises(ValidationError, match="double"):
            sweep(base, "L", [0.011, 10**400])
        assert ran == []

    def test_per_point_errors_collected(self):
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, n_max=12)
        points = sweep(base, "h", [1e-4, 2.5, 2e-4])
        assert points[0].error is None
        assert points[1].result is None and "Horizon" in points[1].error
        assert points[2].error is None

    def test_non_finite_map_collected_as_truncation_error(self,
                                                          monkeypatch):
        # with no gate, a NaN S_B^reps must fail before its SVD, whose
        # LinAlgError would abort the whole grid
        block_symplectic = clock._block_symplectic

        def nan_block(*args):
            s, product = block_symplectic(*args)
            return np.full_like(s, np.nan), product

        monkeypatch.setattr(clock, "_block_symplectic", nan_block)
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=3, n_max=12,
                              residual_gate=None)
        points = sweep(base, "L", [0.011, 0.012])
        assert all(isinstance(p.exception, TruncationError) for p in points)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(config):
            raise TypeError("a bug, not a failed point")

        monkeypatch.setattr(clock, "run_twin", broken)
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, n_max=12)
        with pytest.raises(TypeError):
            sweep(base, "L", [0.011])

    def test_underflowing_h_collected_as_quadrature_error(self):
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, n_max=12)
        points = sweep(base, "h", [1e-170, 2.1e-4])
        assert isinstance(points[0].exception, QuadratureError)
        assert "h = 1e-170" in points[0].error
        assert points[1].error is None

    @pytest.mark.parametrize("a", [1.7e15, -1.7e15])
    def test_negative_h_collected_as_validation_error(self, a):
        # the sign of a is the base config's; a negative h would mirror it
        base = ScenarioConfig(**{**SQUID_DEFAULTS, "a": a}, repetitions=1,
                              n_max=12)
        points = sweep(base, "h", [-2.1e-4, 2.1e-4])
        assert isinstance(points[0].exception, ValidationError)
        assert points[0].error == ("ValidationError: h must be >= 0, "
                                   "got -0.00021")
        assert points[1].result.h == pytest.approx(2.1e-4, rel=1e-12)

    def test_h_axis_rescales_acceleration(self):
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, n_max=12)
        points = sweep(base, "h", [1e-4])
        cfg = points[0].result.config
        assert cfg.h == pytest.approx(1e-4, rel=1e-12)

    def test_pc_fraction_oscillates_across_clock_sizes(self):
        # particle-creation share of the dilation flips sign and swings by
        # orders of magnitude as a function of L
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=20, n_max=20)
        grid = list(np.linspace(0.004, 0.024, 11))
        points = sweep(base, "L", grid)
        fractions = [p.result.pc_fraction for p in points]
        nonzero = [abs(f) for f in fractions if f != 0.0]
        assert any(f > 0 for f in fractions)
        assert any(f < 0 for f in fractions)
        assert max(nonzero) / min(nonzero) > 100

    def test_points_run_serially_on_calling_thread(self, monkeypatch):
        calls = []
        real = clock.run_twin

        def recording(config):
            calls.append((threading.get_ident(), config.L))
            return real(config)

        monkeypatch.setattr(clock, "run_twin", recording)
        base = ScenarioConfig(**SQUID_DEFAULTS, repetitions=1, n_max=12)
        grid = [0.013, 0.009, 0.011]
        sweep(base, "L", grid)
        assert calls == [(threading.get_ident(), L) for L in grid]


class TestSchwarzschild:
    MASS = 5.972e24  # kg

    def test_newtonian_limit_within_one_percent(self):
        rs = 2 * G_NEWTON * self.MASS / C**2
        r = 100 * rs
        newtonian = G_NEWTON * self.MASS / r**2
        value = schwarzschild_acceleration(self.MASS, r)
        assert abs(value - newtonian) / newtonian < 0.01

    def test_value_at_twice_the_horizon(self):
        rs = 2 * G_NEWTON * self.MASS / C**2
        expected = C**2 * math.sqrt(2.0) / (8.0 * rs)
        assert schwarzschild_acceleration(self.MASS, 2 * rs) == pytest.approx(
            expected, rel=1e-12)

    def test_horizon_and_interior_rejected(self):
        rs = 2 * G_NEWTON * self.MASS / C**2
        with pytest.raises(HorizonError):
            schwarzschild_acceleration(self.MASS, rs)
        with pytest.raises(HorizonError):
            schwarzschild_acceleration(self.MASS, 0.5 * rs)

    def test_near_horizon_mapping(self):
        # cavity must be small against chi_c ~ 2 sqrt(r_s (r - r_s))
        rs = 2 * G_NEWTON * self.MASS / C**2
        r = 1.001 * rs
        geom, validity = near_horizon_geometry(self.MASS, r, 1e-5)
        a_s = schwarzschild_acceleration(self.MASS, r)
        assert geom.chi_center == pytest.approx(C**2 / a_s, rel=1e-12)
        assert validity == pytest.approx(0.001, rel=1e-9)

    def test_cavity_too_large_near_horizon_rejected(self):
        rs = 2 * G_NEWTON * self.MASS / C**2
        a_s = schwarzschild_acceleration(self.MASS, 1.0000001 * rs)
        too_long = 2.5 * C**2 / a_s
        with pytest.raises(HorizonError):
            near_horizon_geometry(self.MASS, 1.0000001 * rs, too_long)
