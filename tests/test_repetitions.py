"""`run_twin`'s one route, the readout from the row pairs of S_B^reps behind
the drift horizon; the lane propagation of the clock-mode rows across
repetitions behind `phase_difference_series`, pinned against the full-map
loop it replaced; and the residual growth that lets the final map's
residual gate vouch for every repetition."""

import math
from dataclasses import replace

import numpy as np
import pytest

import cavityclock.clock as clock
import cavityclock.gauss as gauss
import cavityclock.modes as modes
from cavityclock import (C, ScenarioConfig, TruncationError, ValidationError,
                         extract_params, phase_qfi, run_twin, sweep,
                         symplectic_residual, trajectory_map)
from cavityclock.clock import _LANES, _SPAN, classical_cavity_ratio
from cavityclock.modes import (BogoliubovMap, _block_symplectic, _coefficients,
                               _map_power)
from cavityclock.trajectory import build_twin_trajectory, elapsed_times
import map_oracle
from map_oracle import compose
from peak import cached_junction_map, peak_bytes
from test_clock import TRUNCATION_ARTIFACT
from transport_oracle import (apply_full, dense_row_moments, embed,
                              partial_trace)


def full_transport(bmap: BogoliubovMap, state0, k: int):
    """Mode k after the full multimode transport of `state0` embedded at
    mode k; independent of the row transport `run_twin` and `apply_reduced`
    share."""
    return partial_trace(apply_full(bmap, embed(state0, bmap.n_max, k)), k)


def full_map_states(config: ScenarioConfig):
    """Yield (rep, B^rep, mode-k state after rep round trips), composing the
    full n_max x n_max map every repetition."""
    block = build_twin_trajectory(config.t_a, config.t_i, 1, config.a)
    block_map = trajectory_map(block, config.L, config.n_max,
                               tol=config.quadrature_tol)
    state0 = config.initial_state()
    cur = BogoliubovMap.identity(config.n_max)
    for rep in range(1, config.repetitions + 1):
        cur = compose(block_map, cur)
        yield rep, cur, full_transport(cur, state0, config.clock_mode)


def full_map_loop(config: ScenarioConfig) -> dict:
    """Reference: read mode k from a freshly transported state every
    repetition (`full_map_states`), then take the mode-mixing-only readout
    from the iterated map."""
    k = config.clock_mode
    block = build_twin_trajectory(config.t_a, config.t_i, 1, config.a)
    state0 = config.initial_state()

    def read(params):
        if params.displacement > 1e-12:
            return params.phase, 2.0 * math.pi
        return 0.5 * params.squeeze_angle, math.pi

    theta_start, period = read(extract_params(state0))
    omega_k = k * math.pi / config.L
    ratio = classical_cavity_ratio(config.h)
    anchor_block = omega_k * C * (2.0 * config.t_i + ratio * 4.0 * config.t_a)
    _, tau_alice_block = elapsed_times(block)

    series = []
    for rep, cur, state in full_map_states(config):
        wrapped, _ = read(extract_params(state))
        anchor = theta_start + rep * anchor_block
        theta_full = anchor + math.remainder(wrapped - anchor, period)
        theta_alice = theta_start + omega_k * C * (rep * tau_alice_block)
        series.append(theta_alice - theta_full)

    params_mm = extract_params(full_transport(map_oracle.passive_part(cur), state0, k))
    wrapped_mm, _ = read(params_mm)
    anchor = theta_start + config.repetitions * anchor_block
    return {
        "series": np.array(series),
        "qfi_after": phase_qfi(extract_params(state)),
        "theta_mm_only": anchor + math.remainder(wrapped_mm - anchor, period),
        "qfi_after_mm_only": phase_qfi(params_mm),
    }


# Repetition counts at the edges of the first lane fill, of a lane step and
# of a readout span, a few interior counts (191 to 193 and 411 end a span
# mid-way, on and next to a lane step), and one long run.
LANE_EDGES = [1, _LANES - 1, _LANES, _LANES + 1, _SPAN - 1, _SPAN, _SPAN + 1,
              2 * _SPAN + _LANES + 3, 2000, 63, 64, 65, 131, 191, 192, 193,
              411]


def lane_config(reps: int, kind: str = "coherent") -> ScenarioConfig:
    return ScenarioConfig(t_a=1e-9, t_i=0.3e-9, L=0.011, a=4e15,
                          repetitions=reps, n_max=16, state_kind=kind,
                          mean_n=3.0, theta0=0.4)


def lane_route(config: ScenarioConfig):
    """The series of the lanes alone, from the map stage `run_twin` runs."""
    stage = clock._map_stage(config)
    return clock._lane_route(config, stage[0], stage[4])


def recording_row_moments(monkeypatch) -> list:
    """Record (rows, state, k, moments, cov) of every `row_moments` call the
    clock makes."""
    seen = []
    row_moments = clock.row_moments

    def recording(rows, state, k, out=None, work=None):
        moments, cov, det = row_moments(rows, state, k, out=out, work=work)
        seen.append((rows.copy(), state, k, moments.copy(), cov.copy()))
        return moments, cov, det

    monkeypatch.setattr(clock, "row_moments", recording)
    return seen


def assert_dense(seen) -> None:
    """Each recorded transport, bit for bit the dense one of its rows."""
    for rows, state, k, moments, cov in seen:
        want_moments, want_cov = dense_row_moments(rows, state, k)
        assert moments.tobytes() == want_moments.tobytes()
        assert cov.tobytes() == want_cov.tobytes()


class TestRowPathAgainstFullMapLoop:
    @pytest.mark.parametrize("reps", LANE_EDGES)
    @pytest.mark.parametrize("kind", ["coherent", "squeezed_vacuum"])
    def test_matches_reference(self, kind, reps):
        config = lane_config(reps, kind)
        res = run_twin(config)
        ref = full_map_loop(config)
        assert res.phase_difference_series.shape == (reps,)
        np.testing.assert_allclose(res.phase_difference_series, ref["series"],
                                   rtol=0, atol=1e-9)
        assert res.phase_difference_vs_alice == res.phase_difference_series[-1]
        assert res.qfi_after == pytest.approx(ref["qfi_after"], rel=1e-11)
        for key in ("theta_mm_only", "qfi_after_mm_only"):
            assert getattr(res, key) == pytest.approx(ref[key], rel=1e-11)

    def test_truncation_error_names_first_faulty_repetition(self):
        # L = 0.05 m at 1.7e16 m/s^2 and n_max 24: the final-map residual
        # passes its gate, but truncation pushes the purity above 1
        config = ScenarioConfig(t_a=1e-9, t_i=1e-9, L=0.05, a=1.7e16,
                                repetitions=500, n_max=24)
        first_bad = None
        for rep, _, state in full_map_states(config):
            try:
                extract_params(state)
            except ValidationError:
                first_bad = rep
                break
        assert first_bad is not None
        # run_twin exits on the drift horizon (184 round trips) first
        with pytest.raises(TruncationError,
                           match=rf"at repetition {first_bad}: "):
            lane_route(config)

    def test_one_readout_per_span(self, monkeypatch):
        # guards the span readout without timing anything: a readout per
        # lane step or per repetition would make 4x to 96x more calls in the
        # lanes, which the series runs; run_twin reads the initial state,
        # the final state and then the mode-mixing-only state, each as a
        # one-entry span
        calls = []
        span_phase = clock._span_phase

        def counting(*args):
            calls.append((len(args[0]), *args[3:]))
            return span_phase(*args)

        monkeypatch.setattr(clock, "_span_phase", counting)
        result = run_twin(lane_config(5000))
        assert calls == [(1, 0, "initial state", False),
                         (1, 5000, "transported state", False),
                         (1, 5000, "mode-mixing-only state", False)]
        calls.clear()
        assert len(result.phase_difference_series) == 5000
        assert 0 < len(calls) <= math.ceil(5000 / _SPAN) + 3
        last = 5000 - (5000 - 1) // _SPAN * _SPAN
        assert calls[-1] == (last, 5001 - last, "transported state", False)


class TestLanesAgainstDenseTransport:
    @pytest.mark.parametrize("reps", LANE_EDGES)
    @pytest.mark.parametrize("kind", ["coherent", "squeezed_vacuum"])
    def test_moments_bit_identical(self, kind, reps, monkeypatch):
        # every lane step's moments and covariances, as written into the
        # span buffers, against the dense transport of the same rows
        seen = recording_row_moments(monkeypatch)
        lane_route(lane_config(reps, kind))
        # the initial state by identity rows, then one row pair per
        # repetition
        assert seen[0][0].tobytes() == np.eye(2)[None].tobytes()
        assert sum(len(rows) for rows, *_ in seen[1:]) == reps
        assert_dense(seen)

    @pytest.mark.parametrize("kind", ["coherent", "squeezed_vacuum"])
    def test_no_register_is_embedded(self, kind, monkeypatch):
        # the 2n x 2n vacuum covariance is never built
        calls = []
        for module in (gauss, clock):
            monkeypatch.setattr(module, "embed", lambda *args: calls.append(
                args) or embed(*args), raising=False)
        run_twin(lane_config(2 * _SPAN + 1, kind))
        assert calls == []


class TestPeakAllocation:
    @staticmethod
    def config(reps):
        return ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15,
                              repetitions=reps, n_max=24)

    def peak(self, reps):
        return peak_bytes(lambda: run_twin(self.config(reps)))

    def series_peak(self, reps):
        # a fresh result each call: the series is kept after its first read
        return peak_bytes(
            lambda: run_twin(self.config(reps)).phase_difference_series)

    def test_peak_does_not_grow_beyond_the_series(self, monkeypatch):
        # the lanes and span buffers are sized by _LANES and _SPAN, not by
        # the repetition count: more round trips may add only their 8-byte
        # series entries.  A buffer sized by _SPAN is full from _SPAN round
        # trips on, so it shows only against a run shorter than a span: a
        # _SPAN x 2 x 2 n_max row buffer would lift the peak at 5000 round
        # trips well above the one at _LANES.
        for peak in (self.peak, self.series_peak):
            peaks = {reps: peak(reps) for reps in (_LANES, 500, 5000)}
            for reps in (_LANES, 500):
                assert peaks[5000] <= peaks[reps] + 8 * (5000 - reps) + 16_384
        # The junction quadrature sets the short runs' peaks, so the bound
        # above has the quadrature's slack.  With it cached, the lane phase
        # sets every peak of the series; 4 KB is room for measurement noise
        # (up to 1 KB), but not for 16 phases (240 B) kept per span: 10000
        # round trips run 27 spans more than 1000.
        monkeypatch.setattr(modes, "junction_map", cached_junction_map)
        lane = {reps: self.series_peak(reps) for reps in (1000, 5000, 10_000)}
        for low, high in ((1000, 5000), (5000, 10_000), (1000, 10_000)):
            assert lane[high] <= lane[low] + 8 * (high - low) + 4096

    def test_peak_at_5000_round_trips(self):
        # the lanes peak at about 127 KB, with the 40 KB series, two lane
        # buffers (one freed for each span's readout), H = S_B^24 written
        # over S_B, the span buffers and one lane step's det terms; a third
        # lane-sized buffer, S_B kept beside H, or a span's readout arrays
        # kept alive into the next span's lanes (about 18 KB) would lift
        # the peak toward 150 KB
        assert self.series_peak(5000) <= 150_000
        # run_twin reads the final state from S_B^reps, and the junction
        # quadrature (about 81 KB) sets its peak; running the lanes, as it
        # did before, lifted it to about 119 KB
        assert self.peak(5000) <= 90_000

    def test_sweep_peak(self):
        # 16 points of 200 round trips over L: the finished points' results,
        # about 3 KB each, under the last point's own peak; the junction
        # quadrature on three whole node tables put it at 188 KB
        base = ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15,
                              repetitions=200, n_max=24)
        grid = np.linspace(0.009, 0.013, 16)
        assert peak_bytes(lambda: sweep(base, "L", grid)) <= 150_000


class TestRouteRule:
    """`run_twin` reads every clock within the drift horizon from the row
    pairs of S_B^reps, and exits beyond it before the state enters; the
    lanes, which gate each repetition, serve the series alone."""

    def test_final_map_route_reads_two_row_pairs(self, monkeypatch):
        # config A at 5000 round trips, for either state kind: the initial
        # state by identity rows, then the final state and the
        # mode-mixing-only state, and no lane
        def lanes(*args):
            pytest.fail("the lanes ran")

        monkeypatch.setattr(clock, "_lane_route", lanes)
        seen = recording_row_moments(monkeypatch)
        for kind in ("coherent", "squeezed_vacuum"):
            seen.clear()
            config = ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15,
                                    repetitions=5000, n_max=24,
                                    state_kind=kind, mean_n=10.0, theta0=0.3)
            run_twin(config)
            _, final_rows, mm_rows, *_ = clock._map_stage(config)
            assert [rows.tobytes() for rows, *_ in seen] == [
                np.eye(2)[None].tobytes(), final_rows[None].tobytes(),
                mm_rows[None].tobytes()]
            assert_dense(seen)

    @pytest.mark.parametrize("n_max, reps, first_bad", [(24, 500, 369),
                                                        (48, 12000, 11762)])
    def test_horizon_below_the_lanes_first_fault(self, n_max, reps,
                                                 first_bad):
        # the drift trips the lanes' gate at 1.002 and 1.004 times
        # slack / |delta| here, above the horizon; the lanes name the first
        # faulty repetition
        config = ScenarioConfig(**{**TRUNCATION_ARTIFACT, "n_max": n_max,
                                   "repetitions": reps})
        horizon = clock._horizon(clock._map_stage(config)[3])
        assert horizon < first_bad <= 2.01 * horizon
        with pytest.raises(TruncationError,
                           match=rf"^transported state at repetition "
                                 rf"{first_bad}: .*uncertainty relation"):
            lane_route(config)

    @pytest.mark.parametrize("config", [
        # config A at n_max 48, whose delta is rounding: the lanes tripped
        # at 168794, while n_max 24 runs 7e5 round trips
        dict(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15, repetitions=300_000,
             n_max=48),
        # the truncation artifact, whose delta shrinks with n_max
        TRUNCATION_ARTIFACT])
    def test_beyond_the_horizon_exits_before_the_state_enters(
            self, config, monkeypatch):
        def no_state(*args, **kwargs):
            pytest.fail("the state entered")

        config = ScenarioConfig(**config)
        delta = clock._map_stage(config)[3]
        horizon = clock._horizon(delta)
        assert horizon < config.repetitions
        monkeypatch.setattr(clock, "row_moments", no_state)
        with pytest.raises(TruncationError) as raised:
            run_twin(config)
        assert str(raised.value) == clock._drift_fault(config, delta)
        assert str(raised.value).startswith(
            f"{config.repetitions} round trips exceed the drift horizon "
            f"{horizon:.4g} set by S_B's clock-row drift delta={delta:.3e}")
        assert "increase n_max only if `check --config` shows delta " \
               "shrinking with n_max" in str(raised.value)
        # one rule: a run at the horizon reads
        assert clock._drift_fault(
            replace(config, repetitions=int(horizon)), delta) is None

    def test_squeezed_vacuum_reads_every_repetition(self):
        # N 1e7 at theta0 0.3: with the det of sigma's entries, the lanes
        # found repetition 73 unphysical, from the readout's own
        # cancellation; the det from the rows reads every repetition
        config = ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15,
                                repetitions=500, n_max=24,
                                state_kind="squeezed_vacuum", mean_n=1e7,
                                theta0=0.3)
        result = run_twin(config)
        series = result.phase_difference_series
        assert series.shape == (500,)
        assert series[-1] == pytest.approx(result.phase_difference_vs_alice,
                                           rel=0, abs=1e-9)


class TestMapPower:
    @pytest.mark.parametrize("exponent", [1, 2, 3, 200, 5000])
    def test_squarings_plus_products(self, exponent):
        block, product = _block_symplectic(
            build_twin_trajectory(1e-9, 0.0, 1, 1.7e15), 0.011, 8, 1e-12)
        assert product is np.matmul
        calls = []

        def counting(left, right):
            calls.append(None)
            return product(left, right)

        power = _map_power(block, exponent, counting)
        assert len(calls) == (exponent.bit_length() - 1
                              + bin(exponent).count("1") - 1)
        if exponent == 1:
            assert power is block

    def test_run_twin_composes_no_maps(self, monkeypatch):
        # the pipeline multiplies symplectic matrices; the compose of
        # (alpha, beta) pairs lives only in the test oracle
        calls = []
        oracle_compose = map_oracle.compose

        def counting(second, first):
            calls.append(None)
            return oracle_compose(second, first)

        monkeypatch.setattr(map_oracle, "compose", counting)
        run_twin(lane_config(200))
        run_twin(replace(lane_config(200), a=0.0))
        assert calls == []


class TestResidualGrowth:
    @pytest.mark.parametrize("L", [0.010, 0.011, 0.012])
    def test_final_gate_bounds_every_earlier_repetition(self, L):
        # README config (L = 0.011 m) and the ends of the L range the
        # twin-reps benchmark draws from: eps1 of B^r for r <= 2000 never
        # exceeds eps1 of B^2000, so gating the final map covers them all
        n_max, last = 24, 2000
        block, _ = _block_symplectic(
            build_twin_trajectory(1e-9, 0.0, 1, 1.7e15), L, n_max, 1e-12)
        # _map_power(S, r) multiplies the squares of S for the set bits of
        # r, lowest first, so it equals squares[top] @ _map_power(S, r - 2^top)
        squares = [block]
        while 1 << len(squares) <= last:
            squares.append(squares[-1] @ squares[-1])
        powers = [None]
        eps = [0.0]
        for r in range(1, last + 1):
            top = r.bit_length() - 1
            rest = r - (1 << top)
            power = squares[top] @ powers[rest] if rest else squares[top]
            if r < 1 << (last.bit_length() - 1):
                powers.append(power)
            eps.append(symplectic_residual(BogoliubovMap(*_coefficients(power)),
                                           5)[0])
            if r in (1, 3, 1024, 1365, last):
                np.testing.assert_array_equal(power, _map_power(block, r))
        assert max(eps[1:last]) <= eps[last]
        assert eps[last] > 100 * eps[1]
