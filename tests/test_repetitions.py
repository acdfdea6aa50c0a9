"""Lane propagation of the clock-mode rows across repetitions in
`run_twin`, pinned against the full-map loop it replaced, and the residual
growth that lets the final-map gate vouch for every repetition."""

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
        with pytest.raises(TruncationError,
                           match=rf"at repetition {first_bad}: "):
            run_twin(config)

    def test_one_readout_per_span(self, monkeypatch):
        # guards the span readout without timing anything: a readout per
        # lane step or per repetition would make 4x to 96x more calls; and
        # the mode-mixing-only state is read last, as a one-entry span at
        # repetition reps
        calls = []
        span_phase = clock._span_phase

        def counting(*args):
            calls.append((len(args[0]), *args[2:]))
            return span_phase(*args)

        monkeypatch.setattr(clock, "_span_phase", counting)
        run_twin(lane_config(5000))
        assert 0 < len(calls) <= math.ceil(5000 / _SPAN) + 2
        assert calls[-1] == (1, 5000, "mode-mixing-only state", False)


class TestLanesAgainstDenseTransport:
    @pytest.mark.parametrize("reps", LANE_EDGES)
    @pytest.mark.parametrize("kind", ["coherent", "squeezed_vacuum"])
    def test_moments_bit_identical(self, kind, reps, monkeypatch):
        # every lane step's moments and covariances, as written into the
        # span buffers, against the dense transport of the same rows
        seen = []
        row_moments = clock.row_moments

        def recording(rows, state, k, out=None, work=None):
            got = row_moments(rows, state, k, out=out, work=work)
            seen.append((rows.copy(), state, k, got[0].copy(), got[1].copy()))
            return got

        monkeypatch.setattr(clock, "row_moments", recording)
        run_twin(lane_config(reps, kind))
        # one row pair per repetition, and the mode-mixing-only rows
        assert sum(len(rows) for rows, *_ in seen) == reps + 1
        for rows, state, k, moments, cov in seen:
            want_moments, want_cov = dense_row_moments(rows, state, k)
            assert moments.tobytes() == want_moments.tobytes()
            assert cov.tobytes() == want_cov.tobytes()

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
    def peak(reps):
        config = ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15,
                                repetitions=reps, n_max=24)
        return peak_bytes(lambda: run_twin(config))

    def test_peak_does_not_grow_beyond_the_series(self, monkeypatch):
        # the lanes and span buffers are sized by _LANES and _SPAN, not by
        # the repetition count: more round trips may add only their 8-byte
        # series entries.  A buffer sized by _SPAN is full from _SPAN round
        # trips on, so it shows only against a run shorter than a span: a
        # _SPAN x 2 x 2 n_max row buffer would lift the peak at 5000 round
        # trips well above the one at _LANES.
        peaks = {reps: self.peak(reps) for reps in (_LANES, 500, 5000)}
        for reps in (_LANES, 500):
            assert peaks[5000] <= peaks[reps] + 8 * (5000 - reps) + 16_384
        # The junction quadrature sets the short runs' peaks, so the bound
        # above has the quadrature's slack.  With it cached, the lane phase
        # sets every peak; 4 KB is room for measurement noise (up to 1 KB),
        # but not for 16 phases (240 B) kept per span: 10000 round trips
        # run 27 spans more than 1000.
        monkeypatch.setattr(modes, "junction_map", cached_junction_map)
        lane = {reps: self.peak(reps) for reps in (1000, 5000, 10_000)}
        for low, high in ((1000, 5000), (5000, 10_000), (1000, 10_000)):
            assert lane[high] <= lane[low] + 8 * (high - low) + 4096

    def test_peak_at_5000_round_trips(self):
        # the call peaks in its lane phase (about 120 KB), with the 40 KB
        # series, two lane buffers (one freed for each span's readout),
        # H = S_B^24 and the span buffers; a third lane-sized buffer, or a
        # span's readout arrays kept alive into the next span's readout,
        # would lift the peak toward 150 KB
        assert self.peak(5000) <= 150_000

    def test_sweep_peak(self):
        # 16 points of 200 round trips over L: the finished points' results,
        # about 3 KB each, under the last point's own peak; the junction
        # quadrature on three whole node tables put it at 188 KB
        base = ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15,
                              repetitions=200, n_max=24)
        grid = np.linspace(0.009, 0.013, 16)
        assert peak_bytes(lambda: sweep(base, "L", grid)) <= 150_000


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
