import math

import numpy as np
import pytest

from conftest import moment_params, random_passive_map, random_symplectic_map
from kg_oracle import BasisKind, ModeBasis
from map_oracle import compose, free_phase_map, inverse
from mp_referee import referee
from transport_oracle import (apply_full, dense_row_moments, embed,
                              partial_trace, vacuum)
from cavityclock import (BogoliubovMap, TruncationError, ValidationError,
                         apply_reduced, coherent, extract_params,
                         junction_map, squeezed_vacuum)
from cavityclock.gauss import GaussianParams, GaussianState, _remainder, \
    row_moments


def mean_photon_number(state: GaussianState) -> float:
    """<N> of a single-mode state: tr sigma + q^2 + p^2 - 1/2."""
    if state.mode_count != 1:
        raise ValidationError("mean_photon_number expects a single-mode state")
    q, p = state.first_moments
    return float(state.covariance[0, 0] + state.covariance[1, 1]
                 + q * q + p * p - 0.5)


def uncertainty_defect(state: GaussianState) -> float:
    """Smallest eigenvalue of sigma + (i/4) Omega; >= 0 for physical states
    up to rounding."""
    n = state.mode_count
    omega = np.zeros((2 * n, 2 * n))
    for m in range(n):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    eig = np.linalg.eigvalsh(state.covariance + 0.25j * omega)
    return float(eig.min())


class TestConstructors:
    def test_vacuum(self):
        state = vacuum(3)
        assert state.mode_count == 3
        assert not state.first_moments.any()
        np.testing.assert_array_equal(state.covariance, 0.25 * np.eye(6))

    def test_zero_coherent_is_vacuum(self):
        state = coherent(0.0, 1.234)
        np.testing.assert_array_equal(state.first_moments, [0.0, 0.0])
        np.testing.assert_array_equal(state.covariance, 0.25 * np.eye(2))

    def test_coherent_displacement(self):
        state = coherent(2.0, math.pi / 2)
        np.testing.assert_allclose(state.first_moments, [0.0, 2.0], atol=1e-15)
        assert extract_params(state).purity == 1.0

    def test_squeezed_vacuum_matches_mean_n_oracle(self):
        # oracle: sinh^2 r = <N>
        state = squeezed_vacuum(1.0, 0.0)
        r = math.asinh(1.0)
        assert r == pytest.approx(0.8814, abs=5e-5)
        np.testing.assert_allclose(
            state.covariance,
            np.diag([math.exp(2 * r) / 4, math.exp(-2 * r) / 4]), rtol=1e-14)
        assert mean_photon_number(state) == pytest.approx(1.0, rel=1e-12)

    def test_mean_photon_number(self):
        assert mean_photon_number(vacuum(1)) == pytest.approx(0.0, abs=1e-15)
        assert mean_photon_number(coherent(3.0, 0.7)) == pytest.approx(9.0,
                                                                       rel=1e-12)
        assert mean_photon_number(squeezed_vacuum(5.0, 1.0)) == pytest.approx(
            5.0, rel=1e-12)

    def test_covariance_symmetry_check(self):
        cov = np.array([[0.5, 0.1], [0.1, 0.3]])
        GaussianState(np.zeros(2), cov)
        rounded = cov + np.array([[0.0, 1e-15], [0.0, 0.0]])
        state = GaussianState(np.zeros(2), rounded)
        assert state.covariance[0, 1] == state.covariance[1, 0]
        for bad in ([[0.5, 0.1], [0.2, 0.3]], [[0.5, np.nan], [np.nan, 0.3]]):
            with pytest.raises(ValidationError, match="symmetric"):
                GaussianState(np.zeros(2), np.array(bad))

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValidationError):
            coherent(-1.0)
        with pytest.raises(ValidationError):
            squeezed_vacuum(-0.5)


class TestExtractParams:
    def test_vacuum(self):
        params = extract_params(vacuum(1))
        assert params.displacement == 0.0
        assert params.purity == 1.0
        assert params.squeeze_magnitude == 0.0
        assert params.squeeze_angle == 0.0

    def test_fields_are_plain_floats(self):
        params = extract_params(squeezed_vacuum(2.0, 0.3))
        assert all(type(v) is float for v in vars(params).values())

    def test_coherent_roundtrip(self):
        params = extract_params(coherent(3.0, math.pi / 4))
        assert params.displacement == pytest.approx(3.0, rel=1e-14)
        assert params.phase == pytest.approx(math.pi / 4, rel=1e-14)
        assert params.purity == 1.0
        assert params.squeeze_magnitude == 0.0

    def test_squeezed_roundtrip(self):
        params = extract_params(squeezed_vacuum(1.0, 0.0))
        assert params.squeeze_magnitude == pytest.approx(math.asinh(1.0),
                                                         rel=1e-13)
        assert params.purity == pytest.approx(1.0, rel=1e-13)

    def test_roundtrip_over_parameter_grid(self):
        for amp in (0.0, 0.3, 2.0, 11.0):
            for phase in (-3.0, -0.5, 0.0, 1.2, 3.1):
                params = extract_params(coherent(amp, phase))
                assert params.displacement == pytest.approx(amp, abs=1e-10)
                if amp > 0:
                    assert params.phase == pytest.approx(phase, abs=1e-10)
        for mean_n in (0.25, 1.0, 5.0, 10.0):
            for angle in (-2.8, -1.0, 0.0, 0.9, 3.0):
                params = extract_params(squeezed_vacuum(mean_n, angle))
                r = math.asinh(math.sqrt(mean_n))
                assert params.squeeze_magnitude == pytest.approx(r, rel=1e-10)
                assert params.squeeze_angle == pytest.approx(angle, abs=1e-10)
                assert params.purity == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_angle_reported_as_zero(self):
        params = extract_params(squeezed_vacuum(0.0, 2.0))
        assert params.squeeze_magnitude == 0.0
        assert params.squeeze_angle == 0.0

    def test_non_positive_definite_rejected(self):
        bad = vacuum(1)
        cov = np.array([[0.25, 0.3], [0.3, 0.25]])
        with pytest.raises(ValidationError):
            extract_params(type(bad)(bad.first_moments, cov))

    def test_uncertainty_violation_rejected(self):
        state = GaussianState(np.zeros(2), 0.2 * np.eye(2))
        with pytest.raises(ValidationError, match="uncertainty relation"):
            extract_params(state)

    def test_highly_squeezed_state_extraction_is_stable(self):
        # far past the artanh cancellation regime
        state = squeezed_vacuum(1e8, 0.0)
        params = extract_params(state)
        assert params.squeeze_magnitude == pytest.approx(
            math.asinh(1e4), rel=1e-12)
        assert params.purity == pytest.approx(1.0, rel=1e-9)


def rotation_map(n_max, k, angle):
    """Free map whose mode-k phase advance is `angle`."""
    basis = ModeBasis(BasisKind.MINKOWSKI, 0.0, 1.0, n_max)
    return free_phase_map(basis, angle / basis.frequency(k))


class TestMomentParams:
    STATES = [coherent(1.3, 2.9), squeezed_vacuum(2.0, -0.6), vacuum(1),
              squeezed_vacuum(0.5, 3.0), coherent(0.2, -3.1)]

    def stack(self, states):
        return (np.array([s.first_moments for s in states]),
                np.array([s.covariance for s in states]))

    def test_batch_matches_scalar_extraction(self):
        params, fault = moment_params(*self.stack(self.STATES))
        assert fault is None
        for i, state in enumerate(self.STATES):
            single = extract_params(state)
            assert single == GaussianParams(
                *(float(getattr(params, f)[i]) for f in (
                    "displacement", "phase", "squeeze_magnitude",
                    "squeeze_angle", "purity")))

    def test_first_unphysical_entry_reported(self):
        moments, cov = self.stack(self.STATES)
        cov[3] = 0.2 * np.eye(2)                          # purity 1.25
        cov[1] = [[0.25, 0.3], [0.3, 0.25]]               # not positive definite
        params, fault = moment_params(moments, cov)
        assert params is None
        assert fault == (1, "covariance matrix is not positive definite")
        cov[1] = 0.25 * np.eye(2)
        _, fault = moment_params(moments, cov)
        assert fault[0] == 3 and "purity 1.25" in fault[1]

    def test_purity_clipped_within_tolerance(self):
        moments, cov = self.stack([vacuum(1), vacuum(1)])
        cov[1] *= 1.0 - 1e-10
        params, fault = moment_params(moments, cov)
        assert fault is None
        np.testing.assert_array_equal(params.purity, [1.0, 1.0])


class TestRemainder:
    @pytest.mark.parametrize("period", [math.pi, 2 * math.pi, 0.75])
    def test_matches_math_remainder(self, period):
        rng = np.random.default_rng(7)
        x = np.concatenate([
            rng.uniform(-1e7, 1e7, 500), rng.uniform(-10, 10, 500),
            np.arange(-40, 41) * (0.5 * period),           # ties
            [0.0, -0.0, period, -period, 0.5 * period, 1.5 * period]])
        expected = [math.remainder(v, period) for v in x]
        np.testing.assert_array_equal(_remainder(x, period), expected)


class TestRowMoments:
    """The sparse transport against the dense one it replaced, and its det
    against the 50-digit referee."""

    # each state with the (kind, mean_n, theta0) the referee builds it from;
    # a coherent state's det does not depend on its amplitude or phase
    @pytest.mark.parametrize("state", [
        (coherent(1.7, -2.1), ("coherent", 1.7**2, -2.1)),
        (squeezed_vacuum(3.0, 0.4), ("squeezed_vacuum", 3.0, 0.4)),
        (squeezed_vacuum(0.2, -2.9), ("squeezed_vacuum", 0.2, -2.9))])
    @pytest.mark.parametrize("shape", [(2,), (1, 2), (7, 2), (3, 4, 2)])
    def test_bit_identical_to_dense_transport(self, state, shape):
        state, spec = state
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        for n, k in [(6, 1), (6, 6), (24, 1), (24, 9)]:
            # rows spanning many magnitudes, as repeated maps produce
            rows = rng.normal(size=shape + (2 * n,)) * 10.0 ** rng.uniform(
                -4, 4, size=shape + (2 * n,))
            want = dense_row_moments(rows, state, k)
            *got, det = row_moments(rows, state, k)
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape
                assert g.tobytes() == w.tobytes()
            assert det.shape == shape[:-1]
            # on these random rows the entry products of tr(adj(A + G/2) G)
            # partly cancel (the positive ones exceed the sum by up to 8x),
            # and the det reads within 3.4e-15 relative; the clock's own
            # rows read within 1e-15 (test_det_referee.py)
            for r, d in zip(rows.reshape(-1, 2, 2 * n), det.reshape(-1)):
                want_det = referee(r, *spec, k=k)[0]
                assert abs(d - want_det) <= 1e-14 * want_det

    def test_writes_into_given_buffers(self):
        rng = np.random.default_rng(3)
        state = squeezed_vacuum(2.0, 1.1)
        rows = rng.normal(size=(5, 2, 16))
        moments, cov = np.full((8, 2), np.nan), np.full((8, 2, 2), np.nan)
        det = np.full(8, np.nan)
        work = np.empty((8, 2, 16))
        got = row_moments(rows, state, 3,
                          out=(moments[2:7], cov[2:7], det[2:7]),
                          work=work[:5])
        assert (got[0].base is moments and got[1].base is cov
                and got[2].base is det)
        want = dense_row_moments(rows, state, 3)
        assert moments[2:7].tobytes() == want[0].tobytes()
        assert cov[2:7].tobytes() == want[1].tobytes()
        assert det[2:7].tobytes() == row_moments(rows, state, 3)[2].tobytes()
        # entries outside the given slices stay untouched
        assert np.isnan(moments[[0, 1, 7]]).all()
        assert np.isnan(cov[[0, 1, 7]]).all()
        assert np.isnan(det[[0, 1, 7]]).all()


class TestApplyReduced:
    def test_identity_leaves_state(self):
        state = coherent(1.5, 0.3)
        out = apply_reduced(BogoliubovMap.identity(6), 1, state)
        np.testing.assert_allclose(out.first_moments, state.first_moments,
                                   atol=1e-15)
        np.testing.assert_allclose(out.covariance, state.covariance,
                                   atol=1e-15)

    def test_free_rotation_advances_phase(self):
        state = coherent(2.0, 0.0)
        out = apply_reduced(rotation_map(6, 1, math.pi / 2), 1, state)
        params = extract_params(out)
        # sign convention: phase increases with time
        assert params.phase == pytest.approx(math.pi / 2, rel=1e-12)
        assert params.displacement == pytest.approx(2.0, rel=1e-14)

    def test_phase_additivity(self):
        state = coherent(1.0, 0.1)
        one = apply_reduced(rotation_map(4, 1, 0.7), 1, state)
        two = apply_reduced(rotation_map(4, 1, 0.9), 1, one)
        direct = apply_reduced(rotation_map(4, 1, 1.6), 1, state)
        assert extract_params(two).phase == pytest.approx(
            extract_params(direct).phase, rel=1e-12)

    def test_junction_sandwich_decoheres(self):
        jmap = junction_map(0.3, 12)
        block = compose(inverse(jmap),
                        compose(rotation_map(12, 1, 1.0), jmap))
        out = apply_reduced(block, 1, coherent(1.0, 0.0), residual_gate=None)
        assert extract_params(out).purity < 1.0

    def test_residual_gate_trips_on_coarse_truncation(self):
        with pytest.raises(TruncationError):
            apply_reduced(junction_map(1.2, 6), 2, coherent(1.0),
                          residual_gate=1e-10)

    def test_non_finite_map_fails_gate(self):
        bmap = BogoliubovMap(np.full((6, 6), np.nan, complex),
                             np.zeros((6, 6), complex))
        with pytest.raises(TruncationError, match="exceeds gate"):
            apply_reduced(bmap, 1, coherent(1.0), residual_gate=1e-4)

    def test_residual_computed_only_when_gated(self, monkeypatch):
        import cavityclock.modes as modes
        calls = []
        real = modes._residual

        def counting(alpha_rows, beta_rows):
            calls.append(len(alpha_rows))
            return real(alpha_rows, beta_rows)

        monkeypatch.setattr(modes, "_residual", counting)
        bmap = BogoliubovMap.identity(8)
        apply_reduced(bmap, 2, coherent(1.0), residual_gate=None)
        assert calls == []
        apply_reduced(bmap, 2, coherent(1.0), residual_gate=1e-4)
        assert calls == [6]

    def test_uncertainty_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            bmap = random_symplectic_map(rng, 6)
            out = apply_reduced(bmap, 1, squeezed_vacuum(2.0, 0.4),
                                residual_gate=None)
            sigma = out.covariance
            det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] ** 2
            assert det >= 1.0 / 16.0 - 1e-12
            assert uncertainty_defect(out) >= -1e-12

    def test_mode_index_validation(self):
        with pytest.raises(ValidationError):
            apply_reduced(BogoliubovMap.identity(4), 5, coherent(1.0))


class TestApplyFullPartialTrace:
    def test_partial_trace_of_vacuum(self):
        out = partial_trace(vacuum(5), 3)
        np.testing.assert_array_equal(out.covariance, 0.25 * np.eye(2))

    def test_embed_then_trace_roundtrip(self):
        state = squeezed_vacuum(1.5, 0.8)
        big = embed(state, 4, 2)
        back = partial_trace(big, 2)
        np.testing.assert_allclose(back.covariance, state.covariance,
                                   rtol=1e-15)

    def test_reduced_equals_full_then_trace(self):
        # the defining equivalence, vacuum environment
        rng = np.random.default_rng(42)
        state = coherent(1.2, 0.5)
        for _ in range(20):
            bmap = random_symplectic_map(rng, 8)
            for k in (1, 3, 8):
                reduced = apply_reduced(bmap, k, state, residual_gate=None)
                full = partial_trace(apply_full(bmap, embed(state, 8, k)), k)
                np.testing.assert_allclose(reduced.first_moments,
                                           full.first_moments, atol=1e-10)
                np.testing.assert_allclose(reduced.covariance,
                                           full.covariance, atol=1e-10)

    def test_apply_full_preserves_uncertainty(self):
        rng = np.random.default_rng(9)
        state = embed(squeezed_vacuum(3.0, -0.4), 4, 2)
        for _ in range(10):
            out = apply_full(random_symplectic_map(rng, 4), state)
            assert uncertainty_defect(out) >= -1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            apply_full(BogoliubovMap.identity(3), vacuum(4))


class TestPurityUnderPassiveMaps:
    def test_coherent_stays_pure_under_any_passive_map(self):
        # vacuum-covariance inputs keep sigma = I/4 exactly under mixing
        rng = np.random.default_rng(17)
        for _ in range(20):
            bmap = random_passive_map(rng, 6)
            out = apply_reduced(bmap, 2, coherent(1.7, 0.9),
                                residual_gate=None)
            assert extract_params(out).purity == pytest.approx(1.0,
                                                               abs=1e-12)

    def test_any_pure_state_stays_pure_under_diagonal_passive_map(self):
        state = squeezed_vacuum(4.0, 1.1)
        out = apply_reduced(rotation_map(5, 2, 0.8), 2, state)
        assert extract_params(out).purity == pytest.approx(1.0, abs=1e-12)

    def test_squeezed_state_loses_purity_under_mixing(self):
        # leakage into the vacuum environment is physical for squeezed inputs
        rng = np.random.default_rng(23)
        bmap = random_passive_map(rng, 6)
        out = apply_reduced(bmap, 2, squeezed_vacuum(4.0, 0.0),
                            residual_gate=None)
        assert extract_params(out).purity < 1.0
