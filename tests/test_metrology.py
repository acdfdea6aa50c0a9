import math
import sys

import pytest

from cavityclock import (GaussianParams, ScenarioConfig,
                         UnboundedVarianceError, ValidationError,
                         apply_reduced, run_twin,
                         classical_cavity_ratio, coherent, cramer_rao,
                         extract_params, phase_qfi, qfi_change_pct,
                         schwarzschild_acceleration, squeezed_vacuum)
from test_gauss import rotation_map


class TestPhaseQfi:
    @pytest.mark.parametrize("mean_n", [0.5, 1.0, 5.0, 10.0])
    def test_coherent_anchor(self, mean_n):
        params = extract_params(coherent(math.sqrt(mean_n), 0.3))
        assert phase_qfi(params) == pytest.approx(4 * mean_n, rel=1e-12)

    def test_squeezed_vacuum_unit_energy(self):
        # oracle: H = 2 sinh^2(2r) = 8 <N>(<N>+1) = 16 at <N> = 1
        params = extract_params(squeezed_vacuum(1.0, 0.0))
        assert phase_qfi(params) == pytest.approx(16.0, rel=1e-12)

    @pytest.mark.parametrize("mean_n", [1.0, 5.0, 10.0])
    def test_squeezed_vacuum_anchor(self, mean_n):
        params = extract_params(squeezed_vacuum(mean_n, 0.9))
        assert phase_qfi(params) == pytest.approx(
            8 * mean_n * (mean_n + 1), rel=1e-12)

    def test_vacuum_carries_no_phase_information(self):
        params = extract_params(coherent(0.0))
        assert phase_qfi(params) == 0.0

    def test_invariant_under_free_rotation(self):
        for build in (lambda: coherent(1.7, 0.2),
                      lambda: squeezed_vacuum(3.0, -0.8)):
            reference = phase_qfi(extract_params(build()))
            for angle in (0.3, 1.9, 4.4):
                rotated = apply_reduced(rotation_map(4, 1, angle), 1, build())
                assert phase_qfi(extract_params(rotated)) == pytest.approx(
                    reference, rel=1e-10)

    def test_monotone_in_displacement_and_squeezing_at_zero_angle(self):
        for purity in (1.0, 0.7):
            values = [phase_qfi(GaussianParams(a, 0.0, 0.4, 0.0, purity))
                      for a in (0.5, 1.0, 2.0, 4.0)]
            assert values == sorted(values)
            values = [phase_qfi(GaussianParams(1.5, 0.0, r, 0.0, purity))
                      for r in (0.0, 0.3, 0.8, 1.5)]
            assert values == sorted(values)

    @pytest.mark.parametrize("mean_n", [0.5, 1.0, 5.0, 10.0])
    def test_squeezed_beats_coherent_at_equal_energy(self, mean_n):
        sq = phase_qfi(extract_params(squeezed_vacuum(mean_n, 0.0)))
        coh = phase_qfi(extract_params(coherent(math.sqrt(mean_n), 0.0)))
        assert sq >= coh
        assert sq == pytest.approx(coh * 2 * (mean_n + 1), rel=1e-10)


class TestCramerRao:
    def test_simple_value(self):
        assert cramer_rao(4.0, 1) == pytest.approx(0.5, rel=1e-15)

    def test_squid_repetition_count(self):
        # M = 500 rounds at coherent <N> = 1
        assert cramer_rao(4.0, 500) == pytest.approx(1 / math.sqrt(2000),
                                                     rel=1e-14)

    def test_zero_information_is_an_error(self):
        with pytest.raises(UnboundedVarianceError):
            cramer_rao(0.0, 10)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            cramer_rao(-1.0, 10)
        with pytest.raises(ValidationError):
            cramer_rao(4.0, 0)

    @pytest.mark.parametrize("qfi, measurements", [
        (4.0, 1), (4.0, 500), (16.0, 3), (1e-300, 7), (2.5e300, 10**7),
        (4.0, 2**53 + 1), (1e10, 10**297)])
    def test_bit_identical_where_the_product_is_finite(self, qfi,
                                                       measurements):
        assert cramer_rao(qfi, measurements) == 1.0 / math.sqrt(
            measurements * qfi)

    def test_overflowing_product(self):
        # 4e308 is beyond the largest double; 1/sqrt(inf) would read 0
        assert cramer_rao(4.0, 10**308) == pytest.approx(5e-155, rel=1e-15,
                                                         abs=0)
        assert cramer_rao(sys.float_info.max, 10**308) > 0

    def test_count_beyond_a_double(self):
        with pytest.raises(ValidationError, match="fit in a double"):
            cramer_rao(4.0, 10**400)


class TestQfiChangePct:
    @pytest.mark.parametrize("before,after,expected", [
        (4.0, 4.0, 0.0),
        (4.0, 2.0, -50.0),
        (16.0, 16.8, 5.0),
    ])
    def test_arithmetic(self, before, after, expected):
        assert qfi_change_pct(before, after) == pytest.approx(expected,
                                                              abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValidationError):
            qfi_change_pct(0.0, 1.0)

    @pytest.mark.parametrize("before,after", [
        (4.0, 4.0), (4.0, 2.0), (16.0, 16.8), (16.0, 16.000000001),
        (8.0 * 1e7 * (1e7 + 1), 8.0 * 1e7 * (1e7 + 1) * (1 - 7.72e-8)),
        (1e300, 1e-300), (1.7e306, 0.0)])
    def test_bit_identical_where_finite(self, before, after):
        assert qfi_change_pct(before, after) == 100.0 * (after - before) / before

    @pytest.mark.parametrize("before,after,expected", [
        (3.2e307, 5.3e161, -100.0), (sys.float_info.max, 0.0, -100.0),
        (1e307, 1.5e307, 50.0)])
    def test_overflowing_difference(self, before, after, expected):
        # 100 (after - before) overflows: the change is still reported
        assert qfi_change_pct(before, after) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_run_twin_of_a_huge_squeezed_vacuum(self):
        # qfi_before 3.2e307: the QFI change read -inf before
        result = run_twin(ScenarioConfig(
            t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15, repetitions=500, n_max=24,
            state_kind="squeezed_vacuum", mean_n=2e153, theta0=0.3))
        assert result.qfi_before == pytest.approx(3.2e307, rel=1e-12)
        assert result.qfi_change_pct_full == pytest.approx(-100.0, rel=1e-12)
        assert result.qfi_change_pct_mm_only == pytest.approx(-100.0,
                                                              rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: cramer_rao(math.nan, 5),
    lambda: qfi_change_pct(math.nan, 1.0),
    lambda: classical_cavity_ratio(math.nan),
    lambda: schwarzschild_acceleration(math.nan, 1e7),
    lambda: schwarzschild_acceleration(2e30, math.nan),
], ids=["cramer_rao", "qfi_change_pct", "classical_cavity_ratio",
        "schwarzschild_mass", "schwarzschild_r"])
def test_nan_input_is_rejected(call):
    # each check is a negated comparison, so NaN fails it
    with pytest.raises(ValidationError, match="nan"):
        call()


@pytest.mark.parametrize("call", [
    lambda: cramer_rao(4.0, math.nan),
    lambda: cramer_rao(4.0, math.inf),
    lambda: cramer_rao(4.0, 2.5),
    lambda: cramer_rao(4.0, True),
    lambda: cramer_rao(math.inf, 10),
    lambda: qfi_change_pct(1.0, math.nan),
    lambda: qfi_change_pct(1.0, math.inf),
    lambda: qfi_change_pct(math.inf, 1.0),
], ids=["measurements_nan", "measurements_inf", "measurements_fraction",
        "measurements_bool", "qfi_inf", "after_nan", "after_inf",
        "before_inf"])
def test_non_finite_or_non_integer_input_is_rejected(call):
    # an infinite QFI or count would read a zero bound, NaN a NaN one
    with pytest.raises(ValidationError):
        call()
