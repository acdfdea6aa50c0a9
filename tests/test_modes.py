import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_symplectic_map
from kg_oracle import (BasisKind, Mode, ModeBasis, kg_inner_product,
                       mode_value, rindler_geometry)
import map_oracle
from map_oracle import compose, compose_chain_map, free_phase_map, inverse
from peak import cached_junction_blocks, peak_bytes
from cavityclock import (BogoliubovMap, C, HorizonError, QuadratureError,
                         Segment, Trajectory, ValidationError, apply_reduced,
                         coherent, dump_map, junction_map,
                         symplectic_residual, trajectory_map)
import cavityclock.modes as modes


def minkowski_basis(L=1.0, n_max=8):
    return ModeBasis(BasisKind.MINKOWSKI, 0.0, L, n_max)


def rindler_basis(h=0.1, n_max=8):
    chi1 = 1.0 / h - 0.5
    return ModeBasis(BasisKind.RINDLER, chi1, chi1 + 1.0, n_max)


class TestModeValue:
    def test_vanishes_at_minkowski_boundary(self):
        basis = minkowski_basis()
        for n in (1, 3, 8):
            assert mode_value(basis, n, 0.3, 0.0) == 0
            assert abs(mode_value(basis, n, 0.3, 1.0)) < 1e-15

    def test_vanishes_at_rindler_boundary(self):
        basis = rindler_basis()
        assert mode_value(basis, 2, 0.1, basis.x1) == 0
        assert abs(mode_value(basis, 2, 0.1, basis.x2)) < 1e-12

    def test_fundamental_at_center(self):
        value = mode_value(minkowski_basis(), 1, 0.0, 0.5)
        assert value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)

    def test_time_phase(self):
        basis = minkowski_basis()
        w1 = basis.frequency(1)
        value = mode_value(basis, 1, 0.25 / w1 * 2 * math.pi, 0.5)
        # exp(-i pi/2) = -i
        assert value == pytest.approx(-1j / math.sqrt(math.pi), rel=1e-12)

    def test_outside_cavity_rejected(self):
        with pytest.raises(ValidationError):
            mode_value(minkowski_basis(), 1, 0.0, 1.5)

    def test_mode_index_out_of_range(self):
        with pytest.raises(ValidationError):
            mode_value(minkowski_basis(n_max=4), 5, 0.0, 0.5)


class TestKgInnerProduct:
    @pytest.mark.parametrize("basis_factory", [minkowski_basis, rindler_basis])
    def test_orthonormality(self, basis_factory):
        basis = basis_factory()
        for m in (1, 2, 5):
            for n in (1, 2, 5):
                value = kg_inner_product(Mode(basis, m), Mode(basis, n))
                assert value == pytest.approx(1.0 if m == n else 0.0,
                                              abs=1e-10)

    @pytest.mark.parametrize("basis_factory", [minkowski_basis, rindler_basis])
    def test_positive_negative_norm_orthogonality(self, basis_factory):
        basis = basis_factory()
        for m, n in [(1, 1), (2, 3), (4, 4)]:
            value = kg_inner_product(Mode(basis, m),
                                     Mode(basis, n, conjugate=True))
            assert abs(value) < 1e-10

    def test_cross_basis_fundamental_overlap_near_identity(self):
        # h -> 0: bases coincide, |(M1, R1)| -> 1.  Oracle below: independent
        # fixed-grid quadrature at double resolution.
        h = 0.01
        rind = rindler_basis(h, 4)
        mink = ModeBasis(BasisKind.MINKOWSKI, rind.x1, rind.x2, 4)
        value = kg_inner_product(Mode(mink, 1), Mode(rind, 1), tol=1e-12)

        w1 = mink.frequency(1)
        om1 = rind.frequency(1)

        def integrand(x):
            f = math.sin(math.pi * (x - mink.x1)) / math.sqrt(math.pi)
            g = math.sin(math.pi * math.log(x / rind.x1) / rind.log_ratio)
            return (w1 + om1 / x) * f * g / math.sqrt(math.pi)

        oracle, _ = quad(integrand, mink.x1, mink.x2, limit=400,
                         epsabs=1e-12, epsrel=1e-12)
        assert value == pytest.approx(oracle, abs=1e-11)
        assert abs(abs(value) - 1.0) < 1e-8 * 1e4  # |overlap| = 1 + O(h^2)
        assert abs(abs(value) - 1.0) < 1e-3

    def test_modulus_approaches_one_as_h_shrinks(self):
        deviations = []
        for h in (0.04, 0.02, 0.01):
            rind = rindler_basis(h, 2)
            mink = ModeBasis(BasisKind.MINKOWSKI, rind.x1, rind.x2, 2)
            value = kg_inner_product(Mode(mink, 1), Mode(rind, 1), tol=1e-12)
            deviations.append(abs(abs(value) - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 1e-4

    def test_mismatched_intervals_rejected(self):
        with pytest.raises(ValidationError):
            kg_inner_product(Mode(minkowski_basis(1.0), 1),
                             Mode(minkowski_basis(2.0), 1))


class TestJunctionMap:
    def test_small_h_limit_is_identity(self):
        for h, tol in [(1e-3, 2e-2), (1e-5, 2e-4), (1e-7, 2e-6)]:
            jmap = junction_map(h, 6)
            assert np.max(np.abs(jmap.alpha - np.eye(6))) < tol
            assert np.max(np.abs(jmap.beta)) < tol

    def test_matches_kg_inner_products_at_two_scales(self):
        # alpha_mn = (rindler_m, minkowski_n), beta_mn = -(rindler_m, mink_n*)
        # on the physical slice; the fast path depends on h only.
        h, n_max = 0.1, 5
        jmap = junction_map(h, n_max, tol=1e-13)
        for L in (1.0, 0.013):
            geom = rindler_geometry(h * C**2 / L, L)
            rind = ModeBasis(BasisKind.RINDLER, geom.chi_inner,
                             geom.chi_outer, n_max)
            mink = ModeBasis(BasisKind.MINKOWSKI, geom.chi_inner,
                             geom.chi_outer, n_max)
            for m, n in [(1, 1), (1, 2), (3, 2), (5, 4)]:
                alpha = kg_inner_product(Mode(rind, m), Mode(mink, n),
                                         tol=1e-13)
                beta = -kg_inner_product(Mode(rind, m),
                                         Mode(mink, n, conjugate=True),
                                         tol=1e-13)
                assert alpha == pytest.approx(jmap.alpha[m - 1, n - 1],
                                              abs=1e-11)
                assert beta == pytest.approx(jmap.beta[m - 1, n - 1],
                                             abs=1e-11)

    def test_beta_scales_linearly_in_h(self):
        norm_01 = np.linalg.norm(junction_map(0.10, 8).beta)
        norm_005 = np.linalg.norm(junction_map(0.05, 8).beta)
        assert norm_01 / norm_005 == pytest.approx(2.0, rel=0.05)

    def test_inverse_roundtrip_within_truncation(self):
        # high rows are truncation-limited, so certify the interior block
        jmap = junction_map(0.05, 16)
        back = compose(jmap, inverse(jmap))
        interior = np.s_[:5, :5]
        assert np.max(np.abs(back.alpha[interior] - np.eye(5))) < 1e-8
        assert np.max(np.abs(back.beta[interior])) < 1e-8

    def test_peak_allocation(self):
        # with the Rindler table cached by the warm-up call: the one level's
        # whole 24 x 96 Minkowski table (18 KB), X, Y, their scale and
        # alpha, beta peak at about 39 KB
        assert peak_bytes(lambda: junction_map(2.1e-4, 24)) <= 84_000

    def test_rindler_table_is_cached_read_only(self):
        t, table = modes._rindler_table(24, 3)
        assert modes._rindler_table(24, 3)[1] is table
        assert not t.flags.writeable and not table.flags.writeable
        assert modes._rindler_table.cache_info().maxsize <= 2

    def test_cold_quadrature_under_the_power_stage(self):
        # in a fresh process the Rindler table is built inside the call; the
        # quadrature (about 50 KB) still peaks below the three 2n x 2n
        # buffers of the squarings (about 56 KB), which set a run's peak
        def cold():
            modes._rindler_table.cache_clear()
            modes._junction_blocks(2.1e-4, 24, 1e-12)

        s_b, _ = modes._block_symplectic(twin_block(1e-9, 0.0, 1.7e15), 0.011,
                                         24, 1e-12)
        power = peak_bytes(lambda: modes._map_power(s_b.copy(), 5000))
        assert peak_bytes(cold) < power

    def test_horizon_and_domain_errors(self):
        with pytest.raises(HorizonError):
            junction_map(2.0, 4)
        with pytest.raises(ValidationError):
            junction_map(0.0, 4)
        with pytest.raises(ValidationError):
            junction_map(-0.1, 4)

    @pytest.mark.parametrize("h", [1.5e-162, 1e-200, 5e-324])
    def test_underflowing_h_is_a_numerical_failure(self, h):
        # h * u_max underflows to 0: a numerical failure, not bad input,
        # and not a ZeroDivisionError
        with pytest.raises(QuadratureError, match=f"h = {h!r}") as raised:
            junction_map(h, 8)
        assert not isinstance(raised.value, ValidationError)
        assert raised.value.estimate == math.inf

    def test_smallest_resolved_h(self):
        # at the rounding floor of test_absolute_floor_at_tiny_h
        jmap = junction_map(2e-162, 8)
        assert np.max(np.abs(jmap.alpha - np.eye(8))) <= 1e-14
        assert np.max(np.abs(jmap.beta)) <= 1e-14


def library_level(h, n_max, tol=1e-12):
    """(`junction_map(h, n_max, tol)`, the panel count of the one level it
    computes, read from its Rindler table)."""
    panels = []
    table = modes._rindler_table
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modes, "_rindler_table", lambda rows, count: (
            panels.append(count) or table(rows, count)))
        jmap = junction_map(h, n_max, tol)
    assert len(panels) == 1
    return jmap, panels[0]


def max_deviation(first, second):
    return max(float(np.max(np.abs(first.alpha - second.alpha))),
               float(np.max(np.abs(first.beta - second.beta))))


class TestQuadratureBound:
    """The one bounded level against the doubling loop it replaced
    (`map_oracle.doubling_junction`), on h from 1e-9 to the horizon and
    n_max from 8 to 128."""

    @pytest.mark.parametrize("n_max", [8, 24, 64, 128])
    @pytest.mark.parametrize("h", [1e-9, 1e-6, 2.1e-4, 9.5e-4, 0.05, 0.3, 1.0,
                                   1.5, 1.9, 1.99])
    def test_against_the_doubling_loop(self, h, n_max):
        jmap, panels = library_level(h, n_max)
        first = max(2, n_max // 8)
        # every level tried, from `first` panels to the one computed, is
        # within its bound of the level 4 times finer, which stands in for
        # the exact integral; the rounding floor covers their rounding
        # difference, at most 1.4 eps n_max here
        tried = first
        while True:
            bound = modes._quadrature_bound(n_max, tried,
                                            *modes._junction_geometry(h))
            level = (jmap if tried == panels
                     else map_oracle.whole_table_junction(h, n_max, tried))
            finer = map_oracle.whole_table_junction(h, n_max, 4 * tried)
            assert max_deviation(level, finer) <= bound
            if tried == panels:
                break
            assert bound > 1e-12
            tried *= 2
        assert bound <= 1e-12
        doubled, doubling_panels = map_oracle.doubling_junction(h, n_max)
        assert max_deviation(jmap, doubled) <= 5e-14
        # the doubling loop computed first and 2 first panels at least;
        # one level of `first` panels is converged to rounding up to h 0.3
        if h <= 0.3:
            assert panels == first
        if h <= 1.0:
            assert panels <= doubling_panels

    def test_bound_falls_with_the_panels(self):
        geometry = modes._junction_geometry(1.9)
        bounds = [modes._quadrature_bound(24, panels, *geometry)
                  for panels in (3, 6, 12, 24)]
        assert bounds == sorted(bounds, reverse=True)
        assert bounds[0] > 1e-4 and bounds[-1] < 1e-13

    def test_unreachable_tolerance_computes_no_level(self, monkeypatch):
        # the rounding floor keeps a tolerance below it unreachable, and the
        # bound says so before any node table is built
        monkeypatch.setattr(modes, "_rindler_table", lambda *args: (
            pytest.fail("a level was computed")))
        with pytest.raises(QuadratureError, match="did not converge") as raised:
            junction_map(0.05, 8, tol=1e-15)
        assert raised.value.estimate == pytest.approx(
            modes._ROUNDING_FLOOR * 8 * np.finfo(float).eps, rel=1e-6)


def first_order_junction(n_max):
    """Oracle: the O(h) coefficients (A1, B1) of the junction map, alpha =
    I + h A1 + O(h^2) and beta = h B1 + O(h^2) (Bruschi, Fuentes and Louko,
    arXiv:1105.1875, in this package's conventions).  For m + n odd,
    A1_mn = -2 sqrt(mn) / (pi^2 (m - n)^3) and
    B1_mn = 2 sqrt(mn) / (pi^2 (m + n)^3); both vanish for m + n even."""
    m, n = np.meshgrid(np.arange(1.0, n_max + 1), np.arange(1.0, n_max + 1),
                       indexing="ij")
    odd = (m + n) % 2 == 1
    scale = 2.0 * np.sqrt(m * n) / math.pi**2
    diff = np.where(odd, m - n, 1.0)  # m = n only where m + n is even
    return (np.where(odd, -scale / diff**3, 0.0),
            np.where(odd, scale / (m + n)**3, 0.0))


class TestJunctionSmallH:
    @pytest.mark.parametrize("n_max", [8, 16, 24])
    def test_first_order_error_is_linear_in_h(self, n_max):
        # the O(h^2) term: |(alpha - I)/h - A1| and |beta/h - B1| ~ c h
        a1, b1 = first_order_junction(n_max)
        hs = np.array([1e-3, 1e-4, 1e-5])
        err_a, err_b = [], []
        for h in hs:
            jmap = junction_map(h, n_max)
            err_a.append(np.max(np.abs((jmap.alpha - np.eye(n_max)) / h - a1)))
            err_b.append(np.max(np.abs(jmap.beta / h - b1)))
        for err in (err_a, err_b):
            slope = np.polyfit(np.log(hs), np.log(err), 1)[0]
            assert slope == pytest.approx(1.0, abs=0.05)

    def test_first_order_symmetry(self):
        a1, b1 = first_order_junction(24)
        np.testing.assert_array_equal(a1, -a1.T)
        np.testing.assert_array_equal(b1, b1.T)

    @pytest.mark.parametrize("n_max", [8, 16, 24])
    def test_absolute_floor_at_tiny_h(self, n_max):
        # dividing by h is no test here: rounding in alpha and beta is
        # ~1e-15 absolute, an error of ~1e-3 in beta/h at h = 1e-12
        a1, b1 = first_order_junction(n_max)
        for h in (1e-8, 1e-10, 1e-12):
            jmap = junction_map(h, n_max)
            assert np.max(np.abs(jmap.alpha - np.eye(n_max) - h * a1)) <= 1e-14
            assert np.max(np.abs(jmap.beta - h * b1)) <= 1e-14


class TestFreePhaseMap:
    def test_zero_duration_is_identity(self):
        fmap = free_phase_map(minkowski_basis(), 0.0)
        assert np.array_equal(fmap.alpha, np.eye(8))
        assert not fmap.beta.any()

    def test_full_period_is_identity(self):
        # duration 2L (natural units): w_n 2L = 2 pi n for every n
        L = 0.37
        fmap = free_phase_map(minkowski_basis(L), 2 * L)
        assert np.max(np.abs(fmap.alpha - np.eye(8))) < 1e-12

    def test_rindler_half_period_flips_fundamental(self):
        basis = rindler_basis(0.2, 4)
        eta = math.pi / basis.frequency(1)
        fmap = free_phase_map(basis, eta)
        assert fmap.alpha[0, 0] == pytest.approx(-1.0, rel=1e-12)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            free_phase_map(minkowski_basis(), -1.0)


class TestComposeInverse:
    def test_identity_neutral(self):
        rng = np.random.default_rng(11)
        bmap = random_symplectic_map(rng, 6)
        ident = BogoliubovMap.identity(6)
        assert np.array_equal(compose(bmap, ident).alpha, bmap.alpha)
        assert np.array_equal(compose(ident, bmap).beta, bmap.beta)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(12)
        bmap = random_symplectic_map(rng, 6)
        round1 = compose(inverse(bmap), bmap)
        assert np.max(np.abs(round1.alpha - np.eye(6))) < 1e-13
        assert np.max(np.abs(round1.beta)) < 1e-13

    def test_double_inverse_is_original(self):
        rng = np.random.default_rng(13)
        bmap = random_symplectic_map(rng, 5)
        twice = inverse(inverse(bmap))
        assert np.array_equal(twice.alpha, bmap.alpha)
        assert np.array_equal(twice.beta, bmap.beta)

    def test_free_phases_add(self):
        basis = minkowski_basis(2.0, 6)
        combined = compose(free_phase_map(basis, 0.7), free_phase_map(basis, 1.1))
        direct = free_phase_map(basis, 1.8)
        assert np.max(np.abs(combined.alpha - direct.alpha)) < 1e-15

    def test_associativity_machine_precision(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            b1 = random_symplectic_map(rng, 6)
            b2 = random_symplectic_map(rng, 6)
            b3 = random_symplectic_map(rng, 6)
            left = compose(compose(b3, b2), b1)
            right = compose(b3, compose(b2, b1))
            scale = np.max(np.abs(left.alpha))
            assert np.max(np.abs(left.alpha - right.alpha)) < 1e-13 * scale
            assert np.max(np.abs(left.beta - right.beta)) < 1e-13 * scale

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compose(BogoliubovMap.identity(4), BogoliubovMap.identity(5))


def twin_block(t_a, t_i, a, repetitions=1):
    return Trajectory((
        Segment(t_a, a),
        Segment(t_i),
        Segment(2 * t_a, -a),
        Segment(t_i),
        Segment(t_a, a),
    ), repetitions)


class TestMapStageBytes:
    """The quadrature on the cached Rindler table and the block map applied
    to the running block's row pairs give the bytes of their whole-array
    oracles, and S_B stays within 5e-14 of the segment products it
    replaced."""

    H = [1e-5, 2.1e-4, 9.5e-4, 0.05, 0.3]
    N_MAX = [8, 24, 48, 128]

    @pytest.mark.parametrize("n_max", N_MAX)
    @pytest.mark.parametrize("h", H)
    def test_junction_map(self, h, n_max):
        jmap, panels = library_level(h, n_max)
        oracle = map_oracle.whole_table_junction(h, n_max, panels)
        assert jmap.alpha.tobytes() == oracle.alpha.tobytes()
        assert jmap.beta.tobytes() == oracle.beta.tobytes()

    @pytest.mark.parametrize("t_i", [0.0, 0.3e-9])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n_max", N_MAX)
    @pytest.mark.parametrize("h", H)
    def test_block_symplectic(self, h, n_max, sign, t_i, monkeypatch):
        monkeypatch.setattr(modes, "_junction_blocks", cached_junction_blocks)
        L = 0.011
        traj = twin_block(1e-9, t_i, sign * h * C**2 / L)
        s, _ = modes._block_symplectic(traj, L, n_max, 1e-12)
        oracle = map_oracle.pair_block_symplectic(traj, L, n_max)
        assert s.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("t_i", [0.0, 0.3e-9])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n_max", N_MAX)
    @pytest.mark.parametrize("h", H)
    def test_block_symplectic_against_segment_products(self, h, n_max, sign,
                                                       t_i):
        # the segments applied to the running block round otherwise than
        # the product of whole segment matrices they replaced
        L = 0.011
        traj = twin_block(1e-9, t_i, sign * h * C**2 / L)
        s, _ = modes._block_symplectic(traj, L, n_max, 1e-12)
        oracle = map_oracle.segment_product_symplectic(traj, L, n_max)
        assert np.max(np.abs(s - oracle)) <= 5e-14

    def test_inverse_blocks_are_views(self):
        (x, y), (y_t, x_t) = modes._junction_blocks(2.1e-4, 12, 1e-12)
        assert y_t.base is y and x_t.base is x
        np.testing.assert_array_equal(y_t, y.T)

    @pytest.mark.parametrize("h, deviation", [(2.1e-4, 8.034264427184677e-15),
                                              (0.05, 4.1048975329971427e-10)])
    def test_inverse_roundtrip_reads_the_pair(self, h, deviation):
        # max|YᵀX - I|, max|XᵀY - I| on the leading 5 x 5 block, as `check`
        # forms them, equal max|S_J^-1 S_J - I| on the interleaved pair
        (x, y), inverse = modes._junction_blocks(h, 24, 1e-12)
        dev = max(float(np.max(np.abs(inv[:5] @ blk[:, :5] - np.eye(5))))
                  for inv, blk in zip(inverse, (x, y)))
        s_j, s_j_inv = map_oracle.junction_pair(h, 24)
        pair = float(np.max(np.abs((s_j_inv @ s_j)[:10, :10] - np.eye(10))))
        assert dev == pair == deviation

    def test_map_stage_peak(self, monkeypatch):
        # with the quadrature cached: (X, Y), the running block and the
        # spare it is written into, each 2n x 2n, peak at about 41 KB with
        # or without coasts; a third 2n x 2n buffer, a segment matrix, or a
        # turn or sign flip by broadcast products (their numpy iterator
        # buffers) would add 9 KB or more
        monkeypatch.setattr(modes, "_junction_blocks", cached_junction_blocks)
        for t_i in (0.0, 0.3e-9):
            traj = twin_block(1e-9, t_i, 1.7e15)
            assert peak_bytes(lambda: modes._block_symplectic(
                traj, 0.011, 24, 1e-12)) <= 43_000


class TestZeroLengthCoast:
    def test_skipped_after_the_first_segment(self, monkeypatch):
        # a t_i = 0 coast would turn every row pair by cos 0 and sin 0
        calls = []
        rotations = modes._rotations
        monkeypatch.setattr(modes, "_rotations", lambda *args: calls.append(
            None) or rotations(*args))
        s_b, _ = modes._block_symplectic(twin_block(1e-9, 0.0, 1.7e15),
                                         0.011, 12, 1e-12)
        # no turn for the coasts: the -a parity and the Rindler turn of each
        # of the three accelerated segments
        assert len(calls) == 4
        without = Trajectory((Segment(1e-9, 1.7e15), Segment(2e-9, -1.7e15),
                              Segment(1e-9, 1.7e15)), 1)
        s_ref, _ = modes._block_symplectic(without, 0.011, 12, 1e-12)
        assert s_b.tobytes() == s_ref.tobytes()

    def test_leading_zero_coast_starts_the_block(self):
        traj = Trajectory((Segment(0.0), Segment(1e-9)), 1)
        s, _ = modes._block_symplectic(traj, 0.5, 4, 1e-12)
        free = free_phase_map(minkowski_basis(0.5, 4), C * 1e-9)
        assert np.max(np.abs(modes._alpha(s) - free.alpha)) < 1e-15


class TestTrajectoryMap:
    def test_all_inertial_equals_free_map(self):
        traj = Trajectory((Segment(2e-9),), 3)
        tmap = trajectory_map(traj, 0.5, 6)
        free = free_phase_map(minkowski_basis(0.5, 6), C * 6e-9)
        assert np.max(np.abs(tmap.alpha - free.alpha)) < 1e-12
        assert not tmap.beta.any()

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_inertial_trajectory_needs_a_mode(self, n_max):
        # no junction is built here to reject the truncation
        with pytest.raises(ValidationError, match="n_max must be >= 1"):
            trajectory_map(Trajectory((Segment(2e-9),), 3), 0.011, n_max)

    def test_small_acceleration_limit_is_pure_phase(self):
        betas = []
        for a in (1e13, 1e12, 1e11):
            tmap = trajectory_map(twin_block(1e-9, 0.0, a), 0.011, 8)
            betas.append(np.linalg.norm(tmap.beta))
        assert betas[0] > betas[1] > betas[2]
        assert betas[-1] < 1e-6

    def test_zero_acceleration_exact_free(self):
        tmap = trajectory_map(twin_block(1e-9, 1e-9, 0.0), 0.011, 8)
        free = free_phase_map(minkowski_basis(0.011, 8), C * 6e-9)
        assert np.max(np.abs(tmap.alpha - free.alpha)) < 1e-12
        assert not tmap.beta.any()

    def test_squid_scale_block_creates_particles(self):
        tmap = trajectory_map(twin_block(1e-9, 0.0, 1.7e15), 0.011, 12)
        assert np.linalg.norm(tmap.beta) > 1e-7

    def test_repetition_fast_path_matches_sequential(self):
        block = twin_block(2e-9, 1e-9, 8e14)
        repeated = trajectory_map(twin_block(2e-9, 1e-9, 8e14, 7), 0.011, 8)
        single = trajectory_map(block, 0.011, 8)
        sequential = BogoliubovMap.identity(8)
        for _ in range(7):
            sequential = compose(single, sequential)
        assert np.max(np.abs(repeated.alpha - sequential.alpha)) < 1e-12
        assert np.max(np.abs(repeated.beta - sequential.beta)) < 1e-12

    def test_sign_of_acceleration_is_physical_reflection(self):
        # reduced clock-mode predictions are reflection symmetric in a -> -a
        plus = trajectory_map(twin_block(1e-9, 0.0, 1.7e15), 0.011, 10)
        minus = trajectory_map(twin_block(1e-9, 0.0, -1.7e15), 0.011, 10)
        state = coherent(1.3, 0.4)
        out_plus = apply_reduced(plus, 1, state, residual_gate=None)
        out_minus = apply_reduced(minus, 1, state, residual_gate=None)
        np.testing.assert_allclose(out_plus.first_moments,
                                   out_minus.first_moments, atol=1e-14)
        np.testing.assert_allclose(out_plus.covariance,
                                   out_minus.covariance, atol=1e-14)

    def test_composed_with_inverse_is_pure_diagonal(self):
        # the time-reversed (backwards-run) block undoes the motion: only
        # truncation residue survives off the diagonal
        tmap = trajectory_map(twin_block(1e-9, 0.5e-9, 3e15), 0.011, 16)
        undone = compose(inverse(tmap), tmap)
        off = np.array(undone.alpha).copy()
        np.fill_diagonal(off, 0.0)
        single_mix = np.array(tmap.alpha).copy()
        np.fill_diagonal(single_mix, 0.0)
        mixing_scale = np.max(np.abs(single_mix))
        assert np.max(np.abs(off)) < 1e-2 * mixing_scale
        assert np.max(np.abs(undone.beta)) < 1e-2 * mixing_scale


def reordered_block(t_a, t_i, a):
    """Not a twin block: a coast first, both signs of a, one of them at two
    durations, and an accelerated segment repeated after a coast."""
    return (Segment(t_i), Segment(0.5 * t_a, -a),
            Segment(t_a, a), Segment(2 * t_i),
            Segment(0.5 * t_a, -a), Segment(0.25 * t_a, a))


class TestTrajectoryMapAgainstComposeChain:
    @pytest.mark.parametrize("n_max", [8, 16, 24])
    @pytest.mark.parametrize("repetitions", [1, 3, 7, 200])
    @pytest.mark.parametrize("t_i", [0.0, 0.5e-9])
    @pytest.mark.parametrize("a", [1.7e15, -1.7e15, 0.0])
    def test_twin_block(self, a, t_i, repetitions, n_max):
        traj = twin_block(1e-9, t_i, a, repetitions)
        self.assert_matches(traj, 0.011, n_max)

    @pytest.mark.parametrize("n_max", [8, 24])
    @pytest.mark.parametrize("repetitions", [1, 7])
    @pytest.mark.parametrize("a", [3e15, 0.0])
    def test_other_segment_order(self, a, repetitions, n_max):
        traj = Trajectory(reordered_block(1e-9, 0.3e-9, a), repetitions)
        self.assert_matches(traj, 0.013, n_max)

    @staticmethod
    def assert_matches(traj, L, n_max):
        tmap = trajectory_map(traj, L, n_max)
        ref = compose_chain_map(traj, L, n_max)
        np.testing.assert_allclose(tmap.alpha, ref.alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tmap.beta, ref.beta, rtol=0, atol=1e-12)
        if all(s.proper_acceleration == 0.0 for s in traj.segments):
            assert not tmap.beta.any()


class TestSymplecticResidual:
    def test_identity_zero(self):
        assert symplectic_residual(BogoliubovMap.identity(6), 6) == (0.0, 0.0)

    def test_free_map_zero(self):
        fmap = free_phase_map(minkowski_basis(1.0, 6), 0.123)
        eps1, eps2 = symplectic_residual(fmap, 6)
        assert eps1 < 1e-15 and eps2 < 1e-15

    def test_junction_interior_block_accuracy(self):
        eps1, _ = symplectic_residual(junction_map(0.01, 40), 5)
        assert eps1 <= 1e-6

    @pytest.mark.parametrize("h", [0.05, 0.2])
    def test_residual_decreases_as_truncation_doubles(self, h):
        eps = [symplectic_residual(junction_map(h, n), 5)[0]
               for n in (10, 20, 40)]
        assert eps[0] > eps[1] > eps[2]

    def test_interior_validation(self):
        with pytest.raises(ValidationError):
            symplectic_residual(BogoliubovMap.identity(4), 5)


class TestDumpLoad:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        bmap = random_symplectic_map(rng, 5)
        path = tmp_path / "map.txt"
        with open(path, "w") as fh:
            dump_map(bmap, fh, meta={"h": 0.1})
        rows = np.loadtxt(path, comments="#")
        np.testing.assert_array_equal(rows[:, 0], np.repeat(np.arange(1, 6), 5))
        np.testing.assert_array_equal(rows[:, 1], np.tile(np.arange(1, 6), 5))
        np.testing.assert_array_equal(rows[:, 2] + 1j * rows[:, 3],
                                      bmap.alpha.ravel())
        np.testing.assert_array_equal(rows[:, 4] + 1j * rows[:, 5],
                                      bmap.beta.ravel())

    def test_dump_is_deterministic(self, tmp_path):
        bmap = junction_map(0.02, 6)
        texts = []
        for name in ("a.txt", "b.txt"):
            with open(tmp_path / name, "w") as fh:
                dump_map(bmap, fh, meta={"h": 0.02})
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1]
