"""Tests for frame matrices, frame bounds, and the norm decomposition."""

import math

import numpy as np
import pytest

from fockspace.errors import (
    AlphaMismatch,
    PointNotInSet,
    UnsupportedRepresentation,
    ValidationError,
    WindowTooSmall,
)
from fockspace.pointsets import PointSet, scale_lattice_to_density, square_lattice
from fockspace.sampling import (
    FrameEstimate,
    frame_bounds,
    frame_matrix,
    norm_decomposition_check,
    point_removal_experiment,
)
from fockspace.space import FockFunction, eval_weighted


def origin_set(window=1.0):
    return PointSet(np.array([0.0 + 0.0j]), window)


class TestFrameMatrix:
    def test_singleton_origin(self):
        S = frame_matrix(origin_set(), 1.0, 3)
        want = np.zeros((4, 4), dtype=np.complex128)
        want[0, 0] = 1.0
        assert np.array_equal(S, want)

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_rejects_bad_alpha(self, alpha):
        gam = square_lattice(1.0, 3.0)
        with pytest.raises(ValidationError):
            frame_matrix(gam, alpha, 4)
        with pytest.raises(ValidationError):
            frame_bounds(gam, alpha, 4, 3.0)

    def test_exactly_hermitian(self):
        from fockspace.pointsets import perturb

        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=1)
        S = frame_matrix(gam, 1.0, 12)
        assert np.max(np.abs(S - S.conj().T)) == 0.0

    def test_positive_semidefinite(self):
        gam = square_lattice(1.3, 7.0)
        S = frame_matrix(gam, 1.0, 10)
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = rng.standard_normal(11) + 1j * rng.standard_normal(11)
            val = np.real(np.vdot(c, S @ c))
            assert val >= -1e-12 * np.vdot(c, c).real

    def test_lattice_theta_sum(self):
        gam = square_lattice(1.0, 10.5)
        S = frame_matrix(gam, math.pi, 0)
        brute = sum(
            math.exp(-math.pi * (m * m + n * n))
            for m in range(-10, 11)
            for n in range(-10, 11)
        )
        assert abs(S[0, 0].real - brute) < 1e-12

    def test_quadratic_form_matches_weighted_samples(self):
        gam = square_lattice(1.5, 9.0)
        N = 9
        S = frame_matrix(gam, 1.0, N)
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
            f = FockFunction.monomial(1.0, c)
            direct = float(np.sum(np.abs(eval_weighted(f, gam.points)) ** 2))
            form = float(np.real(np.vdot(c, S @ c)))
            assert abs(form - direct) <= 1e-9 * form

    def test_validation(self):
        with pytest.raises(ValidationError):
            frame_matrix(origin_set(), 0.0, 4)
        with pytest.raises(ValidationError):
            frame_matrix(origin_set(), 1.0, -1)


class TestFrameBounds:
    def test_singleton_degree_zero(self):
        est = frame_bounds(origin_set(), 1.0, 0, 1.0)
        assert abs(est.A - 1.0) < 1e-10
        assert abs(est.B - 1.0) < 1e-10

    def test_singleton_degree_one_is_rank_deficient(self):
        est = frame_bounds(origin_set(), 1.0, 1, 1.0)
        assert est.A == 0.0
        assert abs(est.B - 1.0) < 1e-10

    def test_matches_dense_eigensolver(self):
        gam = scale_lattice_to_density(1.0, 1.2, 12.0)
        est = frame_bounds(gam, 1.0, 16, 12.0)
        ev = np.linalg.eigvalsh(frame_matrix(gam, 1.0, 16))
        assert abs(est.A - ev[0]) <= 1e-6 * ev[0]
        assert abs(est.B - ev[-1]) <= 1e-6 * ev[-1]

    def test_convergence_table_ladder(self):
        gam = scale_lattice_to_density(1.0, 1.2, 12.0)
        est = frame_bounds(gam, 1.0, 16, 12.0)
        assert [row[0] for row in est.convergence_table] == [8, 12, 16]
        for d, a_d, b_d in est.convergence_table:
            ev = np.linalg.eigvalsh(frame_matrix(gam, 1.0, d))
            assert abs(a_d - ev[0]) <= 1e-6 * max(ev[0], 1e-12)
            assert abs(b_d - ev[-1]) <= 1e-6 * ev[-1]
        assert est.A == est.convergence_table[-1][1]
        assert est.B == est.convergence_table[-1][2]

    def test_critical_lattice_lower_bound_decays(self):
        gam = square_lattice(1.0, 12.0)
        values = [frame_bounds(gam, math.pi, N, 12.0).A for N in (8, 16, 24)]
        assert values[0] > values[1] > values[2] > 0

    def test_density_ordering(self):
        a = {}
        for ratio in (0.8, 1.0, 1.2):
            gam = scale_lattice_to_density(1.0, ratio, 14.0)
            a[ratio] = frame_bounds(gam, 1.0, 16, 14.0)
        assert a[0.8].A < a[1.0].A < a[1.2].A
        assert a[1.2].B / a[1.2].A <= 50.0
        assert a[0.8].A / a[1.2].A <= 0.1

    def test_stability_across_degree(self):
        super_gam = scale_lattice_to_density(1.0, 1.2, 14.0)
        sub_gam = scale_lattice_to_density(1.0, 0.8, 14.0)
        a16 = frame_bounds(super_gam, 1.0, 16, 14.0).A
        a24 = frame_bounds(super_gam, 1.0, 24, 14.0).A
        assert abs(a24 - a16) < 0.3 * a16
        b16 = frame_bounds(sub_gam, 1.0, 16, 14.0).A
        b24 = frame_bounds(sub_gam, 1.0, 24, 14.0).A
        assert b16 > 5.0 * b24

    def test_monotone_in_point_set(self):
        gam = scale_lattice_to_density(1.0, 1.0, 10.0)
        base = frame_bounds(gam, 1.0, 12, 10.0)
        rng = np.random.default_rng(3)
        extra = rng.uniform(-6, 6, 10) + 1j * rng.uniform(-6, 6, 10)
        bigger = PointSet(np.concatenate([gam.points, extra]), 10.0)
        grown = frame_bounds(bigger, 1.0, 12, 10.0)
        assert grown.A >= base.A - 1e-9
        assert grown.B >= base.B - 1e-9

    def test_translation_surrogate(self):
        gam = scale_lattice_to_density(1.0, 1.2, 12.0)
        base = frame_bounds(gam, 1.0, 16, 12.0)
        a = 1.3 + 0.9j
        moved = PointSet(gam.points + a, 12.0 + abs(a) + 1e-9)
        shifted = frame_bounds(moved, 1.0, 16, 12.0 + abs(a) + 1e-9)
        assert abs(shifted.A - base.A) <= 0.02 * base.A
        assert abs(shifted.B - base.B) <= 0.02 * base.B

    def test_unreliable_flag(self):
        gam = square_lattice(1.0, 5.0)
        est = frame_bounds(gam, 1.0, 24, 5.0)
        assert est.unreliable
        assert est.effective_radius > est.window_radius
        gam_big = square_lattice(1.0, 14.0)
        assert not frame_bounds(gam_big, 1.0, 24, 14.0).unreliable

    def test_window_must_contain_points(self):
        gam = square_lattice(1.0, 8.0)
        with pytest.raises(WindowTooSmall):
            frame_bounds(gam, 1.0, 8, 5.0)

    def test_estimate_invariant(self):
        with pytest.raises(ValidationError):
            FrameEstimate(
                A=2.0,
                B=1.0,
                degree=4,
                effective_radius=2.0,
                window_radius=5.0,
                convergence_table=(),
                unreliable=False,
            )


class TestNormDecomposition:
    def test_normalized_kernel_gap_small(self):
        f = FockFunction.kernel_combo(1.0, [0.0], [1.0])
        assert norm_decomposition_check(f, 1.0, 8) <= 1e-8

    def test_constant_function_any_alpha(self):
        f = FockFunction.kernel_combo(2.0, [0.0], [1.0])
        assert norm_decomposition_check(f, 2.0, 8) <= 1e-8

    def test_single_cell_gap_is_gaussian_mass_deficit(self):
        f = FockFunction.kernel_combo(1.0, [0.0], [1.0])
        gap = norm_decomposition_check(f, 1.0, 0)
        want = 1.0 - math.erf(0.5) ** 2
        assert abs(gap - want) < 1e-12

    def test_gap_decreases_with_coverage(self):
        f = FockFunction.kernel_combo(1.0, [0.0], [1.0])
        gaps = [norm_decomposition_check(f, 1.0, K) for K in (0, 2, 4, 8)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[3] <= 1e-8

    def test_multi_node_gap_decreases(self):
        f = FockFunction.kernel_combo(1.0, [0.3 + 0.2j, -0.5j], [1.0, 0.7 - 0.2j])
        gaps = [norm_decomposition_check(f, 1.0, K) for K in (1, 2, 4, 8)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[3] <= 1e-8

    def test_rejects_monomial_representation(self):
        f = FockFunction.monomial(1.0, [1.0])
        with pytest.raises(UnsupportedRepresentation):
            norm_decomposition_check(f, 1.0, 4)

    def test_alpha_mismatch(self):
        f = FockFunction.kernel_combo(1.0, [0.0], [1.0])
        with pytest.raises(AlphaMismatch):
            norm_decomposition_check(f, 2.0, 4)

    def test_nodes_must_be_well_inside(self):
        f = FockFunction.kernel_combo(1.0, [3.0 + 0j], [1.0])
        with pytest.raises(ValidationError):
            norm_decomposition_check(f, 1.0, 2)


class TestPointRemoval:
    def test_remove_only_point(self):
        before, after = point_removal_experiment(origin_set(), 1.0, 0, 0.0)
        assert abs(before.A - 1.0) < 1e-10
        assert after.A == 0.0 and after.B == 0.0

    def test_supercritical_survives_removal(self):
        gam = scale_lattice_to_density(1.0, 1.5, 14.0)
        before, after = point_removal_experiment(gam, 1.0, 16, 0.0)
        assert after.A > 0.0
        assert after.A >= before.A - math.exp(0.0) - 1e-9
        assert after.A <= before.A + 1e-9
        assert after.B <= before.B + 1e-9

    def test_far_point_barely_matters(self):
        gam = scale_lattice_to_density(1.0, 1.5, 14.0)
        far = gam.points[int(np.argmax(np.abs(gam.points)))]
        before, after = point_removal_experiment(gam, 1.0, 16, complex(far))
        assert abs(after.A - before.A) <= 1e-9

    def test_missing_point_raises(self):
        gam = square_lattice(1.0, 5.0)
        with pytest.raises(PointNotInSet):
            point_removal_experiment(gam, 1.0, 4, 0.25 + 0.25j)
