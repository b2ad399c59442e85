"""Tests for Lagrange reconstruction and explicit interpolation."""

import math

import numpy as np
import pytest

from fockspace.errors import (
    DensityOrderViolated,
    MissingSamples,
    NodeIndexMissing,
    TruncationTooSmall,
    ValidationError,
)
from fockspace.interpolation import (
    InterpolationProblem,
    build_interpolant,
    lagrange_reconstruct,
    norm_growth_report,
    residual_check,
)
from fockspace.pointsets import PointSet, perturb, scale_lattice_to_density, square_lattice

ALPHA = 1.0
SUPER_SPACING = math.sqrt(math.pi / 1.5)
SUB_SPACING = math.sqrt(math.pi / 0.8)

# below this the radius trends sit at the floating-point floor of the
# exact node identities and carry no truncation signal
EXACTNESS_FLOOR = 1e-10


def basis_value(n, z):
    z = np.asarray(z, dtype=complex)
    return math.exp(0.5 * (n * math.log(ALPHA) - math.lgamma(n + 1))) * z**n


def super_lattice(window=40.0):
    return scale_lattice_to_density(ALPHA, 1.5, window)


def sub_lattice(window=20.0):
    return scale_lattice_to_density(ALPHA, 0.8, window)


def samples_for(gamma, fn, radius):
    inside = np.abs(gamma.points) <= radius
    return {complex(p): complex(fn(p)) for p in gamma.points[inside]}


def bounded_data(gamma, radius, seed):
    inside = np.abs(gamma.points) <= radius
    nodes = gamma.points[inside]
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1, 1, nodes.size) + 1j * rng.uniform(-1, 1, nodes.size)
    return {complex(p): complex(v) for p, v in zip(nodes, vals)}


def disk_grid(radius, step):
    n = int(math.floor(radius / step))
    axis = step * np.arange(-n, n + 1)
    grid = (axis[None, :] + 1j * axis[:, None]).ravel()
    return grid[np.abs(grid) <= radius]


class TestLagrangeReconstruct:
    def test_constant_function(self):
        gamma = super_lattice()
        z = 0.3 + 0.2j
        for radius, tol in ((8.0, 5e-3), (12.0, 1e-4)):
            samples = samples_for(gamma, lambda p: 1.0, radius)
            got = lagrange_reconstruct(gamma, ALPHA, samples, z, radius)
            assert abs(got - 1.0) <= tol

    def test_basis_function_degree_three(self):
        gamma = super_lattice()
        samples = samples_for(gamma, lambda p: basis_value(3, p), 8.0)
        got = lagrange_reconstruct(gamma, ALPHA, samples, 0.3 + 0.2j, 8.0)
        assert abs(got - basis_value(3, 0.3 + 0.2j)) <= 5e-3

    def test_exactness_trend_with_radius(self):
        gamma = super_lattice()

        def f(z):
            return (
                0.4 * basis_value(0, z)
                - 0.5j * basis_value(2, z)
                + 0.6 * basis_value(5, z)
                + 0.3 * basis_value(8, z)
            )

        grid = disk_grid(2.0, 0.25)
        sups = []
        for radius in (6.0, 8.0, 10.0, 12.0):
            samples = samples_for(gamma, f, radius)
            got = lagrange_reconstruct(gamma, ALPHA, samples, grid, radius)
            sups.append(float(np.max(np.abs(got - f(grid)))))
        assert sups[-1] <= 1e-4
        for prev, nxt in zip(sups, sups[1:]):
            assert nxt <= max(1.1 * prev, EXACTNESS_FLOOR)

    def test_node_hit_returns_sample(self):
        gamma = super_lattice()
        samples = samples_for(gamma, lambda p: 1.0 / (1.0 + abs(p)), 8.0)
        node = complex(gamma.points[np.argmin(np.abs(gamma.points - (1 + 1j)))])
        got = lagrange_reconstruct(gamma, ALPHA, samples, node, 8.0)
        assert got == samples[node]

    def test_array_matches_scalar(self):
        gamma = super_lattice()
        samples = samples_for(gamma, lambda p: basis_value(1, p), 8.0)
        zs = np.array([0.1 + 0.2j, -0.7j, 1.5 - 0.4j])
        arr = lagrange_reconstruct(gamma, ALPHA, samples, zs, 8.0)
        for k, z in enumerate(zs):
            one = lagrange_reconstruct(gamma, ALPHA, samples, complex(z), 8.0)
            # summation order differs between the batched and scalar
            # reductions, so agreement is to rounding, not bitwise
            assert abs(arr[k] - one) <= 1e-13 * max(1.0, abs(one))

    def test_weighted_error_on_perturbed_set(self):
        # a fixed three-term kernel combination sampled on a perturbed
        # density-1.5 set; the bound is twice the 7.53e-13 that one log
        # per (point, ratio) pair reaches, so a kernel that loses digits
        # to cancellation fails here while every looser tolerance passes
        zetas = (0.5 + 0.3j, -1.2 + 0.8j, 0.9 - 1.1j)
        weights = (1.0, -0.6 + 0.4j, 0.3j)

        def f(z):
            z = np.asarray(z, dtype=complex)
            return sum(w * np.exp(ALPHA * np.conj(c) * z) for c, w in zip(zetas, weights))

        gamma = perturb(square_lattice(SUPER_SPACING, 12.0), 0.2 * SUPER_SPACING, seed=1)
        samples = samples_for(gamma, f, 12.0)
        grid = disk_grid(4.9, 0.1)
        grid = grid[np.abs(grid) < 4.9]
        got = lagrange_reconstruct(gamma, ALPHA, samples, grid, 10.0)
        err = np.abs(np.exp(-0.5 * ALPHA * np.abs(grid) ** 2) * (got - f(grid)))
        assert float(np.max(err)) <= 1.51e-12

    def test_linear_in_samples(self):
        gamma = super_lattice()
        sa = samples_for(gamma, lambda p: basis_value(2, p), 8.0)
        sb = samples_for(gamma, lambda p: 1.0 / (1.0 + abs(p) ** 2), 8.0)
        mix = {k: 1.5 * sa[k] - 2j * sb[k] for k in sa}
        z = 0.8 - 0.3j
        lhs = lagrange_reconstruct(gamma, ALPHA, mix, z, 8.0)
        rhs = 1.5 * lagrange_reconstruct(
            gamma, ALPHA, sa, z, 8.0
        ) - 2j * lagrange_reconstruct(gamma, ALPHA, sb, z, 8.0)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_rejects_critical_density(self):
        gamma = scale_lattice_to_density(ALPHA, 1.0, 20.0)
        samples = samples_for(gamma, lambda p: 1.0, 6.0)
        with pytest.raises(DensityOrderViolated):
            lagrange_reconstruct(gamma, ALPHA, samples, 0.1 + 0.1j, 6.0)

    def test_rejects_subcritical_density(self):
        gamma = sub_lattice()
        samples = samples_for(gamma, lambda p: 1.0, 6.0)
        with pytest.raises(DensityOrderViolated):
            lagrange_reconstruct(gamma, ALPHA, samples, 0.1 + 0.1j, 6.0)

    def test_missing_samples(self):
        gamma = super_lattice()
        samples = samples_for(gamma, lambda p: 1.0, 8.0)
        victim = max(samples, key=abs)
        del samples[victim]
        with pytest.raises(MissingSamples):
            lagrange_reconstruct(gamma, ALPHA, samples, 0.1j, 8.0)

    def test_query_outside_interior(self):
        gamma = super_lattice()
        samples = samples_for(gamma, lambda p: 1.0, 8.0)
        with pytest.raises(ValidationError):
            lagrange_reconstruct(gamma, ALPHA, samples, 4.0 + 0j, 8.0)

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_rejects_bad_alpha(self, alpha):
        gamma = super_lattice(20.0)
        samples = samples_for(gamma, lambda p: 1.0, 6.0)
        with pytest.raises(ValidationError):
            lagrange_reconstruct(gamma, alpha, samples, 0.1j, 6.0)

    def test_requires_indices(self):
        gamma = super_lattice()
        plain = PointSet(gamma.points, gamma.window_radius)
        samples = samples_for(gamma, lambda p: 1.0, 6.0)
        with pytest.raises(NodeIndexMissing):
            lagrange_reconstruct(plain, ALPHA, samples, 0.1j, 6.0)


class TestInterpolationProblem:
    def test_beta_from_spacing(self):
        prob = InterpolationProblem(
            gamma=sub_lattice(),
            alpha=ALPHA,
            lattice_spacing=SUB_SPACING,
            data={0j: 1.0 + 0j},
        )
        assert abs(prob.beta - 0.8) <= 1e-12

    def test_rejects_key_outside_set(self):
        with pytest.raises(ValidationError):
            InterpolationProblem(
                gamma=sub_lattice(),
                alpha=ALPHA,
                lattice_spacing=SUB_SPACING,
                data={0.123 + 0j: 1.0 + 0j},
            )

    def test_rejects_nonfinite_value(self):
        with pytest.raises(ValidationError):
            InterpolationProblem(
                gamma=sub_lattice(),
                alpha=ALPHA,
                lattice_spacing=SUB_SPACING,
                data={0j: complex(math.nan, 0.0)},
            )

    def test_rejects_missing_indices(self):
        gamma = sub_lattice()
        plain = PointSet(gamma.points, gamma.window_radius)
        with pytest.raises(NodeIndexMissing):
            InterpolationProblem(
                gamma=plain, alpha=ALPHA, lattice_spacing=SUB_SPACING, data={}
            )

    def test_rejects_bad_parameters(self):
        gamma = sub_lattice()
        with pytest.raises(ValidationError):
            InterpolationProblem(
                gamma=gamma, alpha=0.0, lattice_spacing=SUB_SPACING, data={}
            )
        with pytest.raises(ValidationError):
            InterpolationProblem(
                gamma=gamma, alpha=ALPHA, lattice_spacing=-1.0, data={}
            )


    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ValidationError):
            InterpolationProblem(
                gamma=sub_lattice(), alpha=alpha, lattice_spacing=SUB_SPACING, data={}
            )


def sub_problem(radius, seed=7, window=20.0):
    gamma = sub_lattice(window)
    data = bounded_data(gamma, radius, seed)
    return InterpolationProblem(
        gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data=data
    )


class TestBuildInterpolant:
    def test_indicator_data(self):
        gamma = sub_lattice()
        inside = np.abs(gamma.points) <= 8.0
        data = {
            complex(p): (1.0 + 0j if p == 0 else 0j) for p in gamma.points[inside]
        }
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data=data
        )
        ev = build_interpolant(prob, 8.0)
        assert ev.eval_weighted(0j) == 1.0 + 0j
        for p in gamma.points[np.abs(gamma.points) <= 4.0]:
            assert abs(ev.eval_weighted(complex(p)) - data[complex(p)]) <= 1e-8

    def test_node_identity(self):
        prob = sub_problem(8.0, seed=3)
        ev = build_interpolant(prob, 8.0)
        assert residual_check(ev) <= 1e-12

    def test_zero_data_identically_zero(self):
        gamma = sub_lattice()
        inside = np.abs(gamma.points) <= 8.0
        data = {complex(p): 0j for p in gamma.points[inside]}
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data=data
        )
        ev = build_interpolant(prob, 8.0)
        assert ev.eval(0.37 - 1.21j) == 0j
        assert np.all(ev.eval(disk_grid(4.0, 0.8)) == 0j)

    def test_linearity_pointwise(self):
        prob_a = sub_problem(8.0, seed=5)
        prob_b = sub_problem(8.0, seed=6)
        ev_a = build_interpolant(prob_a, 8.0)
        ev_b = ev_a.with_data(prob_b.data)
        mixed = {
            k: 0.7 * prob_a.data[k] + 2.1j * prob_b.data[k] for k in prob_a.data
        }
        ev_m = ev_a.with_data(mixed)
        for z in (0.2 + 0.1j, 1.4 - 2.2j, -3.05j):
            want = 0.7 * ev_a.eval(z) + 2.1j * ev_b.eval(z)
            assert abs(ev_m.eval(z) - want) <= 1e-10 * max(1.0, abs(want))

    def test_rejects_supercritical_density(self):
        gamma = super_lattice(20.0)
        inside = np.abs(gamma.points) <= 6.0
        data = {complex(p): 1.0 + 0j for p in gamma.points[inside]}
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=SUPER_SPACING, data=data
        )
        with pytest.raises(DensityOrderViolated):
            build_interpolant(prob, 6.0)

    def test_rejects_critical_density(self):
        gamma = scale_lattice_to_density(ALPHA, 1.0, 20.0)
        spacing = math.sqrt(math.pi / ALPHA)
        inside = np.abs(gamma.points) <= 6.0
        data = {complex(p): 1.0 + 0j for p in gamma.points[inside]}
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=spacing, data=data
        )
        with pytest.raises(DensityOrderViolated):
            build_interpolant(prob, 6.0)

    def test_missing_data(self):
        prob = sub_problem(6.0)
        with pytest.raises(MissingSamples):
            build_interpolant(prob, 8.0)

    def test_truncation_diagnostic_far_from_radius(self):
        prob = sub_problem(6.0)
        ev = build_interpolant(prob, 6.0)
        with pytest.raises(TruncationTooSmall):
            ev.eval(90.0 + 0j)

    def test_with_data_matches_fresh_build(self):
        prob_a = sub_problem(7.0, seed=11)
        prob_b = sub_problem(7.0, seed=12)
        ev = build_interpolant(prob_a, 7.0).with_data(prob_b.data)
        fresh = build_interpolant(prob_b, 7.0)
        zs = disk_grid(3.0, 0.7)
        assert np.allclose(ev.eval(zs), fresh.eval(zs), rtol=1e-13, atol=0.0)

    def test_with_data_requires_coverage(self):
        prob = sub_problem(7.0)
        ev = build_interpolant(prob, 7.0)
        partial = dict(list(prob.data.items())[:-1])
        with pytest.raises(MissingSamples):
            ev.with_data(partial)

    def test_pointwise_bound_reported(self):
        ev = build_interpolant(sub_problem(8.0), 8.0)
        coarse = ev.pointwise_bound(0.5)
        fine = ev.pointwise_bound(0.25)
        assert math.isfinite(coarse) and coarse > 0.0
        assert coarse <= 2.0 * fine and fine <= 2.0 * coarse


class TestResidualCheck:
    def test_bounded_data_radius_ten(self):
        prob = sub_problem(10.0)
        assert residual_check(build_interpolant(prob, 10.0)) <= 1e-3

    def test_residual_across_radii(self):
        # with exact node vanishing both residuals sit at the rounding
        # floor, so growing the radius cannot make them worse than that
        r10 = residual_check(build_interpolant(sub_problem(10.0), 10.0))
        r14 = residual_check(build_interpolant(sub_problem(14.0, window=16.0), 14.0))
        assert r14 < r10 or max(r10, r14) <= 1e-12


class TestNormGrowth:
    def test_zero_data_ratio_not_applicable(self):
        gamma = sub_lattice()
        inside = np.abs(gamma.points) <= 6.0
        data = {complex(p): 0j for p in gamma.points[inside]}
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data=data
        )
        rep = norm_growth_report(build_interpolant(prob, 6.0), 4)
        assert rep.data_norm == 0.0
        assert math.isnan(rep.ratio)

    def test_ratio_stable_across_draws(self):
        gamma = sub_lattice()
        nodes = gamma.points[np.abs(gamma.points) <= 7.0]
        base = {complex(p): 0j for p in nodes}
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data=base
        )
        ev0 = build_interpolant(prob, 7.0)
        rng = np.random.default_rng(42)
        ratios = []
        for _ in range(20):
            v = rng.normal(size=nodes.size) + 1j * rng.normal(size=nodes.size)
            v = v / np.linalg.norm(v)
            draw = {complex(p): complex(x) for p, x in zip(nodes, v)}
            rep = norm_growth_report(ev0.with_data(draw), 4)
            assert abs(rep.data_norm - 1.0) <= 1e-12
            ratios.append(rep.ratio)
        med = float(np.median(ratios))
        assert max(ratios) <= 3.0 * med
        assert min(ratios) >= med / 3.0

    def test_single_node_norm_lower_bound(self):
        gamma = sub_lattice()
        inside = np.abs(gamma.points) <= 7.0
        data = {
            complex(p): (1.0 + 0j if p == 0 else 0j) for p in gamma.points[inside]
        }
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data=data
        )
        rep = norm_growth_report(build_interpolant(prob, 7.0), 8)
        assert rep.interpolant_norm >= 1.0 - 1e-3

    def test_rejects_negative_degree(self):
        ev = build_interpolant(sub_problem(6.0), 6.0)
        with pytest.raises(ValidationError):
            norm_growth_report(ev, -1)
