"""Tests for Lagrange reconstruction and explicit interpolation."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockspace import interpolation
from fockspace.canonical import _gfun_log_many
from fockspace.errors import (
    DensityOrderViolated,
    MissingSamples,
    NodeIndexMissing,
    Overflow,
    QuadratureOrderTooLow,
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
from fockspace.space import MAX_EXP, _combine_term_logs, _log

ALPHA = 1.0
SUPER_SPACING = math.sqrt(math.pi / 1.5)
SUB_SPACING = math.sqrt(math.pi / 0.8)

NON_FINITE = [complex(v, 0.0) for v in (math.nan, math.inf, -math.inf)] + [
    complex(0.0, v) for v in (math.nan, math.inf, -math.inf)
]

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


KERNEL_ZETAS = (0.5 + 0.3j, -1.2 + 0.8j, 0.9 - 1.1j)
KERNEL_WEIGHTS = (1.0, -0.6 + 0.4j, 0.3j)


def kernel_combo(z):
    """A fixed three-term kernel combination, the known function sampled."""
    z = np.asarray(z, dtype=complex)
    return sum(w * np.exp(ALPHA * np.conj(c) * z) for c, w in zip(KERNEL_ZETAS, KERNEL_WEIGHTS))


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

    @pytest.mark.parametrize("node, offset", [(0, 1e-310), (0, 5e-324), (1, 1e-310j)])
    def test_subnormal_offset_from_a_node_returns_sample(self, node, offset):
        # 1/(z - z_i) overflows at these z; the query is node z_i itself, and
        # the sample comes back, not exp(log v), which misses most normal draws
        gamma = super_lattice()
        rng = np.random.default_rng(7)
        z_i = complex(node * SUPER_SPACING, 0.0)
        for fn in (lambda p: 1.0 / (1.0 + abs(p)), lambda p: complex(*rng.normal(size=2))):
            samples = samples_for(gamma, fn, 8.0)
            got = lagrange_reconstruct(gamma, ALPHA, samples, z_i + offset, 8.0)
            assert got == samples[z_i]

    def test_sample_points_in_linear_memory(self):
        # exact hits are matched by sorting, not in a nodes x hits array:
        # 30.4 MiB here before, against 5.4 MiB for queries off the nodes
        s = SUPER_SPACING
        gamma = perturb(square_lattice(s, 40.0), 0.2 * s, seed=1)
        samples = {complex(p): complex(math.cos(p.real)) for p in gamma.points}
        zs = gamma.points[np.abs(gamma.points) < 19.5]
        assert zs.size == 567
        tracemalloc.start()
        try:
            got = lagrange_reconstruct(gamma, ALPHA, samples, zs, 39.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert np.array_equal(got, np.cos(zs.real) + 0j)

    def test_plain_value_overflow_off_the_nodes(self):
        # samples of alternating sign just below the largest double: the
        # series off a node passes the double range, while at a node the
        # sample itself comes back
        gamma = scale_lattice_to_density(ALPHA, 1.5, 8.0)
        samples = {
            complex(p): 1.7e308 * (-1.0) ** int(m + n)
            for p, (m, n) in zip(gamma.points, gamma.indices)
        }
        z = 0.5 * SUPER_SPACING * (1 + 1j)
        with pytest.raises(Overflow) as info:
            lagrange_reconstruct(gamma, ALPHA, samples, z, 8.0)
        assert set(info.value.fields) == {"log_mag", "radius"}
        assert info.value.log_mag >= MAX_EXP
        assert info.value.radius == abs(z)
        node = complex(gamma.points[np.argmin(np.abs(gamma.points - SUPER_SPACING))])
        assert lagrange_reconstruct(gamma, ALPHA, samples, node, 8.0) == samples[node]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_rejects_non_finite_sample(self, bad):
        # one such sample would otherwise make every value NaN, quietly
        gamma = scale_lattice_to_density(ALPHA, 1.5, 8.0)
        samples = samples_for(gamma, lambda p: 1.0, 7.0)
        node = complex(gamma.points[np.argmin(np.abs(gamma.points - SUPER_SPACING))])
        samples[node] = bad
        with pytest.raises(ValidationError, match=r"^the sample at .* is not finite$") as info:
            lagrange_reconstruct(gamma, ALPHA, samples, np.array([SUPER_SPACING, 0.1]), 7.0)
        assert info.value.fields == {"point": [node.real, node.imag]}

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
        gamma = perturb(square_lattice(SUPER_SPACING, 12.0), 0.2 * SUPER_SPACING, seed=1)
        samples = samples_for(gamma, kernel_combo, 12.0)
        grid = disk_grid(4.9, 0.1)
        grid = grid[np.abs(grid) < 4.9]
        got = lagrange_reconstruct(gamma, ALPHA, samples, grid, 10.0)
        err = np.abs(np.exp(-0.5 * ALPHA * np.abs(grid) ** 2) * (got - kernel_combo(grid)))
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
        with pytest.raises(DensityOrderViolated) as info:
            lagrange_reconstruct(gamma, ALPHA, samples, 0.1 + 0.1j, 6.0)
        assert info.value.fields == {"beta": pytest.approx(0.8 * ALPHA), "alpha": ALPHA}

    def test_missing_samples(self):
        gamma = super_lattice()
        samples = samples_for(gamma, lambda p: 1.0, 8.0)
        victim = max(samples, key=abs)
        del samples[victim]
        with pytest.raises(MissingSamples) as info:
            lagrange_reconstruct(gamma, ALPHA, samples, 0.1j, 8.0)
        assert info.value.fields == {"missing": 1, "radius": 8.0}

    def test_no_point_within_radius(self):
        # the perturbed origin point lies 0.12 out, so no sample falls
        # within the radius and the series has no term
        gamma = perturb(square_lattice(1.0, 8.0), 0.2, seed=1)
        assert np.min(np.abs(gamma.points)) > 0.1
        with pytest.raises(ValidationError, match="truncation radius 0.1$"):
            lagrange_reconstruct(gamma, ALPHA, {}, 0.01, 0.1)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_truncation_radius(self, radius):
        # 0 and -1 leave no interior for the query; nan and inf reach the
        # front door's own check
        gamma = super_lattice(20.0)
        samples = samples_for(gamma, lambda p: 1.0, 20.0)
        with pytest.raises(ValidationError):
            lagrange_reconstruct(gamma, ALPHA, samples, 0.1j, radius)
        with pytest.raises(ValidationError, match="truncation_radius must be positive and finite"):
            lagrange_reconstruct(gamma, ALPHA, samples, np.array([], dtype=complex), radius)

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

    @pytest.mark.parametrize("spacing", [math.inf, math.nan])
    def test_rejects_non_finite_spacing(self, spacing):
        # an infinite spacing would pass the regime guard as beta = 0
        with pytest.raises(ValidationError, match="lattice_spacing must be positive and finite"):
            InterpolationProblem(
                gamma=sub_lattice(), alpha=ALPHA, lattice_spacing=spacing, data={}
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
        with pytest.raises(MissingSamples) as info:
            build_interpolant(prob, 8.0)
        ring = np.abs(prob.gamma.points)
        missing = int(np.count_nonzero((ring > 6.0) & (ring <= 8.0)))
        assert info.value.fields == {"missing": missing, "radius": 8.0}

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_truncation_radius(self, radius):
        with pytest.raises(ValidationError, match="truncation_radius must be positive and finite"):
            build_interpolant(sub_problem(6.0), radius)

    def test_no_node_within_radius(self):
        # as for reconstruction: the perturbed origin point lies 0.12 out,
        # so the interpolant would have no term
        gamma = perturb(sub_lattice(), 0.2, seed=1)
        assert np.min(np.abs(gamma.points)) > 0.01
        prob = InterpolationProblem(gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data={})
        with pytest.raises(ValidationError, match="truncation radius 0.01$"):
            build_interpolant(prob, 0.01)

    def test_plain_value_overflow_far_from_radius(self):
        # 90 out, f is about exp(alpha 90^2 / 2) times its weighted value:
        # the plain value raises, the weighted one stays finite
        prob = sub_problem(6.0)
        ev = build_interpolant(prob, 6.0)
        with pytest.raises(Overflow) as info:
            ev.eval(np.array([1.0, 90.0 + 0j]))
        assert info.value.fields == {"log_mag": info.value.log_mag, "radius": 90.0}
        assert info.value.log_mag >= MAX_EXP
        with pytest.raises(Overflow):
            ev.eval(90.0 + 0j)
        assert np.isfinite(ev.eval_weighted(90.0 + 0j))

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
        with pytest.raises(MissingSamples) as info:
            ev.with_data(partial)
        assert info.value.fields == {"missing": 1, "radius": 7.0}

    def test_pointwise_bound_reported(self):
        ev = build_interpolant(sub_problem(8.0), 8.0)
        coarse = ev.pointwise_bound(0.5)
        fine = ev.pointwise_bound(0.25)
        assert math.isfinite(coarse) and coarse > 0.0
        assert coarse <= 2.0 * fine and fine <= 2.0 * coarse

    @pytest.mark.parametrize("step", [0.0, -1.0, math.inf, math.nan, 1e-300])
    def test_pointwise_bound_rejects_bad_step(self, step):
        ev = build_interpolant(sub_problem(6.0), 6.0)
        with pytest.raises(ValidationError, match="grid_step"):
            ev.pointwise_bound(step)


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


    def test_interior_nodes_form_no_cauchy_cell(self, monkeypatch):
        # every interior node is a hit of the series, decided before the
        # sum; it used to form a full column of the Cauchy sum and drop it
        cells = []
        combine = interpolation._combine_term_logs
        monkeypatch.setattr(
            interpolation, "_combine_term_logs", lambda exps, w: cells.append(w.size) or combine(exps, w)
        )
        assert residual_check(build_interpolant(sub_problem(10.0), 10.0)) == 1.0990647210786425e-15
        assert cells == []

    def test_interior_nodes_in_linear_memory(self):
        # every interior node is a zero of g, matched by sorting: 21.8 MiB
        # in a nodes x hits array before
        prob = sub_problem(49.0, seed=1, window=50.0)
        ev = build_interpolant(prob, 49.0)
        assert ev._basis.nodes.size > 1900
        tracemalloc.start()
        try:
            residual = residual_check(ev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        assert residual <= 1e-12


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

    @pytest.mark.parametrize("scale", [1e300, 1e-320])
    def test_norms_neither_overflow_nor_underflow(self, scale):
        # the squares of these targets pass the double range either way
        gamma = sub_lattice()
        inside = np.abs(gamma.points) <= 7.0
        data = {complex(p): 1.0 + 0j for p in gamma.points[inside]}
        prob = InterpolationProblem(gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data=data)
        ev = build_interpolant(prob, 7.0)
        unit = norm_growth_report(ev, 4)
        rep = norm_growth_report(ev.with_data({p: scale * v for p, v in data.items()}), 4)
        assert rep.data_norm == pytest.approx(scale * unit.data_norm, rel=1e-15, abs=0.0)
        # a subnormal interpolant keeps about four digits
        assert rep.ratio == pytest.approx(unit.ratio, rel=1e-12 if scale > 1.0 else 1e-3)

    def test_rejects_negative_degree(self):
        ev = build_interpolant(sub_problem(6.0), 6.0)
        with pytest.raises(ValidationError):
            norm_growth_report(ev, -1)

    @pytest.mark.parametrize("N", [4, 8])
    def test_sigma_over_z_closed_form(self, N):
        # datum 1 at the origin of the exact lattice: g = sigma and
        # g'(0) = 1, so the interpolant is sigma(z)/z, whose Taylor
        # coefficients are sigma's s_{n+1}: 1, s_5 = -g2/240 and
        # s_9 = -g2^2/161280 up to degree 8 on the square lattice
        gamma = sub_lattice()
        inside = np.abs(gamma.points) <= 7.0
        data = {complex(p): (1.0 + 0j if p == 0 else 0j) for p in gamma.points[inside]}
        prob = InterpolationProblem(gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING, data=data)
        rep = norm_growth_report(build_interpolant(prob, 7.0), N)
        with mpmath.workdps(30):
            g2 = 60 * mpmath.gamma(0.25) ** 8 / (960 * mpmath.pi**2 * mpmath.mpf(SUB_SPACING) ** 4)
            s = {0: 1, 4: -g2 / 240, 8: -(g2**2) / 161280}
            want = float(mpmath.sqrt(sum(mpmath.factorial(n) * c**2 / ALPHA**n for n, c in s.items() if n <= N)))
        assert abs(rep.interpolant_norm - want) <= 1e-13 * want

    def test_starved_angles_name_their_order(self, monkeypatch):
        # with 32 angles the top five bins hold degrees 27 to 31 of each
        # circle, far above rounding
        monkeypatch.setattr(interpolation, "_angle_count", lambda *args: 32)
        ev = build_interpolant(sub_problem(7.0), 7.0)
        with pytest.raises(QuadratureOrderTooLow) as info:
            norm_growth_report(ev, 4)
        assert info.value.order == 32
        assert info.value.fields == {"order": 32}


def basis_logs(basis, zs):
    """Complex logs of a Lagrange basis at ``zs``, shape (nodes, points).

    The oracle of the scaled Cauchy sum in ``series``: one log per
    (node, point) cell. At ``z = z_i`` row i holds ``L_i = 1`` exactly
    and every other row an exact zero.
    """
    glog = _gfun_log_many(basis.product, zs)
    out = np.empty((basis.nodes.size, zs.size), dtype=np.complex128)
    for i, node in enumerate(basis.nodes):
        w = zs - node
        hit = w == 0
        out[i] = glog - basis.node_dlogs[i] + basis.kappa * np.conj(node) * w
        out[i] -= _log(np.where(hit, 1.0, w))
        out[i, hit] = 0.0
    return out


def reference_series(basis, coeff_logs, zs):
    """Complex log of ``sum_i c_i L_i`` at ``zs`` by the log-domain oracle."""
    return _combine_term_logs(basis_logs(basis, zs) + coeff_logs[:, None])


def mp_sigma(s, z):
    """sigma(z) of the square lattice of spacing s, from mpmath's theta_1."""
    q = mpmath.exp(-mpmath.pi)
    return (
        (s / mpmath.pi)
        * mpmath.exp(mpmath.pi * z**2 / (2 * s**2))
        * mpmath.jtheta(1, mpmath.pi * z / s, q)
        / mpmath.jtheta(1, 0, q, 1)
    )


class TestOneProductBasis:
    def test_lattice_basis_is_the_sigma_translate(self):
        # on the exact lattice the quasi-period law makes every basis
        # function the sigma translate exp(alpha(conj(z_i) z - |z_i|^2))
        # sigma(z - z_i) / (z - z_i), node by node
        gamma = scale_lattice_to_density(ALPHA, 0.8, 12.0)
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=SUB_SPACING,
            data=bounded_data(gamma, 10.0, 1),
        )
        ev = build_interpolant(prob, 10.0)
        zs = np.array([0.37 + 0.21j, -1.3 + 2.2j, 2.9 - 0.6j, -3.1 - 2.7j, 0.9 + 4.1j])
        got = np.exp(basis_logs(ev._basis, zs))
        worst = 0.0
        with mpmath.workdps(30):
            for node, row in zip(ev._basis.nodes, got):
                zi = mpmath.mpc(node.real, node.imag)
                for z, val in zip(zs, row):
                    zz = mpmath.mpc(z.real, z.imag)
                    want = complex(
                        mpmath.exp(ALPHA * (mpmath.conj(zi) * zz - abs(zi) ** 2))
                        * mp_sigma(SUB_SPACING, zz - zi)
                        / (zz - zi)
                    )
                    worst = max(worst, abs(val - want) / abs(want))
        assert worst <= 1e-12

    @settings(max_examples=8, deadline=None)
    @given(
        ratio=st.sampled_from([0.5, 0.8, 0.9]),
        shift=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**16),
    )
    def test_perturbed_sets_interpolate_and_localize(self, ratio, shift, seed):
        spacing = math.sqrt(math.pi / (ALPHA * ratio))
        gamma = perturb(square_lattice(spacing, 16.0), shift * spacing, seed=seed)
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=spacing,
            data=bounded_data(gamma, 12.0, seed),
        )
        ev = build_interpolant(prob, 12.0)
        assert residual_check(ev) <= 1e-12

        # weighted |L_i(z)| exp(alpha (|z_i|^2 - |z|^2) / 2) decays like
        # exp(-kappa |z - z_i|^2 / 2), kappa = alpha - beta, off the node
        grid = disk_grid(6.0, 0.25)
        nodes = ev._basis.nodes
        near = np.abs(nodes) <= 4.0
        w = np.abs(grid[None, :] - nodes[near][:, None])
        kappa = ALPHA * (1.0 - ratio)
        weighted = (
            basis_logs(ev._basis, grid)[near].real
            + 0.5 * ALPHA * (np.abs(nodes[near])[:, None] ** 2 - np.abs(grid)[None, :] ** 2)
            + 0.5 * kappa * w**2
        )
        assert float(np.max(weighted[w >= 2.0 * spacing])) < math.log(3.0)


def series_case(ratio, shift, seed, radius):
    """A Lagrange basis over the nodes within ``radius`` of a lattice of
    density ratio * alpha / pi, perturbed by up to ``shift`` spacings in a
    window two wider, with the coefficient logs its caller sums:
    kernel-combination samples on the basis ``lagrange_reconstruct``
    builds (ratio > 1, kappa = 0), or the interpolant's weighted
    targets of bounded data (ratio < 1, kappa = alpha - beta)."""
    spacing = math.sqrt(math.pi / (ALPHA * ratio))
    gamma = perturb(square_lattice(spacing, radius + 2.0), shift * spacing, seed=seed)
    if ratio < 1.0:
        prob = InterpolationProblem(
            gamma=gamma, alpha=ALPHA, lattice_spacing=spacing, data=bounded_data(gamma, radius, seed)
        )
        ev = build_interpolant(prob, radius)
        return ev._basis, _log(ev._targets) + 0.5 * ALPHA * np.abs(ev._basis.nodes) ** 2
    fitted = interpolation._fitted_spacing(gamma)
    samples = dict.fromkeys(map(complex, gamma.points), 0j)
    basis, _ = interpolation._LagrangeBasis.of(gamma, fitted, samples, radius, "sample", 0.0)
    return basis, _log(kernel_combo(basis.nodes))


def assert_series_agree(basis, coeff_logs, zs):
    """The scaled Cauchy sum matches the log-domain oracle: weighted
    values within 1e-13 of the larger weighted value."""
    weight = 0.5 * ALPHA * np.abs(zs) ** 2
    new = np.exp(basis.series(coeff_logs, zs)[0] - weight)
    old = np.exp(reference_series(basis, coeff_logs, zs) - weight)
    scale = max(np.max(np.abs(new)), np.max(np.abs(old)))
    assert np.max(np.abs(new - old)) <= 1e-13 * scale


REGIMES = pytest.mark.parametrize("ratio", [1.5, 0.8], ids=["reconstruct", "interpolate"])


class TestScaledCauchySeries:
    @REGIMES
    def test_node_hits_are_bit_exact(self, ratio):
        basis, coeff_logs = series_case(ratio, 0.2, 3, 8.0)
        picks = np.flatnonzero(np.abs(basis.nodes) <= 4.0)
        assert np.array_equal(basis.series(coeff_logs, basis.nodes[picks])[0], coeff_logs[picks])
        assert_series_agree(basis, coeff_logs, np.concatenate([disk_grid(4.0, 0.5), basis.nodes[picks]]))

    @REGIMES
    @pytest.mark.parametrize("offset", [1e-12, 1e-200])
    def test_points_next_to_a_node(self, ratio, offset):
        # the exact lattice has a node at the origin, where an offset of
        # 1e-200 is representable
        basis, coeff_logs = series_case(ratio, 0.0, 0, 8.0)
        turns = np.exp(1j * np.linspace(0.3, 6.0, basis.nodes.size))
        zs = basis.nodes + offset * turns
        zs = zs[(zs != basis.nodes) & (np.abs(zs) <= 3.0)]
        assert zs.size >= 1 and np.min(np.abs(zs - basis.nodes[:, None])) > 0.0
        assert_series_agree(basis, coeff_logs, zs)

    @REGIMES
    @pytest.mark.parametrize("z", [1e-310, 5e-324, 1e-310j])
    def test_subnormal_offset_is_a_node_hit(self, ratio, z):
        # |z - 0| is not a normal double, so 1/(z - 0) could overflow; the
        # series takes z as the origin node, where the oracle's sum agrees.
        # The oracle cancels logs as large as |log z| < 745 on the way, so
        # it holds to about 745 ulps.
        basis, coeff_logs = series_case(ratio, 0.0, 0, 8.0)
        zs = np.array([z, 0.7 - 1.1j])
        got = np.exp(basis.series(coeff_logs, zs)[0])
        want = np.exp(reference_series(basis, coeff_logs, zs))
        assert got[0] == np.exp(coeff_logs[basis.nodes == 0][0])
        assert np.max(np.abs(got - want)) <= 2 * 745 * np.finfo(float).eps * np.max(np.abs(want))

    @REGIMES
    def test_zeros_beyond_the_nodes_are_exact(self, ratio):
        basis, coeff_logs = series_case(ratio, 0.2, 5, 6.0)
        pts = basis.product.gamma.points
        beyond = pts[(np.abs(pts) > 6.0) & (np.abs(pts) < 8.0)]
        got = basis.series(coeff_logs, beyond)[0]
        assert beyond.size and np.all(got.real == -np.inf) and np.all(np.exp(got) == 0)
        assert_series_agree(basis, coeff_logs, np.concatenate([disk_grid(3.0, 0.5), beyond]))

    def test_far_nodes_underflow_alike(self):
        # at truncation radius 40 the exponents Re a_i = Re log(c_i / g'(z_i))
        # span more nats than exp can hold, so the one global shift drops
        # the far nodes, as the oracle's per-column shift does
        basis, coeff_logs = series_case(1.5, 0.2, 2, 40.0)
        a = (coeff_logs - basis.node_dlogs).real
        assert a.max() - a.min() > 745.0
        inner = basis.nodes[np.abs(basis.nodes) <= 2.0]
        assert_series_agree(basis, coeff_logs, np.concatenate([disk_grid(2.5, 0.25), inner]))

    @settings(max_examples=10, deadline=None)
    @given(
        ratio=st.sampled_from([0.5, 0.8, 0.9, 1.2, 1.5]),
        shift=st.floats(0.0, 0.2),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_log_domain_oracle(self, ratio, shift, seed):
        # within 0.4 of the truncation radius: further out the density-1.5
        # sum cancels terms far larger than its value, and both paths
        # lose digits to it (the new one fewer, see the next test)
        basis, coeff_logs = series_case(ratio, shift, seed, 10.0)
        inner = basis.nodes[np.abs(basis.nodes) <= 4.0]
        zs = np.concatenate([disk_grid(4.0, 0.3), inner[:4], inner[4:8] + 1e-12])
        assert_series_agree(basis, coeff_logs, zs)

    def test_reconstruction_error_no_larger_than_the_oracle(self):
        # the set, samples and grid of test_weighted_error_on_perturbed_set
        basis, coeff_logs = series_case(1.5, 0.2, 1, 10.0)
        samples = {complex(p): complex(v) for p, v in zip(basis.nodes, kernel_combo(basis.nodes))}
        grid = disk_grid(4.9, 0.1)
        grid = grid[np.abs(grid) < 4.9]
        weight = np.exp(-0.5 * ALPHA * np.abs(grid) ** 2)
        want = kernel_combo(grid)
        new = lagrange_reconstruct(basis.product.gamma, ALPHA, samples, grid, 10.0)
        old = np.exp(reference_series(basis, coeff_logs, grid))
        assert np.max(weight * np.abs(new - want)) <= np.max(weight * np.abs(old - want))
