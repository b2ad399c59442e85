"""Acceptance gate: the ten headline properties, one test each.

Each test prints a single summary line with the measured quantities
when it passes; pytest reports the pass/fail verdict per criterion.
Stated runtime budgets are asserted at the end of each test.

Two tests compare errors across truncation radii. Node identities hold
exactly in the log-domain evaluation, so those errors bottom out at
the floating-point floor (~1e-13 and below) instead of decaying
forever; the trend assertions therefore accept either a strict
decrease or values below an explicit floor, and the floors are part of
the stated tolerances here.
"""

import json
import math
import time

import numpy as np
import pytest

from fockspace import (
    FockFunction,
    InterpolationProblem,
    SquareLattice,
    build_interpolant,
    canonical_product,
    density_estimate,
    frame_bounds,
    growth_check,
    inner,
    kernel,
    lagrange_reconstruct,
    norm2,
    norm_decomposition_check,
    perturb,
    point_removal_experiment,
    quasi_period_constants,
    residual_check,
    scale_lattice_to_density,
    sigma_log,
    square_lattice,
    translate,
)
from fockspace.canonical import gfun_derivative_at_node, gfun_log
from fockspace.cli import main
from fockspace.errors import DensityOrderViolated
from fockspace.io import dumps_json, problem_doc

ALPHA = 1.0

# Exact node identities leave only exp/log roundtrip noise, so radius
# trends are compared against these floors once truncation error has
# dropped below them.
TREND_FLOOR = 1e-10
RESIDUAL_FLOOR = 1e-12


def report(number, label, detail):
    print(f"criterion {number:2d} PASS  {label}: {detail}")


def basis_value(n, z):
    return math.sqrt(ALPHA**n / math.factorial(n)) * complex(z) ** n


def test_criterion_01_reproducing_kernel_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    f = FockFunction.monomial(ALPHA, coeffs)
    worst_repro = 0.0
    for zeta in (0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 1.5j):
        k_zeta = FockFunction.kernel_combo(ALPHA, [zeta], [1.0])
        direct = sum(c * basis_value(n, zeta) for n, c in enumerate(coeffs))
        worst_repro = max(worst_repro, abs(inner(f, k_zeta) - direct))
    assert worst_repro <= 1e-10

    worst_ortho = 0.0
    for m in range(6):
        em = FockFunction.monomial(ALPHA, [0.0] * m + [1.0])
        for n in range(6):
            en = FockFunction.monomial(ALPHA, [0.0] * n + [1.0])
            worst_ortho = max(
                worst_ortho, abs(inner(em, en) - (1.0 if m == n else 0.0))
            )
    assert worst_ortho <= 1e-12

    worst_norm = 0.0
    for zeta in (0.5 + 0.5j, -1.0 + 2.0j):
        k_zeta = FockFunction.kernel_combo(ALPHA, [zeta], [1.0])
        want = kernel(ALPHA, zeta, zeta).real
        worst_norm = max(worst_norm, abs(norm2(k_zeta) ** 2 - want) / want)
    assert worst_norm <= 1e-10

    combo = FockFunction.kernel_combo(
        ALPHA, [0.0j, 0.8 - 0.3j, -1.1 + 0.6j], [1.0, -0.5j, 0.25]
    )
    worst_iso = 0.0
    base = norm2(combo)
    for a in (0.7 - 0.2j, -1.1 + 1.3j):
        worst_iso = max(worst_iso, abs(norm2(translate(combo, a)) - base) / base)
    assert worst_iso <= 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(
        1,
        "reproducing-kernel suite",
        f"repro {worst_repro:.1e}, ortho {worst_ortho:.1e}, "
        f"norm {worst_norm:.1e}, isometry {worst_iso:.1e}, {elapsed:.1f}s",
    )


def oracle_square_counts(points, side):
    """Exhaustive-translate min/max counts in half-open squares."""
    xs, ys = points.real, points.imag
    lo, hi = len(points), 0
    offsets = np.arange(0.0, 1.0, 0.05)
    for ax in offsets:
        inx = (xs >= ax) & (xs < ax + side)
        for ay in offsets:
            count = int(np.count_nonzero(inx & (ys >= ay) & (ys < ay + side)))
            lo, hi = min(lo, count), max(hi, count)
    return lo, hi


def test_criterion_02_density_estimator():
    t0 = time.perf_counter()
    spot = None
    for s in (1.0, math.sqrt(math.pi)):
        gamma = square_lattice(s, 60.0 * s)
        radii = [r * s for r in (2.5, 5.0, 10.0, 15.0, 20.0)]
        rep = density_estimate(gamma, radii)
        want = 1.0 / s**2
        assert abs(rep.d_minus_estimate - want) <= 0.03 * want
        assert abs(rep.d_plus_estimate - want) <= 0.03 * want
        if s == 1.0:
            inner_pts = gamma.points[
                (np.abs(gamma.points.real) <= 10) & (np.abs(gamma.points.imag) <= 10)
            ]
            lo, hi = oracle_square_counts(inner_pts, 2.5)
            assert (lo, hi) == (4, 9)
            assert rep.n_minus[0] == lo and rep.n_plus[0] == hi
            spot = (rep.n_minus[0], rep.n_plus[0])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        2,
        "density estimator",
        f"both lattices within 3%, n±(2.5) = {spot} matches oracle, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_sigma_canonical_product_suite():
    t0 = time.perf_counter()
    lat = SquareLattice(1.0)

    for m, n in ((0, 0), (3, -2), (-7, 5)):
        assert sigma_log(lat, lat.point(m, n)).log_mag == -math.inf

    gamma = square_lattice(1.0, 25.0)
    cp = canonical_product(gamma, lat, 25)
    d0 = gfun_derivative_at_node(cp, (0, 0)).to_complex()
    assert abs(d0 - 1.0) <= 1e-8

    eta1, eta2 = quasi_period_constants(lat)
    legendre = abs(eta1 * 1j - eta2 * 1.0 - 2j * math.pi)
    assert legendre <= 1e-10

    alpha_crit = math.pi
    worst_per = 0.0
    for z in (0.31 + 0.17j, -0.42 + 0.77j, 1.13 - 0.64j):
        base = sigma_log(lat, z)
        wm = math.exp(base.log_mag - alpha_crit * abs(z) ** 2 / 2.0)
        for p in (1.0, 1.0j, 1.0 + 1.0j):
            shifted = sigma_log(lat, z + p)
            wm2 = math.exp(shifted.log_mag - alpha_crit * abs(z + p) ** 2 / 2.0)
            worst_per = max(worst_per, abs(wm2 - wm))
    assert worst_per <= 1e-9

    worst_red = 0.0
    for z in (0.4 + 0.3j, -1.6 + 2.2j, 3.1 - 0.9j):
        g = gfun_log(cp, complex(z))
        sig = sigma_log(lat, complex(z))
        worst_red = max(
            worst_red,
            abs(g.log_mag - sig.log_mag),
            abs(g.phase - sig.phase),
        )
    assert worst_red <= 1e-10

    pert = perturb(square_lattice(1.0, 25.0), 0.2, seed=5)
    cpp = canonical_product(pert, lat, 25)
    idx = (2, -1)
    node = pert.points[
        np.flatnonzero((pert.indices[:, 0] == idx[0]) & (pert.indices[:, 1] == idx[1]))
    ][0]
    h = 1e-6
    fd = (gfun_log(cpp, node + h).to_complex() - gfun_log(cpp, node - h).to_complex()) / (
        2.0 * h
    )
    want = gfun_derivative_at_node(cpp, idx).to_complex()
    fd_rel = abs(fd - want) / abs(want)
    assert fd_rel <= 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        3,
        "sigma/canonical-product suite",
        f"sigma'(0) err {abs(d0 - 1.0):.1e}, legendre {legendre:.1e}, "
        f"periodicity {worst_per:.1e}, g-vs-sigma {worst_red:.1e}, "
        f"fin-diff {fd_rel:.1e}, {elapsed:.1f}s",
    )


def test_criterion_04_growth_bounds():
    t0 = time.perf_counter()
    s = 1.0
    alpha_crit = math.pi / s**2
    lat = SquareLattice(s)
    worst = 0
    for seed, shift in ((1, 0.25 * s), (2, 0.15 * s)):
        gamma = perturb(square_lattice(s, 16.0 * s), shift, seed=seed)
        M = int(math.ceil(2.0 * 8.0 * s / s)) + 20
        cp = canonical_product(gamma, lat, M)
        fit = growth_check(cp, alpha_crit, 8.0 * s, 0.25)
        assert fit.violations == 0
        worst = max(worst, fit.violations)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, "growth bounds", f"violations = {worst} on both lattices, {elapsed:.1f}s")


def test_criterion_05_frame_dichotomy_surrogate():
    t0 = time.perf_counter()
    a = {}
    for ratio in (0.8, 1.0, 1.2):
        gamma = scale_lattice_to_density(ALPHA, ratio, 14.0)
        for N in (16, 24):
            a[(ratio, N)] = frame_bounds(gamma, ALPHA, N).A
    assert a[(1.2, 16)] > 0 and a[(1.2, 24)] > 0
    stability = abs(a[(1.2, 24)] - a[(1.2, 16)]) / a[(1.2, 16)]
    assert stability <= 0.30
    decay = a[(0.8, 16)] / a[(0.8, 24)]
    assert decay >= 5.0
    assert a[(0.8, 16)] < a[(1.0, 16)] < a[(1.2, 16)]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        5,
        "frame dichotomy surrogate",
        f"A(1.2) drift {stability:.0%}, A(0.8) decay x{decay:.1f}, "
        f"ordering {a[(0.8, 16)]:.2e} < {a[(1.0, 16)]:.2e} < "
        f"{a[(1.2, 16)]:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_point_removal():
    t0 = time.perf_counter()
    gamma = scale_lattice_to_density(ALPHA, 1.5, 14.0)
    before, after = point_removal_experiment(gamma, ALPHA, 16, 0.0j)
    assert after.A > 0.0
    drop = before.A - after.A
    bound = math.exp(-ALPHA * abs(0.0j) ** 2) + 1e-9
    assert drop <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        6,
        "point removal",
        f"A {before.A:.4f} -> {after.A:.4f}, drop {drop:.2e} <= {bound:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_07_reconstruction():
    t0 = time.perf_counter()
    spacing = math.sqrt(math.pi / 1.5)
    gamma = square_lattice(spacing, 40.0)
    targets = {
        "1": lambda z: 1.0 + 0.0j,
        "e1": lambda z: basis_value(1, z),
        "e3": lambda z: basis_value(3, z),
    }
    xs = np.arange(-2.0, 2.0001, 0.25)
    grid = (xs[None, :] + 1j * xs[:, None]).ravel()
    grid = grid[np.abs(grid) <= 2.0]
    radii = (6.0, 8.0, 10.0, 12.0)
    final = {}
    for name, f in targets.items():
        samples = {complex(z): f(z) for z in gamma.points}
        errs = []
        for radius in radii:
            got = lagrange_reconstruct(gamma, ALPHA, samples, grid, radius)
            want = np.asarray([f(z) for z in grid])
            errs.append(float(np.max(np.abs(got - want))))
        assert errs[-1] <= 1e-4
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt < prev or nxt <= TREND_FLOOR
        final[name] = errs[-1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    report(
        7,
        "reconstruction",
        "sup errors at R=12: "
        + ", ".join(f"{k} {v:.1e}" for k, v in final.items())
        + f", decreasing to the {TREND_FLOOR:.0e} floor, {elapsed:.1f}s",
    )


def test_criterion_08_interpolation():
    t0 = time.perf_counter()
    spacing = math.sqrt(math.pi / 0.8)
    gamma = square_lattice(spacing, 20.0)
    rng = np.random.default_rng(7)
    n = len(gamma)
    values = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    data = {complex(z): complex(a) for z, a in zip(gamma.points, values)}
    problem = InterpolationProblem(
        gamma=gamma, alpha=ALPHA, lattice_spacing=spacing, data=data
    )

    ev10 = build_interpolant(problem, 10.0)
    r10 = residual_check(ev10)
    assert r10 <= 1e-3
    ev14 = build_interpolant(problem, 14.0)
    r14 = residual_check(ev14)
    assert r14 < r10 or max(r10, r14) <= RESIDUAL_FLOOR
    assert r10 <= 1e-12

    origin = complex(gamma.points[np.argmin(np.abs(gamma.points))])
    off_node = complex(
        gamma.points[np.argmin(np.abs(gamma.points - (2.0 + 2.0j)))]
    )
    indicator = {z: (1.0 + 0.0j if z == off_node else 0.0j) for z in data}
    ev_ind = ev10.with_data(indicator)
    node_err = max(
        abs(ev_ind.eval_weighted(off_node) - 1.0),
        abs(ev_ind.eval_weighted(origin)),
    )
    assert node_err <= 1e-12

    other = {z: complex(v.imag, -v.real) for z, v in data.items()}
    combined = {z: data[z] + other[z] for z in data}
    probes = np.array([0.37 + 0.21j, -1.4 + 0.9j, 2.2 - 1.7j])
    lin = np.max(
        np.abs(
            ev10.with_data(combined).eval_weighted(probes)
            - ev10.eval_weighted(probes)
            - ev10.with_data(other).eval_weighted(probes)
        )
    )
    assert lin <= 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        8,
        "interpolation",
        f"residuals R=10 {r10:.1e}, R=14 {r14:.1e} (floor "
        f"{RESIDUAL_FLOOR:.0e}), node identity {node_err:.1e}, "
        f"linearity {lin:.1e}, {elapsed:.1f}s",
    )


def test_criterion_09_norm_decomposition():
    t0 = time.perf_counter()
    k0 = FockFunction.kernel_combo(ALPHA, [0.0j], [1.0])
    gaps = [norm_decomposition_check(k0, K) for K in (0, 2, 4, 8)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(
        9,
        "norm decomposition",
        "gaps " + " > ".join(f"{g:.1e}" for g in gaps) + f", {elapsed:.1f}s",
    )


def test_criterion_10_critical_density_guard_rails(tmp_path, capsys):
    spacing = math.sqrt(math.pi / ALPHA)
    gamma = square_lattice(spacing, 8.0)
    data = {complex(z): 1.0 + 0.0j for z in gamma.points}

    with pytest.raises(DensityOrderViolated):
        build_interpolant(
            InterpolationProblem(
                gamma=gamma, alpha=ALPHA, lattice_spacing=spacing, data=data
            ),
            6.0,
        )
    with pytest.raises(DensityOrderViolated):
        lagrange_reconstruct(gamma, ALPHA, data, 0.1 + 0.1j, 6.0)

    doc = problem_doc(ALPHA, spacing, list(data), list(data.values()))
    problem_path = tmp_path / "critical.json"
    problem_path.write_text(dumps_json(doc) + "\n", encoding="utf-8")
    codes = []
    for command in ("interpolate", "reconstruct"):
        rc = main(
            [
                command,
                "--in",
                str(problem_path),
                "--truncation-radius",
                "6",
                "--grid=0,1,0,1,1",
                "--out",
                str(tmp_path / command),
            ]
        )
        codes.append(rc)
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DensityOrderViolated"
        assert not (tmp_path / command).exists()
    assert codes == [2, 2]
    report(
        10,
        "critical-density guard rails",
        "both entry points raise DensityOrderViolated, CLI exits 2",
    )
