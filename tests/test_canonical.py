"""Tests for the lattice sigma function and canonical products."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockspace import canonical
from fockspace.canonical import (
    _sigma_parts,
    _tiles,
    canonical_product,
    gfun_derivative_at_node,
    gfun_log,
    growth_check,
    quasi_period_constants,
    sigma_log,
)
from fockspace.errors import (
    NodeIndexMissing,
    NotUniformlyClose,
    PointNotInSet,
    ValidationError,
)
from fockspace.pointsets import PointSet, SquareLattice, perturb, scale_lattice_to_density, square_lattice
from fockspace.space import _disk_grid, reduce_phase


def sigma_oracle(z, s):
    """log sigma(z) from mpmath's theta_1 at 30 digits (DLMF 23.6)."""
    with mpmath.workdps(30):
        zc = mpmath.mpc(z.real, z.imag)
        q = mpmath.exp(-mpmath.pi)
        val = (
            (s / mpmath.pi)
            * mpmath.exp(mpmath.pi * zc**2 / (2 * s**2))
            * mpmath.jtheta(1, mpmath.pi * zc / s, q)
            / mpmath.jtheta(1, 0, q, 1)
        )
        return float(mpmath.log(abs(val))), float(mpmath.arg(val))


def brute_log_g(gamma, s, K, zs):
    """log g from its definition: mpmath sigma times a direct product.

    Over every index of the square max(|m|,|n|) <= K the set's own factor
    (its point if present, the lattice site if the index lies beyond the
    window's reach, none otherwise or at z00's index) is divided by the
    lattice factor, two logs apiece and no series.
    """
    pos = int(np.lexsort((np.angle(gamma.points), np.abs(gamma.points)))[0])
    z00 = complex(gamma.points[pos])
    own = {tuple(map(int, mn)): complex(p) for mn, p in zip(gamma.indices, gamma.points)}
    pts, lams, lat_only = [], [], []
    for m in range(-K, K + 1):
        for n in range(-K, K + 1):
            lam = s * complex(m, n)
            if lam == 0:
                continue
            p = own.get((m, n))
            if (m, n) == tuple(gamma.indices[pos]) or (
                p is None and abs(lam) <= gamma.window_radius - s / 2
            ):
                lat_only.append(lam)
            elif p is not None:
                pts.append(p)
                lams.append(lam)
    pts, lams, lat_only = map(np.array, (pts, lams, lat_only))
    out = []
    for z in zs:
        mag, ph = sigma_oracle(z, s)
        total = complex(mag, ph) + np.log(z - z00) - np.log(z)
        total += np.sum(np.log(1 - z / pts) + z / pts - np.log(1 - z / lams) - z / lams)
        total -= np.sum(np.log(1 - z / lat_only) + z / lat_only + z * z / (2 * lat_only**2))
        out.append(total)
    return np.array(out)


def _reference_ratios(cp):
    """The product's ratios in one shell-sorted list: roots, slopes, sites, shells."""
    s = cp.lattice.spacing
    bare = cp._sites.size - cp._roots.size
    roots = np.concatenate([cp._roots, np.ones(bare)])
    slopes = np.concatenate([np.ones(cp._roots.size), np.zeros(bare)])
    sites = cp._sites
    shells = np.maximum(np.abs(np.rint(sites.real / s)), np.abs(np.rint(sites.imag / s)))
    order = np.argsort(shells, kind="stable")
    return roots[order], slopes[order], sites[order], shells[order]


def reference_near_log(cp, zs, stop):
    """Unblocked near field: one log|.| and one arg per (point, ratio) cell.

    Log of sigma * (z - z00)/z * the first ``stop`` ratios, and zero
    flags. Vanishing roots and sites are found by comparing every cell,
    and a ratio is formed as ``(root - slope z)/(site - z) * site/root``.
    """
    roots, slopes, sites, _ = _reference_ratios(cp)
    site, w, total = _sigma_parts(cp.lattice.spacing, zs)
    divided = np.zeros(zs.shape, dtype=bool)
    zero = np.zeros(zs.shape, dtype=bool)
    if cp.z00 != 0:
        lead = zs - cp.z00
        divided |= site == 0
        zero |= lead == 0
        total = total + np.log(np.where(lead == 0, 1.0, lead)) - np.log(np.where(divided, 1.0, zs))
    if stop:
        roots, slopes, sites = roots[:stop], slopes[:stop], sites[:stop]
        num = roots - slopes * zs[:, None]
        den = sites - zs[:, None]
        at_root = num == 0
        at_site = sites == site[:, None]
        zero |= np.any(at_root, axis=1)
        divided |= np.any(at_site, axis=1)
        num[at_root] = -1.0
        den[at_site] = -1.0
        inv_site = 1.0 / sites
        ratio = num / den * (sites / roots)
        total = (
            total
            + np.sum(np.log(np.abs(ratio)), axis=1)
            + 1j * np.sum(np.angle(ratio), axis=1)
            + zs * np.sum(slopes / roots - inv_site)
            + (zs * zs) * np.sum((slopes - 1.0) * 0.5 * inv_site**2)
        )
    zero |= (w == 0) & ~divided
    return total + np.log(np.where(divided | (w == 0), 1.0, w)), zero


def reference_log_g(cp, zs):
    """log g with the unblocked near field and a far series summed per ratio."""
    zs = np.asarray(zs, dtype=complex).ravel()
    s = cp.lattice.spacing
    roots, slopes, sites, shells = _reference_ratios(cp)
    top = int(shells[-1]) if shells.size else 0
    js = np.arange(2, 61)
    cuts = np.minimum(top + 1, np.ceil(2.0 * np.abs(zs) / s + 0.5).astype(int).clip(min=1))
    out = np.empty(zs.shape, dtype=complex)
    for k in np.unique(cuts):
        sel = cuts == k
        stop = int(np.searchsorted(shells, k))
        near, zero = reference_near_log(cp, zs[sel], stop)
        # -sum_j z^j/j (root^-j - site^-j); a bare site's j = 2 term is
        # cancelled by its quadratic exponent
        coeff = -((slopes[stop:] / roots[stop:])[:, None] ** js - (1.0 / sites[stop:])[:, None] ** js) / js
        coeff[slopes[stop:] == 0, 0] = 0.0
        far = (zs[sel][:, None] ** js) @ np.sum(coeff, axis=0)
        out[sel] = np.where(zero, -np.inf, near + far)
    return out


def assert_logs_agree(got, want):
    """Same exact zeros; log-modulus and phase (mod 2 pi) to 1e-12 relative."""
    np.testing.assert_array_equal(np.isneginf(got.real), np.isneginf(want.real))
    live = np.isfinite(want.real)
    scale = np.maximum(1.0, np.abs(want[live]))
    assert np.all(np.abs(got[live].real - want[live].real) <= 1e-12 * scale)
    assert np.all(np.abs(reduce_phase(got[live].imag - want[live].imag)) <= 1e-12 * scale)


cells = st.integers(-4, 4)
offsets = st.one_of(st.floats(-0.5, 0.5), st.floats(-1e-7, 1e-7))


class TestSigmaOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        s=st.sampled_from([1.0, 0.75, 1.632]),
        k=cells,
        l=cells,
        x=offsets,
        y=offsets,
    )
    def test_matches_mpmath_theta(self, s, k, l, x, y):
        lat = SquareLattice(s)
        site = lat.point(k, l)
        assert sigma_log(lat, site) == complex(-math.inf, 0.0)
        z = complex(s * (k + x), s * (l + y))
        got = sigma_log(lat, z)
        if z == site:
            assert got.real == -math.inf
            return
        mag, ph = sigma_oracle(z, s)
        # near a zero, sigma's condition number is |z|/|z - site|: a site
        # s*(m+in) that is not a double (s = 1.632) is off by an ulp
        tol = 1e-12 + 1e-15 * abs(z) / abs(z - site)
        assert abs(got.real - mag) <= tol * max(1.0, abs(mag))
        assert abs(reduce_phase(got.imag - ph)) <= tol


HALF_PI = math.pi / 2


class TestThetaSeries:
    """theta(v)/v of the truncated series against mpmath's theta_1."""

    CORNERS = [complex(a, b) for a in (HALF_PI, -HALF_PI) for b in (HALF_PI, -HALF_PI)]
    # either side of the 1e-9 slope branch, and far below it
    TINY = [0.999e-9, 1.001e-9, 0.999e-9j, -1.001e-9j, complex(7e-10, 7e-10), 1e-12, 1e-12j, 1e-300, -1e-300j]

    @staticmethod
    def oracle(v):
        with mpmath.workdps(30):
            q = mpmath.exp(-mpmath.pi)
            vc = mpmath.mpc(v.real, v.imag)
            # theta_1 / (2 q^(1/4)); at |v| = 1e-300 the ratio is the slope
            return mpmath.jtheta(1, vc, q) / (2 * q ** mpmath.mpf(0.25)) / vc

    def _check(self, vs):
        got = canonical._theta_over_v(np.asarray(vs, dtype=complex))
        for v, g in zip(vs, got):
            want = self.oracle(complex(v))
            assert abs(mpmath.mpc(g.real, g.imag) - want) <= 2e-15 * abs(want), v

    def test_cell_corners_and_small_arguments(self):
        self._check(self.CORNERS + self.TINY)

    def test_fundamental_cell(self):
        rng = np.random.default_rng(5)
        vs = HALF_PI * (rng.uniform(-1, 1, 200) + 1j * rng.uniform(-1, 1, 200))
        edges = HALF_PI * np.array([1, -1, 1j, -1j, 0.5 + 1j, -1 - 0.25j])
        self._check(np.concatenate([vs, edges]))


class TestBruteForceProduct:
    def _check(self, gamma, s, M):
        cp = canonical_product(gamma, SquareLattice(s), M)
        rng = np.random.default_rng(17)
        zs = rng.uniform(-4.5, 4.5, 12) + 1j * rng.uniform(-4.5, 4.5, 12)
        got = gfun_log(cp, zs)
        want = brute_log_g(gamma, s, M, zs)
        scale = np.maximum(1.0, np.abs(want.real))
        assert np.all(np.abs(got.real - want.real) <= 1e-11 * scale)
        assert np.all(np.abs(reduce_phase(got.imag - want.imag)) <= 1e-11 * scale)

    def test_perturbed_set(self):
        self._check(perturb(square_lattice(1.0, 8.0), 0.3, seed=21), 1.0, 30)

    def test_removed_point(self):
        gam = perturb(square_lattice(0.8, 8.0), 0.2, seed=4)
        keep = ~((gam.indices[:, 0] == 2) & (gam.indices[:, 1] == -1))
        keep &= ~((gam.indices[:, 0] == 0) & (gam.indices[:, 1] == 0))
        trimmed = PointSet(gam.points[keep], gam.window_radius, indices=gam.indices[keep])
        self._check(trimmed, 0.8, 30)

    def test_translated_set(self):
        gam = perturb(square_lattice(1.3, 10.0), 0.25, seed=8)
        node = gam.points[40]
        shifted = PointSet(
            gam.points - node,
            gam.window_radius + abs(node),
            indices=gam.indices - gam.indices[40][None, :],
        )
        self._check(shifted, 1.3, 30)


class TestExactZeros:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shift=st.floats(0.0, 0.45))
    def test_zero_at_every_node(self, seed, shift):
        gam = perturb(square_lattice(1.0, 6.0), shift, seed=seed)
        cp = canonical_product(gam, SquareLattice(1.0), 12)
        assert np.all(gfun_log(cp, gam.points).real == -math.inf)


@pytest.mark.parametrize("kind", ["perturbed", "removed"])
def test_subnormal_offsets_keep_their_digits(kind):
    # roots a subnormal distance from their sites: at a site, or at the
    # origin next to a subnormal z00, a factor's modulus is subnormal and
    # would keep only a few digits through |.| or a block product
    cp = canonical_product(_oracle_set(kind, 1e-3, 2.2250738585e-313, 0), SquareLattice(1e-3))
    zs = np.concatenate([cp._sites, [0.0]])
    assert np.any(np.abs(cp._roots - cp._sites[: cp._roots.size]) < np.finfo(float).tiny)
    assert_logs_agree(gfun_log(cp, zs), reference_log_g(cp, zs))


def _oracle_set(kind, s, shift, seed):
    """A perturbed set, one with points removed, or a translate of one."""
    gam = perturb(square_lattice(s, 5.0 * s), shift * s, seed=seed)
    rng = np.random.default_rng(seed)
    if kind == "removed":
        keep = np.ones(len(gam), dtype=bool)
        keep[rng.choice(len(gam), 4, replace=False)] = False
        keep[np.flatnonzero((gam.indices == 0).all(axis=1))] = rng.random() < 0.5
        return PointSet(gam.points[keep], gam.window_radius, indices=gam.indices[keep])
    if kind == "translated":
        pos = int(rng.integers(len(gam)))
        node = gam.points[pos]
        return PointSet(
            gam.points - node,
            gam.window_radius + abs(node),
            indices=gam.indices - gam.indices[pos][None, :],
        )
    return gam


class TestBlockedKernelOracle:
    """The blocked near field against the unblocked per-ratio reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["perturbed", "removed", "translated"]),
        s=st.sampled_from([1e-3, 1.0, 1.98, 1e3]),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    def test_matches_per_ratio_reference(self, kind, s, seed, data):
        # a translate moves every point by the anchor's displacement too,
        # so its shifts stay below a quarter spacing
        top = 0.24 if kind == "translated" else 0.45
        shift = data.draw(st.one_of(st.just(0.0), st.floats(0.0, top)))
        gam = _oracle_set(kind, s, shift, seed)
        M = 16
        cp = canonical_product(gam, SquareLattice(s), M)
        # roots, ratio sites, the origin, bucket boundaries and open points
        pick = st.lists(st.integers(0, 10**6), min_size=6, max_size=6)
        roots = cp._roots[[i % cp._roots.size for i in data.draw(pick)]] if cp._roots.size else []
        sites = cp._sites
        sites = sites[[i % sites.size for i in data.draw(pick)]] if sites.size else []
        ks = np.array(data.draw(st.lists(st.integers(1, 2 * M), min_size=6, max_size=6)))
        turns = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6)))
        edges = (ks - 0.5) * s / 2.0 * np.exp(2j * math.pi * turns)
        rng = np.random.default_rng(seed)
        opens = s * (rng.uniform(-8, 8, 12) + 1j * rng.uniform(-8, 8, 12))
        zs = np.concatenate([roots, sites, [0.0], edges, opens]).astype(complex)
        zs = zs[np.abs(zs) < (M + 1) * s]
        assert_logs_agree(gfun_log(cp, zs), reference_log_g(cp, zs))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shift=st.floats(0.0, 0.45))
    def test_node_derivatives_match_reference(self, seed, shift):
        gam = perturb(square_lattice(1.0, 4.0), shift, seed=seed)
        cp = canonical_product(gam, SquareLattice(1.0), 10)
        got = np.array([gfun_derivative_at_node(cp, complex(p)) for p in gam.points])
        want = np.array([
            reference_near_log(cp, np.array([complex(p)]), cp._sites.size)[0][0]
            for p in gam.points
        ])
        assert_logs_agree(got, want)
        assert_logs_agree(gfun_derivative_at_node(cp, gam.points), want)


class TestTileExpansionOracle:
    """The tiles' far series against the per-ratio reference, on query
    sets dense enough that most tiles expand their far ratios."""

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["perturbed", "removed", "translated"]),
        s=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**31 - 1),
        step=st.sampled_from([0.1, 0.005]),
        data=st.data(),
    )
    def test_matches_per_ratio_reference(self, kind, s, seed, step, data):
        # a translate moves every point by the anchor's displacement too
        shift = data.draw(st.floats(0.0, 0.24 if kind == "translated" else 0.45))
        gam = _oracle_set(kind, s, shift, seed)
        cp = canonical_product(gam, SquareLattice(s), 16)
        sites = cp._sites
        specials = np.concatenate([cp._roots, sites, [0.0]]).astype(complex)
        # an 80 x 80 grid of the drawn step, about six tiles, around a
        # root, a ratio site or the origin, with the corners and edge
        # midpoints of its tiles' boxes; at step 0.005 a tile is narrower
        # than the distance from a root to its site
        anchor = specials[data.draw(st.integers(0, specials.size - 1))]
        axis = s * step * (np.arange(80) - 39.5)
        grid = (anchor + axis[None, :] + 1j * axis[:, None]).ravel()
        boxes, circles = [], []
        turns = np.exp(2j * math.pi * (np.arange(8) + data.draw(st.floats(0.0, 1.0))) / 8)
        for idx, centre, half in _tiles(grid):
            part = grid[idx]
            xs = [part.real.min(), centre.real, part.real.max()]
            ys = [part.imag.min(), centre.imag, part.imag.max()]
            boxes.append([complex(x, y) for x in xs for y in ys])
            circles.append(centre + (2.0 * half + s / 2.0) * turns)
        # the grid with its boxes, then the scattered points (roots,
        # sites, the origin and the tiles' near/far circles), which tile
        # on their own scale
        for zs in (np.concatenate([grid, [anchor], *boxes]), np.concatenate([specials, *circles])):
            zs = zs[np.abs(zs) < 16.5 * s]
            assert any(idx.size >= canonical._SERIES_ORDER for idx, _, _ in _tiles(zs))
            assert_logs_agree(gfun_log(cp, zs), reference_log_g(cp, zs))


@pytest.mark.parametrize("spacings", [100.0, 1000.0])
def test_far_field_matches_mpmath(spacings):
    # perturbed, with points removed and z00 off the origin; queries on
    # a circle far outside the window, where every ratio is near (the
    # points are too few for a tile series) and sigma's phase carries
    # an absolute error of about |z|^2/s^2 ulp
    s = 1.3
    gam = perturb(square_lattice(s, 6.0 * s), 0.2 * s, seed=2)
    keep = np.random.default_rng(2).random(len(gam)) >= 0.2
    keep[np.flatnonzero((gam.indices == 0).all(axis=1))] = False
    gam = PointSet(gam.points[keep], gam.window_radius, indices=gam.indices[keep])
    cp = canonical_product(gam, SquareLattice(s), 1)
    assert 0 < cp._roots.size < cp._sites.size
    zs = spacings * s * np.exp(2j * math.pi * (np.arange(5) + 0.37) / 5)
    K = max(int(np.max(np.abs(gam.indices))), math.floor(gam.window_radius / s))
    assert_logs_agree(gfun_log(cp, zs), brute_log_g(gam, s, K, zs))


def test_near_field_chunks_do_not_change_a_bit(monkeypatch):
    # displaced and bare ratios together: 30% of the points removed,
    # the origin kept
    gam = perturb(square_lattice(1.0, 12.0), 0.2, seed=5)
    keep = np.random.default_rng(5).random(len(gam)) >= 0.3
    keep[np.flatnonzero((gam.indices == 0).all(axis=1))] = True
    gam = PointSet(gam.points[keep], gam.window_radius, indices=gam.indices[keep])
    cp = canonical_product(gam, SquareLattice(1.0), 30)
    assert 0 < cp._roots.size < cp._sites.size
    axis = 0.1 * np.arange(-70, 71)
    grid = (axis[None, :] + 1j * axis[:, None]).ravel()
    zs = np.concatenate([grid, gam.points])
    zs = zs[np.abs(zs) <= 7.0]
    whole = gfun_log(cp, zs)
    # exact zeros at the set's points, and nowhere else
    assert np.count_nonzero(np.isneginf(whole.real)) == np.count_nonzero(np.abs(gam.points) <= 7.0)
    monkeypatch.setattr(canonical, "_CHUNK_CELLS", 16)
    np.testing.assert_array_equal(gfun_log(cp, zs), whole)


def allocating_near_log(cp, zs, ratios):
    """The near-field kernel as it was before it wrote into a workspace:
    fresh factor, numerator and halving arrays for every call. The
    per-point start and end, which use no workspace, are the kernel's own."""
    site, w, total, divided, zero = canonical._point_logs(cp, zs)
    if ratios.size:
        width = -(-ratios.size // canonical._BLOCK) * canonical._BLOCK
        fac = np.empty((zs.size, width), dtype=complex)
        fac[:, ratios.size :] = 1.0
        den = fac[:, : ratios.size]
        np.subtract(cp._sites[ratios], zs[:, None], out=den)
        rows, cols = canonical._match(cp._sites[ratios], site)
        den[rows, cols] = -1.0
        divided[rows] = True
        k = int(np.searchsorted(ratios, cp._roots.size))
        num = cp._roots[ratios[:k]] - zs[:, None]
        rows, cols = canonical._match(cp._roots[ratios[:k]], zs)
        num[rows, cols] = -1.0
        zero[rows] = True
        np.divide(num, den[:, :k], out=den[:, :k])
        np.divide(cp._sites[ratios[k:]], den[:, k:], out=den[:, k:])
        x, width = fac, canonical._BLOCK
        while width > 1:
            x = x[:, 0::2] * x[:, 1::2]
            width //= 2
        total = total + (np.sum(np.log(np.abs(x)), axis=1) + 1j * np.sum(np.angle(x), axis=1))
    return canonical._closing_logs(cp, zs, w, total, divided, zero)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def allocating_gfun(monkeypatch, cp, zs):
    """``gfun_log`` with the allocating near-field kernel."""
    with monkeypatch.context() as patch:
        patch.setattr(
            canonical, "_near_log", lambda cp, zs, ratios, work: allocating_near_log(cp, zs, ratios)
        )
        return gfun_log(cp, zs)


class TestWorkspaceKernelOracle:
    """The near field written into one workspace per call against the
    allocating kernel: bit for bit, since numpy's complex rounding
    depends on the layout of an output array."""

    @staticmethod
    def _case(kind, s):
        gam = _oracle_set(kind, s, 0.24 if kind == "translated" else 0.4, 11)
        cp = canonical_product(gam, SquareLattice(s))
        rng = np.random.default_rng(11)
        opens = s * (rng.uniform(-6, 6, 40) + 1j * rng.uniform(-6, 6, 40))
        zs = np.concatenate([cp._roots, cp._sites, gam.points, [0.0], opens]).astype(complex)
        return cp, zs, rng

    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kind", ["perturbed", "removed", "translated"])
    def test_kernel_matches_allocating_kernel(self, kind, s):
        cp, zs, rng = self._case(kind, s)
        every = np.arange(cp._sites.size)
        some = np.flatnonzero(rng.random(every.size) < 0.4)
        for ratios in (every, some, every[:0]):
            work = np.full(canonical._work_cells(zs.size, ratios.size), complex(np.nan, np.nan))
            near, zero = canonical._near_log(cp, zs, ratios, work)
            want_near, want_zero = allocating_near_log(cp, zs, ratios)
            assert_same_bits(near, want_near)
            assert np.array_equal(zero, want_zero)

    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("kind", ["perturbed", "removed", "translated"])
    def test_tiled_product_matches_allocating_kernel(self, monkeypatch, kind, s):
        cp, zs, _ = self._case(kind, s)
        axis = 0.07 * s * np.arange(-60, 61)
        grid = (axis[None, :] + 1j * axis[:, None]).ravel()
        zs = np.concatenate([grid, zs])
        assert any(idx.size >= canonical._SERIES_ORDER for idx, _, _ in _tiles(zs))
        assert_same_bits(gfun_log(cp, zs), allocating_gfun(monkeypatch, cp, zs))
        want = allocating_near_log(cp, cp.gamma.points, np.arange(cp._sites.size))[0]
        want = want.real + 1j * reduce_phase(want.imag)
        assert_same_bits(gfun_derivative_at_node(cp, cp.gamma.points), want)

    def test_widths_that_shrink_then_grow(self, monkeypatch):
        # one workspace for a run of kernel calls whose near widths and
        # row counts shrink and then grow: a stale padding column or a
        # leftover row of an earlier call would change a bit
        cp, zs, rng = self._case("removed", 1.0)
        every = np.arange(cp._sites.size)
        widths = [every.size, 40, 17, 16, 1, 3, 33, every.size]
        rows = [zs.size, 90, 7, 60, 1, 30, zs.size, 5]
        runs = [
            (zs[:r], np.sort(rng.choice(every, w, replace=False))) for r, w in zip(rows, widths)
        ]
        cells = max(canonical._work_cells(q.size, ratios.size) for q, ratios in runs)
        work = np.full(cells, complex(np.nan, np.nan))
        for q, ratios in runs:
            near, zero = canonical._near_log(cp, q, ratios, work)
            want_near, want_zero = allocating_near_log(cp, q, ratios)
            assert_same_bits(near, want_near)
            assert np.array_equal(zero, want_zero)
        # and a run of tiled calls: a dense grid (narrow near fields), a
        # sparse one (every ratio near), then the dense one again, in
        # chunks of a few rows so that a tile's last chunk is short
        monkeypatch.setattr(canonical, "_CHUNK_CELLS", 1000)
        dense = (0.03 * np.arange(-30, 31)[None, :] + 0.03j * np.arange(-30, 31)[:, None]).ravel()
        for q in (dense, dense[::7] * 8.0, zs, dense + 0.5):
            assert_same_bits(gfun_log(cp, q), allocating_gfun(monkeypatch, cp, q))

    def test_interleaved_products_keep_no_state(self):
        # two products evaluated in turn equal each evaluated alone
        a, za, _ = self._case("removed", 1.0)
        b, zb, _ = self._case("translated", 1e3)
        alone = [gfun_log(a, za), gfun_derivative_at_node(a, a.gamma.points)]
        alone_b = [gfun_log(b, zb), gfun_derivative_at_node(b, b.gamma.points)]
        for _ in range(2):
            assert_same_bits(gfun_log(a, za), alone[0])
            assert_same_bits(gfun_log(b, zb), alone_b[0])
            assert_same_bits(gfun_derivative_at_node(a, a.gamma.points), alone[1])
            assert_same_bits(gfun_derivative_at_node(b, b.gamma.points), alone_b[1])


def window_forty_nodes():
    """A perturbed density-1.5 set of window 40 (2 392 displaced points) and
    its 1 940 points within 36, which fall into several tiles, most of them
    with a far series."""
    s = math.sqrt(math.pi / 1.5)
    gam = perturb(scale_lattice_to_density(1.0, 1.5, 40.0), 0.2 * s, seed=3)
    cp = canonical_product(gam, SquareLattice(s))
    nodes = gam.points[np.abs(gam.points) <= 36.0]
    far = [
        np.any(np.abs(cp._sites - centre) >= 2.0 * half + s / 2.0)
        for idx, centre, half in _tiles(nodes)
        if idx.size >= canonical._SERIES_ORDER
    ]
    assert nodes.size == 1940 and sum(far) >= 2
    return cp, nodes


class TestTiledNodeDerivatives:
    """Node derivatives from the tiled pass on a node set of several tiles."""

    def test_matches_per_ratio_reference(self):
        cp, nodes = window_forty_nodes()
        want = np.concatenate(
            [reference_near_log(cp, part, cp._sites.size)[0] for part in np.array_split(nodes, 20)]
        )
        assert_logs_agree(gfun_derivative_at_node(cp, nodes), want)

    def test_matches_allocating_kernel_through_the_tiles(self, monkeypatch):
        cp, nodes = window_forty_nodes()
        with monkeypatch.context() as patch:
            patch.setattr(
                canonical, "_near_log", lambda cp, zs, ratios, work: allocating_near_log(cp, zs, ratios)
            )
            want = gfun_derivative_at_node(cp, nodes)
        assert_same_bits(gfun_derivative_at_node(cp, nodes), want)

    def test_chunks_do_not_change_a_bit(self, monkeypatch):
        cp, nodes = window_forty_nodes()
        whole = gfun_derivative_at_node(cp, nodes)
        monkeypatch.setattr(canonical, "_CHUNK_CELLS", 5000)
        assert_same_bits(gfun_derivative_at_node(cp, nodes), whole)


def mp(z):
    return mpmath.mpc(complex(z).real, complex(z).imag)


class TestNearUnitLogSums:
    """The constants that sum about 1 250 logs of ratios near 1, against
    mpmath at 40 digits from the doubles lambda, p and the tile centre c,
    on the growth-check sets of the benchmark's two seeds."""

    @staticmethod
    def _product(seed):
        return canonical_product(perturb(square_lattice(1.0, 20.0), 0.2, seed=seed), SquareLattice(1.0))

    @pytest.mark.parametrize("seed", [958438296, 1563192034])
    def test_product_constant(self, seed):
        cp = self._product(seed)
        with mpmath.workdps(40):
            want = mpmath.fsum(mpmath.log(mp(lam) / mp(p)) for lam, p in zip(cp._sites, cp._roots))
            assert cp._roots.size > 1000
            assert abs(mp(cp._poly[0]) - want) <= 4e-16

    @pytest.mark.parametrize("seed", [958438296, 1563192034])
    def test_far_series_constants(self, seed):
        cp = self._product(seed)
        k = cp._roots.size
        checked = 0
        for idx, centre, half in _tiles(_disk_grid(12.0, 0.15)):
            far = np.flatnonzero(np.abs(cp._sites - centre) >= 2.0 * half + 0.5)
            if idx.size < canonical._SERIES_ORDER or not far.size:
                continue
            const = canonical._far_series(cp, centre, far)[-1]
            with mpmath.workdps(40):
                c = mp(centre)
                want = mpmath.fsum(
                    mpmath.log((mp(cp._roots[j]) - c) / (mp(cp._sites[j]) - c)) if j < k
                    else mpmath.log(mp(cp._sites[j]) / (mp(cp._sites[j]) - c))
                    for j in far
                )
                assert abs(mp(const) - want) <= 4e-16
            checked += 1
        assert checked >= 10


class TestSigma:
    @pytest.mark.parametrize(
        "bad", [complex(v, 0.0) for v in (math.nan, math.inf, -math.inf)]
        + [complex(0.0, v) for v in (math.nan, math.inf, -math.inf)],
    )
    def test_rejects_non_finite_points(self, bad):
        # the theta series would otherwise warn and return a nan log_mag
        with pytest.raises(ValidationError, match="^z must be finite"):
            sigma_log(SquareLattice(1.0), bad)
        with pytest.raises(ValidationError, match="^z must be finite"):
            sigma_log(SquareLattice(1.0), np.array([0.5, bad]))

    def test_exact_zero_on_lattice(self):
        lat = SquareLattice(1.0)
        sites = np.array([lat.point(m, n) for m, n in [(0, 0), (3, 2), (-5, 1), (7, -7)]])
        vals = sigma_log(lat, sites)
        assert np.all(vals.real == -math.inf) and np.all(vals.imag == 0.0)
        lat7 = SquareLattice(0.7)
        assert sigma_log(lat7, lat7.point(-2, 4)) == complex(-math.inf, 0.0)

    def test_behaves_like_z_near_origin(self):
        lat = SquareLattice(1.0)
        h = 1e-6
        val = cmath.exp(sigma_log(lat, h))
        assert abs(val / h - 1.0) < 1e-10

    def test_odd_function(self):
        lat = SquareLattice(1.0)
        zs = np.array([0.3 + 0.4j, -0.45 + 0.1j, 1.7 - 2.2j])
        a = sigma_log(lat, zs)
        b = sigma_log(lat, -zs)
        assert np.all(np.abs(a.real - b.real) < 1e-11)
        dphase = np.abs(reduce_phase(a.imag - b.imag))
        assert np.all(np.abs(dphase - math.pi) < 1e-11)

    def test_scale_covariance(self):
        # sigma(t z) on the lattice scaled by t equals t sigma(z)
        lat1 = SquareLattice(1.0)
        lat7 = SquareLattice(0.7)
        zs = np.array([0.31 + 0.12j, -0.8 + 1.4j, 2.1 - 0.9j])
        a = sigma_log(lat7, 0.7 * zs)
        b = sigma_log(lat1, zs)
        assert np.all(np.abs(a.real - (b.real + math.log(0.7))) < 1e-11)
        assert np.all(np.abs(reduce_phase(a.imag - b.imag)) < 1e-11)

    def test_quasi_period_law(self):
        lat = SquareLattice(1.0)
        eta1, eta2 = quasi_period_constants(lat)
        zs = np.array([0.31 - 0.27j, -0.14 + 0.33j])
        for period, eta in ((1.0, eta1), (1j, eta2)):
            a = sigma_log(lat, zs + period)
            b = sigma_log(lat, zs)
            shift = eta * (zs + period / 2.0)
            dmag = a.real - b.real - shift.real
            dphase = reduce_phase(a.imag - b.imag - math.pi - shift.imag)
            assert np.all(np.abs(dmag) < 1e-11)
            assert np.all(np.abs(dphase) < 1e-11)

    def test_weighted_modulus_doubly_periodic_at_critical_density(self):
        lat = SquareLattice(1.0)
        alpha = math.pi
        rng = np.random.default_rng(11)
        zs = rng.uniform(-0.5, 0.5, 15) + 1j * rng.uniform(-0.5, 0.5, 15)
        base = sigma_log(lat, zs).real - alpha * np.abs(zs) ** 2 / 2
        for p in (1.0, 1j, 1 + 1j, 3 - 2j):
            trans = sigma_log(lat, zs + p).real - alpha * np.abs(zs + p) ** 2 / 2
            assert np.all(np.abs(trans - base) < 1e-9)

    def test_deterministic(self):
        lat = SquareLattice(1.0)
        assert sigma_log(lat, 0.37 + 0.21j) == sigma_log(lat, 0.37 + 0.21j)

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.sampled_from([1.0, 0.75, 1.632, 1.0471975511965976, 1e-150, 1e150]),
        picks=st.lists(
            st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), offsets, offsets),
            min_size=1,
            max_size=12,
        ),
    )
    def test_batch_equals_points_alone(self, s, picks):
        # every point, and exact zeros (-inf, phase 0) at the lattice points
        lat = SquareLattice(s)
        sites = np.array([lat.point(m, n) for m, n, _, _ in picks])
        zs = np.concatenate([sites, [complex(s * (m + x), s * (n + y)) for m, n, x, y in picks]])
        batch = sigma_log(lat, zs)
        alone = np.array([sigma_log(lat, z) for z in zs])
        assert np.array_equal(batch.view(np.uint64), alone.view(np.uint64))
        zero = np.full(sites.size, complex(-math.inf, 0.0))
        assert np.array_equal(batch[: sites.size].view(np.uint64), zero.view(np.uint64))

    def test_point_past_the_cell_reduction_raises_without_warnings(self):
        # the reduction to the cell loses every digit here, and the theta
        # series overflows to a NaN log modulus
        lat = SquareLattice(1.0471975511965976)
        z = -8.75298654761914e17 - 4.835827384967164e17j
        for query in (z, np.array([0.5j, z])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match=r"^log_mag must be finite or -inf, got nan$"):
                    sigma_log(lat, query)


class TestQuasiPeriodConstants:
    def test_product_with_spacing_is_pi(self):
        for s in (1.0, 0.7, 1.632):
            eta1, _ = quasi_period_constants(SquareLattice(s))
            assert abs(eta1 * s - math.pi) < 1e-8

    def test_quarter_turn_and_legendre_relations(self):
        s = 1.0
        eta1, eta2 = quasi_period_constants(SquareLattice(s))
        assert abs(eta2 + 1j * eta1) < 1e-12
        assert abs(eta1 * (1j * s) - eta2 * s - 2j * math.pi) < 1e-12

    def test_cached_and_deterministic(self):
        a = quasi_period_constants(SquareLattice(0.9))
        b = quasi_period_constants(SquareLattice(0.9))
        assert a == b


class TestCanonicalProductBuild:
    def test_fields_for_unperturbed_lattice(self):
        lat = SquareLattice(1.0)
        gam = square_lattice(1.0, 8.0)
        cp = canonical_product(gam, lat, 25)
        assert cp.z00 == 0.0
        assert cp.z00_index == (0, 0)
        assert cp.closeness_Q == 0.0
        assert cp._sites.size == 0  # the set differs from the lattice nowhere

    def test_fields_for_perturbed_lattice(self):
        lat = SquareLattice(1.0)
        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=5)
        cp = canonical_product(gam, lat, 30)
        assert 0.0 < cp.closeness_Q <= 0.2
        assert abs(cp.z00) <= 0.2

    def test_z00_tie_breaks_by_phase(self):
        # remove the origin: four points tie at distance s, the one
        # with the smallest canonical phase (-pi/2) wins
        gam = square_lattice(1.0, 8.0)
        mask = ~((gam.indices[:, 0] == 0) & (gam.indices[:, 1] == 0))
        trimmed = PointSet(gam.points[mask], 8.0, indices=gam.indices[mask])
        cp = canonical_product(trimmed, SquareLattice(1.0), 25)
        assert cp.z00 == -1j
        assert cp.z00_index == (0, -1)

    def test_requires_indices(self):
        pts = PointSet(np.array([0.0 + 0j, 1.0 + 0j]), 2.0)
        with pytest.raises(NodeIndexMissing):
            canonical_product(pts, SquareLattice(1.0), 10)

    def test_rejects_straying_points(self):
        gam = square_lattice(1.0, 6.0)
        pts = gam.points.copy()
        pts[5] += 0.6
        bad = PointSet(pts, 7.0, indices=gam.indices)
        with pytest.raises(NotUniformlyClose) as info:
            canonical_product(bad, SquareLattice(1.0), 20)
        assert set(info.value.fields) == {"closeness", "spacing"}
        assert info.value.closeness == abs(pts[5] - gam.points[5])
        assert info.value.closeness == pytest.approx(0.6, abs=1e-15)
        assert info.value.spacing == 1.0

    def test_validates_truncation_index(self):
        gam = square_lattice(1.0, 4.0)
        with pytest.raises(ValidationError):
            canonical_product(gam, SquareLattice(1.0), 0)


class TestGfun:
    def test_matches_sigma_on_unperturbed_lattice(self):
        lat = SquareLattice(1.0)
        cp = canonical_product(square_lattice(1.0, 8.0), lat, 25)
        zs = np.array([0.3 + 0.4j, -1.2 + 0.7j, 1.9j, 0.5, 1.4 - 1.3j])
        a = gfun_log(cp, zs)
        b = sigma_log(lat, zs)
        assert np.all(np.abs(a.real - b.real) < 1e-10)
        assert np.all(np.abs(reduce_phase(a.imag - b.imag)) < 1e-10)

    def test_exact_zero_at_every_point(self):
        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=2)
        cp = canonical_product(gam, SquareLattice(1.0), 30)
        for z in gam.points[::17]:
            assert gfun_log(cp, complex(z)) == complex(-math.inf, 0.0)

    def test_exact_zero_at_completing_lattice_sites(self):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        assert gfun_log(cp, 9.0 + 0j) == complex(-math.inf, 0.0)

    def test_leading_factor_near_origin(self):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        z = 1e-6
        assert abs(cmath.exp(gfun_log(cp, z)) / z - 1.0) < 1e-9

    def test_single_perturbation_factor_swap(self):
        # moving one point p away from its site lam multiplies sigma by
        # (1 - z/p) exp(z/p) / ((1 - z/lam) exp(z/lam)); the quadratic
        # exponent keeps the lattice site and cancels exactly
        lat = SquareLattice(1.0)
        gam = square_lattice(1.0, 8.0)
        pts = gam.points.copy()
        pos = int(np.flatnonzero((gam.indices[:, 0] == 1) & (gam.indices[:, 1] == 0))[0])
        lam = complex(pts[pos])
        p = lam + 0.2 - 0.1j
        pts[pos] = p
        cp = canonical_product(PointSet(pts, 8.0, indices=gam.indices), lat, 25)
        zs = np.array([0.4 + 0.3j, -1.1 + 0.8j, 1.6 - 0.5j])
        want = (
            np.exp(sigma_log(lat, zs))
            * (1 - zs / p)
            * np.exp(zs / p)
            / ((1 - zs / lam) * np.exp(zs / lam))
        )
        got = np.exp(gfun_log(cp, zs))
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    def test_removed_point_leaves_no_zero(self):
        gam = square_lattice(1.0, 8.0)
        mask = ~((gam.indices[:, 0] == 0) & (gam.indices[:, 1] == 0))
        trimmed = PointSet(gam.points[mask], 8.0, indices=gam.indices[mask])
        cp = canonical_product(trimmed, SquareLattice(1.0), 25)
        val = cmath.exp(gfun_log(cp, 0.0))
        assert abs(val - (-cp.z00)) < 1e-12

    def test_third_argument_changes_no_bit(self):
        # removed points too, so the bare-site scan is compared as well
        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=3)
        keep = np.random.default_rng(3).random(len(gam)) >= 0.2
        gam = PointSet(gam.points[keep], gam.window_radius, indices=gam.indices[keep])
        want = canonical_product(gam, SquareLattice(1.0))
        assert 0 < want._roots.size < want._sites.size
        for third in (1, 3, 30, 1000):
            cp = canonical_product(gam, SquareLattice(1.0), third)
            for name in ("_sites", "_roots", "_poly"):
                assert np.asarray(getattr(cp, name)).tobytes() == np.asarray(getattr(want, name)).tobytes()

    def test_every_point_is_a_zero_with_a_small_third_argument(self):
        # the shell-4 points within 4 spacings of the origin; a product
        # cut at shell 3 would be finite there (log|g| about 20 to 23)
        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=0)
        shells = np.max(np.abs(gam.indices), axis=1)
        picked = gam.points[(shells == 4) & (np.abs(gam.points) < 4.0)]
        assert picked.size == 4
        cp = canonical_product(gam, SquareLattice(1.0), 3)
        for p in picked:
            assert gfun_log(cp, complex(p)).real == -math.inf
        assert np.all(np.isneginf(gfun_log(cp, gam.points).real))

    def test_finite_at_large_radius(self):
        # 40 spacings out, five times the window: off the lattice g is
        # finite and matches the oracle, on it g is an exact zero
        gam = square_lattice(1.0, 8.0)
        cp = canonical_product(gam, SquareLattice(1.0), 25)
        z = 40.0 * np.exp(0.3j)
        got = gfun_log(cp, z)
        assert math.isfinite(got.real)
        assert_logs_agree(np.array([got]), brute_log_g(gam, 1.0, 8, [z]))
        assert gfun_log(cp, 40.0 + 0j) == complex(-math.inf, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_rejects_non_finite_queries(self, bad):
        # a NaN query would otherwise come back as a zero
        cp = canonical_product(perturb(square_lattice(1.0, 6.0), 0.2, seed=4), SquareLattice(1.0), 12)
        with pytest.raises(ValidationError):
            gfun_log(cp, bad)
        with pytest.raises(ValidationError):
            gfun_log(cp, np.array([0.5 + 0.5j, bad]))


class TestNodeDerivative:
    def test_unit_derivative_at_unperturbed_origin(self):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        d = cmath.exp(gfun_derivative_at_node(cp, 0j))
        assert abs(d - 1.0) < 1e-12

    def test_four_fold_symmetry(self):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        mags = gfun_derivative_at_node(cp, np.array([1, 1j, -1, -1j])).real
        assert max(mags) - min(mags) < 1e-11

    def test_finite_differences_converge(self):
        lat = SquareLattice(1.0)
        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=3)
        cp = canonical_product(gam, lat, 30)
        near = np.flatnonzero(np.abs(gam.points) <= 4.0)
        for pos in near[[0, 7, 19]]:
            zq = complex(gam.points[pos])
            want = cmath.exp(gfun_derivative_at_node(cp, zq))
            errs = []
            for h in (1e-5, 5e-6, 2.5e-6):
                fd = (
                    cmath.exp(gfun_log(cp, zq + h))
                    - cmath.exp(gfun_log(cp, zq - h))
                ) / (2 * h)
                errs.append(abs(fd - want) / abs(want))
            assert all(e < 1e-6 for e in errs)
            assert errs[2] < errs[0]

    def test_derivative_at_perturbed_closest_point(self):
        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=9)
        cp = canonical_product(gam, SquareLattice(1.0), 30)
        zq = cp.z00
        want = cmath.exp(gfun_derivative_at_node(cp, zq))
        h = 1e-5
        fd = (
            cmath.exp(gfun_log(cp, zq + h)) - cmath.exp(gfun_log(cp, zq - h))
        ) / (2 * h)
        assert abs(fd - want) <= 1e-6 * abs(want)

    def test_unknown_index_raises(self):
        # a point off the zero set; a lattice site past the window, such
        # as 30 - 31i, is a zero of g and has a derivative
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        for nodes in (0.5 + 0.25j, np.array([0j, 1.0, 0.5 + 0.25j, 2.5])):
            with pytest.raises(PointNotInSet) as info:
                gfun_derivative_at_node(cp, nodes)
            assert info.value.fields == {"point": [0.5, 0.25]}
        assert math.isfinite(gfun_derivative_at_node(cp, 30 - 31j).real)


class TestGrowthCheck:
    def test_unperturbed_critical_pairing_is_flat(self):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        fit = growth_check(cp, math.pi, 4.5, 0.25)
        assert fit.violations == 0
        assert fit.c <= 1e-8
        assert fit.C1 > 0 and fit.C2 > 0
        assert fit.grid_radius == 4.5

    def test_flat_fit_constants_within_one_cell_ratio(self):
        lat = SquareLattice(1.0)
        cp = canonical_product(square_lattice(1.0, 8.0), lat, 25)
        fit = growth_check(cp, math.pi, 4.5, 0.25)
        xs = np.linspace(-0.5, 0.5, 41)
        cell = (xs[None, :] + 1j * xs[:, None]).ravel()
        logw = sigma_log(lat, cell).real - math.pi * np.abs(cell) ** 2 / 2
        neighbors = [0, 1, 1j, -1, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]
        dist = np.min(np.abs(cell[:, None] - np.array(neighbors)[None, :]), axis=1)
        inside = dist > 0
        ratio = np.exp(np.max(logw)) / np.exp(
            np.min(logw[inside] - np.log(dist[inside]))
        )
        assert fit.C2 / fit.C1 <= ratio * (1 + 1e-9)

    @pytest.mark.parametrize("alpha", [0.0, math.nan, math.inf])
    def test_rejects_bad_alpha(self, alpha):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        with pytest.raises(ValidationError):
            growth_check(cp, alpha, 4.5, 0.25)

    def test_perturbed_set_fits_without_violations(self):
        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=3)
        cp = canonical_product(gam, SquareLattice(1.0), 30)
        fit = growth_check(cp, math.pi, 4.5, 0.25)
        assert fit.violations == 0
        assert np.isfinite(fit.c) and fit.c >= 0

    def test_tiled_fit_matches_the_reference_fit(self, monkeypatch):
        # 3 845 grid points in four tiles of about 10^3, so every point
        # takes its far ratios from a tile's series
        gam = perturb(square_lattice(1.0, 12.0), 0.2, seed=6)
        cp = canonical_product(gam, SquareLattice(1.0), 34)
        fit = growth_check(cp, math.pi, 7.0, 0.2)
        sizes = []

        def reference(cp, zs):
            sizes.append(zs.size)
            return reference_log_g(cp, zs)

        # the name growth_check calls
        monkeypatch.setattr(canonical, "gfun_log", reference)
        want = growth_check(cp, math.pi, 7.0, 0.2)
        assert sizes == [3845]
        assert fit.violations == want.violations == 0
        for got, ref in ((fit.c, want.c), (fit.C1, want.C1), (fit.C2, want.C2)):
            assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_reported_constants_hold_at_grid_points(self):
        gam = perturb(square_lattice(1.0, 8.0), 0.2, seed=3)
        cp = canonical_product(gam, SquareLattice(1.0), 30)
        fit = growth_check(cp, math.pi, 4.0, 0.3)
        axis = 0.3 * np.arange(-13, 14)
        rng = np.random.default_rng(4)
        picks = rng.integers(0, axis.size, size=(80, 2))
        zs = axis[picks[:, 0]] + 1j * axis[picks[:, 1]]
        zs = zs[np.abs(zs) <= 4.0]
        from fockspace.pointsets import nearest_distance

        dist = nearest_distance(gam, zs)
        lws = gfun_log(cp, zs).real - math.pi * np.abs(zs) ** 2 / 2
        for z, d, lw in zip(zs, dist, lws):
            r = max(abs(z), 1.0)
            phi = r * math.log(r)
            assert lw <= math.log(fit.C2) + fit.c * phi + 1e-9
            if d > 0:
                assert lw >= math.log(fit.C1) + math.log(d) - fit.c * phi - 1e-9

    def test_deterministic(self):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        assert growth_check(cp, math.pi, 4.0, 0.3) == growth_check(
            cp, math.pi, 4.0, 0.3
        )

    def test_grid_on_the_zero_set_is_rejected(self):
        # the one grid point is the origin, a point of the set
        cp = canonical_product(square_lattice(1.0, 20.0), SquareLattice(1.0), 21)
        with pytest.raises(ValidationError):
            growth_check(cp, math.pi, 0.1, 0.15)

    def test_guards(self):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        with pytest.raises(ValidationError):
            growth_check(cp, math.pi, 7.0, 0.25)
        with pytest.raises(ValidationError):
            growth_check(cp, -1.0, 4.0, 0.25)
        with pytest.raises(ValidationError):
            growth_check(cp, math.pi, 4.0, 0.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -1.0, 1e-300])
    def test_rejects_bad_grid_step(self, step):
        cp = canonical_product(square_lattice(1.0, 8.0), SquareLattice(1.0), 25)
        with pytest.raises(ValidationError, match="grid_step"):
            growth_check(cp, 1.0, 3.0, step)
