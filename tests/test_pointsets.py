"""Tests for point-set generation, separation, closeness, and densities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fockspace import errors, pointsets
from fockspace.pointsets import PointSet, SquareLattice


def brute_force_counts(gamma, r):
    """Exhaustive oracle for extremal square counts on small sets.

    Scans every candidate translate built from point coordinates plus a
    fine safety grid; intended for n <= a few hundred points.
    """
    w = gamma.window_radius
    xs = gamma.points.real
    ys = gamma.points.imag
    eps = 1e-9

    def axis_candidates(vals, lo, hi):
        c = np.concatenate([vals, vals - r, vals - r + eps, vals + eps, [lo, hi]])
        c = c[(c >= lo) & (c <= hi)]
        return np.unique(c)

    root = w * w - 0.25 * r * r
    if root < 0:
        raise errors.WindowTooSmall("square cannot fit")
    h = math.sqrt(root)
    txs = axis_candidates(xs, -h, h - r)
    best_min, best_max = None, None
    for tx in txs:
        edge = max(abs(tx), abs(tx + r))
        g2 = w * w - edge * edge
        if g2 < 0:
            continue
        g = math.sqrt(g2)
        if -g > g - r:
            continue
        for ty in axis_candidates(ys, -g, g - r):
            inside = (
                (xs >= tx) & (xs < tx + r) & (ys >= ty) & (ys < ty + r)
            ).sum()
            best_min = inside if best_min is None else min(best_min, inside)
            best_max = inside if best_max is None else max(best_max, inside)
    return int(best_min), int(best_max)


def _reference_y_interval(w, r, tx):
    """Feasible t_y interval for a fixed t_x, or None."""
    edge = max(abs(tx), abs(tx + r))
    root = w * w - edge * edge
    if root < 0.0:
        return None
    g = math.sqrt(root)
    lo, hi = -g, g - r
    if lo > hi:
        return None
    return lo, hi


def reference_counts(gamma, r, translate_step):
    """Per-translate scan that ``pointsets.counts`` must reproduce exactly.

    Visits every candidate t_x on its own: sorts its column and counts
    at every clipped y-event plus the two ends of its feasible t_y
    interval. Same candidates, tolerance rule and errors as ``counts``.
    """
    r = float(r)
    step = float(translate_step)
    if not (r > 0.0 and step > 0.0):
        raise errors.ValidationError("r and translate_step must be positive")
    w = gamma.window_radius
    tol = 16.0 * np.finfo(np.float64).eps * (1.0 + w + r)
    xspan = pointsets._feasible_x_interval(w, r)
    if xspan is None:
        raise errors.WindowTooSmall(
            f"no translate of a side-{r:g} square fits in the window disk "
            f"of radius {w:g}"
        )
    xlo, xhi = xspan
    xs = np.sort(gamma.points.real)
    ys_all = gamma.points.imag
    order = np.argsort(gamma.points.real, kind="stable")
    ys_by_x = ys_all[order]

    ux = np.unique(xs)
    uy = np.unique(ys_all)
    bx = np.concatenate([ux, ux - r])
    by = np.unique(np.concatenate([uy, uy - r]))

    cross = []
    for c in by:
        for target in (c, c + r):
            root = w * w - target * target
            if root < 0.0:
                continue
            rt = math.sqrt(root)
            for cand in (rt, -rt, -r + rt, -r - rt):
                cross.append(cand)
    grid = np.arange(xlo, xhi, step) if xhi > xlo else np.array([xlo])

    xcand = np.concatenate([bx, np.asarray(cross), grid, [xlo, xhi]])
    xcand = np.unique(np.clip(xcand, xlo, xhi))
    xcand = pointsets._with_midpoints(xcand)

    n_min = len(gamma) + 1
    n_max = -1
    for tx in xcand:
        span = _reference_y_interval(w, r, float(tx))
        if span is None:
            continue
        ylo, yhi = span
        i0 = np.searchsorted(xs, tx - tol, side="left")
        i1 = np.searchsorted(xs, tx + r - tol, side="left")
        col = np.sort(ys_by_x[i0:i1])
        ycand = np.unique(np.clip(by, ylo, yhi))
        ycand = np.unique(np.concatenate([ycand, [ylo, yhi]]))
        hits = np.searchsorted(col, ycand + r - tol, side="left") - np.searchsorted(
            col, ycand - tol, side="left"
        )
        lo = int(hits.min()) if len(hits) else 0
        hi = int(hits.max()) if len(hits) else 0
        n_min = min(n_min, lo)
        n_max = max(n_max, hi)
    if n_max < 0:
        raise errors.WindowTooSmall("feasible translate region is empty")
    return n_min, n_max



def column_scan_counts(gamma, r, translate_step):
    """The column scan ``pointsets.counts`` replaced, kept as its oracle.

    Same candidates as ``counts``; each run of t_x sharing one column of
    points sorts that column's y and counts at the y-events in the run's
    widest interval plus every translate's ends with ``searchsorted``.
    Fast enough for a few thousand points, where ``reference_counts`` is
    not.
    """
    r = float(r)
    w = gamma.window_radius
    tol = 16.0 * np.finfo(np.float64).eps * (1.0 + w + r)
    xspan = pointsets._feasible_x_interval(w, r)
    if xspan is None:
        raise errors.WindowTooSmall("no translate fits in the window disk")
    xlo, xhi = xspan
    order = np.argsort(gamma.points.real, kind="stable")
    xs, ys_by_x = gamma.points.real[order], gamma.points.imag[order]
    bx = np.concatenate([xs, xs - r])
    by = pointsets._sorted_unique(np.concatenate([ys_by_x, ys_by_x - r]))
    targets = np.concatenate([by, by + r])
    root = w * w - targets * targets
    rt = np.sqrt(root[root >= 0.0])
    cross = np.concatenate([rt, -rt, -r + rt, -r - rt])
    grid = np.arange(xlo, xhi, translate_step) if xhi > xlo else np.array([xlo])
    xcand = np.concatenate([bx, cross, grid, [xlo, xhi]])
    tx = pointsets._with_midpoints(pointsets._sorted_unique(np.clip(xcand, xlo, xhi)))
    edge = np.maximum(np.abs(tx), np.abs(tx + r))
    root = w * w - edge * edge
    ok = root >= 0.0
    tx, g = tx[ok], np.sqrt(root[ok])
    keep = -g <= g - r
    tx, g = tx[keep], g[keep]
    if tx.size == 0:
        raise errors.WindowTooSmall("feasible translate region is empty")
    ends = np.stack([-g, g - r], axis=1)
    i0 = np.searchsorted(xs, tx - tol, side="left")
    i1 = np.searchsorted(xs, tx + r - tol, side="left")
    starts = np.flatnonzero(np.diff(i0, prepend=-1) | np.diff(i1, prepend=-1))
    stops = np.append(starts[1:], tx.size)
    widest = np.maximum.reduceat(g, starts)
    ev_lo = np.searchsorted(by, -widest, side="left")
    ev_hi = np.searchsorted(by, widest - r, side="right")
    by_top, by_bot = by + r - tol, by - tol
    end_top, end_bot = ends + r - tol, ends - tol
    n_min, n_max = len(gamma), 0
    for t0, t1, e0, e1 in zip(starts, stops, ev_lo, ev_hi):
        col = np.sort(ys_by_x[i0[t0] : i1[t0]])
        at_events = np.searchsorted(col, by_top[e0:e1]) - np.searchsorted(col, by_bot[e0:e1])
        at_ends = np.searchsorted(col, end_top[t0:t1]) - np.searchsorted(col, end_bot[t0:t1])
        hits = np.concatenate([at_events, at_ends.ravel()])
        n_min = min(n_min, int(hits.min()))
        n_max = max(n_max, int(hits.max()))
    return n_min, n_max

@st.composite
def count_cases(draw):
    """A point set and square side for ``counts``, and a step for its oracles.

    Exact lattices at radii k*s put points on square edges; perturbed
    and interleaved lattices break the alignment. Windows are either
    drawn in spacings or set from 0.1% below to 5% above the square's
    half-diagonal r/sqrt(2), so the feasible region is empty, barely
    there or small.
    """
    s = draw(st.floats(0.4, 1.5))
    if draw(st.booleans()):
        r = draw(st.integers(1, 6)) * s
    else:
        r = draw(st.floats(0.5, 6.0)) * s
    if draw(st.booleans()):
        slack = draw(st.sampled_from([-1e-3, -1e-12, 0.0, 1e-12, 1e-9, 1e-3, 0.05]))
        w = r / math.sqrt(2.0) * (1.0 + slack)
    else:
        w = draw(st.floats(2.0, 8.0)) * s
    lattice = pointsets.square_lattice(s, w)
    kind = draw(st.sampled_from(["exact", "perturbed", "interleaved"]))
    if kind == "perturbed":
        shift = draw(st.floats(0.0, 0.45)) * s
        gamma = pointsets.perturb(lattice, shift, draw(st.integers(0, 2**16)))
    elif kind == "interleaved":
        moved = lattice.points + s * complex(
            draw(st.floats(0.1, 0.9)), draw(st.floats(0.1, 0.9))
        )
        keep = np.abs(moved) <= w
        gamma = PointSet(np.concatenate([lattice.points, moved[keep]]), w)
    else:
        gamma = lattice
    return gamma, r, draw(st.floats(0.1, 1.0))


# a few doubles, so that keys and values collide often: the signed zeros,
# a subnormal and a NaN among them
MATCH_PARTS = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, math.nan])
MATCH_LISTS = st.lists(st.builds(complex, MATCH_PARTS, MATCH_PARTS), max_size=12)


class TestMatch:
    @given(keys=MATCH_LISTS, values=MATCH_LISTS)
    @example(keys=[], values=[0j, -0.0 + 0j])
    @example(keys=[complex(-0.0, 0.0)], values=[0j, 0j, 1 + 0j, complex(0.0, -0.0)])
    def test_agrees_with_brute_force_equality(self, keys, values):
        distinct = []
        for k in keys:
            if not any(k == d for d in distinct):
                distinct.append(k)
        keys = np.array(distinct, dtype=complex)
        values = np.array(values, dtype=complex)
        want = [(j, i) for j, v in enumerate(values) for i, k in enumerate(keys) if k == v]
        rows, cols = pointsets._match(keys, values)
        assert list(zip(rows.tolist(), cols.tolist())) == want


class TestPointSet:
    def test_duplicates_rejected(self):
        with pytest.raises(errors.ValidationError):
            PointSet([1 + 1j, 1 + 1j], 5.0)

    def test_window_violation_rejected(self):
        with pytest.raises(errors.ValidationError):
            PointSet([3 + 4j], 4.0)

    def test_index_bijection_enforced(self):
        with pytest.raises(errors.ValidationError):
            PointSet([0, 1], 2.0, indices=[[0, 0], [0, 0]])

    def test_immutable(self):
        ps = PointSet([0, 1], 2.0)
        with pytest.raises(ValueError):
            ps.points[0] = 5.0


class TestSquareLattice:
    def test_density_identity(self):
        for s in [0.25, 1.0, math.sqrt(math.pi), 3.7]:
            lat = SquareLattice(s)
            assert abs(lat.density * s * s - 1.0) <= 1e-15

    def test_window_unit(self):
        ps = pointsets.square_lattice(1.0, 1.5)
        assert len(ps) == 9
        assert ps.indices is not None

    def test_origin_only(self):
        ps = pointsets.square_lattice(1.0, 0.0)
        assert len(ps) == 1
        assert ps.points[0] == 0

    def test_disk_count_matches_brute_force(self):
        s = math.sqrt(math.pi)
        ps = pointsets.square_lattice(s, 10.0)
        count = 0
        for m in range(-20, 21):
            for n in range(-20, 21):
                if s * s * (m * m + n * n) <= 100.0:
                    count += 1
        assert len(ps) == count
        # sanity: close to the disk area over the cell area
        assert abs(count - math.pi * 100.0 / (s * s)) <= 4 * math.sqrt(count)

    def test_negative_window(self):
        with pytest.raises(errors.EmptyWindow):
            pointsets.square_lattice(1.0, -1.0)

    @pytest.mark.parametrize("window", [math.nan, math.inf])
    def test_non_finite_window(self, window):
        with pytest.raises(errors.ValidationError, match="window_radius must be finite"):
            pointsets.square_lattice(1.0, window)
        with pytest.raises(errors.ValidationError, match="window_radius must be finite"):
            pointsets.scale_lattice_to_density(1.0, 1.2, window)

    @pytest.mark.parametrize("s", [1e-170, 1e-160])
    def test_spacing_without_a_finite_density(self, s):
        # 1/(s*s) would divide by an underflowed zero, or overflow
        with pytest.raises(errors.ValidationError, match="^spacing .* no finite density"):
            SquareLattice(s)

    @pytest.mark.parametrize("s", [1e-300, 5e-324])
    def test_index_square_numpy_cannot_build(self, s):
        with pytest.raises(errors.ValidationError, match="^spacing .* numpy cannot build"):
            pointsets.square_lattice(s, 1.0)

    def test_deterministic_order(self):
        a = pointsets.square_lattice(0.8, 6.0)
        b = pointsets.square_lattice(0.8, 6.0)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.indices, b.indices)


class TestScaleToDensity:
    def test_critical_spacing(self):
        ps = pointsets.scale_lattice_to_density(math.pi, 1.0, 3.0)
        xs = np.sort(np.unique(ps.points.real))
        assert xs[1] - xs[0] == pytest.approx(1.0, rel=1e-15)

    def test_ratio_four(self):
        ps = pointsets.scale_lattice_to_density(math.pi, 4.0, 3.0)
        xs = np.sort(np.unique(ps.points.real))
        assert xs[1] - xs[0] == pytest.approx(0.5, rel=1e-15)

    def test_generic_ratio(self):
        ps = pointsets.scale_lattice_to_density(1.0, 1.2, 8.0)
        s = math.sqrt(math.pi / 1.2)
        xs = np.sort(np.unique(ps.points.real))
        assert xs[1] - xs[0] == pytest.approx(s, rel=1e-14)
        lat = SquareLattice(xs[1] - xs[0])
        assert lat.density == pytest.approx(1.2 / math.pi, rel=1e-13)

    @pytest.mark.parametrize(
        "alpha, ratio, named",
        [
            (math.inf, 1.0, "alpha"),
            (math.nan, 1.0, "alpha"),
            (0.0, 1.0, "alpha"),
            (1.0, math.inf, "density_ratio"),
            (1.0, math.nan, "density_ratio"),
            (1.0, -2.0, "density_ratio"),
            (1e-310, 1.0, r"alpha \* density_ratio"),  # spacing overflows
            (1e-200, 1e-200, r"alpha \* density_ratio"),  # product underflows to 0
            (1e200, 1e200, r"alpha \* density_ratio"),  # product overflows, spacing 0
        ],
    )
    def test_rejects_bad_arguments(self, alpha, ratio, named):
        with pytest.raises(errors.ValidationError, match=f"^{named} "):
            pointsets.scale_lattice_to_density(alpha, ratio, 5.0)


class TestPerturb:
    def test_zero_shift_identity(self):
        base = pointsets.square_lattice(1.0, 5.0)
        out = pointsets.perturb(base, 0.0, seed=1)
        assert np.array_equal(out.points, base.points)

    def test_shift_bound(self):
        base = pointsets.square_lattice(1.0, 8.0)
        out = pointsets.perturb(base, 0.2, seed=42)
        assert np.max(np.abs(out.points - base.points)) <= 0.2

    def test_deterministic(self):
        base = pointsets.square_lattice(1.0, 8.0)
        a = pointsets.perturb(base, 0.3, seed=42)
        b = pointsets.perturb(base, 0.3, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_requires_indices(self):
        with pytest.raises(errors.NodeIndexMissing):
            pointsets.perturb(PointSet([0, 1], 2.0), 0.1, seed=0)


class TestSeparation:
    def test_unit_lattice(self):
        assert pointsets.separation(pointsets.square_lattice(1.0, 6.0)) == 1.0

    def test_small_triangle(self):
        ps = PointSet([0, 3, 3 + 4j], 5.0)
        assert pointsets.separation(ps) == 3.0

    def test_perturbed_within_bounds(self):
        base = pointsets.square_lattice(1.0, 15.0)
        out = pointsets.perturb(base, 0.2, seed=5)
        q = pointsets.separation(out)
        assert 0.6 <= q <= 1.4

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, size=(300, 2))
        zs = np.unique(pts[:, 0] + 1j * pts[:, 1])
        ps = PointSet(zs, 8.0)
        d = np.abs(zs[:, None] - zs[None, :])
        np.fill_diagonal(d, np.inf)
        assert pointsets.separation(ps) == pytest.approx(float(d.min()), rel=1e-12)

    def test_lower_bound_after_perturbation(self):
        base = pointsets.square_lattice(1.0, 10.0)
        for seed in range(5):
            out = pointsets.perturb(base, 0.2, seed=seed)
            assert pointsets.separation(out) >= 1.0 - 0.4 - 1e-12

    def test_too_few(self):
        with pytest.raises(errors.TooFewPoints):
            pointsets.separation(PointSet([0], 1.0))


class TestCloseness:
    def test_identity(self):
        ps = pointsets.square_lattice(1.0, 5.0)
        q, matching = pointsets.closeness(ps, SquareLattice(1.0))
        assert q == 0.0
        assert np.array_equal(matching, ps.indices)

    def test_uniform_shift(self):
        ps = pointsets.square_lattice(1.0, 5.0)
        shifted = PointSet(ps.points + 0.1, ps.window_radius + 0.1, ps.indices)
        q, _ = pointsets.closeness(shifted, SquareLattice(1.0))
        assert q == pytest.approx(0.1, abs=1e-15)

    def test_perturb_round_trip(self):
        base = pointsets.square_lattice(1.0, 10.0)
        out = pointsets.perturb(base, 0.3, seed=11)
        q, matching = pointsets.closeness(out, SquareLattice(1.0))
        applied = np.max(np.abs(out.points - base.points))
        assert q == pytest.approx(applied, abs=1e-15)
        assert np.array_equal(matching, base.indices)

    def test_collision_detected(self):
        ps = PointSet([0.2, 0.3], 1.0)
        with pytest.raises(errors.NotUniformlyClose) as info:
            pointsets.closeness(ps, SquareLattice(1.0))
        assert info.value.fields == {"spacing": 1.0, "index": [0, 0]}
        # two collisions: the field names the lexicographically first,
        # not the first in point order
        ps = PointSet([2.1 + 0.2j, 1.9 - 0.3j, 0.2 - 2.1j, -0.3 - 1.9j], 3.0)
        with pytest.raises(errors.NotUniformlyClose) as info:
            pointsets.closeness(ps, SquareLattice(2.0))
        assert info.value.fields == {"spacing": 2.0, "index": [0, -1]}


class TestCounts:
    def test_unit_lattice_r25(self):
        ps = pointsets.square_lattice(1.0, 20.0)
        assert pointsets.counts(ps, 2.5) == (4, 9)

    def test_unit_lattice_r1(self):
        ps = pointsets.square_lattice(1.0, 20.0)
        assert pointsets.counts(ps, 1.0) == (1, 1)

    def test_single_point(self):
        ps = PointSet([0], 5.0)
        assert pointsets.counts(ps, 0.5) == (0, 1)

    def test_window_too_small(self):
        with pytest.raises(errors.WindowTooSmall):
            pointsets.counts(PointSet([0], 0.1), 1.0)

    def test_window_too_small_fields(self):
        with pytest.raises(errors.WindowTooSmall) as info:
            pointsets.counts(PointSet([0], 0.1), 1.0)
        assert info.value.fields == {"square_side": 1.0, "window_radius": 0.1}

    def test_empty_region_fields(self, monkeypatch):
        # a t_x span outside the disk leaves no feasible translate
        monkeypatch.setattr(pointsets, "_feasible_x_interval", lambda w, r: (2 * w, 2 * w))
        with pytest.raises(errors.WindowTooSmall, match="empty") as info:
            pointsets.counts(PointSet([0], 3.0), 1.0)
        assert info.value.fields == {"square_side": 1.0, "window_radius": 3.0}

    def test_monotone_in_radius(self):
        ps = pointsets.square_lattice(1.0, 25.0)
        prev = -1
        for r in [1.0, 1.7, 2.5, 3.3, 4.0]:
            _, hi = pointsets.counts(ps, r)
            assert hi >= prev
            prev = hi

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(23)
        for trial in range(6):
            pts = rng.uniform(-4, 4, size=(40, 2))
            zs = np.unique(pts[:, 0] + 1j * pts[:, 1])
            ps = PointSet(zs, 6.0)
            r = float(rng.uniform(0.7, 3.0))
            got = pointsets.counts(ps, r)
            want = brute_force_counts(ps, r)
            assert got == want, f"trial {trial}, r={r}"

    def test_matches_brute_force_lattice(self):
        ps = pointsets.square_lattice(1.0, 8.0)
        for r in [1.3, 2.0, 2.5]:
            assert pointsets.counts(ps, r) == brute_force_counts(ps, r)


class TestCountsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(count_cases())
    def test_same_counts_or_same_error(self, case):
        gamma, r, step = case
        try:
            want = reference_counts(gamma, r, step)
        except errors.WindowTooSmall:
            with pytest.raises(errors.WindowTooSmall):
                pointsets.counts(gamma, r)
            return
        assert pointsets.counts(gamma, r) == want

    @settings(max_examples=200, deadline=None)
    @given(count_cases())
    def test_any_step_gives_the_reference_counts(self, case):
        # the oracle's grid of translates, laid every step or at most
        # once (a step of 10 r), adds nothing to the events counts scans
        gamma, r, step = case
        try:
            want = reference_counts(gamma, r, step)
        except errors.WindowTooSmall:
            with pytest.raises(errors.WindowTooSmall):
                reference_counts(gamma, r, 10.0 * r)
            return
        assert reference_counts(gamma, r, 10.0 * r) == want == pointsets.counts(gamma, r)

    @settings(max_examples=100, deadline=None)
    @given(count_cases(), st.sampled_from([1, 50, 4000]))
    def test_small_blocks_change_no_count(self, case, cells):
        # a budget of one cell puts every column in a block of its own
        gamma, r, step = case
        try:
            want = reference_counts(gamma, r, step)
        except errors.WindowTooSmall:
            want = errors.WindowTooSmall
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pointsets, "_COUNT_CELLS", cells)
            if want is errors.WindowTooSmall:
                with pytest.raises(errors.WindowTooSmall):
                    pointsets.counts(gamma, r)
            else:
                assert pointsets.counts(gamma, r) == want


class TestCountsMatchColumnScan:
    def test_supercritical_set(self):
        # shaped like the density call of the supercritical benchmark workload
        s = math.sqrt(math.pi / 1.2)
        lattice = pointsets.scale_lattice_to_density(1.0, 1.2, 20.0)
        gamma = pointsets.perturb(lattice, 0.2 * s, 5)
        for r in np.arange(5.0, 12.01, 0.5):
            got = pointsets.counts(gamma, r)
            assert got == column_scan_counts(gamma, r, 0.25), r

    def test_perturbed_unit_lattice(self):
        gamma = pointsets.perturb(pointsets.square_lattice(1.0, 30.0), 0.2, 1)
        assert len(gamma) == 2821
        assert pointsets.counts(gamma, 5.0) == column_scan_counts(gamma, 5.0, 0.5)


class TestCountsOnLatticeEdges:
    """A half-open square of side k*s holds exactly k^2 points of a
    lattice of spacing s wherever it sits, so both extremal counts are
    k^2. Dyadic offsets and dyadic spacings put lattice points exactly
    on the scanned squares' edges."""

    @settings(max_examples=150, deadline=None)
    @given(
        s=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0]), st.floats(0.3, 3.0)),
        k=st.integers(1, 5),
        reach=st.floats(-0.05, 3.0),
        offset=st.tuples(st.integers(0, 7), st.integers(0, 7)),
    )
    def test_exact_lattice_counts_k_squared(self, s, k, reach, offset):
        # windows from just below the square's half-diagonal outwards
        w = (k / math.sqrt(2.0) + reach) * s
        n = int(math.ceil(w / s)) + 1
        m = np.arange(-n, n + 1)
        grid = (m[None, :] + offset[0] / 8.0) * s + 1j * (m[:, None] + offset[1] / 8.0) * s
        pts = grid.ravel()[np.abs(grid.ravel()) <= w]
        if pts.size == 0:
            return
        try:
            got = pointsets.counts(PointSet(pts, w), k * s)
        except errors.WindowTooSmall:
            return
        assert got == (k * k, k * k)


class TestDensityEstimate:
    def test_unit_lattice(self):
        ps = pointsets.square_lattice(1.0, 40.0)
        rep = pointsets.density_estimate(ps, range(5, 16))
        assert all(rep.reliable)
        assert 0.9 <= rep.d_minus_estimate <= rep.d_plus_estimate <= 1.1

    def test_scaled_lattice_three_percent(self):
        s = 0.7
        ps = pointsets.square_lattice(s, 60.0 * s)
        radii = [s * k for k in range(5, 21)]
        rep = pointsets.density_estimate(ps, radii)
        want = 1.0 / (s * s)
        assert abs(rep.d_minus_estimate - want) <= 0.03 * want
        assert abs(rep.d_plus_estimate - want) <= 0.03 * want

    def test_supercritical_lattice(self):
        ps = pointsets.scale_lattice_to_density(1.0, 1.2, 40.0)
        s = math.sqrt(math.pi / 1.2)
        radii = [s * k for k in range(5, 16)]
        rep = pointsets.density_estimate(ps, radii)
        want = 1.2 / math.pi
        assert abs(rep.d_minus_estimate - want) <= 0.05 * want
        assert abs(rep.d_plus_estimate - want) <= 0.05 * want

    def test_interleaved_lattices(self):
        a = pointsets.square_lattice(1.0, 40.0)
        b = a.points + (0.5 + 0.5j)
        keep = np.abs(b) <= 40.0
        ps = PointSet(np.concatenate([a.points, b[keep]]), 40.0)
        radii = list(range(5, 16))
        rep = pointsets.density_estimate(ps, radii)
        assert abs(rep.d_minus_estimate - 2.0) <= 0.1
        assert abs(rep.d_plus_estimate - 2.0) <= 0.1

    def test_unreliable_radii_flagged(self):
        ps = pointsets.square_lattice(1.0, 10.0)
        rep = pointsets.density_estimate(ps, [2.0, 5.0, 20.0])
        assert rep.reliable == (True, True, False)
        assert rep.n_minus[2] == 0 and rep.n_plus[2] == 0

    def test_increasing_radii_required(self):
        ps = pointsets.square_lattice(1.0, 10.0)
        with pytest.raises(errors.ValidationError):
            pointsets.density_estimate(ps, [3.0, 2.0])


def tree_nearest(points, zs):
    """Reference nearest distances from a k-d tree, shaped like ``zs``."""
    zs = np.asarray(zs, dtype=np.complex128)
    tree = cKDTree(np.column_stack([points.real, points.imag]))
    d, _ = tree.query(np.column_stack([zs.ravel().real, zs.ravel().imag]), k=1)
    return d.reshape(zs.shape)


def tree_separation(points):
    xy = np.column_stack([points.real, points.imag])
    d, _ = cKDTree(xy).query(xy, k=2)
    return float(np.min(d[:, 1]))


@st.composite
def search_cases(draw):
    """A point set, with queries that stress the bucket search.

    The queries hold random points around the set, far-away points, the
    points themselves and the corners and edges of the search's cells
    (side ``0.7 * max(sqrt(wx*wy/n), max(wx, wy)/n)`` from the lower-left
    corner of the bounding box).
    """
    kind = draw(st.sampled_from(
        ["lattice", "uniform", "close_pair", "horizontal", "vertical", "single"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    n = draw(st.integers(2, 400))
    if kind in ("lattice", "close_pair"):
        k = int(math.sqrt(n)) // 2 + 1
        m, j = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1))
        pts = scale * (m.ravel() + 1j * j.ravel())
        if kind == "lattice":
            shift = draw(st.sampled_from([0.0, 0.2, 0.45]))
            pts = pts + scale * shift * np.sqrt(rng.uniform(0, 1, pts.size)) * np.exp(
                2j * np.pi * rng.uniform(0, 1, pts.size))
        else:
            pts = np.append(pts, pts[0] + 1e-9 * scale)
    elif kind == "uniform":
        pts = scale * (rng.uniform(-5, 5, n) + 1j * rng.uniform(-5, 5, n))
    elif kind == "horizontal":
        pts = scale * rng.uniform(-5, 5, n) + 2j * scale
    elif kind == "vertical":
        pts = -3.0 * scale + 1j * scale * rng.uniform(-5, 5, n)
    else:
        pts = np.array([scale * (0.3 - 0.7j)])
    pts = np.unique(pts)
    gamma = PointSet(pts, float(np.max(np.abs(pts))) * (1 + 1e-9))

    x0, y0 = pts.real.min(), pts.imag.min()
    wx, wy = pts.real.max() - x0, pts.imag.max() - y0
    h = 0.7 * max(math.sqrt(wx) * math.sqrt(wy / pts.size), max(wx, wy) / pts.size) or 1.0
    edges = np.arange(-2, 12) * h
    span = max(wx, wy, scale)
    queries = np.concatenate([
        (x0 + edges[:, None] + 1j * (y0 + edges[None, :])).ravel(),
        x0 + edges + 1j * rng.uniform(y0 - span, y0 + 2 * span, edges.size),
        rng.uniform(x0 - span, x0 + 2 * span, 200) + 1j * rng.uniform(y0 - span, y0 + 2 * span, 200),
        pts[:20],
        span * np.array([1e6, -1e6j, 1e6 + 1e6j, 1e200, -1e200 + 1e200j]),
    ])
    return gamma, queries


class TestNearestPointOracle:
    """The bucket search against a k-d tree, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(search_cases())
    def test_matches_tree(self, case):
        gamma, queries = case
        pts = gamma.points
        assert np.array_equal(pointsets.nearest_distance(gamma, queries), tree_nearest(pts, queries))
        if len(gamma) >= 2:
            assert pointsets.separation(gamma) == tree_separation(pts)

    def test_query_shapes(self):
        gamma = pointsets.perturb(pointsets.square_lattice(1.0, 6.0), 0.3, seed=4)
        grid = np.linspace(-7, 7, 12)[:, None] + 1j * np.linspace(-5, 9, 5)[None, :]
        for zs in (0.25 - 1.5j, grid, np.zeros(0, dtype=complex), [[]]):
            got = pointsets.nearest_distance(gamma, zs)
            want = tree_nearest(gamma.points, zs)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_clustered_set_widens(self):
        rng = np.random.default_rng(11)
        cluster = 1e-6 * (rng.normal(size=500) + 1j * rng.normal(size=500))
        pts = np.unique(np.concatenate([cluster, 50 * np.exp(2j * np.pi * np.arange(8) / 8)]))
        gamma = PointSet(pts, 51.0)
        zs = rng.uniform(-60, 60, 300) + 1j * rng.uniform(-60, 60, 300)
        assert np.array_equal(pointsets.nearest_distance(gamma, zs), tree_nearest(pts, zs))
        assert pointsets.separation(gamma) == tree_separation(pts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_rejects_non_finite_queries(self, bad):
        gamma = pointsets.square_lattice(1.0, 3.0)
        with pytest.raises(errors.ValidationError):
            pointsets.nearest_distance(gamma, [0.5, bad])


class TestNearestDistance:
    def test_on_points(self):
        ps = pointsets.square_lattice(1.0, 5.0)
        d = pointsets.nearest_distance(ps, ps.points[:5])
        assert np.max(d) == 0.0

    def test_cell_centers(self):
        ps = pointsets.square_lattice(1.0, 6.0)
        d = pointsets.nearest_distance(ps, np.array([0.5 + 0.5j, 1.5 + 2.5j]))
        assert np.allclose(d, math.sqrt(0.5), rtol=1e-12)
