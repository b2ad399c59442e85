"""Planar point configurations: lattices, separation, uniform densities.

A point set is a finite collection of pairwise distinct complex points
inside a window disk, optionally carrying square-lattice indices
``(m, n)`` per point. The module measures the two structural quantities
the sampling theory runs on: the separation ``q`` (minimal pairwise
distance) and the uniform closeness ``Q`` to a reference lattice, and it
estimates lower/upper uniform densities from exact extremal counts of
points in translated half-open squares ``t + [0, r) x [0, r)``.

Density conventions: a square lattice of spacing ``s`` has density
``1/s**2`` points per unit area. The critical value for weight parameter
``alpha`` is ``alpha/pi``; :func:`scale_lattice_to_density` generates
lattices at any multiple of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .errors import (
    CollisionAfterPerturbation,
    EmptyWindow,
    NodeIndexMissing,
    NotUniformlyClose,
    TooFewPoints,
    ValidationError,
    WindowTooSmall,
)

__all__ = [
    "PointSet",
    "SquareLattice",
    "DensityReport",
    "square_lattice",
    "scale_lattice_to_density",
    "perturb",
    "separation",
    "closeness",
    "counts",
    "density_estimate",
    "nearest_distance",
]


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D array, the values ``np.unique`` gives.

    ``np.unique`` imports ``numpy.ma`` on its first call, about 20 ms
    that every CLI run would pay.
    """
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _match(keys: np.ndarray, values: np.ndarray):
    """``(rows, cols)``, rows ascending, with ``values[rows] == keys[cols]``
    for distinct ``keys``: a sorted search, in memory linear in both sizes
    (``np.isin`` would import ``numpy.ma``, as ``np.unique`` does)."""
    if not keys.size:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    order = np.argsort(keys)
    cols = order[np.minimum(np.searchsorted(keys[order], values), keys.size - 1)]
    rows = np.flatnonzero(keys[cols] == values)
    return rows, cols[rows]


def _has_repeats(values: np.ndarray) -> bool:
    """Whether two entries of a 1-D array, or two rows of a 2-D one, are equal."""
    if values.ndim == 2:
        rows = values[np.lexsort(values.T)]
        return bool(np.any(np.all(rows[1:] == rows[:-1], axis=1)))
    return _sorted_unique(values).size != values.size


@dataclass(frozen=True, slots=True, eq=False)
class PointSet:
    """Finite planar point set inside a window disk.

    Attributes
    ----------
    points : ndarray of complex
        The points, pairwise distinct.
    window_radius : float
        All points satisfy ``|z| <= window_radius``.
    indices : ndarray of shape (n, 2) or None
        Optional lattice indices ``(m, n)`` per point, bijective when
        present.
    """

    points: np.ndarray
    window_radius: float
    indices: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).copy()
        if pts.ndim != 1 or pts.size == 0:
            raise ValidationError("points must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points must be finite")
        if _has_repeats(pts):
            raise ValidationError("points must be pairwise distinct")
        w = float(self.window_radius)
        if not (math.isfinite(w) and w >= 0.0):
            raise ValidationError("window_radius must be finite and nonnegative")
        rmax = float(np.max(np.abs(pts)))
        if rmax > w * (1.0 + 1e-12) + 1e-300:
            raise ValidationError(
                f"point at radius {rmax:g} lies outside the window {w:g}"
            )
        if self.indices is not None:
            idx = np.asarray(self.indices, dtype=np.int64).copy()
            if idx.shape != (len(pts), 2):
                raise ValidationError("indices must have shape (npoints, 2)")
            if _has_repeats(idx):
                raise ValidationError("lattice indices must be distinct per point")
            idx.flags.writeable = False
            object.__setattr__(self, "indices", idx)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "window_radius", w)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        tag = ", indexed" if self.indices is not None else ""
        return f"PointSet({len(self)} points, window={self.window_radius:g}{tag})"


@dataclass(frozen=True)
class SquareLattice:
    """The square lattice ``s * (m + i n)`` with spacing ``s``."""

    spacing: float
    density: float = field(init=False)

    def __post_init__(self):
        s = float(self.spacing)
        if not (math.isfinite(s) and s > 0.0):
            raise ValidationError("spacing must be positive and finite")
        if s * s == 0.0 or 1.0 / (s * s) == math.inf:
            raise ValidationError(f"spacing {s:g} gives no finite density 1/s^2")
        object.__setattr__(self, "spacing", s)
        object.__setattr__(self, "density", 1.0 / (s * s))

    def point(self, m: int, n: int) -> complex:
        return self.spacing * complex(m, n)


@dataclass(frozen=True)
class DensityReport:
    """Extremal counts and density estimates over a ladder of radii.

    ``n_minus[i]``/``n_plus[i]`` are the exact minimal/maximal numbers of
    points in a translated half-open ``r x r`` square whose translates
    fit in the window; ``reliable[i]`` records whether any translate fit.
    The density estimates use the largest third of the reliable radii.
    """

    radii: tuple
    n_minus: tuple
    n_plus: tuple
    reliable: tuple
    d_minus_estimate: float
    d_plus_estimate: float

    def __post_init__(self):
        k = len(self.radii)
        if not (len(self.n_minus) == len(self.n_plus) == len(self.reliable) == k):
            raise ValidationError("density report columns must have equal length")
        for lo, hi in zip(self.n_minus, self.n_plus):
            if lo > hi:
                raise ValidationError("n_minus must not exceed n_plus")
        if self.d_minus_estimate > self.d_plus_estimate:
            raise ValidationError("lower density estimate exceeds upper")


def square_lattice(spacing: float, window_radius: float) -> PointSet:
    """All lattice points ``s*(m+in)`` with ``|point| <= window_radius``.

    Enumeration is row-major in ``(n, m)``, so output order is
    deterministic. The origin is always included.

    Raises
    ------
    EmptyWindow
        If ``window_radius`` is negative.
    ValidationError
        If ``spacing`` is not positive and finite, ``window_radius`` is
        not finite, or numpy cannot hold the ``(2 floor(w/s) + 1)**2``
        index square the lattice is cut from.
    """
    s = float(spacing)
    if not (math.isfinite(s) and s > 0.0):
        raise ValidationError("spacing must be positive and finite")
    w = float(window_radius)
    if w < 0.0:
        raise EmptyWindow(f"window_radius {w:g} is negative")
    if not math.isfinite(w):
        raise ValidationError(f"window_radius must be finite, got {w:g}")
    # numpy refuses an oversized count before allocating anything
    try:
        kmax = int(math.floor(w / s))
        rng = np.arange(-kmax, kmax + 1, dtype=np.int64)
        m, n = np.meshgrid(rng, rng)  # row index varies over n
    except (OverflowError, ValueError):
        raise ValidationError(
            f"spacing {s:g} is too fine for window {w:g}: numpy cannot build the index square"
        ) from None
    m = m.ravel()
    n = n.ravel()
    keep = (m.astype(np.float64) ** 2 + n.astype(np.float64) ** 2) * s * s <= w * w
    m, n = m[keep], n[keep]
    pts = s * (m.astype(np.float64) + 1j * n.astype(np.float64))
    return PointSet(pts, w, np.column_stack([m, n]))


def scale_lattice_to_density(alpha: float, density_ratio: float, window_radius: float) -> PointSet:
    """Square lattice with density ``density_ratio * alpha / pi``.

    Ratio 1 gives the critical lattice of spacing ``sqrt(pi/alpha)``;
    ratios above 1 are supercritical (sampling side), below 1
    subcritical (interpolation side).
    """
    alpha = float(alpha)
    ratio = float(density_ratio)
    for name, value in (("alpha", alpha), ("density_ratio", ratio)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValidationError(f"{name} must be positive and finite, got {value}")
    product = alpha * ratio
    spacing = math.sqrt(math.pi / product) if product > 0.0 else math.inf
    if not 0.0 < spacing < math.inf:
        raise ValidationError(f"alpha * density_ratio = {product:g} gives no finite spacing")
    return square_lattice(spacing, window_radius)


def perturb(lattice: PointSet, max_shift: float, seed: int) -> PointSet:
    """Displace every point independently, uniformly on a disk.

    Each point moves by a pseudorandom shift of modulus at most
    ``max_shift``, drawn uniformly on that disk from a generator seeded
    with ``seed``; fixed inputs reproduce bit-identical output. Lattice
    indices are preserved.

    Raises
    ------
    NodeIndexMissing
        If the input carries no lattice indices.
    CollisionAfterPerturbation
        If two shifted points coincide exactly.
    """
    if lattice.indices is None:
        raise NodeIndexMissing("perturb requires a lattice-indexed point set")
    q = float(max_shift)
    if not (math.isfinite(q) and q >= 0.0):
        raise ValidationError("max_shift must be finite and nonnegative")
    rng = default_rng(seed)
    n = len(lattice)
    radius = q * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    shifted = lattice.points + radius * np.exp(1j * theta)
    if _has_repeats(shifted):
        raise CollisionAfterPerturbation(
            "two perturbed points coincide; retry with another seed or a "
            "smaller max_shift"
        )
    return PointSet(shifted, lattice.window_radius + q, lattice.indices)


def separation(gamma: PointSet) -> float:
    """Exact minimal pairwise distance ``q``.

    Every point's nearest neighbour comes from the certified bucket
    search of :func:`_nearest_sq`, so ``q`` is the least
    ``sqrt(dx*dx + dy*dy)`` over all pairs, bit for bit what a k-d tree
    returns. A perturbed lattice of 282 697 points takes about 0.25 s
    on one core. Time is linear in the size for sets of bounded density,
    such as those uniformly close to a lattice; a set packed far more
    densely in a few cells than over its bounding box pays the square
    of those cells' occupancy (2 000 points within 1e-3 of the origin
    and four at radius 100: about 0.1 s).

    Raises
    ------
    TooFewPoints
        If the set has fewer than two points.
    """
    if len(gamma) < 2:
        raise TooFewPoints("separation needs at least 2 points")
    return float(np.sqrt(np.min(_nearest_sq(gamma.points, gamma.points, skip_self=True))))


def nearest_distance(gamma: PointSet, zs) -> np.ndarray:
    """Exact distance from each query point to the nearest set point.

    Raises
    ------
    ValidationError
        If a query point is not finite.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    if not np.all(np.isfinite(zs)):
        raise ValidationError("query points must be finite")
    return np.sqrt(_nearest_sq(gamma.points, zs.ravel())).reshape(zs.shape)


# Candidate rows, and (query, point) pairs, per pass of the bucket search.
_CHUNK = 1 << 16
# Cells of one block of count tables, or of its (t_y, column) counts.
_COUNT_CELLS = 1 << 20


def _nearest_sq(points, queries, skip_self=False) -> np.ndarray:
    """Exact squared distance from each query to its nearest point.

    Each distance is ``dx*dx + dy*dy`` with ``dx = qx - px``, the sum a
    k-d tree forms, so its square root matches one bit for bit. With
    ``skip_self`` the queries are the points themselves and each one
    skips its own index.

    Points are bucketed into square cells of side ``h``, 0.7 times the
    side that would hold one point each if the set filled its bounding
    box, so a 3 x 3 block holds about four points of a uniform set. The
    cells, ringed by one layer of empty ones, are stored row by row in
    one CSR array, so one row of a block is one slice. A query's best
    squared distance over the cells within ``r`` of its own is final
    once it is at most the squared distance to the nearest cell outside
    that block that holds points, less slack for rounding. Other queries
    go round again with ``r`` doubled, until their block covers the
    grid. Passes take about ``_CHUNK`` rows and ``_CHUNK`` candidate
    pairs, so memory is ``O(n + chunk)`` however the points cluster.
    """
    px, py = points.real, points.imag
    n = px.size
    x0, y0 = float(px.min()), float(py.min())
    wx, wy = float(px.max()) - x0, float(py.max()) - y0
    h = 0.7 * max(math.sqrt(wx) * math.sqrt(wy / n), max(wx, wy) / n)
    if 0.0 < h < math.inf:
        nx, ny = int(wx / h) + 1, int(wy / h) + 1
    else:  # one point, or a span that overflows: one cell
        h, nx, ny = 1.0, 1, 1
    ix = np.clip(np.floor((px - x0) / h), 0, nx - 1).astype(np.intp)
    iy = np.clip(np.floor((py - y0) / h), 0, ny - 1).astype(np.intp)
    cell = (iy + 1) * (nx + 2) + ix + 1
    order = np.argsort(cell, kind="stable")
    pts = points[order]
    offsets = np.zeros((nx + 2) * (ny + 2) + 1, dtype=np.intp)
    np.cumsum(np.bincount(cell, minlength=offsets.size - 1), out=offsets[1:])

    if skip_self:  # search in cell order, so query j skips point j
        queries = pts
    with np.errstate(over="ignore"):
        u, v = (queries.real - x0) / h, (queries.imag - y0) / h
    cx = np.floor(np.clip(u, -1, nx)).astype(np.intp)
    cy = np.floor(np.clip(v, -1, ny)).astype(np.intp)
    # Cell coordinates of points and queries each carry a relative error
    # of about 2 ulp, so a point outside the block may lie that much
    # closer than the block's edge.
    slack = 4.0 * np.finfo(np.float64).eps * (np.abs(u) + np.abs(v) + nx + ny + 2)

    best = np.full(queries.size, np.inf)
    pending = np.arange(queries.size)
    r = 1
    while pending.size:
        step = max(1, _CHUNK // (2 * r + 1))
        for lo in range(0, pending.size, step):
            sel = pending[lo : lo + step]
            row = np.minimum(np.maximum(cy[sel, None] + np.arange(-r, r + 1), -1), ny)
            row = (row + 1) * (nx + 2)
            start = offsets[row + (np.maximum(cx[sel] - r, -1) + 1)[:, None]]
            stop = offsets[row + (np.minimum(cx[sel] + r, nx) + 2)[:, None]]
            best[sel] = _block_min(pts, queries[sel], start, stop - start,
                                   sel if skip_self else None)
        # Cells from each query to the nearest cell outside its block
        # that holds points; inf once the block covers the grid.
        c, d, up, vp = cx[pending], cy[pending], u[pending], v[pending]
        margin = np.minimum(
            np.minimum(np.where(c - r > 0, up - (c - r), np.inf),
                       np.where(c + r < nx - 1, c + r + 1 - up, np.inf)),
            np.minimum(np.where(d - r > 0, vp - (d - r), np.inf),
                       np.where(d + r < ny - 1, d + r + 1 - vp, np.inf)),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            reach = ((margin - slack[pending]) * h) ** 2 * (1.0 - 1e-12)
        # Below 1e-290 subnormal rounding in the sums is no longer
        # relative, so such a query widens until its block is the grid.
        done = (margin == np.inf) | ((best[pending] <= reach) & (reach > 1e-290))
        pending = pending[~done]
        r *= 2
    if skip_self:
        best[order] = best.copy()
    return best


def _block_min(pts, queries, start, length, own):
    """Smallest ``dx*dx + dy*dy`` over each query's CSR slices.

    Row ``i`` of ``start``/``length`` lists query ``i``'s slices of the
    cell-ordered points; ``own`` gives the point index each query skips,
    or is None.
    """
    lens = length.ravel()
    ends = np.cumsum(lens)
    qend = ends[length.shape[1] - 1 :: length.shape[1]]
    pairs = np.diff(qend, prepend=0)
    best = np.full(queries.size, np.inf)
    cuts = np.searchsorted(qend, np.arange(_CHUNK, qend[-1], _CHUNK))
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, queries.size]):
        if lo == hi:  # one query spans more than a chunk
            continue
        e0, e1 = qend[lo] - pairs[lo], qend[hi - 1]
        if e0 == e1:
            continue
        rows = slice(lo * length.shape[1], hi * length.shape[1])
        j = np.arange(e0, e1) + np.repeat((start.ravel() - ends + lens)[rows], lens[rows])
        with np.errstate(over="ignore"):  # far queries: inf, as the tree gives
            diff = np.repeat(queries[lo:hi], pairs[lo:hi]) - pts[j]
            sq = diff.real * diff.real + diff.imag * diff.imag
        if own is not None:
            sq[j == np.repeat(own[lo:hi], pairs[lo:hi])] = np.inf
        has = np.flatnonzero(pairs[lo:hi])
        best[lo + has] = np.minimum.reduceat(sq, qend[lo:hi][has] - pairs[lo:hi][has] - e0)
    return best


def closeness(gamma: PointSet, lattice: SquareLattice):
    """Maximal displacement from the nearest-index lattice sites.

    Each point is assigned the lattice index obtained by rounding
    ``(x/s, y/s)`` to nearest integers. If that assignment is injective
    the function returns ``(Q, matching)`` with ``Q`` the maximum of
    ``|z - s*(m+in)|`` and ``matching`` the (n, 2) index array; a
    returned ``Q < s/2`` guarantees the rounding was the unique
    assignment.

    Raises
    ------
    NotUniformlyClose
        If two points round to the same lattice index; fields
        ``spacing`` and ``index``, the first such ``[m, n]`` in
        lexicographic order.
    """
    s = lattice.spacing
    m = np.rint(gamma.points.real / s).astype(np.int64)
    n = np.rint(gamma.points.imag / s).astype(np.int64)
    matching = np.column_stack([m, n])
    if _has_repeats(matching):
        indices, counts = np.unique(matching, axis=0, return_counts=True)
        raise NotUniformlyClose(
            "two points round to the same lattice index; the set is not "
            f"uniformly close to the spacing-{s:g} lattice",
            spacing=s,
            index=indices[np.argmax(counts > 1)].tolist(),
        )
    q_max = float(np.max(np.abs(gamma.points - s * (m + 1j * n))))
    return q_max, matching


def _feasible_x_interval(w: float, r: float):
    """Translate origins t_x for which some square column fits the disk."""
    root = w * w - 0.25 * r * r
    if root < 0.0:
        return None
    h = math.sqrt(root)
    lo, hi = -h, h - r
    if lo > hi:
        return None
    return lo, hi


def _with_midpoints(values: np.ndarray) -> np.ndarray:
    if len(values) < 2:
        return values
    mids = 0.5 * (values[:-1] + values[1:])
    return _sorted_unique(np.concatenate([values, mids]))


def counts(gamma: PointSet, r: float):
    """Exact extremal counts of points in a translated half-open square.

    Scans all translates ``t`` for which ``t + [0, r] x [0, r]`` fits
    inside the window disk and returns the exact minimum and maximum of
    ``#(points in t + [0, r) x [0, r))``. Counts only change when a square
    edge crosses a point coordinate or the feasibility boundary crosses
    such an event line, so the ``t_x`` events (``x``, ``x - r``, the
    crossings and the ends of the feasible interval) and the midpoints
    between them are exhaustive: a grid of translates adds no count.
    Candidate ``t_x`` sharing one column of points
    ``t_x <= x < t_x + r`` share its counts, and their ``t_y`` candidates
    are the y-events in the widest feasible interval ``[-g, g - r]`` plus
    every translate's ends: the intervals are nested about ``-r/2``, also
    in floating point as ``sqrt`` and ``g - r`` round monotonically.

    With the points in x order and ``rank_j`` the y rank of point j, the
    prefix-count table ``T[i, q] = #{j < i : rank_j < q}`` puts
    ``T[i1, q] - T[i0, q]`` points of column ``[i0, i1)`` below v, where
    ``q`` counts all y below v. That is the integer a ``searchsorted`` of
    v in the column's sorted y gives, so the counts are a column scan's
    bit for bit. A block of columns builds its rows ``T[i1] - T[i0]`` at
    once, as cumulative sums of a +1 where each point enters a column and
    a -1 where it leaves. A block's table and its counts each hold at
    most ``_COUNT_CELLS`` cells, or one column's if that is more.

    Coordinates within a few ulps of a square edge are resolved as if
    they sat exactly on it (left edge closed, right edge open). Without
    this, rounding in point coordinates flips half-open membership both
    ways when the square side is an exact multiple of a lattice spacing,
    which is precisely the aligned case density scans rely on.

    Raises
    ------
    WindowTooSmall
        When no translate fits in the window; fields ``square_side``, ``window_radius``.
    ValidationError
        When ``r`` is not positive.
    """
    r = float(r)
    if not r > 0.0:
        raise ValidationError("r must be positive")
    w = gamma.window_radius
    tol = 16.0 * np.finfo(np.float64).eps * (1.0 + w + r)
    xspan = _feasible_x_interval(w, r)
    fields = {"square_side": r, "window_radius": w}
    if xspan is None:
        raise WindowTooSmall(
            f"no translate of a side-{r:g} square fits in the window disk of radius {w:g}", **fields
        )
    xlo, xhi = xspan
    order = np.argsort(gamma.points.real, kind="stable")
    xs, ys_by_x = gamma.points.real[order], gamma.points.imag[order]
    bx = np.concatenate([xs, xs - r])
    by = _sorted_unique(np.concatenate([ys_by_x, ys_by_x - r]))

    # t_x values where the feasible t_y interval endpoint crosses a
    # horizontal event line; between these and the bx events the set of
    # reachable count cells is constant in t_x.
    targets = np.concatenate([by, by + r])
    root = w * w - targets * targets
    rt = np.sqrt(root[root >= 0.0])
    cross = np.concatenate([rt, -rt, -r + rt, -r - rt])
    xcand = np.concatenate([bx, cross, [xlo, xhi]])
    tx = _with_midpoints(_sorted_unique(np.clip(xcand, xlo, xhi)))

    # Feasible t_y interval [-g, g - r] of each candidate t_x.
    edge = np.maximum(np.abs(tx), np.abs(tx + r))
    root = w * w - edge * edge
    ok = root >= 0.0
    tx, g = tx[ok], np.sqrt(root[ok])
    keep = -g <= g - r
    tx, g = tx[keep], g[keep]
    if tx.size == 0:
        raise WindowTooSmall("feasible translate region is empty", **fields)
    ends = np.stack([-g, g - r], axis=1)

    # i0 and i1 are nondecreasing in t_x, so each column is one run.
    i0 = np.searchsorted(xs, tx - tol, side="left")
    i1 = np.searchsorted(xs, tx + r - tol, side="left")
    starts = np.flatnonzero(np.diff(i0, prepend=-1) | np.diff(i1, prepend=-1))
    stops = np.append(starts[1:], tx.size)
    widest = np.maximum.reduceat(g, starts)
    ev_lo = np.searchsorted(by, -widest, side="left")
    ev_hi = np.searchsorted(by, widest - r, side="right")

    # Row q of a column's table counts its ranks <= q, its y below v at q = #{y < v}.
    rank = np.argsort(np.argsort(ys_by_x, kind="stable")) + 1
    ys = np.sort(ys_by_x)
    q_ev = np.searchsorted(ys, np.stack([by + r - tol, by - tol]))
    q_end = np.searchsorted(ys, np.stack([ends + r - tol, ends - tol]))
    lo, hi = i0[starts], i1[starts]
    owner = np.repeat(np.arange(starts.size), stops - starts)
    width = max(1, _COUNT_CELLS // (xs.size + 1 + by.size))
    n_min, n_max = len(gamma), 0
    for c0 in range(0, starts.size, width):
        c = slice(c0, c0 + width)
        # A point enters the first column whose hi passes it and leaves the
        # first whose lo does; the block's first column enters whole.
        d = np.zeros((xs.size + 1, lo[c].size), dtype=np.int32)
        j = np.arange(lo[c0], hi[c][-1])
        d[rank[j], np.searchsorted(hi[c], j, side="right")] = 1
        j = np.arange(lo[c0], lo[c][-1])
        d[rank[j], np.searchsorted(lo[c], j, side="right")] -= 1
        np.cumsum(np.cumsum(d, axis=1, out=d), axis=0, out=d)
        e0, e1 = ev_lo[c].min(), ev_hi[c].max()
        e = np.arange(e0, e1)[:, None]
        at_events = (d[q_ev[0, e0:e1]] - d[q_ev[1, e0:e1]])[(e >= ev_lo[c]) & (e < ev_hi[c])]
        t = slice(starts[c0], stops[c][-1])
        at_ends = d[q_end[0, t], owner[t, None] - c0] - d[q_end[1, t], owner[t, None] - c0]
        n_min = min(n_min, int(at_ends.min()), int(at_events.min(initial=n_min)))
        n_max = max(n_max, int(at_ends.max()), int(at_events.max(initial=0)))
    return n_min, n_max


def density_estimate(gamma: PointSet, radii) -> DensityReport:
    """Lower/upper uniform density estimates from extremal counts.

    For each radius the exact ``n_minus(r)``/``n_plus(r)`` are computed;
    radii whose squares cannot fit in the window are flagged unreliable
    instead of failing. The reported estimates are the extreme values of
    ``n(r)/r**2`` over the largest third of the reliable radii, which is
    where the finite-window counts are closest to their limits.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii must be strictly increasing")
    found = {}
    for r in radii:
        try:
            found[r] = counts(gamma, r)
        except WindowTooSmall:
            pass
    tail = list(found)[(2 * len(found)) // 3 :]
    return DensityReport(
        radii=tuple(radii),
        n_minus=tuple(found.get(r, (0, 0))[0] for r in radii),
        n_plus=tuple(found.get(r, (0, 0))[1] for r in radii),
        reliable=tuple(r in found for r in radii),
        d_minus_estimate=min((found[r][0] / r**2 for r in tail), default=0.0),
        d_plus_estimate=max((found[r][1] / r**2 for r in tail), default=math.inf),
    )
