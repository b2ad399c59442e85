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
from scipy.spatial import cKDTree

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
        if len(np.unique(pts)) != len(pts):
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
            if len(np.unique(idx, axis=0)) != len(idx):
                raise ValidationError("lattice indices must be distinct per point")
            idx.flags.writeable = False
            object.__setattr__(self, "indices", idx)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "window_radius", w)

    def __len__(self):
        return len(self.points)

    def xy(self) -> np.ndarray:
        """Points as an (n, 2) real array, for spatial queries."""
        return np.column_stack([self.points.real, self.points.imag])

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
    """
    s = float(spacing)
    if not (math.isfinite(s) and s > 0.0):
        raise ValidationError("spacing must be positive and finite")
    w = float(window_radius)
    if w < 0.0:
        raise EmptyWindow(f"window_radius {w:g} is negative")
    kmax = int(math.floor(w / s))
    rng = np.arange(-kmax, kmax + 1, dtype=np.int64)
    m, n = np.meshgrid(rng, rng)  # row index varies over n
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
    if not (alpha > 0.0 and ratio > 0.0):
        raise ValidationError("alpha and density_ratio must be positive")
    return square_lattice(math.sqrt(math.pi / (alpha * ratio)), window_radius)


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
    rng = np.random.default_rng(seed)
    n = len(lattice)
    radius = q * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    shifted = lattice.points + radius * np.exp(1j * theta)
    if len(np.unique(shifted)) != n:
        raise CollisionAfterPerturbation(
            "two perturbed points coincide; retry with another seed or a "
            "smaller max_shift"
        )
    return PointSet(shifted, lattice.window_radius + q, lattice.indices)


def separation(gamma: PointSet) -> float:
    """Exact minimal pairwise distance ``q``.

    Uses a k-d tree, so uniformly discrete inputs of a million points
    finish in seconds.

    Raises
    ------
    TooFewPoints
        If the set has fewer than two points.
    """
    if len(gamma) < 2:
        raise TooFewPoints("separation needs at least 2 points")
    tree = cKDTree(gamma.xy())
    dists, _ = tree.query(gamma.xy(), k=2, workers=-1)
    return float(np.min(dists[:, 1]))


def nearest_distance(gamma: PointSet, zs) -> np.ndarray:
    """Exact distance from each query point to the nearest set point."""
    zs = np.asarray(zs, dtype=np.complex128)
    tree = cKDTree(gamma.xy())
    q = np.column_stack([zs.ravel().real, zs.ravel().imag])
    d, _ = tree.query(q, k=1, workers=-1)
    return d.reshape(zs.shape)


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
        If two points round to the same lattice index.
    """
    s = lattice.spacing
    m = np.rint(gamma.points.real / s).astype(np.int64)
    n = np.rint(gamma.points.imag / s).astype(np.int64)
    matching = np.column_stack([m, n])
    if len(np.unique(matching, axis=0)) != len(matching):
        raise NotUniformlyClose(
            "two points round to the same lattice index; the set is not "
            f"uniformly close to the spacing-{s:g} lattice"
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
    return np.unique(np.concatenate([values, mids]))


def counts(gamma: PointSet, r: float, translate_step: float):
    """Exact extremal counts of points in a translated half-open square.

    Scans all translates ``t`` for which ``t + [0, r] x [0, r]`` fits
    inside the window disk and returns the exact minimum and maximum of
    ``#(points in t + [0, r) x [0, r))``. Counts only change when a square
    edge crosses a point coordinate or the feasibility boundary crosses
    such an event line, so evaluating at those critical translates (the
    coarse ``translate_step`` grid is folded in as a prefilter) is
    exhaustive. A run of candidate ``t_x`` sharing one column of points
    ``t_x <= x < t_x + r`` is scanned in one pass. At each ``t_x`` the
    ``t_y`` candidates are the y-events in its feasible interval
    ``[-g, g - r]`` plus both ends. These intervals are nested about
    ``-r/2``, also in floating point as ``sqrt`` and ``g - r`` round
    monotonically, so a column's candidates are the y-events in its
    widest interval plus every translate's ends: exactly the
    ``(column, t_y)`` pairs, and so the counts, of a per-translate scan.

    Coordinates within a few ulps of a square edge are resolved as if
    they sat exactly on it (left edge closed, right edge open). Without
    this, rounding in point coordinates flips half-open membership both
    ways when the square side is an exact multiple of a lattice spacing,
    which is precisely the aligned case density scans rely on.

    Raises
    ------
    WindowTooSmall
        When no translate fits inside the window.
    """
    r = float(r)
    step = float(translate_step)
    if not (r > 0.0 and step > 0.0):
        raise ValidationError("r and translate_step must be positive")
    w = gamma.window_radius
    tol = 16.0 * np.finfo(np.float64).eps * (1.0 + w + r)
    xspan = _feasible_x_interval(w, r)
    if xspan is None:
        raise WindowTooSmall(
            f"no translate of a side-{r:g} square fits in the window disk "
            f"of radius {w:g}"
        )
    xlo, xhi = xspan
    order = np.argsort(gamma.points.real, kind="stable")
    xs, ys_by_x = gamma.points.real[order], gamma.points.imag[order]

    bx = np.concatenate([xs, xs - r])
    by = np.unique(np.concatenate([ys_by_x, ys_by_x - r]))

    # t_x values where the feasible t_y interval endpoint crosses a
    # horizontal event line; between these and the bx events the set of
    # reachable count cells is constant in t_x.
    targets = np.concatenate([by, by + r])
    root = w * w - targets * targets
    rt = np.sqrt(root[root >= 0.0])
    cross = np.concatenate([rt, -rt, -r + rt, -r - rt])
    grid = np.arange(xlo, xhi, step) if xhi > xlo else np.array([xlo])

    xcand = np.concatenate([bx, cross, grid, [xlo, xhi]])
    xcand = np.unique(np.clip(xcand, xlo, xhi))
    tx = _with_midpoints(xcand)

    # Feasible t_y interval [-g, g - r] of each candidate t_x.
    edge = np.maximum(np.abs(tx), np.abs(tx + r))
    root = w * w - edge * edge
    ok = root >= 0.0
    tx, g = tx[ok], np.sqrt(root[ok])
    keep = -g <= g - r
    tx, g = tx[keep], g[keep]
    if tx.size == 0:
        raise WindowTooSmall("feasible translate region is empty")
    ends = np.stack([-g, g - r], axis=1)

    # i0 and i1 are nondecreasing in t_x, so each column is one run.
    i0 = np.searchsorted(xs, tx - tol, side="left")
    i1 = np.searchsorted(xs, tx + r - tol, side="left")
    starts = np.flatnonzero(np.diff(i0, prepend=-1) | np.diff(i1, prepend=-1))
    stops = np.append(starts[1:], tx.size)
    widest = np.maximum.reduceat(g, starts)
    ev_lo = np.searchsorted(by, -widest, side="left")
    ev_hi = np.searchsorted(by, widest - r, side="right")

    # Top and bottom edge of the square at each t_y candidate, less tol.
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


def density_estimate(gamma: PointSet, radii, translate_step: float) -> DensityReport:
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
    n_minus, n_plus, reliable = [], [], []
    for r in radii:
        try:
            lo, hi = counts(gamma, r, translate_step)
        except WindowTooSmall:
            n_minus.append(0)
            n_plus.append(0)
            reliable.append(False)
            continue
        n_minus.append(lo)
        n_plus.append(hi)
        reliable.append(True)
    good = [i for i, ok in enumerate(reliable) if ok]
    if good:
        tail = good[(2 * len(good)) // 3 :]
        d_lo = min(n_minus[i] / radii[i] ** 2 for i in tail)
        d_hi = max(n_plus[i] / radii[i] ** 2 for i in tail)
    else:
        d_lo = 0.0
        d_hi = math.inf
    return DensityReport(
        radii=tuple(radii),
        n_minus=tuple(n_minus),
        n_plus=tuple(n_plus),
        reliable=tuple(reliable),
        d_minus_estimate=d_lo,
        d_plus_estimate=d_hi,
    )
