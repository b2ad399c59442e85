"""Canonical products with lattice-like zero sets, in log form.

The central object is the entire function vanishing on a square lattice
(the Weierstrass sigma function of that lattice) and its generalization
to point sets uniformly close to a lattice:

    g(z) = (z - z00) * prod' (1 - z/z_mn) exp(z/z_mn + z^2/(2*lambda_mn^2)),

where ``z_mn`` are the actual points, ``lambda_mn = s*(m+in)`` the
matched lattice sites, ``z00`` the point closest to the origin, and the
prime skips its index. Note the mixed convention: the linear factors use
the true points while the quadratic exponent keeps the lattice site.

Both are evaluated in closed form. For spacing ``s`` the periods are
``s`` and ``is``, the quasi-period constants are ``eta1 = pi/s`` and
``eta2 = -i pi/s``, and (DLMF 23.6, nome ``q = exp(-pi)``)

    sigma(z) = (s/pi) exp(pi z^2 / (2 s^2)) theta_1(pi z/s, q) / theta_1'(0, q),

summed as a 4-term theta series after the argument is reduced to the
fundamental cell by the quasi-period law. The product then differs from
``sigma * (z - z00)/z`` by a finite product of ratios, one for each
index of shell ``max(|m|,|n|) <= M`` (the truncation index) where the
set differs from the lattice: a displaced point ``p`` at site ``lambda``
contributes ``(1 - z/p) exp(z/p) / ((1 - z/lambda) exp(z/lambda))`` (the
quadratic exponents cancel), and a lattice site carrying no zero of g
(a removed interior point, or the site of ``z00``) contributes
``1 / ((1 - z/lambda) exp(z/lambda + z^2/(2 lambda^2)))``. Beyond shell
M and beyond the window the zero set is completed by the lattice
itself, which sigma already carries. Everything is evaluated in log
form, and exact zeros stay exact.

Evaluation at a point z splits the ratios by shell. Shells beyond
``2|z|/s`` fold into one power series. The nearer ratios are multiplied
out in blocks of 16 and take one log|.| and one arg per block, since a
log costs several times a complex multiply. Each factor is formed as a
quotient of order 1 before it enters a block: ``(p - z)/(lambda - z)``
for a displaced point, whose constant ``log(lambda/p)`` is summed once
per product, and ``(lambda - z)/lambda`` for a site carrying no zero,
whose block log is subtracted. Products of the raw differences
``p - z`` and ``lambda - z`` would reach many times the size of their
quotient, and the difference of their logs would lose digits to
cancellation. The factor that vanishes at a point (a root equal to z,
or a ratio whose site is the lattice site nearest z) is found by
lookup in sorted arrays, not by comparing every (point, ratio) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NodeIndexMissing,
    NotUniformlyClose,
    PointNotInSet,
    TruncationTooSmall,
    ValidationError,
)
from .pointsets import PointSet, SquareLattice, nearest_distance, separation
from .space import LogComplex, _check_alpha, reduce_phase

__all__ = [
    "CanonicalProduct",
    "GrowthBoundFit",
    "sigma_log",
    "quasi_period_constants",
    "canonical_product",
    "gfun_log",
    "gfun_derivative_at_node",
    "growth_check",
]

# theta_1(v, q) / (2 q^(1/4)) = sum_n (-1)^n q^(n(n+1)) sin((2n+1) v) at
# q = exp(-pi); on the fundamental cell |Im v| <= pi/2, so the terms past
# n = 3, which are left out, are below 1.5e-22 of the first.
_THETA_ORDERS = 2.0 * np.arange(4) + 1.0
_THETA_COEFFS = np.array([(-1.0) ** n * math.exp(-math.pi * n * (n + 1)) for n in range(4)])
_THETA_SLOPE = float(np.sum(_THETA_COEFFS * _THETA_ORDERS))
# Power-series order for ratios in shells beyond 2|z|/spacing, where
# |z/point| <= 1/2; the neglected remainder is below 2^-60 per ratio.
_SERIES_ORDER = 60
# Near-field factors multiplied together before one log is taken. Off
# the lattice site nearest z a displaced quotient (p - z)/(lambda - z)
# is below 2 in modulus, as |p - lambda| < s/2 <= |lambda - z|, and a
# bare factor 1 - z/lambda is below 1 + |z|/s < M + 2 under the
# truncation guard |z| < (M+1)s; at that site the factor becomes z - p
# (below s) or -1/lambda (at most 1/s). So a block of 16 stays below
# (M+2)^16 max(s, 1/s). A factor is small only close to its own root or
# site, and a double z is never closer to one than an ulp, so a block
# does not underflow either.
_BLOCK = 16
# cells (points x padded ratios) per near-field chunk; the chunk's
# temporaries (two complex arrays and the halving products) stay below
# 30 MB
_CHUNK_CELLS = 600_000


def _check_M(M) -> None:
    if M is not None and int(M) < 1:
        raise ValidationError("M must be a positive integer")


def _check_truncation(rho: np.ndarray, M: int) -> None:
    """Raise if ``rho = |z|/spacing`` reaches the truncation index plus one."""
    top = float(np.max(rho)) if np.size(rho) else 0.0
    if top >= M + 1:
        raise TruncationTooSmall(
            f"evaluation radius {top:.3g} spacings exceeds the truncation "
            f"index {M}; increase M to at least {math.ceil(2 * top + 20)}"
        )


def _sigma_parts(spacing: float, zs: np.ndarray):
    """Split log sigma(z) as ``log(w) + rest`` over an array of points.

    Returns ``(lambda, w, rest)``: ``lambda`` is the nearest lattice
    site, ``w = z - lambda``, and ``rest`` is finite everywhere: at ``w = 0`` it is ``log sigma'(lambda)``
    (the quasi-period law at w = 0, with sigma'(0) = 1). Phases are not
    reduced.
    """
    s = spacing
    k = np.rint(zs.real / s)
    l = np.rint(zs.imag / s)
    site = s * (k + 1j * l)
    w = zs - site
    v = (math.pi / s) * w
    theta = sum(c * np.sin(n * v) for n, c in zip(_THETA_ORDERS, _THETA_COEFFS))
    # below |v| = 1e-9, theta_1(v)/v is theta_1'(0) to rounding, and the
    # division would lose digits on subnormal v
    small = np.abs(v) < 1e-9
    theta_over_v = np.where(small, _THETA_SLOPE, theta / np.where(small, 1.0, v))
    eta1, eta2 = math.pi / s, -1j * math.pi / s
    shift = (
        eta1 * k * (w + k * s / 2.0)
        + eta2 * l * (w + k * s + 1j * l * s / 2.0)
        + 1j * math.pi * np.mod(k + l, 2.0)
    )
    rest = (math.pi / (2.0 * s * s)) * w * w + np.log(theta_over_v / _THETA_SLOPE) + shift
    return site, w, rest


def quasi_period_constants(lattice: SquareLattice, M: int | None = None):
    """Constants eta1, eta2 of the lattice translation law.

    They are defined by ``sigma(z+s) = -sigma(z) exp(eta1 (z + s/2))``
    and ``sigma(z+is) = -sigma(z) exp(eta2 (z + is/2))``. For the square
    lattice of spacing s they are ``pi/s`` and ``-i pi/s`` exactly, which
    satisfy the quarter-turn symmetry ``eta2 = -i eta1`` and the
    Legendre-type relation ``eta1 (is) - eta2 s = 2 pi i``.

    ``M`` is deprecated and ignored; a value below 1 still raises
    :class:`ValidationError`.
    """
    _check_M(M)
    s = lattice.spacing
    return complex(math.pi / s, 0.0), complex(0.0, -math.pi / s)


def sigma_log(lattice: SquareLattice, z: complex, M: int | None = None) -> LogComplex:
    """Log form of the lattice sigma function at ``z``.

    The argument is reduced to the fundamental cell centered at the
    origin with the quasi-period law, and sigma is summed there from its
    Jacobi theta_1 closed form. Lattice points return an exact zero.

    ``M`` is deprecated and ignored, since the closed form has no
    truncation; a value below 1 still raises :class:`ValidationError`.
    """
    _check_M(M)
    total = complex(_sigma_log_many(lattice.spacing, np.array([complex(z)]))[0])
    return LogComplex(total.real, total.imag)


def _sigma_log_many(spacing: float, zs: np.ndarray) -> np.ndarray:
    """Complex log sigma over an array; ``-inf`` at the lattice points."""
    _, w, rest = _sigma_parts(spacing, zs)
    zero = w == 0
    out = np.log(np.where(zero, 1.0, w)) + rest
    out[zero] = -math.inf
    return out


@dataclass(frozen=True)
class GrowthBoundFit:
    """Fitted constants of the two-sided weighted growth bound.

    The scan certifies ``C1 * exp(-c*phi(z)) * dist(z, points) <= w(z)``
    and ``w(z) <= C2 * exp(c*phi(z))`` at every grid point, where
    ``w(z) = exp(-alpha |z|^2 / 2) |g(z)|`` and
    ``phi(z) = max(|z|,1) * log(max(|z|,1))``. ``violations`` counts
    structural failures (a vanishing w away from the zero set, or
    non-finite values); it is 0 for a successful fit.
    """

    c: float
    C1: float
    C2: float
    grid_radius: float
    violations: int


@dataclass(frozen=True, slots=True)
class _SortedKeys:
    """Columns of a ratio array, looked up by exact equality of a key."""

    keys: np.ndarray
    cols: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "_SortedKeys":
        order = np.argsort(values, kind="stable")
        return cls(values[order], order)

    def find(self, values: np.ndarray, stop: int):
        """``(rows, cols)`` where ``values[row]`` is the key of a column below ``stop``."""
        pos = np.minimum(np.searchsorted(self.keys, values), self.keys.size - 1)
        cols = self.cols[pos]
        rows = np.flatnonzero((self.keys[pos] == values) & (cols < stop))
        return rows, cols[rows]


@dataclass(frozen=True, slots=True, eq=False)
class CanonicalProduct:
    """Canonical product for a point set near a square lattice.

    Use :func:`canonical_product` to build. The product is sigma times
    ``(z - z00)/z`` times one ratio per index of shell at most
    ``truncation_index`` where the set differs from the lattice: a
    displaced point (``_roots``, at ``_sites``) or a lattice site that
    carries no zero (``_bare``). Both are shell-sorted; the first
    ``_moved_starts[k]`` and ``_bare_starts[k]`` of them lie in shells
    below k. ``_near_poly[k]`` holds the constant, linear and quadratic
    coefficients summed over the ratios in shells below k, and
    ``_far_sums[k]`` the power-series coefficients of the ratios from
    shell k on.
    """

    gamma: PointSet
    lattice: SquareLattice
    z00: complex
    z00_index: tuple
    truncation_index: int
    closeness_Q: float
    separation_q: float
    _index_of: dict
    _roots: np.ndarray
    _sites: np.ndarray
    _bare: np.ndarray
    _moved_starts: np.ndarray
    _bare_starts: np.ndarray
    _root_keys: _SortedKeys
    _site_keys: _SortedKeys
    _bare_keys: _SortedKeys
    _near_poly: np.ndarray
    _far_sums: np.ndarray

    def node_at(self, m: int, n: int) -> complex:
        """The point (or completing lattice site) at index (m, n)."""
        key = (int(m), int(n))
        if key in self._index_of:
            return complex(self.gamma.points[self._index_of[key]])
        return self.lattice.point(*key)

    def __repr__(self):
        return (
            f"CanonicalProduct({len(self.gamma)} points, "
            f"s={self.lattice.spacing:g}, M={self.truncation_index}, "
            f"Q={self.closeness_Q:g})"
        )


def canonical_product(gamma: PointSet, lattice: SquareLattice, truncation_index: int) -> CanonicalProduct:
    """Build the canonical product of an indexed point set.

    Raises
    ------
    NodeIndexMissing
        If the point set has no lattice indices.
    NotUniformlyClose
        If some point strays by spacing/2 or more from its lattice site,
        which would break the index bijection.
    """
    M = int(truncation_index)
    if M < 1:
        raise ValidationError("truncation_index must be a positive integer")
    if gamma.indices is None:
        raise NodeIndexMissing("canonical products need a lattice-indexed set")
    s = lattice.spacing
    sites = s * (gamma.indices[:, 0] + 1j * gamma.indices[:, 1])
    disp = np.abs(gamma.points - sites)
    q_max = float(np.max(disp))
    if q_max >= s / 2:
        raise NotUniformlyClose(
            f"closeness {q_max:g} is not below spacing/2 = {s / 2:g}"
        )
    sep = separation(gamma) if len(gamma) >= 2 else math.inf

    # closest point to 0; ties broken by the smaller canonical phase
    absv = np.abs(gamma.points)
    phases = reduce_phase(np.angle(gamma.points))
    pos = int(np.lexsort((phases, absv))[0])
    z00 = complex(gamma.points[pos])
    z00_index = (int(gamma.indices[pos, 0]), int(gamma.indices[pos, 1]))
    index_of = {(int(m), int(n)): i for i, (m, n) in enumerate(gamma.indices)}

    # Ratios: displaced points within shell M; then the lattice sites of
    # the index square that carry no zero of g: interior sites the set
    # lacks (removed points) and the site of z00, whose zero is the
    # leading factor. Sites beyond the window's reach stay lattice zeros.
    shells = np.max(np.abs(gamma.indices), axis=1)
    inside = shells <= M
    moved = inside & (gamma.points != sites)
    moved[pos] = False
    side = np.arange(-M, M + 1, dtype=np.int64)
    mm, nn = np.meshgrid(side, side)
    lambdas = s * (mm.astype(np.float64) + 1j * nn.astype(np.float64))
    bare = np.abs(lambdas) <= gamma.window_radius - s / 2
    bare[gamma.indices[inside, 1] + M, gamma.indices[inside, 0] + M] = False
    m0, n0 = z00_index
    if max(abs(m0), abs(n0)) <= M:
        bare[n0 + M, m0 + M] = True
    bare[M, M] = False  # the origin's zero is divided out by (z - z00)/z

    ring = np.maximum(np.abs(mm), np.abs(nn))[bare]
    by_shell = np.argsort(shells[moved], kind="stable")
    roots = gamma.points[moved][by_shell]
    moved_sites = sites[moved][by_shell]
    moved_shells = shells[moved][by_shell]
    by_shell = np.argsort(ring, kind="stable")
    bare_sites = lambdas[bare][by_shell]
    bare_shells = ring[by_shell]

    # Per ratio, binned by shell: the constant, z and z^2 coefficients of
    # its log beside the near-field quotient (log(lambda/p) + z (1/p -
    # 1/lambda) displaced, -z/lambda - z^2/(2 lambda^2) bare), and the
    # power series -sum_{j>=2} z^j/j (root^-j - site^-j) of the whole
    # ratio, with root^-j read as 0 at a bare site, whose j = 2 term the
    # quadratic exponent cancels. Prefix sums give the near ratios below
    # a shell cut, suffix sums the far ones.
    inv_moved = 1.0 / moved_sites
    inv_bare = 1.0 / bare_sites
    poly = np.zeros((M + 1, 3), dtype=np.complex128)
    np.add.at(poly[:, 0], moved_shells, np.log(moved_sites / roots))
    np.add.at(poly[:, 1], moved_shells, 1.0 / roots - inv_moved)
    np.add.at(poly[:, 1], bare_shells, -inv_bare)
    np.add.at(poly[:, 2], bare_shells, -0.5 * inv_bare**2)
    js = np.arange(2, _SERIES_ORDER + 1)
    series = np.zeros((M + 1, js.size), dtype=np.complex128)
    np.add.at(series, moved_shells, -((1.0 / roots)[:, None] ** js - inv_moved[:, None] ** js) / js)
    np.add.at(series[:, 1:], bare_shells, inv_bare[:, None] ** js[1:] / js[1:])

    cuts = np.arange(M + 2)
    return CanonicalProduct(
        gamma=gamma,
        lattice=lattice,
        z00=z00,
        z00_index=z00_index,
        truncation_index=M,
        closeness_Q=q_max,
        separation_q=sep,
        _index_of=index_of,
        _roots=roots,
        _sites=moved_sites,
        _bare=bare_sites,
        _moved_starts=np.searchsorted(moved_shells, cuts),
        _bare_starts=np.searchsorted(bare_shells, cuts),
        _root_keys=_SortedKeys.of(roots),
        _site_keys=_SortedKeys.of(moved_sites),
        _bare_keys=_SortedKeys.of(bare_sites),
        _near_poly=np.concatenate([np.zeros((1, 3)), np.cumsum(poly, axis=0)]),
        _far_sums=np.concatenate([np.cumsum(series[::-1], axis=0)[::-1], np.zeros((1, js.size))]),
    )


def _block_log(x: np.ndarray) -> np.ndarray:
    """Per row, the sum over blocks of ``_BLOCK`` columns of the log of
    the block's product; the phase is right modulo 2 pi only.

    The blocks are multiplied out by halving, which runs faster than
    ``np.prod`` along the axis.
    """
    width = _BLOCK
    while width > 1:
        x = x[:, 0::2] * x[:, 1::2]
        width //= 2
    return np.sum(np.log(np.abs(x)), axis=1) + 1j * np.sum(np.angle(x), axis=1)


def _padded(n: int) -> int:
    """``n`` rounded up to a whole number of blocks."""
    return -(-n // _BLOCK) * _BLOCK


def _blocks(rows: int, n: int) -> np.ndarray:
    """Uninitialized ``rows x n`` factors, padded with ones to whole blocks."""
    out = np.empty((rows, _padded(n)), dtype=np.complex128)
    out[:, n:] = 1.0
    return out


def _near_log(cp: CanonicalProduct, zs: np.ndarray, k: int):
    """Log of sigma * (z - z00)/z * the ratios in shells below ``k``, and zero flags.

    Where a linear factor vanishes its derivative stands in for it, so
    at a zero of g the value is log g'(z). Where a ratio's site (or the
    origin, under ``1/z``) is the lattice site nearest z, the ratio's
    ``lambda - z`` cancels sigma's ``w = z - lambda`` to -1 exactly, so
    no zero and no cancellation is left there. Phases are not reduced.
    """
    site, w, total = _sigma_parts(cp.lattice.spacing, zs)
    divided = np.zeros(zs.shape, dtype=bool)
    zero = np.zeros(zs.shape, dtype=bool)
    if cp.z00 != 0:
        lead = zs - cp.z00
        divided |= site == 0
        zero |= lead == 0
        total = total + np.log(np.where(lead == 0, 1.0, lead)) - np.log(np.where(divided, 1.0, zs))
    n = int(cp._moved_starts[k])
    if n:
        # (p - z)/(lambda - z), padded with ones to whole blocks
        quot = _blocks(zs.size, n)
        num = quot[:, :n]
        np.subtract(cp._roots[:n], zs[:, None], out=num)
        den = cp._sites[:n] - zs[:, None]
        rows, cols = cp._root_keys.find(zs, n)
        num[rows, cols] = -1.0
        zero[rows] = True
        rows, cols = cp._site_keys.find(site, n)
        den[rows, cols] = -1.0
        divided[rows] = True
        np.divide(num, den, out=num)
        total = total + _block_log(quot)
    n = int(cp._bare_starts[k])
    if n:
        # (lambda - z) * (1/lambda): subtracting first keeps the relative
        # accuracy that 1 - z/lambda loses next to the site
        fac = _blocks(zs.size, n)
        diff = fac[:, :n]
        np.subtract(cp._bare[:n], zs[:, None], out=diff)
        rows, cols = cp._bare_keys.find(site, n)
        diff[rows, cols] = -1.0
        divided[rows] = True
        diff *= 1.0 / cp._bare[:n]
        total = total - _block_log(fac)
    c0, c1, c2 = cp._near_poly[k]
    total = total + (c0 + zs * (c1 + zs * c2))
    zero |= (w == 0) & ~divided
    return total + np.log(np.where(divided | (w == 0), 1.0, w)), zero


def _gfun_log_many(cp: CanonicalProduct, zs: np.ndarray) -> np.ndarray:
    """Complex log of g at many points (phase not yet reduced).

    Ratios in shells below ``2|z|/s`` are multiplied out in blocks; the
    remaining shells enter through the precomputed power-sum series
    (each such ratio has ``|z/root| <= 1/2``), so the cost per point
    grows with ``(|z|/s)^2`` only where the set is displaced.
    """
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    s = cp.lattice.spacing
    M = cp.truncation_index
    az = np.abs(zs)
    _check_truncation(az / s, M)
    out = np.empty(zs.shape, dtype=np.complex128)
    cuts = np.minimum(
        M + 1, np.ceil(2.0 * az / s + 0.5).astype(np.int64).clip(min=1)
    )
    for k0 in np.unique(cuts):
        sel = np.flatnonzero(cuts == k0)
        width = _padded(int(cp._moved_starts[k0])) + _padded(int(cp._bare_starts[k0]))
        coeffs = cp._far_sums[k0]
        far = coeffs.any()  # a zero row: no ratio at or beyond this shell cut
        chunk = max(1, _CHUNK_CELLS // max(width, 1))
        for start in range(0, sel.size, chunk):
            idx = sel[start : start + chunk]
            part = zs[idx]
            near, zero = _near_log(cp, part, k0)
            if far:
                near = near + np.polyval(coeffs[::-1], part) * (part * part)
            out[idx] = np.where(zero, -np.inf, near)
    return out


def gfun_log(cp: CanonicalProduct, z: complex) -> LogComplex:
    """Log form of the canonical product at ``z``.

    Exact zeros (log_mag = -inf) at the set's points and at the
    lattice sites completing the zero set.

    Raises
    ------
    TruncationTooSmall
        If ``|z|`` reaches ``truncation_index + 1`` spacings.
    """
    val = complex(_gfun_log_many(cp, np.array([complex(z)]))[0])
    if val.real == -math.inf or math.isnan(val.imag):
        return LogComplex(-math.inf, 0.0)
    return LogComplex(val.real, val.imag)


def gfun_derivative_at_node(cp: CanonicalProduct, node_index) -> LogComplex:
    """Log form of g'(z_mn) at a simple zero.

    At a simple zero the derivative is the product of all remaining
    factors times the derivative of the vanishing one, so it is
    evaluated in log form over every ratio rather than by differencing.
    At an undisplaced node the vanishing factor is sigma's, and
    sigma'(lambda) follows in closed form from the quasi-period law.

    Raises
    ------
    PointNotInSet
        If the index does not belong to the point set.
    TruncationTooSmall
        If the node lies outside the truncation square.
    """
    m, n = int(node_index[0]), int(node_index[1])
    if (m, n) not in cp._index_of:
        raise PointNotInSet(f"index ({m}, {n}) is not in the point set")
    zq = complex(cp.gamma.points[cp._index_of[(m, n)]])
    M = cp.truncation_index
    _check_truncation(np.abs(np.array([zq])) / cp.lattice.spacing, M)
    if max(abs(m), abs(n)) > M:
        raise TruncationTooSmall(
            f"node index ({m}, {n}) lies outside the truncation square M={M}"
        )
    total = complex(_near_log(cp, np.array([zq]), M + 1)[0][0])
    return LogComplex(total.real, total.imag)


def growth_check(cp: CanonicalProduct, alpha: float, grid_radius: float, grid_step: float) -> GrowthBoundFit:
    """Scan the weighted modulus of g against two-sided growth bounds.

    The scan covers the disk ``|z| <= grid_radius``. The growth exponent
    ``c`` is fitted by anchoring the constants on the reference disk
    ``|z| <= max(1, 2s)`` where ``phi`` vanishes or is small, then
    taking the smallest ``c`` that absorbs every excursion of the upper
    envelope of ``log w`` and the lower envelope of ``log(w/dist)``
    beyond the anchors (slopes are measured against ``max(phi, 1)`` so
    the asymptotic exponent is not dominated by points just outside the
    unit disk). The returned constants are then re-optimized at that
    ``c``, so the reported triple satisfies both bounds at every grid
    point by construction. Periodic weighted moduli therefore fit with
    ``c`` at rounding level.

    Raises
    ------
    ValidationError
        If the parameters are out of range, or no grid point lies off
        the zero set (the lower bound would have nothing to fit).
    """
    alpha = _check_alpha(alpha)
    grid_radius = float(grid_radius)
    grid_step = float(grid_step)
    if not (grid_radius > 0.0 and grid_step > 0.0):
        raise ValidationError("grid_radius and grid_step must be positive")
    if grid_radius > 0.6 * cp.gamma.window_radius + 1e-12:
        raise ValidationError(
            "grid_radius must stay within 0.6 of the window radius to "
            "avoid edge effects"
        )
    half = int(math.floor(grid_radius / grid_step))
    axis = grid_step * np.arange(-half, half + 1, dtype=np.float64)
    zz = (axis[None, :] + 1j * axis[:, None]).ravel()
    zz = zz[np.abs(zz) <= grid_radius]

    logs = _gfun_log_many(cp, zz)
    logw = logs.real - 0.5 * alpha * np.abs(zz) ** 2
    dist = nearest_distance(cp.gamma, zz)
    if not np.any(dist > 0):
        raise ValidationError(
            "every grid point lies on the zero set; refine grid_step or "
            "widen grid_radius"
        )
    r = np.abs(zz)
    rr = np.maximum(r, 1.0)
    phi = rr * np.log(rr)

    nan_bad = int(np.count_nonzero(np.isnan(logw)))
    zero_bad = int(np.count_nonzero(np.isneginf(logw) & (dist > 0)))
    violations = nan_bad + zero_bad
    ok = ~np.isnan(logw)

    s = cp.lattice.spacing
    ref = (r <= max(1.0, 2.0 * s)) & ok
    if not np.any(ref):
        ref = ok
    upper_ref = float(np.max(logw[ref]))
    low_mask = (dist > 0) & ok & np.isfinite(logw)
    with np.errstate(divide="ignore"):
        logwd = logw - np.log(dist, where=dist > 0, out=np.full_like(dist, np.inf))
    lower_ref = float(np.min(logwd[ref & low_mask])) if np.any(ref & low_mask) else 0.0

    out = ~ref & ok
    denom = np.maximum(phi, 1.0)
    c_up = 0.0
    if np.any(out & np.isfinite(logw)):
        sel = out & np.isfinite(logw)
        c_up = float(np.max((logw[sel] - upper_ref) / denom[sel]))
    c_dn = 0.0
    if np.any(out & low_mask):
        sel = out & low_mask
        c_dn = float(np.max((lower_ref - logwd[sel]) / denom[sel]))
    c = max(0.0, c_up, c_dn)

    finite_w = ok & np.isfinite(logw)
    c2 = float(np.exp(np.max(logw[finite_w] - c * phi[finite_w])))
    c1 = float(np.exp(np.min(logwd[low_mask] + c * phi[low_mask])))
    return GrowthBoundFit(
        c=c, C1=c1, C2=c2, grid_radius=grid_radius, violations=violations
    )
