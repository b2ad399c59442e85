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
fundamental cell by the quasi-period law. With ``sin((2n+1) v) = sin v
U_2n(cos v)`` (Chebyshev polynomials of the second kind) the series is
``sin v`` times one Clenshaw sum, and ``sin v`` comes from the real
``sin``/``cos`` of ``Re v`` and ``sinh``/``cosh`` of ``Im v``, none of
which can overflow on the cell, where ``|Im v| <= pi/2``. Every complex
log here is :func:`space._log`, ``log|.|`` plus the angle, which costs
about a tenth of numpy's complex log, but for the logs of displaced
ratios near 1 that the constants below sum by the thousand: they are
:func:`space._log1p` of the ratio's offset from 1, formed from
``lambda - p``, since ``log|.|`` of a ratio near 1 is off by up to an
ulp of 1 and the rounding of the ratio itself by as much again. The
product then differs from
``sigma * (z - z00)/z`` by a finite product of ratios, one for each
index where the set differs from the lattice. A ratio moves the zero at
site ``lambda`` to the root ``p``:
``(1 - z/p) exp(z/p) / ((1 - z/lambda) exp(z/lambda))``
(the quadratic exponents cancel). A lattice site carrying no zero of g
(a removed interior point, or the site of ``z00``) is the ratio with
``p = infinity``, ``1 / ((1 - z/lambda) exp(z/lambda + z^2/(2 lambda^2)))``:
no constant, and its quadratic exponent kept. Beyond the window the
zero set is completed by the lattice itself, which sigma already
carries. Every point of the set is taken, so no truncation index cuts
the zero set. Everything is evaluated in log form, and exact zeros stay
exact.

The log of a ratio is a polynomial part (the constant ``log(lambda/p)``
and the exponents, linear and quadratic in z, summed over all ratios
once per product) plus a log part, ``log((p - z)/(lambda - z))``, which
is ``log(lambda/(lambda - z))`` at ``p = infinity``. Evaluation on many
points buckets them into square tiles sized so that a full tile holds
about 2^10 points. A tile with centre c and half-diagonal h splits the
ratios by their site: near when ``|lambda - c| < 2h + s/2``, far
otherwise. With ``u = z - c``, ``x = 1/(lambda - c)`` and ``y = 1/(p -
c)`` (``y = 0`` at ``p = infinity``), the far log parts sum to one
Taylor series per tile,

    sum log(x/y) + sum_j u^j/j sum (x^j - y^j),

where ``log(x/y)`` reads ``log(lambda x)`` at ``p = infinity``. It
converges because ``|u| <= h`` while ``|lambda - c| >= 2h + s/2`` and
``|p - c| > 2h`` (a point strays by less than s/2 from its site): every
ratio ``|u x|``, ``|u y|`` is below 1/2, so the remainder of one log
after order J is below ``2^-J/(J+1)``. J = 58 puts it below 2^-63.8,
so even 2^7 far logs at the worst ratio leave less than 2^-56; farther
ratios fall off like ``(h/|lambda - c|)^(J+1)``. A tile with fewer
points than J, such as a single point, takes every ratio as near.

Near log parts are multiplied out in blocks of 16 and take one log|.|
and one arg per block, since a log costs several times a complex
multiply. Each factor is a quotient of order 1, ``(p - z)/(lambda - z)``
or ``lambda/(lambda - z)``, formed after the subtraction ``lambda - z``,
which keeps the relative accuracy that ``1 - z/lambda`` loses next to
the site. Products of the raw differences ``p - z`` and ``lambda - z``
would reach many times the size of their quotient, and the difference
of their logs would lose digits to cancellation. The factor that
vanishes at a point (a root equal to z, or a ratio whose site is the
lattice site nearest z) is found by :func:`pointsets._match`, a sorted
exact-match search of the chunk's own roots and sites, not by comparing
every (point, ratio) pair. Both lie within ``h + s/2`` of the
centre, so they are always near. The vanishing factor's derivative takes
its place, so where g vanishes the pass returns log g'(z): the node
derivatives of a Lagrange series come from the grid's own tiles.

The factors, numerators and halved products of all chunks of a call
share one workspace, allocated once at the size of the largest chunk,
not fresh arrays that the allocator returns to the system and the
kernel faults in again chunk after chunk. Each output keeps the layout
a fresh array had, since numpy's complex rounding depends on it:
halving in place into a strided view changes last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NodeIndexMissing,
    NotUniformlyClose,
    PointNotInSet,
    ValidationError,
)
from .pointsets import PointSet, SquareLattice, _match, nearest_distance
from .space import (
    _BELOW_TINY_GAP, _LOG_2_600, _TINY, _check_alpha, _disk_grid, _log, _log1p, _log_values, reduce_phase
)

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
_THETA_COEFFS = np.array([(-1.0) ** n * math.exp(-math.pi * n * (n + 1)) for n in range(4)])
_THETA_SLOPE = float(sum((2 * n + 1) * c for n, c in enumerate(_THETA_COEFFS)))
# Order of a tile's far series (see the module docstring), and the
# fewest points a tile needs before it takes a far series at all.
_SERIES_ORDER = 58
# points in a full tile
_TILE_POINTS = 1 << 10
# Near-field factors multiplied together before one log is taken. Off
# the lattice site nearest z a displaced factor (p - z)/(lambda - z) is
# below 2 in modulus, as |p - lambda| < s/2 <= |lambda - z|, and a bare
# factor lambda/(lambda - z) is below 2 W/s + 1 for window radius W, as a
# bare site lies within W + s/2 of the origin; at that site the factor
# becomes z - p (below s) or -lambda. So a block of 16 stays below
# (2 W/s + 1)^16 max(1, s). A factor is small only close to its own
# root, and a double z is never closer to one than an ulp, so a block
# does not underflow either.
_BLOCK = 16
# cells (points x padded ratios) per near-field chunk: the chunk's factor
# array is then 2.4 MB, and a call's workspace at most twice that. That
# 600 000 cells (9.6 MB) took about 1.5 times as long, on a 20 081-point
# grid in a window of 20 spacings, was measured when every chunk
# allocated fresh temporaries, which the kernel page-faulted back in
# chunk after chunk; with one workspace per call it is unmeasured. Each
# row is computed on its own, so the chunk size does not change a value.
_CHUNK_CELLS = 150_000


def _sigma_parts(spacing: float, zs: np.ndarray):
    """Split log sigma(z) as ``log(w) + rest`` over an array of points.

    Returns ``(lambda, w, rest)``: ``lambda`` is the nearest lattice
    site, ``w = z - lambda``, and ``rest`` is finite everywhere: at
    ``w = 0`` it is ``log sigma'(lambda)`` (the quasi-period law at
    w = 0, with sigma'(0) = 1). The theta series is taken at ``v = pi w/s``
    in the fundamental cell, from real sines (:func:`_theta_over_v`), and
    its log through :func:`space._log`. Phases are not reduced.
    """
    s = spacing
    k = np.rint(zs.real / s)
    l = np.rint(zs.imag / s)
    site = s * (k + 1j * l)
    w = zs - site
    eta1, eta2 = math.pi / s, -1j * math.pi / s
    shift = (
        eta1 * k * (w + k * s / 2.0)
        + eta2 * l * (w + k * s + 1j * l * s / 2.0)
        + 1j * math.pi * np.mod(k + l, 2.0)
    )
    theta = _theta_over_v((math.pi / s) * w) / _THETA_SLOPE
    rest = (math.pi / (2.0 * s * s)) * w * w + _log(theta) + shift
    return site, w, rest


def _theta_over_v(v: np.ndarray) -> np.ndarray:
    """``theta(v) / v`` for the series ``theta(v) = sum_n c_n sin((2n+1) v)``
    of theta_1 / (2 q^(1/4)), over an array in the fundamental cell.

    Since ``sin((2n+1) v) = sin v U_2n(cos v)`` with the Chebyshev
    polynomials of the second kind, ``theta(v) = sin v sum_n c_n U_2n(cos v)``,
    and ``U_2n(cos v)`` obeys the three-term recurrence in ``2 cos 2v =
    2 - 4 sin^2 v``, so the sum is one Clenshaw pass and the only
    transcendentals are the real ``sin``, ``cos``, ``sinh`` and ``cosh``
    that make ``sin v``. They cannot overflow: ``|Im v| <= pi/2``.
    """
    x, y = v.real, v.imag
    sin_v = np.empty(v.shape, dtype=np.complex128)
    np.multiply(np.sin(x), np.cosh(y), out=sin_v.real)
    np.multiply(np.cos(x), np.sinh(y), out=sin_v.imag)
    two_cos = 2.0 - 4.0 * (sin_v * sin_v)
    b1, b2 = _THETA_COEFFS[-1], 0.0
    for c in _THETA_COEFFS[-2::-1]:
        b1, b2 = c + two_cos * b1 - b2, b1
    theta = sin_v * (b1 + b2)
    # below |v| = 1e-9, theta(v)/v is theta'(0) to rounding, and the
    # division would lose digits on subnormal v
    small = np.abs(v) < 1e-9
    return np.where(small, _THETA_SLOPE, theta / np.where(small, 1.0, v))


def quasi_period_constants(lattice: SquareLattice):
    """Constants eta1, eta2 of the lattice translation law.

    They are defined by ``sigma(z+s) = -sigma(z) exp(eta1 (z + s/2))``
    and ``sigma(z+is) = -sigma(z) exp(eta2 (z + is/2))``. For the square
    lattice of spacing s they are ``pi/s`` and ``-i pi/s`` exactly, which
    satisfy the quarter-turn symmetry ``eta2 = -i eta1`` and the
    Legendre-type relation ``eta1 (is) - eta2 s = 2 pi i``.
    """
    s = lattice.spacing
    return complex(math.pi / s, 0.0), complex(0.0, -math.pi / s)


def sigma_log(lattice: SquareLattice, z):
    """Log form of the lattice sigma function at a point or an array of
    points: a ``complex``, or an array of their shape, ``-inf`` (phase 0)
    at the lattice points; phases are not reduced.

    The argument is reduced to the fundamental cell centered at the
    origin with the quasi-period law, and sigma is summed there from its
    Jacobi theta_1 closed form, which has no truncation.

    Raises
    ------
    ValidationError
        If some ``z`` is not finite, or as :func:`space._log_values` where
        ``|z|`` is so large that the reduction to the cell loses every
        digit and the log modulus comes out NaN or ``+inf``.
    """
    zs = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(zs)):
        raise ValidationError(f"z must be finite, got {complex(zs[~np.isfinite(zs)][0])}")
    flat = zs.ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _log_values
        _, w, rest = _sigma_parts(lattice.spacing, flat)
        zero = w == 0
        out = _log(np.where(zero, 1.0, w)) + rest
    out[zero] = -math.inf
    return _log_values(out.reshape(zs.shape))


@dataclass(frozen=True)
class GrowthBoundFit:
    """Fitted constants of the two-sided weighted growth bound.

    The scan certifies ``C1 * exp(-c*phi(z)) * dist(z, points) <= w(z)``
    and ``w(z) <= C2 * exp(c*phi(z))`` at every grid point, where
    ``w(z) = exp(-alpha |z|^2 / 2) |g(z)|`` and
    ``phi(z) = max(|z|,1) * log(max(|z|,1))``. ``violations`` counts
    structural failures, a vanishing w away from the zero set; it is 0
    for a successful fit.
    """

    c: float
    C1: float
    C2: float
    grid_radius: float
    violations: int


@dataclass(frozen=True, slots=True, eq=False)
class CanonicalProduct:
    """Canonical product for a point set near a square lattice.

    Use :func:`canonical_product` to build. The product is sigma times
    ``(z - z00)/z`` times one ratio per index where the set differs from
    the lattice. Ratio ``k`` has its site at ``_sites[k]``; the first
    ``_roots.size`` ratios move that site's zero to ``_roots[k]``, and
    the others are sites carrying no zero, roots at infinity. ``_poly``
    holds the constant, linear and quadratic coefficients of the
    polynomial parts summed over every ratio; the log parts are taken per
    tile of query points (see the module docstring).
    """

    gamma: PointSet
    lattice: SquareLattice
    z00: complex
    z00_index: tuple
    closeness_Q: float
    _roots: np.ndarray
    _sites: np.ndarray
    _poly: tuple

    def __repr__(self):
        return (
            f"CanonicalProduct({len(self.gamma)} points, "
            f"s={self.lattice.spacing:g}, Q={self.closeness_Q:g})"
        )


def canonical_product(
    gamma: PointSet, lattice: SquareLattice, truncation_index: int | None = None
) -> CanonicalProduct:
    """Build the canonical product of an indexed point set.

    Every point of the set is a zero of the product. ``truncation_index``
    is deprecated and ignored; a value below 1 still raises
    :class:`ValidationError`.

    Raises
    ------
    NodeIndexMissing
        If the point set has no lattice indices.
    NotUniformlyClose
        If some point strays by spacing/2 or more from its lattice site,
        which would break the index bijection; fields ``closeness`` (the
        largest stray) and ``spacing``.
    """
    if truncation_index is not None and int(truncation_index) < 1:
        raise ValidationError("M must be a positive integer")
    if gamma.indices is None:
        raise NodeIndexMissing("canonical products need a lattice-indexed set")
    s = lattice.spacing
    sites = s * (gamma.indices[:, 0] + 1j * gamma.indices[:, 1])
    disp = np.abs(gamma.points - sites)
    q_max = float(np.max(disp))
    if q_max >= s / 2:
        raise NotUniformlyClose(
            f"closeness {q_max:g} is not below spacing/2 = {s / 2:g}",
            closeness=q_max,
            spacing=s,
        )

    # closest point to 0; ties broken by the smaller canonical phase
    absv = np.abs(gamma.points)
    phases = reduce_phase(np.angle(gamma.points))
    pos = int(np.lexsort((phases, absv))[0])
    z00 = complex(gamma.points[pos])
    z00_index = (int(gamma.indices[pos, 0]), int(gamma.indices[pos, 1]))

    # Ratios: the displaced points; then the lattice sites that carry no
    # zero of g: interior sites the set lacks (removed points) and the
    # site of z00, whose zero is the leading factor. The scanned index
    # square holds every point's index and every site within the window's
    # reach; sites beyond that reach stay lattice zeros.
    moved = gamma.points != sites
    moved[pos] = False
    K = max(int(np.max(np.abs(gamma.indices))), math.floor(gamma.window_radius / s))
    side = np.arange(-K, K + 1, dtype=np.int64)
    mm, nn = np.meshgrid(side, side)
    lambdas = s * (mm.astype(np.float64) + 1j * nn.astype(np.float64))
    bare = np.abs(lambdas) <= gamma.window_radius - s / 2
    bare[gamma.indices[:, 1] + K, gamma.indices[:, 0] + K] = False
    m0, n0 = z00_index
    bare[n0 + K, m0 + K] = True
    bare[K, K] = False  # the origin's zero is divided out by (z - z00)/z

    roots = gamma.points[moved]
    moved_sites = sites[moved]
    ratio_sites = np.concatenate([moved_sites, lambdas[bare]])

    # the polynomial parts: log(lambda/p) + z (1/p - 1/lambda) displaced,
    # -z/lambda - z^2/(2 lambda^2) bare; lambda/p is 1 + (lambda - p)/p
    inv_bare = 1.0 / lambdas[bare]
    poly = (
        np.sum(_log1p((moved_sites - roots) / roots)),
        np.sum(1.0 / roots - 1.0 / moved_sites) - np.sum(inv_bare),
        -0.5 * np.sum(inv_bare**2),
    )
    return CanonicalProduct(
        gamma=gamma,
        lattice=lattice,
        z00=z00,
        z00_index=z00_index,
        closeness_Q=q_max,
        _roots=roots,
        _sites=ratio_sites,
        _poly=poly,
    )


def _block_log(x: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Per row, the sum over blocks of ``_BLOCK`` columns of the log of
    the block's product; the phase is right modulo 2 pi only.

    The blocks are multiplied out by halving, which runs faster than
    ``np.prod`` along the axis. Each half is written C-contiguous into
    ``spare`` (``x.size`` cells), into its two halves in turn.
    """
    halves = (spare[: x.size // 2], spare[x.size // 2 : x.size])
    width, turn = _BLOCK, 0
    while width > 1:
        out = halves[turn][: x.size // 2].reshape(x.shape[0], x.shape[1] // 2)
        x = np.multiply(x[:, 0::2], x[:, 1::2], out=out)
        width //= 2
        turn ^= 1
    return np.sum(np.log(np.abs(x)), axis=1) + 1j * np.sum(np.angle(x), axis=1)


def _padded(n: int) -> int:
    """``n`` rounded up to a whole number of blocks."""
    return -(-n // _BLOCK) * _BLOCK


def _work_cells(rows: int, n: int) -> int:
    """Cells of :func:`_near_log`'s workspace for ``rows`` points and ``n``
    near ratios: the factor array, then the numerator or the halvings."""
    return 2 * rows * _padded(n)


def _near_log(cp: CanonicalProduct, zs: np.ndarray, ratios: np.ndarray, work: np.ndarray):
    """Log of sigma * (z - z00)/z * the polynomial parts of every ratio
    * the log parts of the ``ratios`` (an ascending index array into
    ``_sites``), and zero flags.

    ``work`` is a complex scratch array of at least :func:`_work_cells`
    cells; nothing in it is read before it is written.
    Where a linear factor vanishes its derivative stands in for it, so
    at a zero of g the value is log g'(z). Where a ratio's site (or the
    origin, under ``1/z``) is the lattice site nearest z, the ratio's
    ``lambda - z`` cancels sigma's ``w = z - lambda`` to -1 exactly, so
    no zero and no cancellation is left there. Phases are not reduced.
    """
    site, w, total, divided, zero = _point_logs(cp, zs)
    if ratios.size:
        # lambda - z, padded with ones to whole blocks, then divided into
        # p - z for a displaced ratio and into lambda for a bare one
        width = _padded(ratios.size)
        cells = zs.size * width
        fac = work[:cells].reshape(zs.size, width)
        fac[:, ratios.size :] = 1.0
        den = fac[:, : ratios.size]
        lambdas = cp._sites[ratios]
        np.subtract(lambdas, zs[:, None], out=den)
        rows, cols = _match(lambdas, site)
        den[rows, cols] = -1.0
        divided[rows] = True
        k = int(np.searchsorted(ratios, cp._roots.size))
        num = work[cells : cells + zs.size * k].reshape(zs.size, k)
        roots = cp._roots[ratios[:k]]
        np.subtract(roots, zs[:, None], out=num)
        rows, cols = _match(roots, zs)
        num[rows, cols] = -1.0
        zero[rows] = True
        # a root a subnormal distance from z would cost its block product
        # its digits: that factor is scaled up, and its log down, by 2**600
        low = np.flatnonzero(np.minimum(np.abs(zs.real), np.abs(zs.imag)) < _BELOW_TINY_GAP)
        if low.size:
            i, j = np.nonzero(np.abs(num[low]) < _TINY)
            num[low[i], j] *= 2.0**600
            np.subtract.at(total, low[i], _LOG_2_600)
        np.divide(num, den[:, :k], out=den[:, :k])
        np.divide(lambdas[k:], den[:, k:], out=den[:, k:])
        total = total + _block_log(fac, work[cells:])
    return _closing_logs(cp, zs, w, total, divided, zero)


def _point_logs(cp: CanonicalProduct, zs: np.ndarray):
    """The per-point start of :func:`_near_log`: ``(site, w, total,
    divided, zero)``, with ``site`` and ``w = z - site`` from sigma,
    ``total`` the log of sigma / w * (z - z00)/z, ``divided`` flagging
    the points whose nearest site's zero a factor divides out (so far the
    origin's, under 1/z) and ``zero`` those where ``z = z00``.
    """
    site, w, total = _sigma_parts(cp.lattice.spacing, zs)
    divided = np.zeros(zs.shape, dtype=bool)
    zero = np.zeros(zs.shape, dtype=bool)
    if cp.z00 != 0:
        lead = zs - cp.z00
        divided |= site == 0
        zero |= lead == 0
        total = total + _log(np.where(lead == 0, 1.0, lead)) - _log(np.where(divided, 1.0, zs))
    return site, w, total, divided, zero


def _closing_logs(cp: CanonicalProduct, zs, w, total, divided, zero):
    """The per-point end of :func:`_near_log`: ``total`` plus the
    polynomial parts of every ratio and sigma's ``log w`` where no factor
    divided it out, and the zero flags with sigma's own zeros added."""
    c0, c1, c2 = cp._poly
    total = total + (c0 + zs * (c1 + zs * c2))
    zero |= (w == 0) & ~divided
    return total + _log(np.where(divided | (w == 0), 1.0, w)), zero


def _tiles(zs: np.ndarray):
    """Bucket ``zs`` into square tiles; yield each tile's point indices,
    and the centre and half-diagonal of its points' bounding box.

    The side is the one at which a full tile holds ``_TILE_POINTS`` of
    the points spread over their bounding box, or along it when the box
    is flat.
    """
    if not zs.size:
        return
    x, y = zs.real, zs.imag
    x0, y0 = np.min(x), np.min(y)
    width, height = np.max(x) - x0, np.max(y) - y0
    n = zs.size
    side = max(math.sqrt(_TILE_POINTS * width * height / n), _TILE_POINTS * max(width, height) / n)
    side = side or 1.0  # coincident points: any side makes one tile
    kx = np.floor((x - x0) / side)
    ky = np.floor((y - y0) / side)
    key = kx * (np.max(ky) + 1.0) + ky
    order = np.argsort(key, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        part = zs[idx]
        lo = complex(np.min(part.real), np.min(part.imag))
        hi = complex(np.max(part.real), np.max(part.imag))
        yield idx, (lo + hi) / 2.0, abs(hi - lo) / 2.0


def _far_series(cp: CanonicalProduct, centre: complex, ratios: np.ndarray) -> np.ndarray:
    """Coefficients in ``z - centre``, highest power first, of the
    Taylor series of the log parts of the ``ratios`` (ascending).

    With ``x = 1/(lambda - c)`` and ``y = 1/(p - c)`` the j-th
    coefficient is ``sum (x^j - y^j) / j``; a site carrying no zero is
    a displaced point gone to infinity, ``y = 0``.
    """
    k = int(np.searchsorted(ratios, cp._roots.size))
    x = 1.0 / (cp._sites[ratios] - centre)
    y = np.zeros_like(x)
    y[:k] = 1.0 / (cp._roots[ratios[:k]] - centre)
    # x/y is 1 + (p - lambda) x
    const = np.sum(_log1p((cp._roots[ratios[:k]] - cp._sites[ratios[:k]]) * x[:k]))
    const += np.sum(_log(cp._sites[ratios[k:]] * x[k:]))
    sums = np.empty(_SERIES_ORDER, dtype=np.complex128)
    px, py = x, y
    for j in range(_SERIES_ORDER):
        # differences per ratio before the sum over ratios: the sums of
        # x^j and of y^j alone are far larger than theirs
        sums[j] = (px - py).sum()
        px, py = px * x, py * y
    return np.append(sums[::-1] / np.arange(_SERIES_ORDER, 0, -1), const)


def _tiled_logs(cp: CanonicalProduct, zs: np.ndarray):
    """Complex logs of g at many points (phase not yet reduced), and
    zero flags; where g vanishes the log is that of g'(z).

    Per tile of points, the near ratios are multiplied out in blocks and
    the far ones enter through one Taylor series about the tile's
    centre, so a point costs about the number of ratios near its tile.
    """
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    if not np.all(np.isfinite(zs)):
        raise ValidationError("query points must be finite")
    s = cp.lattice.spacing
    every = np.arange(cp._sites.size)
    plan = []
    for idx, centre, half in _tiles(zs):
        ratios, series = every, None
        if idx.size >= _SERIES_ORDER:
            close = np.abs(cp._sites - centre) < 2.0 * half + s / 2.0
            ratios = np.flatnonzero(close)
            if not close.all():
                series = _far_series(cp, centre, np.flatnonzero(~close))
        chunk = max(1, _CHUNK_CELLS // max(_padded(ratios.size), 1))
        plan.append((idx, centre, ratios, series, chunk))
    # one scratch array for every chunk of the call, sized to its largest
    cells = [_work_cells(min(chunk, idx.size), ratios.size) for idx, _, ratios, _, chunk in plan]
    work = np.empty(max(cells, default=0), dtype=np.complex128)
    out = np.empty(zs.shape, dtype=np.complex128)
    zero = np.empty(zs.shape, dtype=bool)
    for idx, centre, ratios, series, chunk in plan:
        for start in range(0, idx.size, chunk):
            sub = idx[start : start + chunk]
            part = zs[sub]
            near, zero[sub] = _near_log(cp, part, ratios, work)
            if series is not None:
                near = near + np.polyval(series, part - centre)
            out[sub] = near
    return out, zero


def gfun_log(cp: CanonicalProduct, z):
    """Log form of the canonical product at a point or an array of points:
    a ``complex``, or an array of their shape, ``-inf`` (phase 0) at the
    exact zeros, the set's points and the lattice sites completing the
    zero set; phases are not reduced.

    Raises
    ------
    ValidationError
        If some point is not finite, or as :func:`space._log_values`.
    """
    zs = np.asarray(z, dtype=np.complex128)
    out, zero = _tiled_logs(cp, zs)
    out[zero] = -np.inf
    return _log_values(out.reshape(zs.shape))


# the name perfbench's spans look up; every name bound to gfun_log is traced
_gfun_log_many = gfun_log


def gfun_derivative_at_node(cp: CanonicalProduct, nodes):
    """Log form of g'(z) at zeros of g, the nodes: a point or an array of
    points, giving a ``complex`` or an array of their shape.

    At a simple zero the derivative is the product of all remaining
    factors times the derivative of the vanishing one, so it is taken in
    log form, not by differencing, by the tiled pass that evaluates g on
    a grid (:func:`_tiled_logs`). At an undisplaced node the vanishing
    factor is sigma's, and sigma'(lambda) follows in closed form from
    the quasi-period law. Phases are reduced to (-pi, pi].

    Raises
    ------
    PointNotInSet
        If some node is not a zero of g; field ``point``, the first such
        as ``[re, im]``.
    ValidationError
        If some node is not finite, or as :func:`space._log_values`.
    """
    zs = np.asarray(nodes, dtype=np.complex128)
    total, zero = _tiled_logs(cp, zs)
    if not zero.all():
        p = complex(zs.ravel()[np.argmin(zero)])
        raise PointNotInSet(f"{p} is not a zero of g", point=[p.real, p.imag])
    return _log_values((total.real + 1j * reduce_phase(total.imag)).reshape(zs.shape))


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
    if not (grid_radius > 0.0 and math.isfinite(grid_step) and grid_step > 0.0):
        raise ValidationError("grid_radius must be positive, grid_step positive and finite")
    if grid_radius > 0.6 * cp.gamma.window_radius + 1e-12:
        raise ValidationError(
            "grid_radius must stay within 0.6 of the window radius to "
            "avoid edge effects"
        )
    zz = _disk_grid(grid_radius, grid_step)

    logs = gfun_log(cp, zz)
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

    # gfun_log leaves no NaN, and the grid holds the origin, so the
    # reference disk is never empty
    violations = int(np.count_nonzero(np.isneginf(logw) & (dist > 0)))
    finite_w = np.isfinite(logw)
    ref = r <= max(1.0, 2.0 * cp.lattice.spacing)
    upper_ref = float(np.max(logw[ref]))
    low_mask = (dist > 0) & finite_w
    with np.errstate(divide="ignore"):
        logwd = logw - np.log(dist, where=dist > 0, out=np.full_like(dist, np.inf))
    lower_ref = float(np.min(logwd[ref & low_mask])) if np.any(ref & low_mask) else 0.0

    out = ~ref
    denom = np.maximum(phi, 1.0)
    c_up = 0.0
    if np.any(out & finite_w):
        sel = out & finite_w
        c_up = float(np.max((logw[sel] - upper_ref) / denom[sel]))
    c_dn = 0.0
    if np.any(out & low_mask):
        sel = out & low_mask
        c_dn = float(np.max((lower_ref - logwd[sel]) / denom[sel]))
    c = max(0.0, c_up, c_dn)

    c2 = float(np.exp(np.max(logw[finite_w] - c * phi[finite_w])))
    c1 = float(np.exp(np.min(logwd[low_mask] + c * phi[low_mask])))
    return GrowthBoundFit(
        c=c, C1=c1, C2=c2, grid_radius=grid_radius, violations=violations
    )
