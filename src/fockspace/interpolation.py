"""Reconstruction from samples and explicit interpolation.

Two regimes, split by the density beta/pi of the lattice the point set
tracks, against the space parameter alpha. Both are Lagrange-type
series ``sum_i c_i L_i(z)`` over the nodes z_i, on one basis

    L_i(z) = g(z) exp(kappa conj(z_i) (z - z_i)) / (g'(z_i) (z - z_i)),

with g the canonical product of the whole set, which vanishes at every
node, so ``L_i(z_j)`` is 1 for j = i and 0 otherwise:

* Reconstruction (beta > alpha): kappa = 0. The coefficients are the
  samples, ``c_i = f(z_i)``, and the series
  ``f(z) = sum f(z_mn) / g'(z_mn) * g(z) / (z - z_mn)`` recovers f.
* Interpolation (beta < alpha): kappa = alpha - beta. The coefficients
  are ``c_i = a~_i = a_i exp(+alpha |z_i|^2 / 2)``, and the series
  solves the weighted interpolation problem. On the lattice, where g is
  sigma, the quasi-period law turns L_i into the sigma translate
  ``exp(alpha (conj(z_i) z - |z_i|^2)) sigma(z - z_i) / (z - z_i)``.
  As ``|g(z)| exp(-beta |z|^2 / 2)`` is comparable to the distance to
  the set (up to slowly varying factors off the lattice), the weighted
  term decays like ``exp(-kappa |z - z_i|^2 / 2)``: the Gaussian factor
  localizes it.

Data targets follow the weighted convention: a_mn prescribes
``exp(-alpha |z_mn|^2 / 2) f(z_mn)``, hence the coefficient a~_mn.
The series is the scaled Cauchy sum ``g(z) sum_i exp(a_i + kappa
conj(z_i) (z - z_i)) / (z - z_i)``, ``a_i = log(c_i / g'(z_i))``: log g
and the shifted exponents (see :mod:`fockspace.space`) cancel the large
opposing exponentials before exponentiation. A node hit returns its
coefficient exactly, any other zero of g an exact zero; only the rest is summed.

Both series are truncated by node radius. Residuals are reported over
the interior (half the truncation radius) only, so truncation effects
near the rim are not blamed on the formulas. The critical density
beta = alpha is rejected with a relative guard band of 1e-9: the
boundary lattice is neither a set of sampling nor one of interpolation.

The norm-growth report projects the interpolant onto span{e_0..e_N}
by Cauchy's formula on one circle per degree, guarded by the aliased
top of each circle's spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.fft import fft

from .canonical import (
    CanonicalProduct,
    canonical_product,
    gfun_derivative_at_node,
    gfun_log,
)
from .errors import (
    DensityOrderViolated,
    MissingSamples,
    NodeIndexMissing,
    QuadratureOrderTooLow,
    ValidationError,
)
from .pointsets import PointSet, SquareLattice, _match
from .space import (
    _BELOW_TINY_GAP, _TINY, _check_alpha, _checked_exp, _combine_term_logs, _disk_grid, _log, _monomial_logs, _norm
)

__all__ = [
    "InterpolationProblem",
    "InterpolantEvaluator",
    "NormGrowthReport",
    "lagrange_reconstruct",
    "build_interpolant",
    "residual_check",
    "norm_growth_report",
]

_CRITICAL_BAND = 1e-9
# basis cells (nodes x points) per block of a series sum: 512 kB of terms
_SERIES_CELLS = 1 << 15


def _sq(z):
    """|z|^2 as conj(z)*z, so identical points cancel exactly."""
    z = np.asarray(z, dtype=np.complex128)
    return (np.conj(z) * z).real


def _fitted_spacing(gamma: PointSet) -> float:
    """Least-squares lattice spacing of an indexed point set."""
    if gamma.indices is None:
        raise NodeIndexMissing("density regime needs a lattice-indexed set")
    lam = gamma.indices[:, 0].astype(np.float64) + 1j * gamma.indices[:, 1]
    denom = float(np.sum(np.abs(lam) ** 2))
    if denom == 0.0:
        raise ValidationError("cannot infer a spacing from a single origin index")
    return float(np.sum(np.conj(lam) * gamma.points).real / denom)


def _require_reconstruction_regime(beta: float, alpha: float):
    if beta <= alpha * (1.0 + _CRITICAL_BAND):
        raise DensityOrderViolated(
            f"reconstruction needs density beta = {beta:g} strictly above "
            f"alpha = {alpha:g}; at or below the critical density the "
            "series is not guaranteed to converge",
            beta=float(beta),
            alpha=float(alpha),
        )


def _require_interpolation_regime(beta: float, alpha: float):
    if beta >= alpha * (1.0 - _CRITICAL_BAND):
        raise DensityOrderViolated(
            f"interpolation needs density beta = {beta:g} strictly below "
            f"alpha = {alpha:g}; the critical lattice is not a set of "
            "interpolation",
            beta=float(beta),
            alpha=float(alpha),
        )


def _gather(gamma: PointSet, data: dict, radius: float, what: str):
    """Points of gamma within ``radius`` and their ``data`` values.

    Raises
    ------
    ValidationError
        If ``radius`` is not positive and finite, no point of the set
        lies within it, so a series would have no term, or a value is
        not finite; field ``point``, that point's ``[x, y]``.
    MissingSamples
        If some point within the radius has no value in ``data``; fields
        ``missing`` (how many) and ``radius``.
    """
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValidationError(f"truncation_radius must be positive and finite, got {radius:g}")
    inside = np.abs(gamma.points) <= radius
    nodes = gamma.points[inside]
    if not nodes.size:
        raise ValidationError(f"no point of the set lies within the truncation radius {radius:g}")
    missing = sum(complex(p) not in data for p in nodes)
    if missing:
        raise MissingSamples(
            f"{missing} points within radius {radius:g} have no {what}",
            missing=missing,
            radius=radius,
        )
    values = np.array([complex(data[complex(p)]) for p in nodes], dtype=np.complex128)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        point = complex(nodes[bad[0]])
        raise ValidationError(f"the {what} at {point} is not finite", point=[point.real, point.imag])
    return nodes, values


@dataclass(frozen=True, slots=True, eq=False)
class _LagrangeBasis:
    """``L_i(z) = g(z) exp(kappa conj(z_i) (z - z_i)) / (g'(z_i) (z - z_i))``.

    ``product`` is the canonical product g of the whole set, ``nodes``
    the z_i and ``node_dlogs`` the complex logs of g'(z_i). Series are
    scaled Cauchy sums (module docstring). At kappa = 0 the exponents are
    the a_i alone, shifted by one global max, within
    ``log(max|z - z_i| / min|z - z_i|)`` of each column's own shift: a
    dropped term is below exp(-745) times that ratio of the largest.
    """

    product: CanonicalProduct
    nodes: np.ndarray
    node_dlogs: np.ndarray
    kappa: float

    @classmethod
    def of(cls, gamma: PointSet, spacing: float, data: dict, radius: float, what: str, kappa: float):
        """The basis on the points of gamma within ``radius`` and their
        ``data`` values, checked by :func:`_gather` before g is built."""
        nodes, values = _gather(gamma, data, radius, what)
        # the ignored third argument is read by perfbench's span counter
        cp = canonical_product(gamma, SquareLattice(spacing), 1)
        return cls(cp, nodes, gfun_derivative_at_node(cp, nodes), kappa), values

    def series(self, coeff_logs: np.ndarray, zs: np.ndarray):
        """``(logs, hit)``: the complex log of ``sum_i c_i L_i`` at ``zs``, and the
        node i each z hits, or -1: a zero of g equal to z_i (:func:`pointsets._match`),
        or a z whose least |z - z_i| is not a normal double, where 1/(z - z_i)
        could overflow. A hit takes log c_i, any other zero of g -inf; only the
        rest is summed, in blocks of ``_SERIES_CELLS`` cells, one z - z_i buffer."""
        out = gfun_log(self.product, zs)
        zero = out.real == -np.inf
        hit = np.full(zs.size, -1)
        at = np.flatnonzero(zero)
        found, node = _match(self.nodes, zs[at])
        hit[at[found]] = node
        # only z with a coordinate below _BELOW_TINY_GAP can lie closer than tiny
        small = np.minimum(np.abs(zs.real), np.abs(zs.imag)) < _BELOW_TINY_GAP
        live = np.flatnonzero(~zero)
        a = (coeff_logs - self.node_dlogs)[:, None]
        width = max(1, _SERIES_CELLS // max(self.nodes.size, 1))
        buf = np.empty((self.nodes.size, min(width, live.size)), dtype=np.complex128)
        for start in range(0, live.size, width):
            cols = live[start : start + width]
            w = np.subtract(zs[cols], self.nodes[:, None], out=buf[:, : cols.size])
            near = np.flatnonzero(small[cols])
            dist = np.abs(w[:, near])
            close = dist.min(axis=0) < _TINY
            hit[cols[near[close]]] = dist[:, close].argmin(axis=0)
            w[:, near[close]] = 1.0  # hits, set below
            exps = self.kappa * np.conj(self.nodes)[:, None] * w if self.kappa else np.zeros_like(a)
            exps += a
            out[cols] += _combine_term_logs(exps, np.divide(1.0, w, out=w))
        out[hit >= 0] = coeff_logs[hit[hit >= 0]]
        return out, hit


def lagrange_reconstruct(gamma: PointSet, alpha: float, samples: dict, z, truncation_radius: float):
    """Recover f(z) from its plain samples on a supercritical set.

    ``samples`` maps points of gamma to f values and must cover every
    point with ``|z_mn| <= truncation_radius``. The query must stay in
    the interior ``|z| < truncation_radius / 2``. It returns the sample
    itself at every hit of the series: a sampled point, or a query a
    subnormal distance from one. Accepts a point or an array of points.

    The series runs on the Lagrange basis shared with the interpolant,
    here ``L_i(z) = g(z) / (g'(z_i) (z - z_i))`` with g the canonical
    product of the set, so ``L_i(z_i) = 1``; the coefficients are the
    samples themselves: the plain Cauchy sum ``g(z) sum_i (f(z_i) /
    g'(z_i)) / (z - z_i)``. Its weights are exponentiated after one global
    shift, within ``log(max|z - z_i| / min|z - z_i|)`` of each column's
    own, and log g joins in log form, so the Gaussian-scale factors cancel.

    Raises
    ------
    DensityOrderViolated
        If the set's lattice density beta/pi does not exceed alpha/pi
        (including the critical case beta = alpha); fields ``beta`` and
        ``alpha``.
    MissingSamples
        If some point within the truncation radius has no sample; fields
        ``missing`` and ``radius``.
    Overflow
        As :func:`~fockspace.space._checked_exp`, where the value off a
        sampled point passes the double range.
    ValidationError
        If a query leaves the interior, or as :func:`_gather`: the
        truncation radius is not positive and finite, no point of the
        set lies within it, so the series would have no term, or a
        sample is not finite.
    """
    alpha = _check_alpha(alpha)
    spacing = _fitted_spacing(gamma)
    beta = math.pi / spacing**2
    _require_reconstruction_regime(beta, alpha)

    zs = np.asarray(z, dtype=np.complex128)
    flat = zs.ravel()
    if np.any(np.abs(flat) >= truncation_radius / 2.0):
        raise ValidationError(
            "query points must stay strictly inside half the truncation radius"
        )
    basis, values = _LagrangeBasis.of(gamma, spacing, samples, truncation_radius, "sample", 0.0)
    logs, hit = basis.series(_log(values), flat)
    # the sample itself at a hit; a huge one there is no overflow
    rows = np.flatnonzero(hit >= 0)
    logs[rows] = 0.0
    out = _checked_exp(logs, flat, "reconstruction")
    out[rows] = values[hit[rows]]
    out = out.reshape(zs.shape)
    return complex(out[()]) if zs.ndim == 0 else out


@dataclass(frozen=True)
class InterpolationProblem:
    """Weighted interpolation data on a point set near a square lattice.

    ``data`` maps points of gamma to targets a_mn for the weighted
    values ``exp(-alpha |z_mn|^2 / 2) f(z_mn)``. The point set must
    carry lattice indices; ``lattice_spacing`` fixes the density
    beta = pi / spacing^2 used by the regime guards.
    """

    gamma: PointSet
    alpha: float
    lattice_spacing: float
    data: dict

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (math.isfinite(self.lattice_spacing) and self.lattice_spacing > 0.0):
            raise ValidationError(
                f"lattice_spacing must be positive and finite, got {self.lattice_spacing}"
            )
        if self.gamma.indices is None:
            raise NodeIndexMissing("interpolation needs a lattice-indexed set")
        members = set(map(complex, self.gamma.points))
        for key, val in self.data.items():
            if complex(key) not in members:
                raise ValidationError(f"data key {key} is not a point of the set")
            if not (math.isfinite(complex(val).real) and math.isfinite(complex(val).imag)):
                raise ValidationError("data values must be finite")

    @property
    def beta(self) -> float:
        return math.pi / self.lattice_spacing**2


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class InterpolantEvaluator:
    """Evaluator of the explicit interpolation series.

    Holds the Lagrange basis (the one canonical product of the set and
    its derivatives at the nodes) and the targets. Use :meth:`eval` for
    plain values, :meth:`eval_weighted` for the bounded weighted values,
    and :meth:`with_data` to reuse the basis for new targets on the
    same nodes.
    """

    problem: InterpolationProblem
    truncation_radius: float
    _basis: _LagrangeBasis
    _targets: np.ndarray

    def _series(self, zs: np.ndarray) -> np.ndarray:
        """Complex log of ``sum_i a~_i L_i`` at the points ``zs``."""
        coeff_logs = _log(self._targets) + 0.5 * self.problem.alpha * _sq(self._basis.nodes)
        return self._basis.series(coeff_logs, zs)[0]

    def _values(self, z, weight: float):
        """``exp(-weight |z|^2) f(z)`` at a point or an array of points.

        Raises
        ------
        Overflow
            As :func:`~fockspace.space._checked_exp`.
        """
        zs = np.asarray(z, dtype=np.complex128)
        flat = zs.ravel()
        out = _checked_exp(self._series(flat) - weight * _sq(flat), flat, "interpolant")
        out = out.reshape(zs.shape)
        return complex(out[()]) if zs.ndim == 0 else out

    def with_data(self, data: dict) -> "InterpolantEvaluator":
        """Evaluator for new targets on the same nodes, basis reused."""
        problem = replace(self.problem, data=data)
        _, targets = _gather(problem.gamma, data, self.truncation_radius, "datum")
        return replace(self, problem=problem, _targets=targets)

    def eval(self, z):
        """Plain interpolant value f(z); point or array. Raises
        :class:`Overflow` where f passes the double range."""
        return self._values(z, 0.0)

    def eval_weighted(self, z):
        """Weighted value exp(-alpha |z|^2 / 2) f(z); point or array."""
        return self._values(z, 0.5 * self.problem.alpha)

    def pointwise_bound(self, grid_step: float = 0.5) -> float:
        """Reported constant C with |weighted f| <= (1 + sup|a|) C inside.

        Scans the interior grid |z| <= truncation_radius / 2.
        """
        grid_step = float(grid_step)
        if not (math.isfinite(grid_step) and grid_step > 0.0):
            raise ValidationError("grid_step must be positive and finite")
        grid = _disk_grid(self.truncation_radius / 2.0, grid_step)
        logs = self._series(grid).real
        sup_w = float(np.max(logs - 0.5 * self.problem.alpha * _sq(grid)))
        sup_a = max((abs(complex(v)) for v in self._targets), default=0.0)
        return math.exp(sup_w) / (1.0 + sup_a)


def build_interpolant(problem: InterpolationProblem, truncation_radius: float) -> InterpolantEvaluator:
    """Construct the explicit-series evaluator for a subcritical set.

    Builds the one canonical product g of the set and its derivatives
    at every node carrying data within the truncation radius.

    Raises
    ------
    DensityOrderViolated
        If the data lattice density does not stay strictly below alpha
        (the critical case included); fields ``beta`` and ``alpha``.
    MissingSamples
        If some point within the truncation radius has no datum; fields
        ``missing`` and ``radius``.
    ValidationError
        As :func:`_gather`: the truncation radius is not positive and
        finite, or no point of the set lies within it.
    """
    _require_interpolation_regime(problem.beta, problem.alpha)
    kappa = problem.alpha - problem.beta
    basis, targets = _LagrangeBasis.of(
        problem.gamma, problem.lattice_spacing, problem.data, truncation_radius, "datum", kappa
    )
    return InterpolantEvaluator(problem, float(truncation_radius), basis, targets)


def residual_check(ev: InterpolantEvaluator) -> float:
    """Max weighted interpolation residual over interior nodes.

    Interior means ``|z_mn| <= truncation_radius / 2``; rim nodes are
    dominated by series truncation and excluded deliberately.
    """
    half = ev.truncation_radius / 2.0
    mask = np.abs(ev._basis.nodes) <= half
    if not np.any(mask):
        return 0.0
    got = ev.eval_weighted(ev._basis.nodes[mask])
    return float(np.max(np.abs(got - ev._targets[mask])))


@dataclass(frozen=True)
class NormGrowthReport:
    """Data energy versus interpolant norm, the boundedness surrogate."""

    data_norm: float
    interpolant_norm: float
    degree: int

    @property
    def ratio(self) -> float:
        """Norm amplification; NaN when the data vanishes (0/0)."""
        if self.data_norm == 0.0:
            return math.nan
        return self.interpolant_norm / self.data_norm


def _angle_count(alpha: float, max_node: float, radius: float, N: int) -> int:
    """Angles per circle: the kernel factors' bandwidth plus 4 (N + 1), to a power of two."""
    bandwidth = int(math.ceil(2.0 * alpha * max_node * radius)) + 4 * (N + 1)
    return 1 << max(6, (bandwidth - 1).bit_length())


def _growth_angles(ev: InterpolantEvaluator, N: int) -> int:
    """n_theta of :func:`norm_growth_report` at degree N, counted before any circle is built."""
    max_node = max((abs(complex(p)) for p in ev._basis.nodes), default=0.0)
    return _angle_count(ev.problem.alpha, max_node, math.sqrt(max(N, 1) / ev.problem.alpha), N)


def norm_growth_report(ev: InterpolantEvaluator, N: int) -> NormGrowthReport:
    """Compare the interpolant's norm with the data's l2 norm.

    The interpolant F projects onto span{e_0..e_N} with coefficients
    ``c_n = a_n sqrt(n! / alpha^n)``, a_n its n-th Taylor coefficient
    at 0; the reported norm is their l2 norm. Cauchy's formula gives a_n
    on the circle ``|z| = rho_n = sqrt(max(n, 1) / alpha)``, where
    ``|e_n(r)| exp(-alpha r^2 / 2)`` peaks, so rounding in the weighted
    values is not amplified, by the trapezoid rule in the angle (one FFT
    per circle), which converges geometrically as F is entire. Its
    (N + 1) n_theta points, n_theta set by the bandwidth on rho_N, pass
    the 32 circles of a radial rule over the disk only for N > 31, a
    degree no workload and no CLI default asks for.

    Raises
    ------
    QuadratureOrderTooLow
        If a circle's top N + 1 bins, which hold only aliased tail,
        exceed 1e-12 of its largest harmonic; ``order`` is n_theta.
    ValidationError
        If N is negative.
    """
    N = int(N)
    if N < 0:
        raise ValidationError("degree must be nonnegative")
    alpha = ev.problem.alpha
    rho = np.sqrt(np.maximum(np.arange(N + 1), 1) / alpha)
    n_theta = _growth_angles(ev, N)
    grid = (rho[:, None] * np.exp(2j * math.pi * np.arange(n_theta) / n_theta)).ravel()
    weighted = np.exp(ev._series(grid) - 0.5 * alpha * _sq(grid)).reshape(N + 1, n_theta)
    harmonics = np.abs(fft(weighted, axis=1)) / n_theta
    tail = np.max(harmonics[:, n_theta - N - 1 :], axis=1)
    if np.any(tail > 1e-12 * np.max(harmonics, axis=1)):
        raise QuadratureOrderTooLow(
            f"aliased harmonics reach {np.max(tail):.3g} on {n_theta} angles per circle", order=n_theta
        )
    coeffs = np.diagonal(harmonics) / np.exp(np.diagonal(_monomial_logs(alpha, N, rho).real))
    return NormGrowthReport(_norm(ev._targets), _norm(coeffs), N)
