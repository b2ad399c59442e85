"""Reconstruction from samples and explicit interpolation.

Two regimes, split by the density beta/pi of the lattice the point set
tracks, against the space parameter alpha. Both are Lagrange-type
series ``sum_i c_i L_i(z)`` over the nodes z_i, on one basis form
``L_i(z) = h_i(z) / (z - z_i)``. Each h_i has a simple zero at z_i with
derivative 1 and vanishes at every other node, so ``L_i(z_j)`` is 1
for j = i and 0 otherwise:

* Reconstruction (beta > alpha): ``h_i = g / g'(z_i)`` with g the
  canonical product of the whole set. The coefficients are the samples,
  ``c_i = f(z_i)``, and the series
  ``f(z) = sum f(z_mn) / g'(z_mn) * g(z) / (z - z_mn)`` recovers f.
* Interpolation (beta < alpha): ``h_i(z) = exp(alpha (conj(z_i) z -
  |z_i|^2)) g_t(z - z_i)`` with g_t the canonical product of the
  translated set Gamma - z_i. The coefficients are
  ``c_i = a~_i = a_i exp(+alpha |z_i|^2 / 2)``, and the series solves
  the weighted interpolation problem.

Data targets follow the weighted convention: a_mn prescribes
``exp(-alpha |z_mn|^2 / 2) f(z_mn)``, hence the coefficient a~_mn.
Basis and coefficients are complex logs (see :mod:`fockspace.space`)
and one log-sum-exp adds the terms, so the large opposing exponentials
cancel before exponentiation. The basis holds ``L_i(z_i) = 1``
exactly, and every other term vanishes exactly at a node (the products
carry exact zeros), so node identities hold at rounding level.

Both series are truncated by node radius. Residuals are reported over
the interior (half the truncation radius) only, so truncation effects
near the rim are not blamed on the formulas. The critical density
beta = alpha is rejected with a relative guard band of 1e-9: the
boundary lattice is neither a set of sampling nor one of interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .canonical import canonical_product, gfun_derivative_at_node, _gfun_log_many
from .errors import (
    DensityOrderViolated,
    MissingSamples,
    NodeIndexMissing,
    ValidationError,
)
from .pointsets import PointSet, SquareLattice
from .space import _check_alpha, _combine_term_logs, _log, _monomial_logs

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
            "series is not guaranteed to converge"
        )


def _require_interpolation_regime(beta: float, alpha: float):
    if beta >= alpha * (1.0 - _CRITICAL_BAND):
        raise DensityOrderViolated(
            f"interpolation needs density beta = {beta:g} strictly below "
            f"alpha = {alpha:g}; the critical lattice is not a set of "
            "interpolation"
        )


def _gather(gamma: PointSet, data: dict, radius: float, what: str):
    """Points of gamma within ``radius``, their indices and their ``data`` values.

    Raises
    ------
    MissingSamples
        If some point within the radius has no value in ``data``.
    """
    inside = np.abs(gamma.points) <= radius
    nodes = gamma.points[inside]
    missing = sum(complex(p) not in data for p in nodes)
    if missing:
        raise MissingSamples(
            f"{missing} points within radius {radius:g} have no {what}"
        )
    values = np.array([complex(data[complex(p)]) for p in nodes], dtype=np.complex128)
    return nodes, gamma.indices[inside], values


def _lagrange_basis(nodes: np.ndarray, zs: np.ndarray, h_log) -> np.ndarray:
    """Complex logs of ``L_i(z) = h_i(z) / (z - z_i)``, shape (nodes, points).

    ``h_log(i, w)`` returns the complex log of h_i at ``z_i + w``, where
    ``w = zs - z_i``. At ``z = z_i`` the row holds ``L_i = 1`` exactly,
    the limit for an h_i with a simple zero of derivative 1 there. Rows
    are built one at a time, so the result is the only array of full
    size.
    """
    out = np.empty((len(nodes), zs.size), dtype=np.complex128)
    for i, node in enumerate(nodes):
        w = zs - node
        hit = w == 0
        out[i] = h_log(i, w) - _log(np.where(hit, 1.0, w))
        out[i, hit] = 0.0
    return out


def lagrange_reconstruct(gamma: PointSet, alpha: float, samples: dict, z, truncation_radius: float):
    """Recover f(z) from its plain samples on a supercritical set.

    ``samples`` maps points of gamma to f values and must cover every
    point with ``|z_mn| <= truncation_radius``. The query must stay in
    the interior ``|z| < truncation_radius / 2``; at a sampled point the
    sample itself is returned. Accepts a point or an array of points.

    The series runs on the Lagrange basis shared with the interpolant,
    here ``L_i(z) = g(z) / (g'(z_i) (z - z_i))`` with g the canonical
    product of the set, so ``L_i(z_i) = 1``; the coefficients are the
    samples themselves. Basis and coefficients are complex logs, so the
    opposing Gaussian-scale factors cancel before exponentiation.

    Raises
    ------
    DensityOrderViolated
        If the set's lattice density beta/pi does not exceed alpha/pi
        (including the critical case beta = alpha).
    MissingSamples
        If some point within the truncation radius has no sample.
    """
    alpha = _check_alpha(alpha)
    truncation_radius = float(truncation_radius)
    if truncation_radius <= 0.0:
        raise ValidationError("truncation_radius must be positive")
    spacing = _fitted_spacing(gamma)
    beta = math.pi / spacing**2
    _require_reconstruction_regime(beta, alpha)

    zs = np.asarray(z, dtype=np.complex128)
    scalar = zs.ndim == 0
    flat = zs.ravel()
    if np.any(np.abs(flat) >= truncation_radius / 2.0):
        raise ValidationError(
            "query points must stay strictly inside half the truncation radius"
        )
    nodes, node_indices, values = _gather(gamma, samples, truncation_radius, "sample")

    M = int(math.ceil(2.0 * truncation_radius / spacing)) + 20
    cp = canonical_product(gamma, SquareLattice(spacing), M)
    glog = _gfun_log_many(cp, flat)
    dlogs = [
        complex(d.log_mag, d.phase)
        for d in (gfun_derivative_at_node(cp, (int(m), int(n))) for m, n in node_indices)
    ]
    basis = _lagrange_basis(nodes, flat, lambda i, w: glog - dlogs[i])
    out = np.exp(_combine_term_logs(basis + _log(values)[:, None]))

    # direct return of the sample at an exact sample point
    hit = np.isin(flat, nodes)
    out[hit] = [samples[complex(p)] for p in flat[hit]]
    out = out.reshape(zs.shape)
    return complex(out[()]) if scalar else out


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
        if not (self.lattice_spacing > 0.0):
            raise ValidationError("lattice_spacing must be positive")
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

    Caches one canonical product per contributing node (the product of
    the translated set, whose closest-to-origin point is exactly 0) and
    assembles the series in the log domain. Use :meth:`eval` for plain
    values, :meth:`eval_weighted` for the bounded weighted values, and
    :meth:`with_data` to reuse the cached products for new targets on
    the same nodes.
    """

    problem: InterpolationProblem
    truncation_radius: float
    _nodes: np.ndarray
    _targets: np.ndarray
    _products: list
    _cache: dict = field(default_factory=dict)

    def _basis(self, zs: np.ndarray) -> np.ndarray:
        """Lagrange basis of the explicit series at the points ``zs``."""
        alpha = self.problem.alpha

        def h_log(i, w):
            node = self._nodes[i]
            expo = alpha * (np.conj(node) * zs - np.conj(node) * node)
            return expo + _gfun_log_many(self._products[i], w)

        return _lagrange_basis(self._nodes, zs, h_log)

    def _series(self, basis: np.ndarray) -> np.ndarray:
        """Complex log of ``sum_i a~_i L_i`` per column of a basis."""
        coeff_logs = _log(self._targets) + 0.5 * self.problem.alpha * _sq(self._nodes)
        return _combine_term_logs(basis + coeff_logs[:, None])

    def _values(self, z, weight: float):
        """``exp(-weight |z|^2) f(z)`` at a point or an array of points."""
        zs = np.asarray(z, dtype=np.complex128)
        flat = zs.ravel()
        logs = self._series(self._basis(flat)) - weight * _sq(flat)
        out = np.exp(logs).reshape(zs.shape)
        return complex(out[()]) if zs.ndim == 0 else out

    def with_data(self, data: dict) -> "InterpolantEvaluator":
        """Evaluator for new targets on the same nodes, products reused."""
        problem = replace(self.problem, data=data)
        _, _, targets = _gather(problem.gamma, data, self.truncation_radius, "datum")
        return replace(self, problem=problem, _targets=targets)

    def eval(self, z):
        """Plain interpolant value f(z); point or array."""
        return self._values(z, 0.0)

    def eval_weighted(self, z):
        """Weighted value exp(-alpha |z|^2 / 2) f(z); point or array."""
        return self._values(z, 0.5 * self.problem.alpha)

    def pointwise_bound(self, grid_step: float = 0.5) -> float:
        """Reported constant C with |weighted f| <= (1 + sup|a|) C inside.

        Scans the interior grid |z| <= truncation_radius / 2. The grid
        basis logs are cached, so rescans and re-data'd evaluators are
        cheap.
        """
        half = self.truncation_radius / 2.0
        n = int(math.floor(half / grid_step))
        key = ("interior", float(grid_step))
        if key not in self._cache:
            axis = grid_step * np.arange(-n, n + 1)
            grid = (axis[None, :] + 1j * axis[:, None]).ravel()
            grid = grid[np.abs(grid) <= half]
            self._cache[key] = (grid, self._basis(grid))
        grid, basis = self._cache[key]
        logs = self._series(basis).real
        sup_w = float(np.max(logs - 0.5 * self.problem.alpha * _sq(grid)))
        sup_a = max((abs(complex(v)) for v in self._targets), default=0.0)
        return math.exp(sup_w) / (1.0 + sup_a)


def build_interpolant(problem: InterpolationProblem, truncation_radius: float) -> InterpolantEvaluator:
    """Construct the explicit-series evaluator for a subcritical set.

    Caches the canonical product of the translated set Gamma - z_mn for
    every node carrying data within the truncation radius.

    Each translate keeps the window radius ``W + |z_mn|`` about the
    origin, where W is the data set's own. The product of a translate
    carries no zero at a lattice site of that larger disk which the
    shifted data disk does not cover: such a site counts as a removed
    interior point. On the density-0.8 benchmark problem (window 12,
    radius 10, 81 nodes) this leaves 0 to 264 zero-free sites per
    product, median 180. The product of the full translate would have
    zeros there instead.

    Raises
    ------
    DensityOrderViolated
        If the data lattice density does not stay strictly below alpha
        (the critical case included).
    MissingSamples
        If some point within the truncation radius has no datum.
    """
    truncation_radius = float(truncation_radius)
    if truncation_radius <= 0.0:
        raise ValidationError("truncation_radius must be positive")
    _require_interpolation_regime(problem.beta, problem.alpha)
    gamma = problem.gamma
    spacing = problem.lattice_spacing
    nodes, node_indices, targets = _gather(gamma, problem.data, truncation_radius, "datum")

    M = int(math.ceil(4.0 * truncation_radius / spacing)) + 20
    lattice = SquareLattice(spacing)
    products = []
    for pos in range(len(nodes)):
        shifted = PointSet(
            gamma.points - nodes[pos],
            gamma.window_radius + abs(complex(nodes[pos])),
            indices=gamma.indices - node_indices[pos][None, :],
        )
        products.append(canonical_product(shifted, lattice, M))
    return InterpolantEvaluator(
        problem=problem,
        truncation_radius=truncation_radius,
        _nodes=nodes,
        _targets=targets,
        _products=products,
    )


def residual_check(ev: InterpolantEvaluator) -> float:
    """Max weighted interpolation residual over interior nodes.

    Interior means ``|z_mn| <= truncation_radius / 2``; rim nodes are
    dominated by series truncation and excluded deliberately.
    """
    half = ev.truncation_radius / 2.0
    mask = np.abs(ev._nodes) <= half
    if not np.any(mask):
        return 0.0
    got = ev.eval_weighted(ev._nodes[mask])
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


def norm_growth_report(ev: InterpolantEvaluator, N: int) -> NormGrowthReport:
    """Compare the interpolant's norm with the data's l2 norm.

    The interpolant is projected onto span{e_0..e_N} by polar
    quadrature over the disk of radius sqrt(N/alpha) + 4/sqrt(alpha)
    (Gauss-Legendre radially, uniform angles resolved by FFT), and the
    reported norm is the l2 norm of the projection coefficients.
    Diagnostics from the cached products propagate.
    """
    N = int(N)
    if N < 0:
        raise ValidationError("degree must be nonnegative")
    alpha = ev.problem.alpha
    radius = math.sqrt(N / alpha) + 4.0 / math.sqrt(alpha)
    n_r = 32
    max_node = max((abs(complex(p)) for p in ev._nodes), default=0.0)
    # resolve every angular harmonic the kernel factors can carry on
    # the disk, plus the projection degrees themselves
    bandwidth = int(math.ceil(2.0 * alpha * max_node * radius)) + 4 * (N + 1)
    n_theta = 1 << max(6, (bandwidth - 1).bit_length())

    key = ("disk", N)
    if key not in ev._cache:
        xs, ws = np.polynomial.legendre.leggauss(n_r)
        rs = (xs + 1.0) * (radius / 2.0)
        wr = ws * (radius / 2.0)
        thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
        grid = rs[:, None] * np.exp(1j * thetas)[None, :]
        ev._cache[key] = (rs, wr, ev._basis(grid.ravel()))
    rs, wr, basis = ev._cache[key]

    flat_r = np.repeat(rs, n_theta)
    weighted = np.exp(ev._series(basis) - 0.5 * alpha * flat_r**2).reshape(n_r, n_theta)
    harmonics = np.fft.fft(weighted, axis=1) * (2.0 * math.pi / n_theta)
    radial_weight = (alpha / math.pi) * wr * rs
    radial_basis = np.exp(_monomial_logs(alpha, N, rs))
    coeffs = np.sum(radial_weight[:, None] * radial_basis * harmonics[:, : N + 1], axis=0)
    interpolant_norm = float(np.linalg.norm(coeffs))
    data_norm = float(np.linalg.norm(ev._targets))
    return NormGrowthReport(
        data_norm=data_norm, interpolant_norm=interpolant_norm, degree=N
    )
