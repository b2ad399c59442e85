"""Reconstruction from samples and explicit interpolation.

Two regimes, split by the density beta/pi of the lattice the point set
tracks, against the space parameter alpha:

* Reconstruction (beta > alpha): the Lagrange-type series
  ``f(z) = sum f(z_mn) / g'(z_mn) * g(z) / (z - z_mn)`` with g the
  canonical product of the whole set recovers f from its samples.
* Interpolation (beta < alpha): the explicit series
  ``f(z) = sum a~_mn exp(alpha conj(z_mn) z - alpha |z_mn|^2)
  * g_t(z - z_mn) / (z - z_mn)`` with g_t the canonical product of the
  translated set Gamma - z_mn solves the weighted interpolation problem.

Data targets follow the weighted convention: a_mn prescribes
``exp(-alpha |z_mn|^2 / 2) f(z_mn)``, so the printed series receives
``a~_mn = a_mn exp(+alpha |z_mn|^2 / 2)``. All per-term magnitudes are
assembled in the log domain, where the large opposing exponentials
cancel exactly; at a node the evaluator's own term reduces to its
target algebraically and every other term vanishes exactly (the
translated products carry exact zeros), so node identities hold at
rounding level.

Both series are truncated by node radius. Residuals are reported over
the interior (half the truncation radius) only, so truncation effects
near the rim are not blamed on the formulas. The critical density
beta = alpha is rejected with a relative guard band of 1e-9: the
boundary lattice is neither a set of sampling nor one of interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .canonical import canonical_product, gfun_derivative_at_node, _gfun_log_many
from .errors import (
    DensityOrderViolated,
    MissingSamples,
    NodeIndexMissing,
    ValidationError,
)
from .pointsets import PointSet, SquareLattice
from .space import _combine_term_logs

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


def _log_abs(values):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


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


def lagrange_reconstruct(gamma: PointSet, alpha: float, samples: dict, z, truncation_radius: float):
    """Recover f(z) from its plain samples on a supercritical set.

    ``samples`` maps points of gamma to f values and must cover every
    point with ``|z_mn| <= truncation_radius``. The query must stay in
    the interior ``|z| < truncation_radius / 2``; at a sampled point the
    sample itself is returned. Accepts a point or an array of points.

    Each term is assembled in the log domain from the canonical-product
    value at z, the product derivative at the node, and the sample, so
    the opposing Gaussian-scale factors cancel before exponentiation.

    Raises
    ------
    DensityOrderViolated
        If the set's lattice density beta/pi does not exceed alpha/pi
        (including the critical case beta = alpha).
    MissingSamples
        If some point within the truncation radius has no sample.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValidationError("alpha must be positive")
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

    inside = np.abs(gamma.points) <= truncation_radius
    nodes = gamma.points[inside]
    node_indices = gamma.indices[inside]
    missing = [p for p in nodes if complex(p) not in samples]
    if missing:
        raise MissingSamples(
            f"{len(missing)} points within radius {truncation_radius:g} "
            "have no sample"
        )
    values = np.array([complex(samples[complex(p)]) for p in nodes])

    M = int(math.ceil(2.0 * truncation_radius / spacing)) + 20
    cp = canonical_product(gamma, SquareLattice(spacing), M)
    glog = _gfun_log_many(cp, flat)
    dlogs = np.array(
        [
            (d.log_mag, d.phase)
            for d in (
                gfun_derivative_at_node(cp, (int(m), int(n)))
                for m, n in node_indices
            )
        ]
    )
    diff = flat[None, :] - nodes[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lm = (
            _log_abs(values)[:, None]
            + glog.real[None, :]
            - _log_abs(diff)
            - dlogs[:, 0][:, None]
        )
        ph = (
            np.angle(values)[:, None]
            + glog.imag[None, :]
            - np.angle(diff)
            - dlogs[:, 1][:, None]
        )
    at_node = diff == 0
    lm = np.where(at_node, -np.inf, lm)
    total_lm, total_ph = _combine_term_logs(lm, ph)
    out = np.exp(total_lm) * np.exp(1j * total_ph)

    # direct return of the sample at an exact sample point
    hit_rows, hit_cols = np.nonzero(at_node)
    out[hit_cols] = values[hit_rows]
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
        if not (self.alpha > 0.0):
            raise ValidationError("alpha must be positive")
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

    def _basis_logs(self, flat: np.ndarray):
        """Data-independent per-node term logs at the query points.

        Row i holds the log form of
        ``exp(alpha |z_i|^2 / 2) exp(alpha (conj(z_i) z - |z_i|^2))
        g_t(z - z_i) / (z - z_i)``; multiplying row i by the datum a_i
        gives the series term. At the node itself the exponent vanishes
        and g_t(w)/w -> 1, which the hit branch encodes exactly.
        """
        alpha = self.problem.alpha
        nterm = len(self._nodes)
        lm = np.full((max(nterm, 1), flat.size), -np.inf)
        ph = np.zeros((max(nterm, 1), flat.size))
        for i, node in enumerate(self._nodes):
            sq_node = complex(np.conj(node) * node)
            half = alpha * sq_node.real / 2.0
            w = flat - node
            gl = _gfun_log_many(self._products[i], w)
            expo = alpha * (np.conj(node) * flat - sq_node)
            with np.errstate(divide="ignore", invalid="ignore"):
                lm[i] = half + expo.real + gl.real - _log_abs(w)
                ph[i] = expo.imag + gl.imag - np.angle(w)
            hit = w == 0
            if np.any(hit):
                lm[i, hit] = half
                ph[i, hit] = 0.0
        return lm, ph

    def _apply_data(self, basis_lm, basis_ph):
        la = _log_abs(self._targets)
        pa = np.angle(self._targets)
        if basis_lm.shape[0] == 0 or la.size == 0:
            return basis_lm, basis_ph
        return basis_lm + la[:, None], basis_ph + pa[:, None]

    def _eval_log(self, zs):
        zs = np.asarray(zs, dtype=np.complex128)
        flat = zs.ravel()
        lm, ph = self._apply_data(*self._basis_logs(flat))
        total_lm, total_ph = _combine_term_logs(lm, ph)
        return zs, total_lm, total_ph

    def with_data(self, data: dict) -> "InterpolantEvaluator":
        """Evaluator for new targets on the same nodes, products reused."""
        problem = InterpolationProblem(
            gamma=self.problem.gamma,
            alpha=self.problem.alpha,
            lattice_spacing=self.problem.lattice_spacing,
            data=data,
        )
        missing = [p for p in self._nodes if complex(p) not in data]
        if missing:
            raise MissingSamples(
                f"{len(missing)} contributing points have no datum"
            )
        targets = np.array([complex(data[complex(p)]) for p in self._nodes])
        return InterpolantEvaluator(
            problem=problem,
            truncation_radius=self.truncation_radius,
            _nodes=self._nodes,
            _targets=targets,
            _products=self._products,
            _cache=self._cache,
        )

    def eval(self, z):
        """Plain interpolant value f(z); point or array."""
        zs, lm, ph = self._eval_log(z)
        out = (np.exp(lm) * np.exp(1j * ph)).reshape(zs.shape)
        return complex(out[()]) if zs.ndim == 0 else out

    def eval_weighted(self, z):
        """Weighted value exp(-alpha |z|^2 / 2) f(z); point or array."""
        zs, lm, ph = self._eval_log(z)
        lm = lm - 0.5 * self.problem.alpha * _sq(zs.ravel())
        out = (np.exp(lm) * np.exp(1j * ph)).reshape(zs.shape)
        return complex(out[()]) if zs.ndim == 0 else out

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
            self._cache[key] = (grid, self._basis_logs(grid))
        grid, basis = self._cache[key]
        lm, ph = self._apply_data(*basis)
        total_lm, _ = _combine_term_logs(lm, ph)
        sup_w = float(np.max(total_lm - 0.5 * self.problem.alpha * _sq(grid)))
        sup_a = max((abs(complex(v)) for v in self._targets), default=0.0)
        return math.exp(sup_w) / (1.0 + sup_a)


def build_interpolant(problem: InterpolationProblem, truncation_radius: float) -> InterpolantEvaluator:
    """Construct the explicit-series evaluator for a subcritical set.

    Caches the canonical product of the translated set Gamma - z_mn for
    every node carrying data within the truncation radius.

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
    inside = np.abs(gamma.points) <= truncation_radius
    nodes = gamma.points[inside]
    node_indices = gamma.indices[inside]
    missing = [p for p in nodes if complex(p) not in problem.data]
    if missing:
        raise MissingSamples(
            f"{len(missing)} points within radius {truncation_radius:g} "
            "have no datum"
        )
    targets = np.array([complex(problem.data[complex(p)]) for p in nodes])

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
        ev._cache[key] = (rs, wr, ev._basis_logs(grid.ravel()))
    rs, wr, basis = ev._cache[key]

    lm, ph = ev._apply_data(*basis)
    total_lm, total_ph = _combine_term_logs(lm, ph)
    flat_r = np.repeat(rs, n_theta)
    total_lm = total_lm - 0.5 * alpha * flat_r**2
    weighted = (np.exp(total_lm) * np.exp(1j * total_ph)).reshape(n_r, n_theta)
    harmonics = np.fft.fft(weighted, axis=1) * (2.0 * math.pi / n_theta)

    ns = np.arange(N + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.log(rs)
        radial_pow = np.where(ns[None, :] == 0, 0.0, ns[None, :] * log_r[:, None])
    log_basis = (
        0.5 * (ns[None, :] * math.log(alpha) - gammaln(ns + 1.0)[None, :])
        + radial_pow
        - 0.5 * alpha * rs[:, None] ** 2
    )
    radial_weight = (alpha / math.pi) * wr * rs
    coeffs = np.array(
        [
            np.sum(radial_weight * np.exp(log_basis[:, n]) * harmonics[:, n])
            for n in ns
        ]
    )
    interpolant_norm = float(np.linalg.norm(coeffs))
    data_norm = float(np.linalg.norm(ev._targets))
    return NormGrowthReport(
        data_norm=data_norm, interpolant_norm=interpolant_norm, degree=N
    )
