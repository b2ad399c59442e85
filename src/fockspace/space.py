"""Core Hilbert-space machinery: functions, kernels, norms, translations.

The space consists of entire functions with finite norm against the
Gaussian probability weight ``(alpha/pi) * exp(-alpha |z|^2)``. Its
reproducing kernel is ``K(z, zeta) = exp(alpha * conj(z) * zeta)``, and
the weighted modulus ``exp(-alpha |z|^2 / 2) |f(z)|`` is the bounded
quantity that sampling sums and sup norms are built from.

Two concrete function representations are supported, both with exact
norms:

* coefficients with respect to the orthonormal monomials
  ``e_n(z) = sqrt(alpha^n / n!) z^n``, and
* finite kernel combinations ``f(z) = sum_j w_j exp(alpha conj(zeta_j) z)``.

Quantities carrying the factors ``exp(+-alpha |z|^2 / 2)`` are evaluated
in log form throughout, so no intermediate overflows even when the plain
function value would. Plain complex code paths raise :class:`Overflow`
instead of returning infinities.

Inside the package an array of values in log form is one complex array:
its real part is ``log|.|``, ``-inf`` for an exact zero, and its
imaginary part is the phase. Products are sums of such arrays, and
:func:`_combine_term_logs` is the one log-sum-exp that adds terms up
(times plain factors in the Lagrange series' scaled Cauchy sum).
:class:`LogComplex` is the scalar form the public API returns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaMismatch,
    Overflow,
    RadiusTooSmall,
    UnsupportedRepresentation,
    ValidationError,
)
from .pointsets import _has_repeats

__all__ = [
    "MAX_EXP",
    "MIN_EXP",
    "LogComplex",
    "FockFunction",
    "reduce_phase",
    "kernel",
    "eval",
    "eval_weighted",
    "eval_weighted_log",
    "norm2",
    "norm_inf",
    "translate",
    "inner",
    "concentration_radius",
]

# exp() overflows to Inf just above 709.78 and loses subnormal precision
# below about -745; stay clear of the upper edge with some headroom.
MAX_EXP = 700.0
MIN_EXP = -745.0


def reduce_phase(phi):
    """Reduce an angle (scalar or array) to the interval (-pi, pi]."""
    return np.pi - np.remainder(np.pi - phi, 2.0 * np.pi)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")
    return alpha


@dataclass(frozen=True)
class LogComplex:
    """Complex value stored as log-modulus and phase.

    ``log_mag`` is the natural logarithm of the modulus, with ``-inf``
    encoding an exact zero. ``phase`` is reduced to (-pi, pi] on
    construction, and forced to 0 for the exact zero.
    """

    log_mag: float
    phase: float

    def __post_init__(self):
        lm = float(self.log_mag)
        if math.isnan(lm) or lm == math.inf:
            raise ValidationError(f"log_mag must be finite or -inf, got {lm}")
        ph = 0.0 if lm == -math.inf else float(reduce_phase(float(self.phase)))
        object.__setattr__(self, "log_mag", lm)
        object.__setattr__(self, "phase", ph)

    @classmethod
    def from_complex(cls, w: complex) -> "LogComplex":
        w = complex(w)
        if w == 0:
            return cls(-math.inf, 0.0)
        return cls(math.log(abs(w)), cmath.phase(w))

    def to_complex(self) -> complex:
        """Convert to a plain complex number.

        Raises
        ------
        Overflow
            If the modulus exceeds the log-safe range.
        """
        if self.log_mag >= MAX_EXP:
            raise Overflow(
                f"log modulus {self.log_mag:.6g} exceeds the safe exponent "
                f"{MAX_EXP:g}; keep the value in log form"
            )
        if self.log_mag == -math.inf:
            return 0j
        return cmath.rect(math.exp(self.log_mag), self.phase)

    def __mul__(self, other: "LogComplex") -> "LogComplex":
        if self.log_mag == -math.inf or other.log_mag == -math.inf:
            return LogComplex(-math.inf, 0.0)
        return LogComplex(self.log_mag + other.log_mag, self.phase + other.phase)

    def __truediv__(self, other: "LogComplex") -> "LogComplex":
        if other.log_mag == -math.inf:
            raise ZeroDivisionError("division by an exact LogComplex zero")
        if self.log_mag == -math.inf:
            return LogComplex(-math.inf, 0.0)
        return LogComplex(self.log_mag - other.log_mag, self.phase - other.phase)


@dataclass(frozen=True, slots=True, eq=False)
class FockFunction:
    """A concrete element of the space, in one of two representations.

    Use :meth:`monomial` or :meth:`kernel_combo` to construct. Instances
    are immutable; the backing arrays are read-only.

    Attributes
    ----------
    alpha : float
        Weight parameter of the ambient space.
    kind : str
        Either ``"monomial"`` or ``"kernel"``.
    coeffs : ndarray or None
        Coefficients against the orthonormal monomial basis
        (``kind == "monomial"``).
    nodes, weights : ndarray or None
        Kernel nodes and weights (``kind == "kernel"``).
    """

    alpha: float
    kind: str
    coeffs: np.ndarray | None = None
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        if self.kind not in ("monomial", "kernel"):
            raise ValidationError(f"unknown representation {self.kind!r}")
        if self.kind == "monomial":
            c = np.asarray(self.coeffs, dtype=np.complex128).copy()
            if c.ndim != 1 or c.size == 0:
                raise ValidationError("coeffs must be a nonempty 1-D sequence")
            if not np.all(np.isfinite(c)):
                raise ValidationError("coefficients must be finite")
            c.flags.writeable = False
            object.__setattr__(self, "coeffs", c)
            object.__setattr__(self, "nodes", None)
            object.__setattr__(self, "weights", None)
        else:
            zs = np.asarray(self.nodes, dtype=np.complex128).copy()
            ws = np.asarray(self.weights, dtype=np.complex128).copy()
            if zs.ndim != 1 or zs.size == 0 or zs.shape != ws.shape:
                raise ValidationError("nodes and weights must be matching 1-D sequences")
            if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(ws))):
                raise ValidationError("nodes and weights must be finite")
            if _has_repeats(zs):
                raise ValidationError("kernel nodes must be pairwise distinct")
            zs.flags.writeable = False
            ws.flags.writeable = False
            object.__setattr__(self, "coeffs", None)
            object.__setattr__(self, "nodes", zs)
            object.__setattr__(self, "weights", ws)

    @classmethod
    def monomial(cls, alpha, coeffs) -> "FockFunction":
        """Function with the given orthonormal-monomial coefficients."""
        return cls(alpha, "monomial", coeffs=coeffs)

    @classmethod
    def kernel_combo(cls, alpha, nodes, weights) -> "FockFunction":
        """Finite kernel combination ``sum_j w_j K(zeta_j, .)``."""
        return cls(alpha, "kernel", nodes=nodes, weights=weights)

    @property
    def degree(self) -> int:
        if self.kind != "monomial":
            raise UnsupportedRepresentation("degree is defined for monomial form only")
        return len(self.coeffs) - 1

    def __repr__(self):
        if self.kind == "monomial":
            return f"FockFunction(monomial, alpha={self.alpha:g}, degree={self.degree})"
        return f"FockFunction(kernel, alpha={self.alpha:g}, nodes={len(self.nodes)})"


def concentration_radius(f: FockFunction) -> float:
    """Radius of the disk holding essentially all of the weighted mass.

    For monomial degree N the weighted modulus of ``e_N`` peaks near
    ``sqrt(N/alpha)`` and decays like a Gaussian beyond, so the radius is
    ``sqrt(N/alpha) + 4/sqrt(alpha)``. For kernel combinations the peak
    of each term sits at its node.
    """
    margin = 4.0 / math.sqrt(f.alpha)
    if f.kind == "monomial":
        return math.sqrt(f.degree / f.alpha) + margin
    return float(np.max(np.abs(f.nodes))) + margin


def kernel(alpha, z: complex, zeta: complex) -> complex:
    """Reproducing kernel ``K(z, zeta) = exp(alpha * conj(z) * zeta)``.

    Raises
    ------
    Overflow
        When the modulus exceeds the log-safe range; the exponent
        ``alpha * conj(z) * zeta`` is the kernel's log form.
    """
    alpha = _check_alpha(alpha)
    e = alpha * complex(z).conjugate() * complex(zeta)
    if e.real >= MAX_EXP:
        raise Overflow(f"kernel exponent {e.real:.6g} exceeds the safe range; keep it in log form")
    return cmath.exp(e)


def _checked_exp(logs: np.ndarray, zs: np.ndarray, what: str) -> np.ndarray:
    """``exp(logs)``, the plain values of ``what`` at the points ``zs``
    (arrays of one shape, 0-d included).

    Raises
    ------
    Overflow
        If some log modulus reaches ``MAX_EXP``; fields ``log_mag`` (the
        largest) and ``radius`` (its ``|z|``).
    """
    if np.any(logs.real >= MAX_EXP):
        top = int(np.nanargmax(logs.real))
        log_mag, radius = float(logs.real.flat[top]), float(abs(zs.flat[top]))
        raise Overflow(
            f"{what} log modulus {log_mag:.6g} at |z| = {radius:.6g} "
            f"exceeds the safe exponent {MAX_EXP:g}",
            log_mag=log_mag,
            radius=radius,
        )
    return np.exp(logs)


def _disk_grid(radius: float, step: float) -> np.ndarray:
    """The points ``step (m + i n)`` with ``|z| <= radius``, row-major in (n, m)."""
    half = int(math.floor(radius / step))
    axis = step * np.arange(-half, half + 1, dtype=np.float64)
    grid = (axis[None, :] + 1j * axis[:, None]).ravel()
    return grid[np.abs(grid) <= radius]


def _log(values) -> np.ndarray:
    """Complex log of an array, ``-inf`` (phase 0) at exact zeros.

    Assembled from ``log|.|`` and the angle, which is about ten times
    faster than numpy's complex log on the same array.
    """
    values = np.asarray(values, dtype=np.complex128)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values)) + 1j * np.angle(values)


# Stirling-series coefficients and log(sqrt(2 pi)) of cephes ``lgam``.
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


def _log_factorials(N: int) -> np.ndarray:
    """``log n!`` for ``n = 0..N``, bit for bit ``gammaln(n + 1)``."""
    return np.array([_log_factorial(n) for n in range(N + 1)], dtype=np.float64)


def _log_factorial(n: int) -> float:
    """``log n!`` as cephes ``lgam(n + 1)`` computes it.

    Below ``x = n + 1 = 13`` the factorial is exact and cephes' own
    recurrence returns its log; above, this is cephes' Stirling form
    with its ``x >= 1000`` and ``x > 1e8`` branches. It uses the scalar
    ``math.log``, because numpy's vectorized log rounds some of these
    arguments differently.
    """
    x = float(n + 1)
    if x < 13.0:
        return math.log(math.factorial(n))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        poly = poly * p + a
    return q + poly / x


def _monomial_logs(alpha: float, N: int, zs) -> np.ndarray:
    """Complex logs of ``e_n(z) exp(-alpha |z|^2 / 2)``, shape (points, N+1).

    Every entry has modulus at most 1; only the separate factors need
    logs, so rows are safe to exponentiate.
    """
    zs = np.asarray(zs, dtype=np.complex128)
    n = np.arange(N + 1)
    az = np.abs(zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where(n[None, :] == 0, 0.0, n[None, :] * np.log(az)[:, None])
    log_mag = (
        0.5 * (n[None, :] * math.log(alpha) - _log_factorials(N)[None, :])
        + radial
        - 0.5 * alpha * az[:, None] ** 2
    )
    return log_mag + 1j * (n[None, :] * np.angle(zs)[:, None])


def _weighted_term_logs(f: FockFunction, zs: np.ndarray) -> np.ndarray:
    """Per-term complex logs of ``exp(-alpha|z|^2/2) f(z)``, shape (terms, points).

    Every monomial term has modulus at most ``|c_n|`` and every kernel
    term at most ``|w_j| exp(alpha |zeta_j|^2 / 2)``, so the row maxima
    locate the scale safely.
    """
    a = f.alpha
    zs = np.asarray(zs, dtype=np.complex128)
    if f.kind == "monomial":
        return _log(f.coeffs)[:, None] + _monomial_logs(a, len(f.coeffs) - 1, zs).T
    e = a * np.conj(f.nodes)[:, None] * zs[None, :]
    return _log(f.weights)[:, None] + e - 0.5 * a * (zs.real**2 + zs.imag**2)[None, :]


def _combine_term_logs(logs: np.ndarray, factors: np.ndarray | None = None) -> np.ndarray:
    """Sum complex-log terms along the first axis; one complex log per column.

    The reduction subtracts the per-column maximum of ``log|.|`` before
    exponentiating, so the sum is exact to rounding whenever the true
    total is representable in log form. A column without terms, or
    with only exact zeros, sums to an exact zero. Summation order is
    fixed by the input shape, which keeps repeated runs bit-identical.

    Plain ``factors`` (1/(z - z_i) in the scaled Cauchy sum) multiply the
    exponentiated terms; ``logs`` broadcasts to them, and both are overwritten.
    """
    top = np.max(logs.real, axis=0, initial=-np.inf)
    safe_top = np.where(np.isfinite(top), top, 0.0)
    scaled = logs - safe_top if factors is None else np.subtract(logs, safe_top, out=logs)
    np.exp(scaled, out=scaled)
    if factors is not None:
        scaled = np.multiply(factors, scaled, out=factors)
    return safe_top + _log(np.sum(scaled, axis=0))


def _eval_weighted_log_many(f: FockFunction, zs: np.ndarray) -> np.ndarray:
    """Vectorized complex log of the weighted values at many points."""
    zs = np.asarray(zs, dtype=np.complex128)
    flat = zs.ravel()
    nterms = len(f.coeffs) if f.kind == "monomial" else len(f.nodes)
    chunk = max(1, int(4_000_000 // nterms))
    logs = np.empty(flat.shape, dtype=np.complex128)
    for start in range(0, flat.size, chunk):
        part = flat[start : start + chunk]
        logs[start : start + chunk] = _combine_term_logs(_weighted_term_logs(f, part))
    return logs.reshape(zs.shape)


def eval_weighted_log(f: FockFunction, z: complex) -> LogComplex:
    """Log form of ``exp(-alpha |z|^2 / 2) f(z)``."""
    val = complex(_eval_weighted_log_many(f, np.array([z], dtype=np.complex128))[0])
    return LogComplex(val.real, val.imag)


def eval_weighted(f: FockFunction, z) -> complex:
    """Weighted value ``exp(-alpha |z|^2 / 2) f(z)``.

    Accumulated per term in the log domain, so the result is finite
    whenever the true weighted value is, even when the bare ``f(z)``
    would overflow. Accepts a point or an array of points.

    Raises
    ------
    Overflow
        As :func:`_checked_exp`, when some weighted value exceeds the
        log-safe range.
    """
    zs = np.asarray(z, dtype=np.complex128)
    out = _checked_exp(_eval_weighted_log_many(f, zs), zs, "weighted value")
    return complex(out) if zs.ndim == 0 else out


def eval(f: FockFunction, z: complex) -> complex:  # noqa: A001 - public API name
    """Plain value ``f(z)``.

    Raises
    ------
    Overflow
        When ``|f(z)|`` exceeds the log-safe range; use
        :func:`eval_weighted_log` for the bounded weighted value.
    """
    w = eval_weighted_log(f, z)
    z = complex(z)
    lm = w.log_mag + 0.5 * f.alpha * (z.real**2 + z.imag**2)
    return LogComplex(lm, w.phase).to_complex()


def norm2(f: FockFunction) -> float:
    """The Hilbert-space norm of ``f``.

    Exact coefficient Pythagoras for the monomial form; for kernel
    combinations the Gram quadratic form is accumulated in the log
    domain so only a genuinely out-of-range norm overflows.
    """
    if f.kind == "monomial":
        return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))
    half_log = 0.5 * _inner_log(f, f).real
    if half_log >= MAX_EXP:
        raise Overflow(f"norm log {half_log:.6g} exceeds the safe range")
    return math.exp(half_log)


def norm_inf(f: FockFunction, search_radius: float, grid_step: float) -> float:
    """Grid estimate of the sup of the weighted modulus.

    Scans a square grid of the given step over ``|x|,|y| <= search_radius``
    and refines once with a 3x finer pass around the argmax. The result
    is a lower estimate of the true sup that is monotone nondecreasing as
    ``grid_step`` decreases.

    Raises
    ------
    RadiusTooSmall
        If ``search_radius`` does not cover the concentration radius
        of ``f``, which would make the estimate unreliable.
    """
    search_radius = float(search_radius)
    grid_step = float(grid_step)
    if not (search_radius > 0.0 and math.isfinite(grid_step) and grid_step > 0.0):
        raise ValidationError("search_radius must be positive, grid_step positive and finite")
    need = concentration_radius(f)
    if search_radius < need:
        raise RadiusTooSmall(
            f"search_radius {search_radius:g} is below the concentration "
            f"radius {need:g}"
        )

    def best_on(xs, ys):
        grid = xs[None, :] + 1j * ys[:, None]
        lm = _eval_weighted_log_many(f, grid).real
        k = int(np.argmax(lm))
        return float(lm.ravel()[k]), complex(grid.ravel()[k])

    half = int(math.floor(search_radius / grid_step))
    axis = grid_step * np.arange(-half, half + 1, dtype=np.float64)
    best_log, best_z = best_on(axis, axis)
    fine = grid_step / 3.0
    local = fine * np.arange(-3, 4, dtype=np.float64)
    ref_log, _ = best_on(best_z.real + local, best_z.imag + local)
    top = max(best_log, ref_log)
    return 0.0 if top == -math.inf else math.exp(top)


def translate(f: FockFunction, a: complex) -> FockFunction:
    """Isometric translation ``(T_a f)(z) = exp(alpha conj(a) z - alpha|a|^2/2) f(z - a)``.

    Closed form on kernel combinations: every node moves by ``a`` and
    every weight picks up ``exp(-alpha |a|^2 / 2 - alpha conj(zeta_j) a)``.

    Raises
    ------
    UnsupportedRepresentation
        For monomial input; translation does not preserve degree.
    """
    if f.kind != "kernel":
        raise UnsupportedRepresentation(
            "translate is defined for kernel combinations only"
        )
    a = complex(a)
    if a == 0:
        return f
    expo = -0.5 * f.alpha * (a.real**2 + a.imag**2) - f.alpha * np.conj(f.nodes) * a
    if np.any(expo.real >= MAX_EXP):
        raise Overflow("translation factor exceeds the safe exponent range")
    return FockFunction.kernel_combo(f.alpha, f.nodes + a, f.weights * np.exp(expo))


def _eval_monomial_direct(f: FockFunction, zs: np.ndarray) -> np.ndarray:
    """Exact recurrence evaluation of a monomial-form function."""
    zs = np.asarray(zs, dtype=np.complex128)
    out = np.zeros_like(zs)
    term = np.ones_like(zs)
    out += f.coeffs[0] * term
    for n in range(1, len(f.coeffs)):
        term = term * zs * math.sqrt(f.alpha / n)
        out += f.coeffs[n] * term
    return out


def _inner_log(f: FockFunction, g: FockFunction) -> complex:
    """Complex log of ``<f, g>`` for two kernel combinations.

    ``<f, g> = sum_jk w_j conj(v_k) exp(alpha conj(zeta_j) eta_k)``; the
    weight conjugation pairs with the kernel's first slot, which is what
    the reproducing-property and isometry tests pin down.
    """
    e = f.alpha * np.conj(f.nodes)[:, None] * g.nodes[None, :]
    terms = _log(f.weights)[:, None] + np.conj(_log(g.weights))[None, :] + e
    return complex(_combine_term_logs(terms.ravel()))


def inner(f: FockFunction, g: FockFunction) -> complex:
    """Hermitian inner product ``<f, g>``, linear in ``f``.

    Monomial against monomial is the exact coefficient sum; kernel
    against kernel goes through the log-scaled kernel Gram matrix; the
    mixed case applies the reproducing property of the kernel side, so
    ``inner(f, kernel_combo(z, 1)) == f(z)`` holds to rounding.

    Raises
    ------
    AlphaMismatch
        If the operands have different weight parameters.
    """
    if f.alpha != g.alpha:
        raise AlphaMismatch(f"alpha {f.alpha:g} vs {g.alpha:g}")
    if f.kind == "monomial" and g.kind == "monomial":
        n = min(len(f.coeffs), len(g.coeffs))
        return complex(np.sum(f.coeffs[:n] * np.conj(g.coeffs[:n])))
    if f.kind == "kernel" and g.kind == "kernel":
        total = _inner_log(f, g)
        return LogComplex(total.real, total.imag).to_complex()
    if f.kind == "monomial":
        vals = _eval_monomial_direct(f, g.nodes)
        if not np.all(np.isfinite(vals)):
            raise Overflow("monomial evaluation overflowed at a kernel node")
        return complex(np.sum(np.conj(g.weights) * vals))
    return complex(np.conj(inner(g, f)))
