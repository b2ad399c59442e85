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
function value would.

Every value in log form is one complex number or array: its real part
is ``log|.|``, ``-inf`` (phase 0) for an exact zero, and its imaginary
part is the phase. A public log function takes a point or an array of
points and returns a ``complex`` or an array of their shape, through
:func:`_log_values`, which rejects a NaN or ``+inf`` log modulus.
Products are sums of such arrays, and :func:`_combine_term_logs` is the
one log-sum-exp that adds terms up (times plain factors in the Lagrange
series' scaled Cauchy sum); every function value, plain or weighted, is
reduced there by :func:`eval_weighted_log`. Every plain value leaves the
log domain through :func:`_checked_exp`, the one guarded exponential,
whose :class:`Overflow` carries ``log_mag`` and, where the value belongs
to a point, ``radius``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaMismatch, Overflow, UnsupportedRepresentation, ValidationError
from .pointsets import _has_repeats

__all__ = [
    "MAX_EXP",
    "FockFunction",
    "reduce_phase",
    "kernel",
    "eval",
    "eval_weighted",
    "eval_weighted_log",
    "norm2",
    "translate",
    "inner",
    "concentration_radius",
]

# exp() overflows to Inf just above 709.78; stay clear of the edge with
# some headroom.
MAX_EXP = 700.0
# The least normal double. Two distinct doubles closer than it have a
# coordinate below 2**-969 each, where the spacing of doubles drops
# under it; 2**600 scales such a difference to a normal double exactly.
_TINY = float(np.finfo(np.float64).tiny)
_BELOW_TINY_GAP = 2.0**-969
_LOG_2_600 = 600.0 * math.log(2.0)


def reduce_phase(phi):
    """Reduce an angle (scalar or array) to the interval (-pi, pi]."""
    return np.pi - np.remainder(np.pi - phi, 2.0 * np.pi)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")
    return alpha


def _finite_point(z, name: str) -> complex:
    """``z`` as a complex number, which must be finite; ``name`` is the
    argument's name in the :class:`ValidationError` otherwise."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValidationError(f"{name} must be finite, got {z}")
    return z


def _log_values(logs: np.ndarray):
    """``logs`` in the public log form, a ``complex`` for a 0-d array;
    :class:`ValidationError` where a log modulus is NaN or ``+inf``."""
    # one pass: the max is NaN or +inf exactly when some log modulus is
    if not np.max(logs.real, initial=-math.inf) < math.inf:
        bad = logs.real[np.isnan(logs.real) | (logs.real == math.inf)]
        raise ValidationError(f"log_mag must be finite or -inf, got {float(bad[0])}")
    return complex(logs) if logs.ndim == 0 else logs


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
    """Reproducing kernel ``K(z, zeta) = exp(alpha * conj(z) * zeta)``,
    the value of ``K(z, .)`` at the point ``zeta``.

    Raises
    ------
    ValidationError
        If ``z`` or ``zeta`` is not finite; the message names which.
    Overflow
        As :func:`_checked_exp`, when the log form ``alpha * conj(z) * zeta``
        passes the log-safe range; fields ``log_mag`` and ``radius`` (``|zeta|``).
    """
    alpha = _check_alpha(alpha)
    z, zeta = _finite_point(z, "z"), np.complex128(_finite_point(zeta, "zeta"))
    log_form = alpha * z.conjugate() * zeta
    return complex(_checked_exp(log_form, zeta, "kernel"))


def _checked_exp(logs: np.ndarray, zs: np.ndarray | None, what: str) -> np.ndarray:
    """``exp(logs)``, the plain values of ``what`` at the points ``zs``
    (arrays or numpy scalars of one shape), or ``zs=None`` for values that
    belong to no point.

    Raises
    ------
    Overflow
        If some log modulus reaches ``MAX_EXP``; fields ``log_mag`` (the
        largest) and, given points, ``radius`` (its ``|z|``).
    """
    if np.any(logs.real >= MAX_EXP):
        top = int(np.nanargmax(logs.real))
        fields, at = {"log_mag": float(logs.real.flat[top])}, ""
        if zs is not None:
            fields["radius"] = float(abs(zs.flat[top]))
            at = f" at |z| = {fields['radius']:.6g}"
        raise Overflow(
            f"{what} log modulus {fields['log_mag']:.6g}{at} exceeds the safe exponent {MAX_EXP:g}",
            **fields,
        )
    return np.exp(logs)


def _disk_grid(radius: float, step: float) -> np.ndarray:
    """The points ``step (m + i n)`` with ``|z| <= radius``, row-major in (n, m).

    Raises :class:`ValidationError` where numpy cannot build the axis of
    ``2 floor(radius/step) + 1`` points.
    """
    # numpy refuses an oversized count before allocating anything
    try:
        half = int(math.floor(radius / step))
        axis = step * np.arange(-half, half + 1, dtype=np.float64)
    except (OverflowError, ValueError):
        raise ValidationError(
            f"grid_step {step:g} is too fine for radius {radius:g}: numpy cannot build the axis"
        ) from None
    grid = (axis[None, :] + 1j * axis[:, None]).ravel()
    return grid[np.abs(grid) <= radius]


def _log(values) -> np.ndarray:
    """Complex log of an array, ``-inf`` (phase 0) at exact zeros.

    Assembled from ``log|.|`` and the angle, which is about ten times
    faster than numpy's complex log on the same array. A subnormal
    modulus keeps only a few digits, so where ``|.|`` is subnormal the
    value is scaled by ``2**600`` first, which is exact.
    """
    values = np.asarray(values, dtype=np.complex128)
    mod = np.abs(values)
    with np.errstate(divide="ignore", over="ignore"):  # the scaled large values go unused
        out = np.log(mod)
        if np.min(mod, initial=np.inf) < _TINY:
            sub = (mod < _TINY) & (mod > 0.0)
            out = np.where(sub, np.log(np.abs(values * 2.0**600)) - _LOG_2_600, out)
    return out + 1j * np.angle(values)


def _log1p(values) -> np.ndarray:
    """Complex ``log(1 + w)`` of an array of ``w`` with ``|w| < 1``.

    ``log|1 + w|`` is ``log1p(|1 + w|^2 - 1) / 2``, with ``|1 + w|^2 - 1``
    formed as ``a (a + 2) + b^2`` from ``w = a + ib``: near ``w = 0`` it
    keeps an ulp of itself, where :func:`_log` of ``1 + w`` is off by up
    to an ulp of 1, which a sum of many such logs accumulates.
    """
    w = np.asarray(values, dtype=np.complex128)
    a, b = w.real, w.imag
    return 0.5 * np.log1p(a * (a + 2.0) + b * b) + 1j * np.arctan2(b, 1.0 + a)


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
    log_z = _log(zs)
    with np.errstate(invalid="ignore"):
        radial = np.where(n[None, :] == 0, 0.0, n[None, :] * log_z.real[:, None])
    log_mag = (
        0.5 * (n[None, :] * math.log(alpha) - _log_factorials(N)[None, :])
        + radial
        - 0.5 * alpha * np.abs(zs)[:, None] ** 2
    )
    return log_mag + 1j * (n[None, :] * log_z.imag[:, None])


def _weighted_term_logs(f: FockFunction, zs: np.ndarray) -> np.ndarray:
    """Per-term complex logs of ``exp(-alpha|z|^2/2) f(z)``, shape (terms, points).

    Every monomial term has modulus at most ``|c_n|`` and every kernel
    term at most ``|w_j| exp(alpha |zeta_j|^2 / 2)``, so the row maxima
    locate the scale safely.
    """
    a = f.alpha
    if f.kind == "monomial":
        return _log(f.coeffs)[:, None] + _monomial_logs(a, len(f.coeffs) - 1, zs).T
    e = a * np.conj(f.nodes)[:, None] * zs[None, :]
    return _log(f.weights)[:, None] + e - 0.5 * a * (zs.real**2 + zs.imag**2)[None, :]


def _combine_term_logs(logs: np.ndarray, factors: np.ndarray | None = None) -> np.ndarray:
    """Sum complex-log terms along the first axis; one complex log per column.

    The reduction subtracts the per-column maximum of ``log|.|`` before
    exponentiating, so the sum is exact to rounding whenever the true
    total is representable in log form. A column without terms, or
    with only exact zeros, sums to an exact zero. Each column of a 2-D
    block is summed term after term, whatever the block's width or
    layout, so a column's value does not depend on the columns beside it.

    Plain ``factors`` (1/(z - z_i) in the scaled Cauchy sum) multiply the
    exponentiated terms; ``logs`` broadcasts to them, and both are overwritten.
    """
    top = np.max(logs.real, axis=0, initial=-np.inf)
    safe_top = np.where(np.isfinite(top), top, 0.0)
    # C order: numpy sums a row-major block row by row
    scaled = np.subtract(logs, safe_top, out=None if factors is None else logs, order="C")
    np.exp(scaled, out=scaled)
    if factors is not None:
        scaled = np.multiply(factors, scaled, out=factors)
    if scaled.ndim == 2 and scaled.shape[1] == 1 and len(scaled):
        # numpy would sum a lone column pairwise
        return safe_top + _log(np.cumsum(scaled, axis=0)[-1])
    return safe_top + _log(np.sum(scaled, axis=0))


def eval_weighted_log(f: FockFunction, z):
    """Log form of ``exp(-alpha |z|^2 / 2) f(z)`` at a point or an array of
    points: a ``complex``, or an array of their shape (module docstring).
    Raises :class:`ValidationError` if some point is not finite."""
    zs = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(zs)):
        raise ValidationError("evaluation points must be finite")
    flat = zs.ravel()
    nterms = len(f.coeffs) if f.kind == "monomial" else len(f.nodes)
    chunk = max(1, int(4_000_000 // nterms))
    logs = np.empty(flat.shape, dtype=np.complex128)
    for start in range(0, flat.size, chunk):
        part = flat[start : start + chunk]
        logs[start : start + chunk] = _combine_term_logs(_weighted_term_logs(f, part))
    return _log_values(logs.reshape(zs.shape))


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
    out = _checked_exp(np.asarray(eval_weighted_log(f, zs)), zs, "weighted value")
    return complex(out) if zs.ndim == 0 else out


def eval(f: FockFunction, z) -> complex:  # noqa: A001 - public API name
    """Plain value ``f(z)``: the weighted log form plus ``alpha |z|^2 / 2``.

    Accepts a point or an array of points, as :func:`eval_weighted` does.

    Raises
    ------
    Overflow
        As :func:`_checked_exp`, when some ``|f(z)|`` exceeds the log-safe
        range; fields ``log_mag`` and ``radius``. :func:`eval_weighted_log`
        gives the bounded weighted value's log form at the same points.
    ValidationError
        As :func:`eval_weighted_log`.
    """
    zs = np.asarray(z, dtype=np.complex128)
    logs = np.asarray(eval_weighted_log(f, zs)) + 0.5 * f.alpha * (zs.real**2 + zs.imag**2)
    out = _checked_exp(logs, zs, "value")
    return complex(out) if zs.ndim == 0 else out


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a float or complex vector, taken over the power
    of two of its largest modulus, so no square overflows or underflows.
    ``np.ldexp`` scales exactly both ways (``2.0**-e`` overflows for subnormal input)."""
    v = np.ascontiguousarray(v)
    top = float(np.max(np.abs(v), initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return top
    e = int(np.frexp(top)[1])
    return float(np.ldexp(np.linalg.norm(np.ldexp(v.view(np.float64), -e).view(v.dtype)), e))


def norm2(f: FockFunction) -> float:
    """The Hilbert-space norm of ``f``.

    The coefficients' l2 norm for the monomial form, by :func:`_norm`, so
    only a norm past the double range overflows; for kernel
    combinations the Gram quadratic form is accumulated in the log
    domain so only a genuinely out-of-range norm overflows.

    Raises
    ------
    Overflow
        As :func:`_checked_exp`; field ``log_mag`` only, as the norm of a
        kernel combination belongs to no point.
    """
    if f.kind == "monomial":
        return _norm(f.coeffs)
    return float(_checked_exp(0.5 * _inner_log(f, f).real, None, "norm"))


def translate(f: FockFunction, a: complex) -> FockFunction:
    """Isometric translation ``(T_a f)(z) = exp(alpha conj(a) z - alpha|a|^2/2) f(z - a)``.

    Closed form on kernel combinations: every node moves by ``a`` and
    every weight picks up ``exp(-alpha |a|^2 / 2 - alpha conj(zeta_j) a)``.

    Raises
    ------
    UnsupportedRepresentation
        For monomial input; translation does not preserve degree.
    ValidationError
        If ``a`` is not finite.
    Overflow
        As :func:`_checked_exp`, for a weight factor past the log-safe
        range; fields ``log_mag`` and ``radius`` (``|zeta_j|`` of its node).
    """
    if f.kind != "kernel":
        raise UnsupportedRepresentation("translate is defined for kernel combinations only")
    a = _finite_point(a, "a")
    if a == 0:
        return f
    expo = -0.5 * f.alpha * (a.real**2 + a.imag**2) - f.alpha * np.conj(f.nodes) * a
    factors = _checked_exp(expo, f.nodes, "translation factor")
    return FockFunction.kernel_combo(f.alpha, f.nodes + a, f.weights * factors)


def _inner_log(f: FockFunction, g: FockFunction) -> complex:
    """Complex log of ``<f, g>`` for two kernel combinations.

    ``<f, g> = sum_jk w_j conj(v_k) exp(alpha conj(zeta_j) eta_k)``; the
    weight conjugation pairs with the kernel's first slot, which is what
    the reproducing-property and isometry tests pin down.
    """
    e = f.alpha * np.conj(f.nodes)[:, None] * g.nodes[None, :]
    terms = _log(f.weights)[:, None] + np.conj(_log(g.weights))[None, :] + e
    return _combine_term_logs(terms.ravel())


def inner(f: FockFunction, g: FockFunction) -> complex:
    """Hermitian inner product ``<f, g>``, linear in ``f``.

    Monomial against monomial is the exact coefficient sum; kernel
    against kernel goes through the log-scaled kernel Gram matrix; the
    mixed case applies the reproducing property of the kernel side,
    ``sum_k conj(v_k) f(eta_k)`` with :func:`eval`, so
    ``inner(f, kernel_combo(alpha, [z], [1])) == eval(f, z)`` exactly.

    Raises
    ------
    AlphaMismatch
        If the operands have different weight parameters.
    Overflow
        As :func:`eval` at the kernel nodes in the mixed case (fields
        ``log_mag`` and ``radius``); kernel against kernel belongs to no
        point (field ``log_mag`` only).
    """
    if f.alpha != g.alpha:
        raise AlphaMismatch(f"alpha {f.alpha:g} vs {g.alpha:g}")
    if f.kind == "monomial" and g.kind == "monomial":
        n = min(len(f.coeffs), len(g.coeffs))
        return complex(np.sum(f.coeffs[:n] * np.conj(g.coeffs[:n])))
    if f.kind == "kernel" and g.kind == "kernel":
        return complex(_checked_exp(_inner_log(f, g), None, "inner product"))
    if f.kind == "monomial":
        return complex(np.sum(np.conj(g.weights) * eval(f, g.nodes)))
    return complex(np.conj(inner(g, f)))
