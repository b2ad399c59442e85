"""Frame-bound experiments for the sampling inequality.

A point set samples the space when the weighted sample energy
``sum_z exp(-alpha |z|^2) |f(z)|^2`` is equivalent to the squared norm,
with constants A and B. Restricted to the span of the first N+1
orthonormal monomials the two sides become quadratic forms, and the
best constants are the extremal eigenvalues of the frame matrix
``S_jk = sum_z exp(-alpha |z|^2) conj(e_j(z)) e_k(z)``.

Members of that test subspace concentrate in the disk of radius
``sqrt(N/alpha)``; the point window must exceed it by a margin of
``4/sqrt(alpha)``, otherwise missing samples outside the window
masquerade as frame failure and the estimate is flagged unreliable.

Verdicts are reported as trend tables (A_N versus N along a degree
ladder), never booleans: at finite degree a computation can only
exhibit trends toward the asymptotic dichotomy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaMismatch,
    PointNotInSet,
    QuadratureOrderTooLow,
    UnsupportedRepresentation,
    ValidationError,
    WindowTooSmall,
)
from .pointsets import PointSet
from .space import FockFunction, _check_alpha, _monomial_logs, eval_weighted, norm2, translate

__all__ = [
    "FrameEstimate",
    "frame_matrix",
    "frame_bounds",
    "norm_decomposition_check",
    "point_removal_experiment",
]

@dataclass(frozen=True)
class FrameEstimate:
    """Frame constants of a point set on a truncated test subspace.

    ``A`` and ``B`` are the extremal eigenvalues of the frame matrix at
    ``degree``; ``convergence_table`` holds (N, A_N, B_N) along the
    degree ladder N/2, 3N/4, N. ``unreliable`` flags a window too small
    for the subspace's concentration radius.
    """

    A: float
    B: float
    degree: int
    effective_radius: float
    window_radius: float
    convergence_table: tuple
    unreliable: bool

    def __post_init__(self):
        if not (0.0 <= self.A <= self.B + 1e-300):
            raise ValidationError("frame estimate needs 0 <= A <= B")
        if not (self.window_radius > 0.0 and self.effective_radius > 0.0):
            raise ValidationError("radii must be positive")


def frame_matrix(gamma: PointSet, alpha: float, N: int) -> np.ndarray:
    """Frame quadratic form of a point set on span{e_0..e_N}.

    Returns the (N+1) x (N+1) Hermitian positive semidefinite matrix S
    with ``S_jk = sum_z exp(-alpha |z|^2) conj(e_j(z)) e_k(z)``. The
    reduction over points is a fixed-order matrix product (BLAS may
    parallelize it; the summation order is data-independent) and the
    result is symmetrized, so Hermiticity is exact.
    """
    alpha = _check_alpha(alpha)
    N = int(N)
    if N < 0:
        raise ValidationError("degree must be nonnegative")
    logs = _monomial_logs(alpha, N, gamma.points)
    # modulus times unit phase, not one complex exp: the two round
    # differently, and this form keeps frame reports bit-stable
    rows = np.exp(logs.real) * np.exp(1j * logs.imag)
    S = rows.conj().T @ rows
    return (S + S.conj().T) / 2.0


def _degree_ladder(N: int):
    ladder = []
    for d in (N // 2, (3 * N) // 4, N):
        if d not in ladder:
            ladder.append(d)
    return ladder


def frame_bounds(gamma: PointSet, alpha: float, N: int, window_radius: float) -> FrameEstimate:
    """Estimate the sampling constants of a point set at degree N.

    Raises
    ------
    WindowTooSmall
        If the window does not contain the point set.
    """
    alpha = _check_alpha(alpha)
    N = int(N)
    if N < 0:
        raise ValidationError("degree must be nonnegative")
    window_radius = float(window_radius)
    top = float(np.max(np.abs(gamma.points)))
    if top > window_radius * (1.0 + 1e-12):
        raise WindowTooSmall(
            f"window radius {window_radius:g} does not contain the point "
            f"set (farthest point at {top:g})"
        )
    effective = math.sqrt(N / alpha) + 4.0 / math.sqrt(alpha)
    table = []
    for d in _degree_ladder(N):
        # S is PSD: rounding alone can push its smallest eigenvalue below 0
        eig = np.linalg.eigvalsh(frame_matrix(gamma, alpha, d))
        table.append((d, max(0.0, float(eig[0])), float(eig[-1])))
    a_final, b_final = table[-1][1], table[-1][2]
    return FrameEstimate(
        A=a_final,
        B=b_final,
        degree=N,
        effective_radius=effective,
        window_radius=window_radius,
        convergence_table=tuple(table),
        unreliable=effective > window_radius,
    )


def norm_decomposition_check(f: FockFunction, alpha: float, K: int) -> float:
    """Relative gap of the square-tiling decomposition of the norm.

    The norm integral splits over translates of the square R of side
    ``sqrt(1/alpha)`` centered on the lattice of the same spacing; each
    cell integral equals the integral of a translated function over the
    fixed square R and is computed by an order-24 tensor Gauss-Legendre
    rule. Returns ``|norm2(f)^2 - sum of cells| / norm2(f)^2`` over the
    cells with ``|k|, |l| <= K``, which tends to 0 as K grows.

    Raises
    ------
    UnsupportedRepresentation
        If f is not in kernel-combination form.
    AlphaMismatch
        If alpha differs from the function's parameter.
    QuadratureOrderTooLow
        If doubling the rule order moves any cell integral by more
        than 1e-10 relative.
    ValidationError
        If the nodes of f are not well inside the covered square.
    """
    if f.kind != "kernel":
        raise UnsupportedRepresentation(
            "norm decomposition needs a kernel-combination function"
        )
    alpha = float(alpha)
    if alpha != f.alpha:
        raise AlphaMismatch(f"alpha {alpha:g} differs from the function's {f.alpha:g}")
    K = int(K)
    if K < 0:
        raise ValidationError("cell range K must be nonnegative")
    side = math.sqrt(1.0 / alpha)
    half = side / 2.0
    covered_half = (K + 0.5) * side
    top = float(np.max(np.abs(f.nodes)))
    if top > covered_half / 2.0:
        raise ValidationError(
            f"nodes reach {top:g}, beyond half the covered radius "
            f"{covered_half / 2:g}; increase K"
        )

    def cell_integrals(order):
        xs, ws = np.polynomial.legendre.leggauss(order)
        xs = xs * half
        ws = ws * half
        grid = (xs[None, :] + 1j * xs[:, None]).ravel()
        wgt = (ws[None, :] * ws[:, None]).ravel()
        out = {}
        for k in range(-K, K + 1):
            for l in range(-K, K + 1):
                shifted = translate(f, side * complex(k, l))
                vals = eval_weighted(shifted, grid)
                out[(k, l)] = float(
                    (alpha / math.pi) * np.sum(wgt * np.abs(vals) ** 2)
                )
        return out

    coarse = cell_integrals(24)
    fine = cell_integrals(48)
    for key, val in fine.items():
        if abs(coarse[key] - val) > 1e-10 * max(abs(val), 1e-300):
            raise QuadratureOrderTooLow(
                f"cell {key} moved by {abs(coarse[key] - val):.3g} "
                "when doubling the quadrature order"
            )
    total = math.fsum(coarse.values())
    exact = norm2(f) ** 2
    return abs(exact - total) / exact


def point_removal_experiment(gamma: PointSet, alpha: float, N: int, removed: complex):
    """Frame estimates before and after deleting one point.

    For supercritical sets the lower constant survives removal: the
    deleted rank-one term changes A by at most ``exp(-alpha |z|^2)``.

    Raises
    ------
    PointNotInSet
        If the removed point is not one of the set's points.
    """
    removed = complex(removed)
    pos = np.flatnonzero(gamma.points == removed)
    if pos.size == 0:
        raise PointNotInSet(f"{removed} is not a point of the set")
    before = frame_bounds(gamma, alpha, N, gamma.window_radius)
    keep = np.ones(len(gamma), dtype=bool)
    keep[pos[0]] = False
    if not np.any(keep):
        after = FrameEstimate(
            A=0.0,
            B=0.0,
            degree=int(N),
            effective_radius=before.effective_radius,
            window_radius=before.window_radius,
            convergence_table=tuple(
                (d, 0.0, 0.0) for d in _degree_ladder(int(N))
            ),
            unreliable=before.unreliable,
        )
        return before, after
    trimmed = PointSet(
        gamma.points[keep],
        gamma.window_radius,
        indices=None if gamma.indices is None else gamma.indices[keep],
    )
    after = frame_bounds(trimmed, alpha, N, gamma.window_radius)
    return before, after
