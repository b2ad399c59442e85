"""Output gates: each CLI output is checked against an independent oracle.

A gate reads the files one invocation wrote and returns a GateResult.
Any miss fails that invocation. The tolerances are fixed here with a
margin over the values the code gave when the benchmark was written
(quoted beside each); they are never loosened to let a run pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mpmath as mp
import numpy as np

TOLERANCES = {
    # max weighted residual over interior nodes; measured up to 8.9e-16
    "interpolation.node_residual": 1e-13,
    # max |weighted reconstruction - weighted truth| on the grid; the error
    # depends on the seed's perturbation: at most 2.7e-11 over seeds 0-39, 101-110
    "interpolation.recon_err": 1e-9,
    # max |log sigma| and phase difference against the theta closed form; measured 5.3e-14
    "canonical.sigma_err": 1e-11,
    # max |A - A*|, |B - B*| relative to B*, against dense eigenvalues; measured 2.6e-13
    "sampling.bound_err": 1e-10,
}

# rows of the sigma grid compared with mpmath (about 50 of 3721)
SIGMA_SAMPLES = 50


@dataclass
class GateResult:
    ok: bool
    figures: dict = field(default_factory=dict)
    detail: str = ""


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _rows(path: Path):
    """CSV body as a list of string rows, header dropped."""
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def lattice_points(spacing: float, window: float) -> np.ndarray:
    """Square-lattice points s*(m+in) with |point| <= window, row-major in (n, m)."""
    kmax = int(math.floor(window / spacing))
    k = np.arange(-kmax, kmax + 1, dtype=np.float64)
    m, n = (a.ravel() for a in np.meshgrid(k, k))
    keep = (m**2 + n**2) * spacing * spacing <= window * window
    return spacing * (m[keep] + 1j * n[keep])


def _within(name: str, value: float) -> GateResult:
    tol = TOLERANCES[name]
    ok = math.isfinite(value) and value <= tol
    return GateResult(ok, {name: value}, f"{name} {value:.3g} (tol {tol:g})")


def lattice(work: Path, out: str) -> GateResult:
    """The point CSV holds exactly the points the report counts."""
    count = _report(work / out / "lattice_report.json")["results"]["count"]
    rows = len(_rows(work / out / "points.csv"))
    return GateResult(count == rows, {}, f"{rows} rows, report count {count}")


def _brute_extremes(x: np.ndarray, y: np.ndarray, w: float, r: float):
    """Min and max point counts over candidate translates of [0,r) x [0,r).

    Candidates put a square edge just inside or just outside each point
    coordinate (1e-9 off, so no point sits within rounding of an edge),
    plus a 0.25 grid; only translates whose closed square lies in the
    window disk count. Counts use the plain half-open rule. Each value is
    the count of a real feasible square, so it must lie in [n_minus, n_plus].
    """
    delta = 1e-9
    grid = np.arange(-w, w, 0.25)
    cx = np.unique(np.concatenate([x - delta, x + delta, x - r - delta, x - r + delta, grid]))
    cy = np.unique(np.concatenate([y - delta, y + delta, y - r - delta, y - r + delta, grid]))
    reach_y = np.maximum(np.abs(cy), np.abs(cy + r))
    lo, hi = None, None
    for tx in cx:
        edge = max(abs(tx), abs(tx + r))
        room = w * w - edge * edge
        if room < 0.0:
            continue
        ty = cy[reach_y * reach_y <= room]
        if ty.size == 0:
            continue
        col = np.sort(y[(x >= tx) & (x < tx + r)])
        hits = np.searchsorted(col, ty + r, side="left") - np.searchsorted(col, ty, side="left")
        lo = int(hits.min()) if lo is None else min(lo, int(hits.min()))
        hi = int(hits.max()) if hi is None else max(hi, int(hits.max()))
    return lo, hi


def density(work: Path, out: str, points: str) -> GateResult:
    """Brute-force translate counts lie inside [n_minus, n_plus] at every radius."""
    doc = _report(work / out / "density_report.json")
    report, window = doc["results"], doc["config"]["window"]
    rows = _rows(work / points)
    x = np.array([float(row[0]) for row in rows])
    y = np.array([float(row[1]) for row in rows])
    misses, tight = 0, 0
    for r, n_lo, n_hi, reliable in zip(
        report["radii"], report["n_minus"], report["n_plus"], report["reliable"]
    ):
        lo, hi = _brute_extremes(x, y, window, r)
        if lo is None:
            misses += int(reliable)
            continue
        if not (n_lo <= lo and hi <= n_hi) or not reliable:
            misses += 1
        tight += int(lo == n_lo) + int(hi == n_hi)
    return GateResult(
        misses == 0,
        {"pointsets.count_oracle_misses": misses},
        f"{misses} radii outside the brute-force bracket; "
        f"{tight} of {2 * len(report['radii'])} extremes attained by the brute force",
    )


def _dense_bounds(points: np.ndarray, alpha: float, degree: int):
    """Extremal eigenvalues of the frame matrix, built and solved densely."""
    n = np.arange(degree + 1)
    lgam = np.array([math.lgamma(k + 1.0) for k in n])
    r = np.abs(points)
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where(n[None, :] == 0, 0.0, n[None, :] * np.log(r)[:, None])
    log_mag = 0.5 * (n * math.log(alpha) - lgam)[None, :] + radial - 0.5 * alpha * r[:, None] ** 2
    rows = np.exp(log_mag + 1j * n[None, :] * np.angle(points)[:, None])
    lam = np.linalg.eigvalsh(rows.conj().T @ rows)
    return float(lam[0]), float(lam[-1])


def frame(work: Path, out: str, alpha: float, density_ratio: float, window: float) -> GateResult:
    """A and B at every reported degree agree with dense eigenvalues."""
    results = _report(work / out / "frame_report.json")["results"]
    points = lattice_points(math.sqrt(math.pi / (alpha * density_ratio)), window)
    entries = list(results["ladder"]) + list(results["estimate"]["convergence_table"])
    err = 0.0
    for entry in entries:
        a_ref, b_ref = _dense_bounds(points, alpha, int(entry["degree"]))
        err = max(err, abs(entry["A"] - a_ref) / b_ref, abs(entry["B"] - b_ref) / b_ref)
    return _within("sampling.bound_err", err)


def reconstruct(work: Path, out: str, alpha: float, truth) -> GateResult:
    """Weighted reconstruction on the grid matches the known function."""
    grid_rows = np.array([[float(v) for v in row[:4]] for row in _rows(work / out / "recon_grid.csv")])
    z = grid_rows[:, 0] + 1j * grid_rows[:, 1]
    got = grid_rows[:, 2] + 1j * grid_rows[:, 3]
    weight = np.exp(-0.5 * alpha * np.abs(z) ** 2)
    err = float(np.max(np.abs(weight * (got - truth(z)))))
    count = _report(work / out / "reconstruct_report.json")["results"]["grid_points"]
    result = _within("interpolation.recon_err", err)
    if count != z.size:
        result.ok = False
        result.detail += f"; report grid_points {count} but {z.size} rows"
    return result


def interpolate(work: Path, out: str) -> GateResult:
    """Targets are hit at interior nodes; bound and norm ratio are finite."""
    results = _report(work / out / "interpolate_report.json")["results"]
    result = _within("interpolation.node_residual", float(results["max_interior_residual"]))
    finite = all(
        isinstance(v, (int, float)) and math.isfinite(v) and v > 0
        for v in (results["pointwise_bound_constant"], results["norm_growth"]["ratio"])
    )
    if not finite:
        result.ok = False
        result.detail += "; pointwise bound or norm ratio not a positive finite number"
    return result


def _sigma_theta_log(z: complex, spacing: float):
    """log sigma(z) of the square lattice from Jacobi theta_1 (DLMF 23.6).

    sigma(z) = (s/pi) exp(pi z^2 / (2 s^2)) theta_1(pi z / s, q) / theta_1'(0, q)
    with q = exp(-pi); evaluated with mpmath at 30 digits.
    """
    with mp.workdps(30):
        q = mp.exp(-mp.pi)
        zz = mp.mpc(z.real, z.imag)
        val = (
            mp.log(spacing / mp.pi)
            + mp.pi * zz**2 / (2 * spacing**2)
            + mp.log(mp.jtheta(1, mp.pi * zz / spacing, q))
            - mp.log(mp.jtheta(1, 0, q, 1))
        )
        return float(val.real), float(val.imag)


def sigma_grid(work: Path, out: str, spacing: float) -> GateResult:
    """A fixed subsample of log sigma agrees with the theta-function closed form."""
    rows = _rows(work / out / "sigma_grid.csv")
    step = max(1, len(rows) // SIGMA_SAMPLES)
    err = 0.0
    for row in rows[::step]:
        x, y, log_mag, phase = (float(v) for v in row)
        z = complex(x, y)
        if log_mag == -math.inf:
            off = z - spacing * complex(round(x / spacing), round(y / spacing))
            err = max(err, 0.0 if off == 0 else math.inf)
            continue
        ref_mag, ref_phase = _sigma_theta_log(z, spacing)
        dphase = abs(math.remainder(phase - ref_phase, 2.0 * math.pi))
        err = max(err, abs(log_mag - ref_mag), dphase)
    return _within("canonical.sigma_err", err)


def growth_check(work: Path, out: str) -> GateResult:
    """The growth certificate reports no violations and finite constants."""
    results = _report(work / out / "growth_check_report.json")["results"]
    violations = int(results["violations"])
    finite = all(math.isfinite(results[k]) and results[k] >= 0 for k in ("c", "C1", "C2"))
    return GateResult(
        violations == 0 and finite,
        {"canonical.growth_violations": violations},
        f"{violations} violations, c={results['c']:.3g}",
    )
