"""Command-line front end: experiments in, JSON/CSV reports out.

Each subcommand wires one library pipeline to files. Reports carry the
resolved config, the library version, and the results; the only field
that varies between identical runs is ``wall_time_s``. Validation
problems and requests too large for memory exit 2, numerical
diagnostics exit 3, all with a single-line JSON error on stderr (the
error type, its message and any structured fields it carries), and no
output files are written on failure.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  argparse's gettext imports it on first use
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .canonical import (
    _sigma_log_many,
    canonical_product,
    growth_check,
    quasi_period_constants,
)
from .errors import NumericalDiagnosticError, ValidationError
from .interpolation import (
    InterpolationProblem,
    _growth_angles,
    build_interpolant,
    lagrange_reconstruct,
    norm_growth_report,
    residual_check,
)
from .io import (
    density_report_to_doc,
    density_table_csv,
    dumps_json,
    eval_grid_csv,
    frame_estimate_to_doc,
    frame_table_csv,
    point_set_csv,
    point_set_from_csv,
    point_set_from_doc,
    point_set_to_doc,
    problem_from_doc,
    sigma_grid_csv,
)
from .pointsets import (
    PointSet,
    SquareLattice,
    density_estimate,
    perturb,
    separation,
    square_lattice,
)
from .sampling import _frame_constants, frame_bounds

__all__ = ["main"]


_POSITIVE_FLAGS = (
    "alpha",
    "window",
    "spacing",
    "density_ratio",
    "truncation_radius",
    "grid_radius",
    "grid_step",
)


def _validate_config(args) -> None:
    """Reject out-of-range numerics before any pipeline starts."""
    for name in _POSITIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValidationError(
                f"--{name.replace('_', '-')} must be a positive finite number"
            )
    shift = getattr(args, "perturb", None)
    if shift is not None and not (math.isfinite(shift) and shift >= 0):
        raise ValidationError("--perturb must be finite and nonnegative")


def _parse_int_list(text: str, flag: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"{flag} must be a comma-separated integer list") from exc
    if not values:
        raise ValidationError(f"{flag} must not be empty")
    return values


# Most points a --radii ladder, a --grid, a lattice's index square,
# growth-check's disk grid, interpolate's bound grid or norm-growth
# circles, or cells a frame matrix may hold. Counts are checked before
# anything is allocated, so a tiny step is an error, not a hang.
_MAX_POINTS = 1_000_000


def _count(lo: float, hi: float, step: float, flag: str) -> int:
    """Number of points lo, lo + step, ... up to hi, at most _MAX_POINTS."""
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_POINTS:
        raise ValidationError(f"{flag} asks for more than {_MAX_POINTS} points")
    return int(math.floor(span)) + 1


def _check_size(points: int, what: str) -> None:
    """Reject a request for more than _MAX_POINTS points."""
    if points > _MAX_POINTS:
        raise ValidationError(f"{what} asks for more than {_MAX_POINTS} points")


def _check_square(half: float, what: str) -> None:
    """Reject an index square of side 2 floor(half) + 1 over _MAX_POINTS points."""
    side = 2 * math.floor(min(half, _MAX_POINTS)) + 1
    _check_size(side * side, what)


def _parse_radii(text: str) -> list:
    """Parse a start:stop:step ladder, inclusive of the stop endpoint."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError('--radii must look like "5:15:1"')
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError("--radii parts must be numbers") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError("--radii parts must be finite")
    if step <= 0 or stop < start:
        raise ValidationError("--radii needs stop >= start and step > 0")
    return [start + k * step for k in range(_count(start, stop, step, "--radii"))]


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValidationError('--grid must look like "xmin,xmax,ymin,ymax,step"')
    try:
        xmin, xmax, ymin, ymax, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValidationError("--grid parts must be numbers") from exc
    if not all(map(math.isfinite, (xmin, xmax, ymin, ymax, step))):
        raise ValidationError("--grid parts must be finite")
    if step <= 0 or xmax < xmin or ymax < ymin:
        raise ValidationError("--grid needs max >= min and step > 0")
    nx = _count(xmin, xmax, step, "--grid")
    ny = _count(ymin, ymax, step, "--grid")
    _check_size(nx * ny, "--grid")
    xs = xmin + step * np.arange(nx)
    ys = ymin + step * np.arange(ny)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _built_set(args) -> tuple:
    """Point set from --spacing or --alpha/--density-ratio flags."""
    if (args.spacing is None) == (args.density_ratio is None):
        raise ValidationError("give exactly one of --spacing or --density-ratio")
    spacing = args.spacing
    if spacing is None:
        product = args.alpha * args.density_ratio
        if not 0.0 < product < math.inf:
            raise ValidationError(f"--alpha * --density-ratio = {product:g} has no finite spacing")
        spacing = math.sqrt(math.pi / product)
    _check_square(args.window / spacing, f"a spacing-{spacing:g} lattice in window {args.window:g}")
    gamma = square_lattice(spacing, args.window)
    if args.perturb is not None:
        if args.seed is None:
            raise ValidationError("--perturb needs --seed for reproducibility")
        gamma = perturb(gamma, args.perturb, seed=args.seed)
    return gamma, spacing


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read input file {path}: {exc}") from exc


def _parse_json(text: str, path: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _load_point_set(path: str, window) -> PointSet:
    text = _read_input(path)
    if path.endswith(".json"):
        return point_set_from_doc(_parse_json(text, path))
    if window is None:
        raise ValidationError("CSV point sets need --window")
    return point_set_from_csv(text, window)


def _load_problem(path: str, window):
    """Problem file -> (alpha, spacing, indexed PointSet, node->value map)."""
    doc = _parse_json(_read_input(path), path)
    alpha, spacing, nodes, data = problem_from_doc(doc)
    indices = np.stack(
        [
            np.rint(nodes.real / spacing).astype(np.int64),
            np.rint(nodes.imag / spacing).astype(np.int64),
        ],
        axis=1,
    )
    if window is None:
        window = float(np.max(np.abs(nodes))) + spacing / 2.0
    gamma = PointSet(nodes, float(window), indices=indices)
    mapping = {complex(z): complex(v) for z, v in zip(nodes, data)}
    return alpha, spacing, gamma, mapping


def _cmd_lattice(args):
    gamma, spacing = _built_set(args)
    results = {
        "count": len(gamma),
        "spacing": spacing,
        "window_radius": gamma.window_radius,
        "separation": separation(gamma) if len(gamma) >= 2 else None,
    }
    if args.format == "json":
        files = {"points.json": dumps_json(point_set_to_doc(gamma)) + "\n"}
    else:
        files = {"points.csv": point_set_csv(gamma)}
    return results, files


def _cmd_density(args):
    gamma = _load_point_set(args.infile, args.window)
    radii = _parse_radii(args.radii)
    report = density_estimate(gamma, radii)
    return density_report_to_doc(report), {"density_table.csv": density_table_csv(report)}


def _cmd_frame(args):
    ladder = _parse_int_list(args.degree_ladder, "--degree-ladder")
    side = max(max(ladder) + 1, 0)
    _check_size(side * side, "--degree-ladder's largest frame matrix")
    gamma, spacing = _built_set(args)
    # each degree solved once: the last by frame_bounds, whose table holds
    # it and its N/2 and 3N/4, the others alone
    last = frame_bounds(gamma, args.alpha, ladder[-1])
    solved = {d: (a, b) for d, a, b in last.convergence_table}
    rows = [(d, *(solved.get(d) or _frame_constants(gamma, args.alpha, d))) for d in ladder]
    results = {
        "spacing": spacing,
        "ladder": [
            {"degree": int(d), "A": float(a), "B": float(b)} for d, a, b in rows
        ],
        "estimate": frame_estimate_to_doc(last),
    }
    return results, {"frame_table.csv": frame_table_csv(rows)}


def _cmd_reconstruct(args):
    alpha, spacing, gamma, samples = _load_problem(args.infile, args.window)
    grid = _parse_grid(args.grid)
    grid = grid[np.abs(grid) < args.truncation_radius / 2.0]
    if grid.size == 0:
        raise ValidationError(
            "the grid has no points strictly inside half the truncation radius"
        )
    values = lagrange_reconstruct(
        gamma, alpha, samples, grid, args.truncation_radius
    )
    wmag = np.exp(-0.5 * alpha * np.abs(grid) ** 2) * np.abs(values)
    results = {
        "alpha": alpha,
        "lattice_spacing": spacing,
        "samples_in_radius": int(
            np.count_nonzero(np.abs(gamma.points) <= args.truncation_radius)
        ),
        "grid_points": int(grid.size),
        "sup_weighted_mag": float(np.max(wmag)),
    }
    return results, {"recon_grid.csv": eval_grid_csv(grid, values, alpha)}


def _cmd_interpolate(args):
    # the pointwise bound's step-0.5 grid over |z| <= R/2 has side 2 floor(R) + 1
    _check_square(args.truncation_radius, "--truncation-radius's bound grid")
    alpha, spacing, gamma, data = _load_problem(args.infile, args.window)
    problem = InterpolationProblem(
        gamma=gamma, alpha=alpha, lattice_spacing=spacing, data=data
    )
    ev = build_interpolant(problem, args.truncation_radius)
    if args.degree is not None:
        # past the cap any degree is refused; the min keeps sqrt(N / alpha) finite
        circles = (args.degree + 1) * _growth_angles(ev, min(args.degree, _MAX_POINTS))
        _check_size(circles, "--degree's norm-growth circles")
    grid = _parse_grid(args.grid)
    values = ev.eval(grid)
    results = {
        "alpha": alpha,
        "lattice_spacing": spacing,
        "beta": problem.beta,
        "nodes_in_radius": len(ev._basis.nodes),
        "max_interior_residual": residual_check(ev),
        "pointwise_bound_constant": ev.pointwise_bound(),
    }
    if args.degree is not None:
        rep = norm_growth_report(ev, args.degree)
        results["norm_growth"] = {
            "degree": rep.degree,
            "data_norm": rep.data_norm,
            "interpolant_norm": rep.interpolant_norm,
            "ratio": None if math.isnan(rep.ratio) else rep.ratio,
        }
    return results, {"interp_grid.csv": eval_grid_csv(grid, values, alpha)}


def _cmd_sigma_grid(args):
    grid = _parse_grid(args.grid)
    lattice = SquareLattice(args.spacing)
    with np.errstate(over="ignore", invalid="ignore"):  # caught just below
        logs = _sigma_log_many(lattice.spacing, grid)
    bad = np.isnan(logs.real) | (logs.real == math.inf)
    if np.any(bad):
        raise ValidationError(f"log_mag must be finite or -inf, got {logs.real[bad][0]}")
    eta1, eta2 = quasi_period_constants(lattice)
    results = {
        "spacing": args.spacing,
        "eta1": [eta1.real, eta1.imag],
        "eta2": [eta2.real, eta2.imag],
        "grid_points": int(grid.size),
    }
    return results, {"sigma_grid.csv": sigma_grid_csv(grid, logs)}


def _cmd_growth_check(args):
    _check_square(args.grid_radius / args.grid_step, "--grid-radius over --grid-step")
    gamma, spacing = _built_set(args)
    # the ignored third argument is read by perfbench's span counter
    cp = canonical_product(gamma, SquareLattice(spacing), 1)
    fit = growth_check(cp, args.alpha, args.grid_radius, args.grid_step)
    results = {
        "spacing": spacing,
        "c": fit.c,
        "C1": fit.C1,
        "C2": fit.C2,
        "grid_radius": fit.grid_radius,
        "violations": fit.violations,
    }
    return results, {}


_HANDLERS = {
    "lattice": _cmd_lattice,
    "density": _cmd_density,
    "frame": _cmd_frame,
    "reconstruct": _cmd_reconstruct,
    "interpolate": _cmd_interpolate,
    "sigma-grid": _cmd_sigma_grid,
    "growth-check": _cmd_growth_check,
}


def _add_set_flags(p, with_alpha=True):
    if with_alpha:
        p.add_argument("--alpha", type=float, default=1.0, help="space parameter")
    p.add_argument("--spacing", type=float, help="lattice spacing s")
    p.add_argument(
        "--density-ratio",
        type=float,
        help="lattice density as a multiple of the critical alpha/pi",
    )
    p.add_argument("--window", type=float, required=True, help="window radius")
    p.add_argument("--perturb", type=float, help="max point shift (needs --seed)")
    p.add_argument("--seed", type=int, help="seed for the perturbation draw")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockspace",
        description="Sampling and interpolation experiments in the "
        "Bargmann-Fock space.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="generate a (perturbed) square lattice")
    _add_set_flags(p)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("density", help="estimate uniform densities of a point set")
    p.add_argument("--in", dest="infile", required=True, help="point-set file")
    p.add_argument("--window", type=float, help="window radius for CSV input")
    p.add_argument("--radii", default="5:15:1", help='radius ladder "start:stop:step"')
    p.add_argument("--out", default=".")

    p = sub.add_parser("frame", help="frame bounds along a degree ladder")
    _add_set_flags(p)
    p.add_argument("--degree-ladder", default="8,16,24", help='degrees "8,16,24"')
    p.add_argument("--out", default=".")

    p = sub.add_parser("reconstruct", help="Lagrange reconstruction on a grid")
    p.add_argument("--in", dest="infile", required=True, help="problem JSON")
    p.add_argument("--window", type=float, help="window radius override")
    p.add_argument("--truncation-radius", type=float, required=True)
    p.add_argument("--grid", required=True, help='"xmin,xmax,ymin,ymax,step"')
    p.add_argument("--out", default=".")

    p = sub.add_parser("interpolate", help="explicit interpolant on a grid")
    p.add_argument("--in", dest="infile", required=True, help="problem JSON")
    p.add_argument("--window", type=float, help="window radius override")
    p.add_argument("--truncation-radius", type=float, required=True)
    p.add_argument("--grid", required=True, help='"xmin,xmax,ymin,ymax,step"')
    p.add_argument("--degree", type=int, help="norm-growth projection degree")
    p.add_argument("--out", default=".")

    p = sub.add_parser("sigma-grid", help="lattice sigma function on a grid")
    p.add_argument("--spacing", type=float, required=True)
    p.add_argument("--grid", required=True, help='"xmin,xmax,ymin,ymax,step"')
    p.add_argument("--out", default=".")

    p = sub.add_parser("growth-check", help="two-sided weighted growth fit")
    _add_set_flags(p)
    p.add_argument("--grid-radius", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=0.3)
    p.add_argument("--out", default=".")

    return parser


def _config_echo(args) -> dict:
    skip = {"command"}
    doc = {}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        doc[key] = getattr(args, key)
    return doc


def _error_json(exc) -> str:
    """The error line: the type, the message, then any structured fields."""
    return json.dumps({"error": type(exc).__name__, "message": str(exc), **exc.fields}) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _validate_config(args)
        results, files = _HANDLERS[args.command](args)
    except ValidationError as exc:
        sys.stderr.write(_error_json(exc))
        return 2
    except NumericalDiagnosticError as exc:
        sys.stderr.write(_error_json(exc))
        return 3
    except MemoryError as exc:
        sys.stderr.write(json.dumps({"error": "MemoryError", "message": str(exc)}) + "\n")
        return 2
    report = {
        "command": args.command,
        "version": __version__,
        "config": _config_echo(args),
        "wall_time_s": time.perf_counter() - started,
        "results": results,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    report_path = out_dir / f"{args.command.replace('-', '_')}_report.json"
    report_path.write_text(dumps_json(report) + "\n", encoding="utf-8")
    sys.stdout.write(str(report_path) + "\n")
    return 0
