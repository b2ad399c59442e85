"""File formats: JSON documents and CSV tables.

All numbers are serialized with 17 significant digits so that reading
a file back reproduces the original doubles exactly and identical runs
produce byte-for-byte identical artifacts. Complex values appear as
``[re, im]`` pairs. The standard json module cannot control float
formatting, so a small recursive writer is used for output; parsing
uses the standard module.

A grid CSV repeats each coordinate along its row or column, so its x
and y columns format each distinct value once (keyed by its bits, which
keeps the spelling of ``-0.0`` and of NaN) and index the strings; the
bytes are those of formatting every cell.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
import operator
from itertools import chain

import numpy as np

from .errors import ValidationError
from .pointsets import DensityReport, PointSet, _has_repeats
from .sampling import FrameEstimate
from .space import reduce_phase

__all__ = [
    "dumps_json",
    "point_set_to_doc",
    "point_set_from_doc",
    "point_set_csv",
    "point_set_from_csv",
    "problem_doc",
    "problem_from_doc",
    "density_report_to_doc",
    "frame_estimate_to_doc",
    "frame_table_csv",
    "density_table_csv",
    "eval_grid_csv",
    "sigma_grid_csv",
]


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def dumps_json(obj, indent: int = 0) -> str:
    """Serialize a document tree with fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [dumps_json(v, indent + 1) for v in obj]
        if sum(len(s) for s in items) <= 60 and all("\n" not in s for s in items):
            return "[" + ", ".join(items) + "]"
        return (
            "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
        )
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _pairs(values) -> list:
    return [_pair(z) for z in np.asarray(values).ravel()]


def _unpairs(rows, what: str) -> np.ndarray:
    try:
        arr = np.asarray(
            [complex(float(a), float(b)) for a, b in rows], dtype=np.complex128
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a list of [re, im] pairs") from exc
    return arr


def _require(doc: dict, key: str, what: str):
    if key not in doc:
        raise ValidationError(f"{what} is missing the {key!r} field")
    return doc[key]


def _number(doc: dict, key: str, what: str) -> float:
    value = _require(doc, key, what)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} field {key!r} must be a number, got {value!r}") from exc


def point_set_to_doc(gamma: PointSet) -> dict:
    doc = {
        "window_radius": gamma.window_radius,
        "points": _pairs(gamma.points),
    }
    if gamma.indices is not None:
        doc["indices"] = [[int(m), int(n)] for m, n in gamma.indices]
    return doc


def point_set_from_doc(doc: dict) -> PointSet:
    window = _number(doc, "window_radius", "point-set document")
    points = _unpairs(_require(doc, "points", "point-set document"), "points")
    indices = None
    if doc.get("indices") is not None:
        try:
            pairs = [(operator.index(m), operator.index(n)) for m, n in doc["indices"]]
            indices = np.array(pairs, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("indices must be a list of [m, n] integer pairs") from exc
    return PointSet(points, window, indices=indices)


def _csv(header: str, *columns) -> str:
    """CSV text of a header line and equal-length columns in one ``%``
    format: ``%d`` for ints, ``%s`` for the ``%.17g`` spellings of
    :func:`_coordinates` and ``%.17g`` else; no finite cell holds ``nan``
    or ``inf``, so ``_fmt``'s non-finite spellings replace them."""
    cells = tuple(chain.from_iterable(zip(*columns)))
    first = cells[: len(columns)]
    kinds = ("%d" if isinstance(c, int) else "%s" if isinstance(c, str) else "%.17g" for c in first)
    row = ",".join(kinds) + "\n"
    body = (row * (len(cells) // max(len(columns), 1))) % cells
    if "n" in body:
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
    return header + "\n" + body


def _coordinates(values: np.ndarray) -> list[str]:
    """The ``%.17g`` spellings of a float64 array of grid coordinates,
    each distinct value formatted once. Values are keyed by their bits,
    so ``0.0`` and ``-0.0`` stay apart, as do NaNs, which all spell
    ``nan``."""
    bits = values.view(np.uint64)
    order = np.argsort(bits)
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    ranked = bits[order]
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = values[order[first]].tolist()
    spellings = np.array(("%.17g\n" * len(distinct) % tuple(distinct)).split("\n")[:-1], dtype=object)
    which = np.empty(bits.size, dtype=np.intp)
    which[order] = np.cumsum(first) - 1
    return spellings[which].tolist()


def _grid_points(zs, values, what: str):
    """Flat complex arrays of grid points and their values, one value per point."""
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    values = np.asarray(values).ravel()
    if zs.size != values.size:
        raise ValidationError(f"{zs.size} grid points but {values.size} {what}")
    return zs, values


def point_set_csv(gamma: PointSet) -> str:
    xs, ys = gamma.points.real.tolist(), gamma.points.imag.tolist()
    if gamma.indices is None:
        return _csv("x,y", xs, ys)
    m, n = gamma.indices.T.tolist()
    return _csv("x,y,m,n", xs, ys, m, n)


def point_set_from_csv(text: str, window_radius: float) -> PointSet:
    rows = list(csv.reader(_stdio.StringIO(text)))
    if not rows:
        raise ValidationError("point-set CSV is empty")
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["x", "y"]:
        raise ValidationError("point-set CSV must start with columns x,y")
    with_index = header[2:4] == ["m", "n"]
    points, indices = [], []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            points.append(complex(float(row[0]), float(row[1])))
            if with_index:
                indices.append((int(row[2]), int(row[3])))
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"point-set CSV row {line} is malformed: {row!r}") from exc
    return PointSet(
        np.asarray(points, dtype=np.complex128),
        float(window_radius),
        indices=np.asarray(indices, dtype=np.int64) if with_index else None,
    )


def problem_doc(alpha: float, lattice_spacing: float, nodes, data) -> dict:
    """Interpolation/reconstruction data document.

    ``data[i]`` is the value attached to ``nodes[i]``: interpolation
    targets for the weighted values, or plain samples for
    reconstruction.
    """
    return {
        "alpha": float(alpha),
        "lattice_spacing": float(lattice_spacing),
        "nodes": _pairs(nodes),
        "data": _pairs(data),
    }


def problem_from_doc(doc: dict):
    alpha = _number(doc, "alpha", "problem document")
    spacing = _number(doc, "lattice_spacing", "problem document")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValidationError(f"lattice_spacing must be positive and finite, got {spacing}")
    nodes = _unpairs(_require(doc, "nodes", "problem document"), "nodes")
    data = _unpairs(_require(doc, "data", "problem document"), "data")
    if nodes.size != data.size:
        raise ValidationError("nodes and data must have the same length")
    if _has_repeats(nodes):
        raise ValidationError("problem nodes must be distinct")
    return alpha, spacing, nodes, data


def density_report_to_doc(report: DensityReport) -> dict:
    return {
        "radii": list(report.radii),
        "n_minus": [int(v) for v in report.n_minus],
        "n_plus": [int(v) for v in report.n_plus],
        "reliable": [bool(v) for v in report.reliable],
        "d_minus_estimate": report.d_minus_estimate,
        "d_plus_estimate": report.d_plus_estimate,
    }


def frame_estimate_to_doc(est: FrameEstimate) -> dict:
    return {
        "A": est.A,
        "B": est.B,
        "degree": est.degree,
        "effective_radius": est.effective_radius,
        "window_radius": est.window_radius,
        "unreliable": est.unreliable,
        "convergence_table": [
            {"degree": int(d), "A": float(a), "B": float(b)}
            for d, a, b in est.convergence_table
        ],
    }


def frame_table_csv(rows) -> str:
    """CSV of (N, A_N, B_N) rows for plotting."""
    return _csv("N,A_N,B_N", *zip(*((int(degree), float(a), float(b)) for degree, a, b in rows)))


def density_table_csv(report: DensityReport) -> str:
    """CSV of (radius, n_minus, n_plus, reliable) rows, reliable as 0/1."""
    return _csv(
        "radius,n_minus,n_plus,reliable",
        [float(r) for r in report.radii],
        *([int(v) for v in col] for col in (report.n_minus, report.n_plus, report.reliable)),
    )


def eval_grid_csv(zs, values, alpha: float) -> str:
    """CSV grid (x, y, re, im, weighted_mag) of function values.

    Raises :class:`ValidationError` unless there is one value per point.
    """
    zs, values = _grid_points(zs, values, "values")
    wmag = np.exp(-0.5 * float(alpha) * np.abs(zs) ** 2) * np.abs(values)
    xs, ys = _coordinates(zs.real), _coordinates(zs.imag)
    return _csv("x,y,re,im,weighted_mag", xs, ys, *(c.tolist() for c in (values.real, values.imag, wmag)))


def sigma_grid_csv(zs, logs) -> str:
    """CSV grid (x, y, log_mag, phase) of complex logs (real part log|.|,
    -inf at an exact zero); phases are reduced to (-pi, pi], 0 at zeros.

    Raises :class:`ValidationError` unless there is one log per point.
    """
    zs, logs = _grid_points(zs, logs, "logs")
    phase = np.where(logs.real == -np.inf, 0.0, reduce_phase(logs.imag))
    xs, ys = _coordinates(zs.real), _coordinates(zs.imag)
    return _csv("x,y,log_mag,phase", xs, ys, logs.real.tolist(), phase.tolist())
