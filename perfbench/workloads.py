"""Seeded inputs and command lines for the benchmark workloads.

Every random draw comes from the workload seed. The program sees only
the files written here and the argv of each invocation; paths in argv
are relative to the workload directory, which is the child's working
directory, so the config echo in each report does not depend on where
the checkout lives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Union

import numpy as np

import gates

ALPHA = 1.0

# Known function for the reconstruction workload: a fixed three-term
# kernel combination f(z) = sum_j w_j exp(alpha conj(zeta_j) z).
RECON_NODES = (0.5 + 0.3j, -1.2 + 0.8j, 0.9 - 1.1j)
RECON_WEIGHTS = (1.0 + 0.0j, -0.6 + 0.4j, 0.3j)


@dataclass
class Invocation:
    """One CLI call: the subcommand, its argv and the gate for its output.

    ``argv`` is a list, or a function of the workload directory when it
    depends on an earlier invocation's output (the lattice -> density
    chain). ``gate`` maps the workload directory to a gate result.
    """

    command: str
    argv: Union[list, Callable[[Path], list]]
    out: str
    gate: Callable[[Path], "gates.GateResult"]

    def resolve_argv(self, work: Path) -> list:
        return self.argv(work) if callable(self.argv) else list(self.argv)


def _write_problem(path: Path, spacing: float, nodes, data) -> None:
    doc = {
        "alpha": ALPHA,
        "lattice_spacing": spacing,
        "nodes": [[float(z.real), float(z.imag)] for z in nodes],
        "data": [[float(v.real), float(v.imag)] for v in data],
    }
    # json writes floats with repr, which round-trips every double exactly
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def known_function(z):
    """Plain values of the reconstruction workload's kernel combination."""
    z = np.asarray(z, dtype=np.complex128)
    return sum(
        w * np.exp(ALPHA * np.conj(zeta) * z) for zeta, w in zip(RECON_NODES, RECON_WEIGHTS)
    )


def _subcritical(seed: int, work: Path) -> list:
    rng = np.random.default_rng([seed, 1])
    spacing = math.sqrt(math.pi / (ALPHA * 0.8))
    nodes = gates.lattice_points(spacing, 12.0)
    targets = rng.uniform(-1.0, 1.0, nodes.size) + 0j
    _write_problem(work / "interp_problem.json", spacing, nodes, targets)
    return [
        Invocation(
            "interpolate",
            ["interpolate", "--in", "interp_problem.json", "--truncation-radius", "10",
             "--grid=-4,4,-4,4,0.2", "--degree", "8", "--out", "interp"],
            "interp",
            partial(gates.interpolate, out="interp"),
        )
    ]


def _canonical(seed: int) -> list:
    """The sigma grid and one product on a large disk: the canonical layer alone."""
    rng = np.random.default_rng([seed, 3])
    perturb_seed = int(rng.integers(0, 2**31 - 1))
    return [
        Invocation(
            "sigma-grid",
            ["sigma-grid", "--spacing", "1", "--grid=-3,3,-3,3,0.1", "--out", "sigma"],
            "sigma",
            partial(gates.sigma_grid, out="sigma", spacing=1.0),
        ),
        Invocation(
            "growth-check",
            ["growth-check", "--alpha", "3.14159", "--spacing", "1", "--window", "20",
             "--perturb", "0.2", "--seed", str(perturb_seed), "--grid-radius", "12",
             "--grid-step", "0.15", "--out", "growth"],
            "growth",
            partial(gates.growth_check, out="growth"),
        ),
    ]


def _supercritical(seed: int, work: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    lattice_seed = int(rng.integers(0, 2**31 - 1))

    spacing = math.sqrt(math.pi / (ALPHA * 1.5))
    lattice = gates.lattice_points(spacing, 12.0)
    shift = 0.2 * spacing * np.sqrt(rng.uniform(0.0, 1.0, lattice.size))
    nodes = lattice + shift * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, lattice.size))
    _write_problem(work / "recon_problem.json", spacing, nodes, known_function(nodes))

    def density_argv(work: Path) -> list:
        report = json.loads((work / "lat" / "lattice_report.json").read_text(encoding="utf-8"))
        window = report["results"]["window_radius"]
        return ["density", "--in", "lat/points.csv", "--window", repr(window),
                "--radii", "5:12:1", "--out", "den"]

    return [
        Invocation(
            "lattice",
            ["lattice", "--density-ratio", "1.2", "--window", "20", "--perturb", "0.2",
             "--seed", str(lattice_seed), "--format", "csv", "--out", "lat"],
            "lat",
            partial(gates.lattice, out="lat"),
        ),
        Invocation(
            "density",
            density_argv,
            "den",
            partial(gates.density, out="den", points="lat/points.csv"),
        ),
        Invocation(
            "frame",
            ["frame", "--alpha", "1", "--density-ratio", "1.2", "--window", "14",
             "--degree-ladder", "16,32,48", "--out", "frame"],
            "frame",
            partial(gates.frame, out="frame", alpha=ALPHA, density_ratio=1.2, window=14.0),
        ),
        Invocation(
            "reconstruct",
            ["reconstruct", "--in", "recon_problem.json", "--truncation-radius", "10",
             "--grid=-4.9,4.9,-4.9,4.9,0.05", "--out", "rec"],
            "rec",
            partial(gates.reconstruct, out="rec", alpha=ALPHA, truth=known_function),
        ),
        *_canonical(seed),
    ]


WORKLOADS = {
    "subcritical": _subcritical,
    "supercritical": _supercritical,
}


def prepare(name: str, seed: int, work: Path) -> list:
    """Write the workload's input files into ``work`` and return its invocations."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, work)
