"""
Point sets, separation, and uniform densities
=============================================

Sampling and interpolation behavior is governed by how dense a point
set is relative to the critical value alpha/pi. This script builds
square lattices, perturbs them, and reads off the extremal counting
densities from square counts at growing side lengths.
"""

import math

import numpy as np

from fockspace import (
    SquareLattice,
    closeness,
    density_estimate,
    perturb,
    scale_lattice_to_density,
    separation,
    square_lattice,
)

# A unit-spacing lattice in a window of radius 40: density exactly 1.
gamma = square_lattice(1.0, 40.0)
print("unit lattice:", len(gamma), "points, separation", separation(gamma))

report = density_estimate(gamma, [2.5, 5.0, 10.0, 20.0])
print("square counts n-(r), n+(r) against side length:")
for r, lo, hi, ok in zip(
    report.radii, report.n_minus, report.n_plus, report.reliable
):
    tag = "" if ok else "  (window-limited)"
    print(f"  side {r:5.1f}: min {lo:4d}  max {hi:4d}{tag}")
print("density estimates (true value 1):")
print("  lower:", report.d_minus_estimate)
print("  upper:", report.d_plus_estimate)

# Perturbing every point by less than half the spacing keeps the
# lattice indexing bijective; separation shrinks, density is unchanged.
bumped = perturb(gamma, 0.3, seed=42)
print("after perturbation by at most 0.3:")
print("  separation:", separation(bumped))
print("  closeness to the lattice:", closeness(bumped, SquareLattice(1.0))[0])
rep2 = density_estimate(bumped, [5.0, 10.0, 20.0])
print("  density estimates:", rep2.d_minus_estimate, rep2.d_plus_estimate)

# scale_lattice_to_density targets a density relative to alpha/pi. At
# alpha = 1 the critical spacing is sqrt(pi); ratio 1.5 packs points
# tighter (sampling side), ratio 0.8 spreads them out (interpolation
# side).
alpha = 1.0
for ratio in (0.8, 1.0, 1.5):
    g = scale_lattice_to_density(alpha, ratio, 30.0)
    print(
        f"ratio {ratio}: spacing {math.sqrt(math.pi / (alpha * ratio)):.4f}, "
        f"{len(g)} points in window 30"
    )
