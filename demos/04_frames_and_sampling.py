"""
Frame bounds and the sampling dichotomy
=======================================

A point set samples the space stably when the weighted values at the
points control the norm from both sides (frame inequality with
constants A and B). On degree-N polynomial compressions the smallest
and largest eigenvalues of the frame matrix estimate A and B; tracking
them along a degree ladder separates true samplers (A stabilizes) from
sets that are too sparse (A collapses as N grows).
"""

import numpy as np

from fockspace import (
    frame_bounds,
    frame_matrix,
    point_removal_experiment,
    scale_lattice_to_density,
)

alpha = 1.0
window = 14.0

print("frame bound estimates, window", window)
print(f"{'ratio':>6} {'N':>4} {'A':>12} {'B':>12}")
for ratio in (0.8, 1.0, 1.2):
    gamma = scale_lattice_to_density(alpha, ratio, window)
    for N in (8, 16, 24):
        est = frame_bounds(gamma, alpha, N)
        print(f"{ratio:6.1f} {N:4d} {est.A:12.6f} {est.B:12.6f}")
    print()

# Above the critical density A settles to a positive limit; below it A
# decays geometrically with N: the space contains polynomials of
# growing degree that are nearly invisible to a sparse set.

# The frame matrix itself is a small Hermitian matrix in the basis
# compression; its eigenvalue range is the (A, B) estimate.
gamma = scale_lattice_to_density(alpha, 1.2, window)
S = frame_matrix(gamma, alpha, 12)
eigs = np.linalg.eigvalsh(S)
print("frame matrix at N = 12: eigenvalue range", eigs[0], "to", eigs[-1])

# Removing one point from a supercritical set costs at most a rank-one
# update: A drops by no more than e^{-alpha |removed|^2}.
gamma = scale_lattice_to_density(alpha, 1.5, window)
before, after = point_removal_experiment(gamma, alpha, 16, 0.0j)
print("point removal at the origin (density ratio 1.5):")
print("  A before:", before.A)
print("  A after: ", after.A)
print("  drop:", before.A - after.A, "<= bound 1.0")
