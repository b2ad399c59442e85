"""
Reconstruction above critical density, interpolation below
==========================================================

The two constructive regimes. Dense sets (density above alpha/pi)
determine functions completely: a Lagrange-type series rebuilds f from
its samples. Sparse sets (density below alpha/pi) leave room to hit
arbitrary bounded weighted targets: an explicit series interpolates
them exactly at the nodes.
"""

import math

import numpy as np

from fockspace import (
    InterpolationProblem,
    build_interpolant,
    lagrange_reconstruct,
    norm_growth_report,
    residual_check,
    square_lattice,
)

alpha = 1.0

# --- Reconstruction: sample e_3 on a density-1.5 lattice and rebuild.
spacing = math.sqrt(math.pi / 1.5)
gamma = square_lattice(spacing, 40.0)


def e3(z):
    return math.sqrt(1.0 / 6.0) * complex(z) ** 3


samples = {complex(z): e3(z) for z in gamma.points}
grid = np.array([0.2 + 0.1j, -1.0 + 0.5j, 1.5 - 1.2j])
for radius in (6.0, 10.0):
    got = lagrange_reconstruct(gamma, alpha, samples, grid, radius)
    err = np.max(np.abs(got - np.array([e3(z) for z in grid])))
    print(f"reconstruction of e_3, truncation radius {radius}: sup error {err:.2e}")

# --- Interpolation: random bounded weighted targets on a density-0.8
# lattice. The evaluator matches every target exactly at its node.
spacing = math.sqrt(math.pi / 0.8)
gamma = square_lattice(spacing, 20.0)
rng = np.random.default_rng(3)
values = rng.uniform(-1, 1, len(gamma)) + 1j * rng.uniform(-1, 1, len(gamma))
data = {complex(z): complex(a) for z, a in zip(gamma.points, values)}
problem = InterpolationProblem(
    gamma=gamma, alpha=alpha, lattice_spacing=spacing, data=data
)
print("interpolation problem: density ratio", problem.beta / alpha)

ev = build_interpolant(problem, 10.0)
print("max interior node residual:", residual_check(ev))

# Between the nodes the interpolant stays under a bound proportional
# to the data's sup norm.
print("pointwise bound constant:", ev.pointwise_bound())
probes = np.array([0.5 + 0.5j, -2.0 + 1.0j, 3.3 - 0.4j])
print("weighted values at off-node probes:", np.abs(ev.eval_weighted(probes)))

# Projecting onto degree N measures how much norm the interpolant
# spends to hit the data.
rep = norm_growth_report(ev, 6)
print("norm growth at degree 6:")
print("  data l2 norm:       ", rep.data_norm)
print("  interpolant norm:   ", rep.interpolant_norm)
print("  ratio:              ", rep.ratio)

# Reusing the built evaluator with new data is cheap: the canonical
# product and its derivatives at the nodes are shared.
indicator = {z: (1.0 + 0.0j if abs(z) < 1e-9 else 0.0j) for z in data}
ev2 = ev.with_data(indicator)
print("indicator data: value at origin =", ev2.eval_weighted(0.0j))
