"""
The lattice sigma function and canonical products
=================================================

Every near-lattice point set carries an entire function vanishing
exactly on it, built as a Weierstrass-type product. All evaluation is
done in log form (log magnitude + phase) so the Gaussian-sized factors
never overflow. For the unperturbed lattice the product is the
classical sigma function, evaluated in closed form from a Jacobi theta
series; its weighted modulus at the critical parameter is doubly
periodic, which is the engine behind the growth bounds. A perturbed
set's product is sigma times a finite product of ratios, one per
displaced or missing point.
"""

import math

import numpy as np

from fockspace import (
    SquareLattice,
    canonical_product,
    growth_check,
    perturb,
    quasi_period_constants,
    sigma_log,
    square_lattice,
)
from fockspace.canonical import gfun_derivative_at_node, gfun_log

lat = SquareLattice(1.0)

# sigma vanishes exactly on the lattice: an exact zero is encoded as
# log magnitude -inf. sigma has no truncation to choose.
v = sigma_log(lat, lat.point(3, -2))
print("sigma at the lattice point (3,-2):", v.log_mag, "(exact zero)")
v = sigma_log(lat, 0.5 + 0.5j)
print("sigma at the deep cell point 0.5+0.5i:", v.to_complex())

# Quasi-period constants: shifting by one spacing multiplies sigma by
# a controlled exponential. The two constants, pi/s and -i*pi/s, satisfy
# a Legendre-type relation that makes the weighted modulus periodic at
# critical alpha.
eta1, eta2 = quasi_period_constants(lat)
print("quasi-period constants:")
print("  eta1 =", eta1)
print("  eta2 =", eta2)
print("  |eta1*(is) - eta2*s - 2*pi*i| =", abs(eta1 * 1j - eta2 - 2j * math.pi))

alpha_crit = math.pi
print("weighted modulus e^{-pi|z|^2/2}|sigma(z)| over one period:")
z0 = 0.31 + 0.17j
for p in (0.0, 1.0, 1.0j, 3.0 + 2.0j):
    lg = sigma_log(lat, z0 + p)
    wm = math.exp(lg.log_mag - alpha_crit * abs(z0 + p) ** 2 / 2)
    print(f"  at z0 + {p}: {wm:.15f}")

# A canonical product generalizes sigma to perturbed zero sets: linear
# factors use the actual zeros, the quadratic convergence exponents
# keep the lattice sites. Its zeros are the set's points and, beyond
# the window, the lattice sites; g can be evaluated at any radius.
gamma = perturb(square_lattice(1.0, 25.0), 0.2, seed=7)
cp = canonical_product(gamma, lat)
node = gamma.points[
    np.flatnonzero((gamma.indices[:, 0] == 2) & (gamma.indices[:, 1] == 1))
][0]
print("canonical product for a perturbed lattice:")
print("  g at its zero nearest (2,1):", gfun_log(cp, complex(node)).log_mag)
print("  g at 0.4+0.3j:", gfun_log(cp, 0.4 + 0.3j).to_complex())
print("  g'(z_21) via factor product:", gfun_derivative_at_node(cp, (2, 1)).to_complex())

# The two-sided growth fit certifies that the weighted modulus stays
# between dist-to-the-zero-set and a slowly growing envelope.
fit = growth_check(cp, alpha_crit, 8.0, 0.4)
print("growth fit on |z| <= 8:")
print(f"  c = {fit.c:.4f}, C1 = {fit.C1:.4f}, C2 = {fit.C2:.4f}")
print("  violations:", fit.violations)
