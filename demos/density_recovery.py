"""
Recovering densities by Stieltjes inversion
===========================================

The density of a measure is the boundary limit of -(1/pi) Im G(x+iy) as
y drops to zero.  A read at two heights next to the axis, 2y and y,
combined by one linear step, turns that limit into table values with
error estimates; closed forms for the beta members make the sup-error
visible.
"""

import numpy as np

from freeconv import (FamilyParams, atom_mass, build_density_table,
                      cauchy_G, closed_beta_density, density_from_G,
                      example_density_halfstable, quadrature,
                      tail_density_series)

params = FamilyParams(1.0, -1.0, 2.0)
G = lambda z: cauchy_G(params, z)

xs = np.linspace(0.05, 0.95, 10)
table = build_density_table(G, xs)
closed = closed_beta_density(2.0, xs)
print("beta member (alpha=1, s=-1, r=2) vs closed form")
print("  x      recovered      closed         |diff|")
for x, v, c in zip(xs, table.values, closed):
    print(f"  {x:4.2f}  {v:.10f}  {c:.10f}  {abs(v - c):.2e}")

# the same machinery sees atoms: r = 1 is the point mass at zero
print()
print("atom detection")
delta = FamilyParams(1.0, -1.0, 1.0)
print("  mass at 0 for r=1:", atom_mass(lambda z: cauchy_G(delta, z), 0.0))
val, err = density_from_G(G, 0.5)
print(f"  density at 0.5 for r=2: {val:.10f} (err {err:.1e})")

# normalization through quadrature that knows the endpoint exponents
total = quadrature(lambda x: closed_beta_density(2.0, x), 0.0, 1.0,
                   left_exp=-0.5, right_exp=0.5)
print(f"  integral of the closed beta density: {total:.12f}")

# half-line example: alpha = 1/2, s = -1, r = 2
print()
print("half-stable compound Poisson density on (0, inf)")
half = FamilyParams(0.5, -1.0, 2.0)
for x in (0.5, 1.0, 3.0):
    got, _ = density_from_G(lambda z: cauchy_G(half, z), x)
    print(f"  x={x}: inversion {got:.10f}, "
          f"closed {example_density_halfstable(x):.10f}")

# far outside the scale |s| the density has a convergent tail expansion
print()
print("tail series far from the support of the driving measure")
got = tail_density_series(1j, 2.0, 12.0)
truth, _ = density_from_G(
    lambda z: cauchy_G(FamilyParams(1.0, 1j, 2.0), z), 12.0)
print(f"  series {got:.15e}")
print(f"  read   {truth:.15e}")
