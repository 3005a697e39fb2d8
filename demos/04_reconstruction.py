"""Rebuilding a surface from its fundamental data (F, A, B).

The data of an integrated surface satisfies three compatibility equations.
Marching the expansions along the two boundary strips from a seeded corner
quadrangle gives the co-normal on vertex row 0 and column 0; a harmonic
co-normal is separable, so that fixes it everywhere, and its Lelieuvre
integral reproduces the surface up to an affine map.  Corrupting a single
coefficient makes the co-normal's triple products miss the data.
"""

import numpy as np

import affmin as am
from affmin import FundamentalData, IncompatibleData

field = am.minimal_cubic(am.GridDomain(1, 13, 1, 13))
surface = am.integrate(field)
data = am.extract_fundamental_data(surface)

r0, r1, r2 = am.compatibility_residuals(data)
print(f"compatibility residuals: {r0:.2e}, {r1:.2e}, {r2:.2e}")

# Round trip with the surface's own corner quadrangle: vertex-for-vertex.
p = surface.positions.values
seed = np.stack([p[0, 0], p[1, 0], p[0, 1], p[1, 1]])
rebuilt = am.reconstruct(data, seed)
gap = np.abs(rebuilt.positions.values - p).max() / np.abs(p - p[0, 0]).max()
print("own-seed reconstruction gap, relative to the extent:", gap)

# Canonical seed: a different representative of the same affine class.  The map
# is fitted on the own seed, the corner quadrangle, so it carries the same gap.
canonical = am.reconstruct(data)
mapping = am.affine_equivalence(canonical, surface)
print("canonical seed is affinely equivalent, det =", mapping.det)
print("canonical reconstruction sent by that map, relative gap:", mapping.relative_gap)
print("linear part:")
print(mapping.linear)

# A helicoid on a 41 x 41 box, far from dyadic data, round-trips as well.
helix = am.integrate(am.helicoid(32, (-20, 20), (0, 40)))
h = helix.positions.values
again = am.reconstruct(am.extract_fundamental_data(helix),
                       np.stack([h[0, 0], h[1, 0], h[0, 1], h[1, 1]]))
print("helicoid 41 x 41 own-seed gap, relative to its extent:",
      np.abs(again.positions.values - h).max() / np.abs(h - h[0, 0]).max())

# Break one cubic coefficient: the data no longer describes any surface.
bad = np.array(data.u_coeff.values)
bad[5, 6] += 1.0
try:
    am.reconstruct(
        FundamentalData(data.areas, data.u_coeff.with_values(bad), data.v_coeff),
        seed,
    )
except IncompatibleData as exc:
    print("corrupted data rejected:", exc)
