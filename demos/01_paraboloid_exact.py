"""The hyperbolic paraboloid: the one case where discretization is exact.

The co-normal field (-v, -u, 1) is affine on each coordinate, so the
Lelieuvre sums telescope into the smooth immersion (u, v, uv) with unit
area density and unit affine normal everywhere.
"""

import numpy as np

import affmin as am

field = am.hyperbolic_paraboloid(am.GridDomain(0, 10, 0, 10))
print("co-normal at (1, 2):", field.vectors.vertex_at(1, 2))   # (-2, -1, 1)
print("min F over faces:", field.min_area)                     # 1.0

surface = am.integrate(field)   # base vertex (0, 0) pinned at the origin
u, v = np.meshgrid(np.arange(11), np.arange(11), indexing="ij")
exact = np.stack([u, v, u * v], axis=-1).astype(float)
print("max |q - (u, v, uv)|:", np.abs(surface.positions.values - exact).max())

volumes = am.face_volumes(surface)
print("face volume range:", volumes.volumes.values.min(),
      volumes.volumes.values.max())

normals = am.affine_normal(surface, volumes.areas)
print("affine normal on every face:", normals.face_at(4, 7))

form = am.cubic_coefficients(surface, normals)
print("cubic coefficients vanish:",
      np.abs(form.u_coeff.values).max(), np.abs(form.v_coeff.values).max())

# The bilinear patches lie exactly on z = x y, so the interpolated surface
# IS the smooth paraboloid: sample every patch on the 9 x 9 parameter grid
# that OBJ export at resolution 8 uses.
st = np.linspace(0.0, 1.0, 9)
samples = np.array([am.patch_point(surface, (u, v), s, t)
                    for u in range(10) for v in range(10) for s in st for t in st])
gap = np.abs(samples[:, 2] - samples[:, 0] * samples[:, 1]).max()
print("patch samples max |z - xy|:", gap)
