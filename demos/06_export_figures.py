"""Export the four example surfaces as OBJ meshes, each at two resolutions.

Resolution 1 shows the raw quad net split into triangles; resolution 8
samples each bilinear patch on an 8x8 sub-grid, which is how the smooth
renderings of these surfaces are produced.  Files land in ./figure_meshes.
"""

import os

import affmin as am

fields = {
    "helicoid":   am.helicoid(16, (0, 10), (0, 16)),
    "cubic":      am.minimal_cubic(am.GridDomain(1, 11, 1, 11)),
    "paraboloid": am.hyperbolic_paraboloid(am.GridDomain(0, 10, 0, 10)),
    "sphere":     am.improper_sphere(am.GridDomain(1, 11, -10, 0)),
}

outdir = "figure_meshes"
os.makedirs(outdir, exist_ok=True)

for name, field in fields.items():
    surface = am.integrate(field)
    for resolution in (1, 8):
        path = os.path.join(outdir, f"{name}_res{resolution}.obj")
        counts = am.export_surface_obj(surface, resolution, path)
        print(f"{path}: {counts.vertices} vertices, {counts.triangles} triangles")

print(f"\nOpen the files in any OBJ viewer; every surface is saddle-shaped "
      f"at each vertex.")
