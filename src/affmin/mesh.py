"""Bilinear patch interpolation, patch-area verification and OBJ export.

Each quad face carries the unique hyperbolic-paraboloid patch through its
four corners.  The patch is asymptotic, its affine area element is the
constant F of the face, and bilinear interpolation along a shared edge
depends only on that edge's corners, so sampling all faces on a common
parameter lattice produces a watertight triangle mesh.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import face_volumes
from .grids import GridDomain, VertexGrid, as_positions, det3, worst_index

__all__ = [
    "TriangleMesh",
    "patch_point",
    "PatchAreaResult",
    "patch_area_check",
    "tessellate",
    "export_obj",
    "export_surface_obj",
]


# Rows formatted per write: enough that one ``%`` call per block costs
# nothing next to its rows, few enough that a block's text stays a few MB.
_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup with finite vertex coordinates."""

    positions: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=int))
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be an (n, 3) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (m, 3) index array")
        bad = ~np.isfinite(self.positions)
        if bad.any():
            vertex, axis = worst_index(bad, GridDomain(0, len(bad) - 1, 0, 2))
            raise ValueError(f"mesh vertex {vertex} has a non-finite coordinate {axis}")
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.positions)
        ):
            raise ValueError("triangle indices out of range")


def _face_corners(q: VertexGrid, face):
    dom = q.domain
    u, v = face
    if not (dom.u_min <= u <= dom.u_max - 1 and dom.v_min <= v <= dom.v_max - 1):
        raise IndexError(f"face {face} outside domain {dom}")
    i, j = u - dom.u_min, v - dom.v_min
    p = q.values
    return p[i, j], p[i + 1, j], p[i, j + 1], p[i + 1, j + 1]


def patch_point(surface, face, s: float, t: float) -> np.ndarray:
    """Point of the bilinear patch over ``face`` at parameters (s, t) in [0,1]^2.

    Evaluated in tensor-product form (the same bilinear polynomial), so
    corners reproduce the quad vertices bitwise and samples on a shared edge
    depend only on that edge's two corners.
    """
    if not (0.0 <= s <= 1.0 and 0.0 <= t <= 1.0):
        raise ValueError(f"patch parameters must lie in [0, 1], got ({s}, {t})")
    c00, c10, c01, c11 = _face_corners(as_positions(surface), face)
    return ((1.0 - s) * (1.0 - t)) * c00 + (s * (1.0 - t)) * c10 \
        + ((1.0 - s) * t) * c01 + (s * t) * c11


class PatchAreaResult(NamedTuple):
    """Quadrature patch area, the face's F, and the worst element deviation."""

    area: float
    face_area: float
    gap: float


def patch_area_check(surface, face, n_quad: int) -> PatchAreaResult:
    """Confirm the patch's affine area element is the constant F of the face.

    Evaluates sqrt([r_s, r_t, r_st]) on an ``n_quad`` x ``n_quad``
    Gauss-Legendre rule over the unit square, integrates it to the patch
    area, and reports the largest pointwise deviation from F.
    """
    if n_quad < 2:
        raise ValueError(f"n_quad must be at least 2, got {n_quad}")
    q = as_positions(surface)
    c00, c10, c01, c11 = _face_corners(q, face)
    e1 = c10 - c00
    e2 = c01 - c00
    w = c11 + c00 - c10 - c01

    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    s = 0.5 * (nodes + 1.0)
    wts = 0.5 * weights
    ss, tt = np.meshgrid(s, s, indexing="ij")
    r_s = e1[None, None, :] + tt[:, :, None] * w
    r_t = e2[None, None, :] + ss[:, :, None] * w
    element = np.sqrt(det3(r_s, r_t, w))

    f = float(face_volumes(q).areas.face_at(*face))
    area = float(np.einsum("i,j,ij->", wts, wts, element))
    gap = float(np.abs(element - f).max())
    return PatchAreaResult(area=area, face_area=f, gap=gap)


def tessellate(surface, resolution: int) -> TriangleMesh:
    """Sample every patch on a shared (resolution+1)^2 lattice and triangulate.

    Lattice points on shared face boundaries are evaluated once, from a
    single owning face, so the mesh is watertight and bit-deterministic.
    Each parameter cell splits into two triangles along its (0,0)-(1,1)
    diagonal.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    q = as_positions(surface)
    q.domain.require_faces("tessellation")
    p = q.values
    nfu, nfv = q.domain.n_u - 1, q.domain.n_v - 1
    res = int(resolution)
    ni, nj = nfu * res + 1, nfv * res + 1

    gi = np.arange(ni)
    gj = np.arange(nj)
    fi = np.minimum(gi // res, nfu - 1)
    fj = np.minimum(gj // res, nfv - 1)
    s = (gi - fi * res) / float(res)
    t = (gj - fj * res) / float(res)

    c00 = p[np.ix_(fi, fj)]
    c10 = p[np.ix_(fi + 1, fj)]
    c01 = p[np.ix_(fi, fj + 1)]
    c11 = p[np.ix_(fi + 1, fj + 1)]
    ss = s[:, None, None]
    tt = t[None, :, None]
    points = ((1.0 - ss) * (1.0 - tt)) * c00 + (ss * (1.0 - tt)) * c10 \
        + ((1.0 - ss) * tt) * c01 + (ss * tt) * c11

    v00 = (np.arange(ni - 1)[:, None] * nj + np.arange(nj - 1)[None, :]).ravel()
    v10 = v00 + nj
    v01 = v00 + 1
    v11 = v10 + 1
    tris = np.empty((v00.size, 2, 3), dtype=int)
    tris[:, 0] = np.column_stack([v00, v10, v11])
    tris[:, 1] = np.column_stack([v00, v11, v01])
    return TriangleMesh(points.reshape(-1, 3), tris.reshape(-1, 3))


def _blocks(rows: np.ndarray):
    for start in range(0, len(rows), _BLOCK_ROWS):
        yield rows[start:start + _BLOCK_ROWS]


def export_obj(mesh: TriangleMesh, path):
    """Write a Wavefront OBJ (17-significant-digit vertices, 1-based faces).

    Rows are formatted a block at a time by one ``%`` over a repeated line
    template; ``%.17g`` and ``%d`` spell a float and an int exactly as
    ``f"{x:.17g}"`` and ``str(i)`` do.
    """
    try:
        with open(path, "w", encoding="ascii") as handle:
            for block in _blocks(mesh.positions):
                handle.write("v %.17g %.17g %.17g\n" * len(block)
                             % tuple(block.ravel().tolist()))
            for block in _blocks(mesh.triangles):
                handle.write("f %d %d %d\n" * len(block)
                             % tuple((block + 1).ravel().tolist()))
    except OSError as exc:
        raise OSError(f"cannot write OBJ to {path}: {exc}") from exc


def export_surface_obj(surface, resolution: int, path) -> TriangleMesh:
    """Tessellate a surface and write it as OBJ; returns the mesh."""
    mesh = tessellate(surface, resolution)
    export_obj(mesh, path)
    return mesh
