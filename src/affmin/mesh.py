"""Bilinear patch interpolation, patch-area verification and OBJ export.

Each quad face carries the unique hyperbolic-paraboloid patch through its
four corners.  The patch is asymptotic, its affine area element is the
constant F of the face, and bilinear interpolation along a shared edge
depends only on that edge's corners, so sampling all faces on a common
parameter lattice produces a watertight triangle mesh.  The OBJ face lines
depend only on the lattice shape, so they are spelled from vertex indices
alone, each index once per block.
"""

import itertools
import numbers
from typing import NamedTuple

import numpy as np

from .geometry import face_volumes
from .grids import GridDomain, VertexGrid, as_positions, det3, empty3, worst_index
from .spelling import int_digits, spell, write_chunks

__all__ = [
    "patch_point",
    "PatchAreaResult",
    "patch_area_check",
    "export_surface_obj",
    "ObjCounts",
]


# Lattice points or triangles per band: enough that the fixed cost of a band
# (a few numpy passes) is nothing next to its rows, few enough that the
# writer's tracemalloc peak stays under 2 MB (cubic 64^2 at resolution 8:
# 1.74 MB).
_BLOCK_ROWS = 1 << 14
# The most vertices an export takes: its face lines spell each 1-based index
# in uint32, and an OBJ this large would already exceed about 150 GB.
_MAX_VERTICES = (1 << 32) - 1


def _require_finite(positions: np.ndarray, first: int):
    """Raise ValueError naming the first non-finite vertex; row 0 is vertex ``first``."""
    bad = ~np.isfinite(positions)
    if bad.any():
        vertex, axis = worst_index(bad, GridDomain(first, first + len(bad) - 1, 0, 2))
        raise ValueError(f"mesh vertex {vertex} has a non-finite coordinate {axis}")


class ObjCounts(NamedTuple):
    """Vertex and triangle counts and SHA-256 hex digest of an export_surface_obj file."""

    vertices: int
    triangles: int
    sha256: str


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


def _lattice_points(p: np.ndarray, res: int, i0: int, i1: int) -> np.ndarray:
    """Lattice rows i0..i1-1 of the patches over the corner array ``p``, as (n, 3).

    Every point depends only on its own lattice index, so a range of rows
    holds the same bits as those rows of the full lattice.  Each component
    plane sums w00 c00 + w10 c10 + w01 c01 + w11 c11 left to right, the
    order of ``patch_point``.
    """
    nfu, nfv = p.shape[0] - 1, p.shape[1] - 1
    gi = np.arange(i0, i1)
    gj = np.arange(nfv * res + 1)
    fi = np.minimum(gi // res, nfu - 1)
    fj = np.minimum(gj // res, nfv - 1)
    s = ((gi - fi * res) / float(res))[:, None]
    t = (gj - fj * res) / float(res)
    w00, w10, w01, w11 = (1.0 - s) * (1.0 - t), s * (1.0 - t), (1.0 - s) * t, s * t

    points = empty3((len(gi), len(gj), 3))
    # A non-finite corner spoils its points quietly (0 * inf is NaN), so
    # _require_finite can name the mesh vertex under any numpy error state.
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(3):
            near, far = p[fi, :, k], p[fi + 1, :, k]
            plane = np.multiply(w00, near[:, fj], out=points[..., k])
            plane += w10 * far[:, fj]
            plane += w01 * near[:, fj + 1]
            plane += w11 * far[:, fj + 1]
    return points.reshape(-1, 3)


def _face_block(nj: int, c0: int, c1: int):
    """OBJ face lines ``f i j k`` of cell rows c0..c1-1 of a lattice with ``nj``
    points per row, as ``"f %d %d %d"`` spells the 1-based indices.

    Each cell splits along its (0,0)-(1,1) diagonal.  ``int_digits`` spells
    each index of vertex rows c0..c1 once, as a space and one slot per digit
    of the block's last index; six copies of these fixed-width fields fill
    the lines.  When every index has that many digits the table holds no 0
    byte and goes out as it is; otherwise its 0 bytes are deleted.
    """
    first, last = c0 * nj + 1, (c1 + 1) * nj
    width = len(str(last)) + 1
    fields = np.zeros((last - first + 1, width), np.uint8)
    fields[:, 0] = ord(" ")
    int_digits(np.arange(first, last + 1, dtype=np.uint32 if last < 1 << 32 else np.uint64),
               fields[:, 1:].T)
    field = fields.view(f"V{width}").reshape(c1 - c0 + 1, nj)
    text = np.empty((c1 - c0, nj - 1, 2, 3 * width + 2), np.uint8)
    text[..., 0], text[..., -1] = ord("f"), ord("\n")
    corner = text[..., 1:-1].view(f"V{width}")     # [cell row, cell, triangle, corner]
    corner[:, :, 0, 0] = corner[:, :, 1, 0] = field[:-1, :-1]
    corner[:, :, 0, 1] = field[1:, :-1]
    corner[:, :, 0, 2] = corner[:, :, 1, 1] = field[1:, 1:]
    corner[:, :, 1, 2] = field[:-1, 1:]
    if len(str(first)) + 1 == width:
        return memoryview(text.reshape(-1))
    return text.tobytes().replace(b"\0", b"")


def _vertex_lines(block: np.ndarray):
    """OBJ vertex lines ``v x y z`` of an (n, 3) float block, as ``%.17g`` spells
    each, yielded as bytes one spelling pass at a time."""
    return spell(np.asarray(block, dtype=np.float64), (b"v ", b"", b""), b"  \n",
                 "%.17g".__mod__)


def export_surface_obj(surface, resolution: int, path) -> ObjCounts:
    """Tessellate a surface band by band into an OBJ file; returns its counts and digest.

    Every patch is sampled on a shared (resolution+1)^2 lattice; a point on
    a shared face boundary is evaluated once, from a single owning face, so
    the mesh is watertight and bit-deterministic.  Each parameter cell splits
    into two triangles along its (0,0)-(1,1) diagonal.  The vertex passes of
    each band of lattice rows, then the face blocks of each band of cell rows
    (about ``_BLOCK_ROWS`` vertices or triangles, at least one row), stream
    into the file; only one band exists at a time.  A non-finite vertex
    raises ``ValueError`` naming its index in the whole mesh, and leaves no
    file behind; a lattice of more than 2^32 - 1 vertices raises it before
    the file is opened.
    """
    # bool is an Integral, so True would write the resolution-1 mesh.
    if isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral) \
            or resolution < 1:
        raise ValueError(f"resolution must be an integer >= 1, got {resolution}")
    q = as_positions(surface)
    q.domain.require_faces("tessellation")
    p, res = q.values, int(resolution)
    ni, nj = (q.domain.n_u - 1) * res + 1, (q.domain.n_v - 1) * res + 1
    if ni * nj > _MAX_VERTICES:
        raise ValueError(f"a resolution-{res} mesh of this surface has {ni} x {nj} = "
                         f"{ni * nj} vertices, more than the {_MAX_VERTICES} an OBJ export indexes")
    rows = max(1, _BLOCK_ROWS // nj)
    cell_rows = max(1, _BLOCK_ROWS // (2 * (nj - 1)))

    def vertex_passes():
        for i0 in range(0, ni, rows):
            points = _lattice_points(p, res, i0, min(i0 + rows, ni))
            _require_finite(points, i0 * nj)
            yield from _vertex_lines(points)

    face_blocks = (_face_block(nj, c0, min(c0 + cell_rows, ni - 1))
                   for c0 in range(0, ni - 1, cell_rows))
    digest = write_chunks(path, itertools.chain(vertex_passes(), face_blocks))
    return ObjCounts(ni * nj, 2 * (ni - 1) * (nj - 1), digest)
