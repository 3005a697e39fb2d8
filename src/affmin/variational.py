"""Affine area functional, its analytic first variation, and criticality.

The affine area of a quad net is the sum of F = sqrt(M) over faces.  Moving
one interior vertex changes the four incident face areas; the exact
per-vertex gradient is half the alternating sum of the co-normals e1 x e2 / F
that those four faces read at their corners opposite the vertex.  On an
integrated co-normal surface each of them is the co-normal of that corner,
so the sum cancels identically, which is what the criticality certificate
checks.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NonPositiveVolume
from .geometry import face_conormals, face_volumes
from .grids import BandMax, GridDomain, VertexGrid, absmax, as_positions, det3, row_bands

__all__ = [
    "TOL_CRIT",
    "affine_area",
    "area_gradient",
    "FdGradientCheck",
    "fd_gradient_check",
    "CriticalityReport",
    "criticality_certificate",
]

# Gradient sup-norm tolerance, relative to the mean face area.
TOL_CRIT = 1e-9


def affine_area(surface) -> float:
    """Total affine area: the sum of sqrt(M) over all faces (M must be > 0)."""
    return float(face_volumes(surface).areas.values.sum())


def area_gradient(surface) -> VertexGrid:
    """Gradient of the affine area with respect to interior vertex positions.

    Returns a 3-vector grid on the interior vertex box; each entry is half
    the alternating sum of the corner co-normals (``face_conormals``) of
    its four faces at their corners opposite it.
    Identically zero (to rounding) exactly on discrete affine minimal nets.
    """
    q = as_positions(surface)
    q.domain.require_interior("the area gradient")
    return _gradient(q, face_volumes(q).areas.values)


def _gradient_bands(q: VertexGrid, f):
    """Area gradient of positions ``q`` whose face area densities are ``f``,
    as (first row, rows) band by band."""
    for lo, band, (fb,), _ in row_bands(q, 0, 2, f):
        c00, c10, c01, c11 = face_conormals(band, fb)
        yield lo, (((c00[:-1, :-1] - c10[1:, :-1]) + c11[1:, 1:]) - c01[:-1, 1:]) * 0.5


def _gradient(q: VertexGrid, f) -> VertexGrid:
    """Area gradient of positions ``q`` whose face area densities are ``f``."""
    return VertexGrid(q.domain.interior(),
                      np.concatenate([rows for _, rows in _gradient_bands(q, f)]))


class FdGradientCheck(NamedTuple):
    """Analytic directional derivative vs. its central finite difference."""

    analytic: float
    numeric: float
    gap: float


def fd_gradient_check(surface, vertex, direction, h: float) -> FdGradientCheck:
    """Probe the first variation at one interior vertex along a direction.

    The numeric value is (area(q + hV) - area(q - hV)) / (2h) for the point
    deformation V.  Faces away from the vertex cancel exactly, and each
    incident face volume depends linearly on the deformation parameter
    (repeated-column determinants drop out), so the difference of square
    roots is evaluated through M(+h) - M(-h) = 2 h dM without subtractive
    cancellation; what remains of the gap is pure O(h^2) truncation.
    Both probes must keep every face volume positive.
    """
    q = as_positions(surface)
    dom = q.domain.require_interior("the finite-difference gradient check")
    if not dom.interior().contains_vertex(*vertex):
        raise IndexError(f"vertex {vertex} is not interior to {dom}")
    direction = np.asarray(direction, dtype=float)
    f = face_volumes(q).areas.values  # the base net must have M > 0 everywhere
    p = q.values
    i = vertex[0] - dom.u_min
    j = vertex[1] - dom.v_min

    numeric = 0.0
    # The four incident faces: the vertex sits at corner k = (k % 2, k // 2) of face k.
    for corner in range(4):
        fi, fj = i - corner % 2, j - corner // 2
        a = p[fi, fj]
        edges = (p[fi + 1, fj] - a, p[fi, fj + 1] - a, p[fi + 1, fj + 1] - a)
        m0 = det3(*edges)
        # M is linear in each edge: moving corner k > 0 moves edge k (of three) by
        # the direction, and moving corner 0 moves all three against it.
        slopes = [det3(*edges[:k], direction, *edges[k + 1:]) for k in range(3)]
        slope = slopes[corner - 1] if corner else -(slopes[0] + slopes[1] + slopes[2])
        m_plus = m0 + h * slope
        m_minus = m0 - h * slope
        if m_plus <= 0.0 or m_minus <= 0.0:
            raise NonPositiveVolume(
                (dom.u_min + fi, dom.v_min + fj), min(m_plus, m_minus)
            )
        # (sqrt(m+) - sqrt(m-)) / 2h, with the difference taken exactly.
        numeric += slope / (np.sqrt(m_plus) + np.sqrt(m_minus))

    # The gradient at the vertex reads only its 3x3 vertex box and 2x2 faces.
    box = VertexGrid(GridDomain(vertex[0] - 1, vertex[0] + 1, vertex[1] - 1, vertex[1] + 1),
                     p[i - 1:i + 2, j - 1:j + 2])
    analytic = float(_gradient(box, f[i - 1:i + 1, j - 1:j + 1]).vertex_at(*vertex) @ direction)
    return FdGradientCheck(analytic, numeric, abs(analytic - numeric))


@dataclass(frozen=True)
class CriticalityReport:
    """Whether the interior area gradient is at most ``TOL_CRIT`` times the mean F.

    ``vacuous`` flags nets without interior vertices, where every compactly
    supported deformation moves only boundary stencils and the test passes
    trivially.
    """

    max_gradient: float
    mean_area: float
    worst_vertex: tuple
    passed: bool
    vacuous: bool = False


def criticality_certificate(surface) -> CriticalityReport:
    q = as_positions(surface)
    f = face_volumes(q).areas.values
    mean_area = float(f.mean())
    dom = q.domain
    if dom.n_u < 3 or dom.n_v < 3:
        return CriticalityReport(0.0, mean_area, (dom.u_min, dom.v_min),
                                 passed=True, vacuous=True)
    worst = BandMax(dom, 1, 1)
    for lo, rows in _gradient_bands(q, f):
        worst.add(absmax(rows), lo)
    return CriticalityReport(
        max_gradient=worst.value,
        mean_area=mean_area,
        worst_vertex=worst.index,
        passed=worst.value <= TOL_CRIT * mean_area,
    )
