"""Derived geometry of an immersion: volumes, affine normals, certificates.

Everything here consumes vertex positions (and optionally co-normals) and
produces either derived face/vertex fields or residual reports.  Reports are
scale-aware: determinant checks against F^2 are relative, orthogonality
checks are normalized by the participating vector norms, and the pure
"determinant is zero" checks are reported as raw absolute residuals.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveVolume
from .grids import (TINY, BandMax, FaceGrid, VertexGrid, absmax, as_conormal, as_positions,
                    cross3, d1, d2, d12, det3, div3, dot3, empty3, face_choice_mean, mul3, norm3,
                    require_domain, require_positive, row_bands)

__all__ = [
    "TOL_DUAL",
    "TOL_ASYMPTOTIC",
    "FaceVolumes",
    "face_volumes",
    "affine_normal",
    "face_conormals",
    "edge_cross_products",
    "ConormalRecovery",
    "recover_conormal",
    "AreaDensityBridge",
    "area_density_bridge",
    "AsymptoticReport",
    "asymptotic_certificate",
    "PlanarSaddleReport",
    "planarity_and_saddle",
    "DualityReport",
    "duality_certificate",
]

# |nu . xi - 1|, |nu_1 x nu_2 + F xi| / max_k |F xi|_k, |e . nu| / (|e| |nu|) and
# |F(nu) / F - 1|; absolutely, the recovery spread of nu.
TOL_DUAL = 1e-9
TOL_ASYMPTOTIC = 1e-9   # the zero determinants, absolutely, and |[e1, e2, q_uv] - M| / M


@dataclass(frozen=True)
class FaceVolumes:
    """Per-face quadrangle volumes M and the area density F = sqrt(M)."""

    volumes: FaceGrid
    areas: FaceGrid


def face_volumes(surface) -> FaceVolumes:
    """Corner-tetrahedron volume per face; raises unless every M > 0.

    M(u+1/2, v+1/2) is the determinant of the three edges from q(u, v) to
    its face neighbors q(u+1, v), q(u, v+1), q(u+1, v+1).  A NaN M (from a
    NaN position) fails too.  The result is stored on the position grid
    (``Grid.memo``); a failing call stores nothing and fails again.
    """
    q = as_positions(surface)
    return q.memo("face_volumes", (), lambda: _face_volumes(q))


def _face_volumes(q: VertexGrid) -> FaceVolumes:
    q.domain.require_faces("face volumes")
    m = np.empty((q.domain.n_u - 1, q.domain.n_v - 1))
    for _, band, (m_out,), _ in row_bands(q, 0, 1, m):
        p, base = band.values, band.values[:-1, :-1]
        m_out[...] = det3(p[1:, :-1] - base, p[:-1, 1:] - base, p[1:, 1:] - base)
    require_positive(m, q.domain, NonPositiveVolume)
    return FaceVolumes(FaceGrid(q.domain, m), FaceGrid(q.domain, np.sqrt(m)))


def affine_normal(surface, areas: FaceGrid) -> FaceGrid:
    """Affine normal per face: the mixed difference of q divided by F.

    Stored on the position grid with ``areas`` (``Grid.memo``).
    """
    q = as_positions(surface)
    require_domain(q.domain, areas=areas)

    def compute():
        xi = empty3(areas.values.shape + (3,))
        for _, band, (f, xi_out), _ in row_bands(q, 0, 1, areas.values, xi):
            div3(d12(band).values, f, out=xi_out)
        return FaceGrid(q.domain, xi)

    return q.memo("affine_normal", (areas,), compute)


def face_conormals(band: VertexGrid, f) -> tuple:
    """Co-normal e1 x e2 / F of each face of positions ``band`` with area densities
    ``f``, read off the face's two edges at its corners (u, v), (u+1, v), (u, v+1)
    and (u+1, v+1), in that order: four face arrays."""
    e1, e2 = d1(band).values, d2(band).values
    low, high = slice(None, -1), slice(1, None)
    return tuple(div3(cross3(e1[:, v], e2[u, :]), f) for v in (low, high) for u in (low, high))


def edge_cross_products(e1, e2) -> tuple:
    """A nu and B nu from u-edges ``e1`` and v-edges ``e2`` of one box:
    q1(u-1/2) x q1(u+1/2) on its u-interior vertices and q2(v+1/2) x q2(v-1/2)
    on its v-interior vertices, in the argument order of the cubic form."""
    return cross3(e1[:-1], e1[1:]), cross3(e2[:, 1:], e2[:, :-1])


@dataclass(frozen=True)
class ConormalRecovery:
    """Co-normals recovered from an immersion, with cross-formula agreement.

    Every vertex averages the estimates from its 1, 2 or 4 incident faces;
    ``passed`` holds ``max_deviation``, the worst per-component spread of them, to ``TOL_DUAL``.
    """

    vectors: VertexGrid
    max_deviation: float
    worst_vertex: tuple
    passed: bool


def recover_conormal(surface) -> ConormalRecovery:
    """Evaluate the cross-product co-normal formula on every incident face."""
    q = as_positions(surface)
    areas = face_volumes(q).areas.values
    dom = q.domain
    mean = empty3((dom.n_u, dom.n_v, 3))
    worst = BandMax(dom)
    low, high = slice(None, -1), slice(1, None)
    for lo, band, (f, mean_out), own in row_bands(q, 1, 1, areas, mean):
        # Each corner's estimate goes to the vertex slice of that corner.
        corner_estimates = zip(face_conormals(band, f),
                               ((low, low), (high, low), (low, high), (high, high)))
        band_mean, spread = face_choice_mean(corner_estimates, band.values.shape)
        mean_out[own] = band_mean[own]
        worst.add(absmax(spread[own]), lo)
    return ConormalRecovery(VertexGrid(dom, mean), worst.value, worst.index,
                            worst.value <= TOL_DUAL)


@dataclass(frozen=True)
class AreaDensityBridge:
    """Worst |F(nu) / F - 1| of a field's F to the surface's, held to ``TOL_DUAL`` by ``passed``."""

    max_relative_gap: float
    passed: bool


def area_density_bridge(surface, areas: FaceGrid) -> AreaDensityBridge:
    """Compare ``areas``, the F of a co-normal field, with the surface's own."""
    q = as_positions(surface)
    require_domain(q.domain, areas=areas)
    gap = float(np.abs(areas.values / face_volumes(q).areas.values - 1.0).max())
    return AreaDensityBridge(gap, gap <= TOL_DUAL)


@dataclass(frozen=True)
class AsymptoticReport:
    """Certificate that the net is asymptotic: every vertex star is planar.

    ``max_zero_residual`` is the worst |star determinant|, q2(v+-1/2) . A nu at
    u-interior and q1(u+-1/2) . B nu at v-interior vertices (all must vanish;
    ``edge_cross_products``); ``max_mixed_residual`` is the worst relative
    deviation of [q1(u+1/2, v), q2(u, v+1/2), q12] from M, one determinant per
    face: the other edge picks add q12 to an edge, which leaves it unchanged.
    """

    max_zero_residual: float
    worst_zero_vertex: tuple
    max_mixed_residual: float
    worst_mixed_face: tuple
    passed: bool


def asymptotic_certificate(surface) -> AsymptoticReport:
    """Both residuals of ``AsymptoticReport``, each held to ``TOL_ASYMPTOTIC``."""
    q = as_positions(surface)
    dom = q.domain
    volumes = face_volumes(q).volumes.values
    zero = {}   # the worst |det| of each determinant group, in the order listed
    mixed = BandMax(dom)
    for lo, band, (m,), own in row_bands(q, 0, 2, volumes):
        e1, e2 = d1(band).values, d2(band).values
        cross_u, cross_v = edge_cross_products(e1, e2)
        dets = []   # (edge, cross product of the two edges opposite it, du, dv)
        if dom.n_u >= 3:
            dets += [(e2[1:-1], cross_u[:, :-1], 1, 0), (e2[1:-1], cross_u[:, 1:], 1, 1)]
        if dom.n_v >= 3:
            dets += [(e1[:, 1:-1], cross_v[:-1], 0, 1), (e1[:, 1:-1], cross_v[1:], 1, 1)]
        for k, (a, bc, du, dv) in enumerate(dets):
            zero.setdefault(k, BandMax(dom, du, dv)).add(np.abs(dot3(a[own], bc[own])), lo)
        mixed_det = dot3(e1[:, :-1], cross3(e2[:-1, :], d12(band).values))
        mixed.add((np.abs(mixed_det - m) / m)[own], lo)

    zero_best, zero_worst = 0.0, (dom.u_min, dom.v_min)
    for group in zero.values():
        if group.value > zero_best:
            zero_best, zero_worst = group.value, group.index
    return AsymptoticReport(
        max_zero_residual=zero_best,
        worst_zero_vertex=zero_worst,
        max_mixed_residual=mixed.value,
        worst_mixed_face=mixed.index,
        passed=zero_best <= TOL_ASYMPTOTIC and mixed.value <= TOL_ASYMPTOTIC,
    )


@dataclass(frozen=True)
class PlanarSaddleReport:
    """Planar-cross and saddle-sign checks at interior vertices."""

    max_orthogonality_residual: float
    worst_vertex: tuple
    saddle_ok: bool
    passed: bool
    saddle_failures: list   # the first 8 of the saddle_count failures, in row-major order
    saddle_count: int


def planarity_and_saddle(surface, vectors) -> PlanarSaddleReport:
    """Check the cross of edges at each interior vertex against its co-normal.

    (a) the four incident edge vectors are orthogonal to nu (normalized by
    edge and co-normal lengths); (b) the four diagonal increments dotted
    with nu alternate in sign cyclically (saddle condition): NE.NW, NW.SW and
    SW.SE < 0 force SE.NE < 0 unless it underflows, and a zero or NaN fails
    one of the three.
    """
    q, vectors = as_positions(surface), as_conormal(vectors)
    require_domain(q.domain, vectors=vectors)
    dom = q.domain
    if dom.n_u < 3 or dom.n_v < 3:
        return PlanarSaddleReport(0.0, (dom.u_min, dom.v_min), True, True, [], 0)
    worst, count, failures = BandMax(dom, 1, 1), 0, []
    for lo, band, (nu,), _ in row_bands(q, 0, 2, vectors.values):
        p, nu = band.values, nu[1:-1, 1:-1]
        center = p[1:-1, 1:-1]
        nu_norm = norm3(nu)

        ortho = np.zeros(center.shape[:2])
        for edge in (p[2:, 1:-1], p[:-2, 1:-1], p[1:-1, 2:], p[1:-1, :-2]):
            e = edge - center
            res = np.abs(dot3(e, nu))
            res /= np.maximum(norm3(e) * nu_norm, TINY)
            np.maximum(ortho, res, out=ortho)
        worst.add(ortho, lo)

        # Diagonal dot products in cyclic order NE, NW, SW, SE must alternate.
        ne, nw, sw, se = (dot3(corner - center, nu)
                          for corner in (p[2:, 2:], p[:-2, 2:], p[:-2, :-2], p[2:, :-2]))
        alternating = (ne * nw < 0.0) & (nw * sw < 0.0) & (sw * se < 0.0)
        bad = np.argwhere(~alternating)
        count += len(bad)
        failures += [(dom.u_min + 1 + lo + int(i), dom.v_min + 1 + int(j))
                     for i, j in bad[:8 - len(failures)]]
    return PlanarSaddleReport(
        max_orthogonality_residual=worst.value,
        worst_vertex=worst.index,
        saddle_ok=not count,
        passed=not count and worst.value <= TOL_DUAL,
        saddle_failures=failures,
        saddle_count=count,
    )


@dataclass(frozen=True)
class DualityReport:
    """Residuals of the co-normal/affine-normal duality on every face.

    ``max_pairing_residual``: worst |nu(corner) . xi(face) - 1| over the four
    corners.  ``max_cross_residual``: worst relative deviation of the four
    corner-pair cross products nu_1 x nu_2 from -F xi.
    """

    max_pairing_residual: float
    worst_pairing_face: tuple
    max_cross_residual: float
    worst_cross_face: tuple
    passed: bool


def duality_certificate(vectors, normals: FaceGrid, areas: FaceGrid) -> DualityReport:
    vectors = as_conormal(vectors)
    require_domain(vectors.domain, normals=normals, areas=areas)
    dom = vectors.domain
    worst_pairing, worst_cross = BandMax(dom), BandMax(dom)
    for lo, band, (xi, f), _ in row_bands(vectors, 0, 1, normals.values, areas.values):
        nu = band.values
        pairing = np.zeros(xi.shape[:2])
        for corner in (nu[:-1, :-1], nu[1:, :-1], nu[:-1, 1:], nu[1:, 1:]):
            np.maximum(pairing, np.abs(dot3(corner, xi) - 1.0), out=pairing)
        worst_pairing.add(pairing, lo)
        f_xi = mul3(f, xi)
        scale = np.maximum(absmax(f_xi), TINY)
        nu1, nu2 = d1(band).values, d2(band).values
        cross = np.zeros(xi.shape[:2])
        for nu1_pick in (nu1[:, :-1], nu1[:, 1:]):
            for nu2_pick in (nu2[:-1, :], nu2[1:, :]):
                res = absmax(cross3(nu1_pick, nu2_pick) + f_xi) / scale
                np.maximum(cross, res, out=cross)
        worst_cross.add(cross, lo)

    return DualityReport(
        max_pairing_residual=worst_pairing.value,
        worst_pairing_face=worst_pairing.index,
        max_cross_residual=worst_cross.value,
        worst_cross_face=worst_cross.index,
        passed=worst_pairing.value <= TOL_DUAL and worst_cross.value <= TOL_DUAL,
    )
