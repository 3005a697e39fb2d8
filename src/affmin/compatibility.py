"""Compatibility equations, reconstruction from fundamental data, uniqueness.

A face-area density F together with cubic coefficients A, B determines a
surface up to an affine map, provided three algebraic compatibility
equations hold.  Reconstruction marches the two boundary strips (vertex rows
0-1 and columns 0-1) from a seed quadrangle whose corner determinant is F^2,
reads the co-normal off their edges and fills it in separably, as every
harmonic co-normal on a box is.  The co-normal's triple products must equal
the data, and ``integrate`` sums its Lelieuvre edges into the surface.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateQuadrangle,
    DomainMismatch,
    IncompatibleData,
    NonConvexFace,
    NotEquivalent,
    SeedDeterminantMismatch,
)
from .forms import TOL_FORMS, cubic_coefficients
from .geometry import affine_normal, face_volumes
from .conormal import ConormalField
from .grids import (TINY, BandMax, FaceGrid, GridDomain, VertexGrid, absmax, cross3, d12, det3,
                    div3, empty3, relative_residual, row_bands, worst_index)
from .lelieuvre import Immersion, integrate

__all__ = [
    "TOL_COMPAT",
    "TOL_EQUIV",
    "TOL_SEED",
    "FundamentalData",
    "AffineMap",
    "extract_fundamental_data",
    "CompatibilityResiduals",
    "compatibility_residuals",
    "canonical_seed",
    "reconstruct",
    "affine_equivalence",
]

TOL_COMPAT = 1e-7
TOL_EQUIV = 1e-6
TOL_SEED = 1e-9


@dataclass(frozen=True)
class FundamentalData:
    """Face area density plus cubic coefficients on their natural stencils.

    ``areas`` lives on the faces of the vertex box; ``u_coeff`` (A) on its
    u-interior vertices and ``v_coeff`` (B) on its v-interior vertices.
    """

    areas: FaceGrid
    u_coeff: VertexGrid
    v_coeff: VertexGrid

    def __post_init__(self):
        dom = self.areas.domain
        if self.u_coeff.domain != dom.shrink(du_lo=1, du_hi=1):
            raise DomainMismatch(
                f"u_coeff domain {self.u_coeff.domain} is not the u-interior of {dom}"
            )
        if self.v_coeff.domain != dom.shrink(dv_lo=1, dv_hi=1):
            raise DomainMismatch(
                f"v_coeff domain {self.v_coeff.domain} is not the v-interior of {dom}"
            )
        lowest = self.areas.values.min()
        if not lowest > 0.0:
            raise NonConvexFace(worst_index(-self.areas.values, dom), float(lowest))

    @property
    def domain(self) -> GridDomain:
        return self.areas.domain


def extract_fundamental_data(surface, tol: float = TOL_FORMS) -> FundamentalData:
    """Read (F, A, B) off an immersion; ``tol`` bounds the face-choice spread."""
    vols = face_volumes(surface)
    form = cubic_coefficients(surface, affine_normal(surface, vols.areas), tol)
    return FundamentalData(vols.areas, form.u_coeff, form.v_coeff)


class CompatibilityResiduals(NamedTuple):
    """Worst relative residual of each of the three compatibility equations."""

    r0: float
    r1: float
    r2: float

    @property
    def max(self) -> float:
        return float(np.max(tuple(self)))   # np.max(self) would call this property


def compatibility_residuals(data: FundamentalData) -> CompatibilityResiduals:
    """Evaluate the three equations on every fully interior vertex.

    r0:  F(u-,v+) F(u+,v-) - F(u+,v+) F(u-,v-) = A B
    r1:  F(u-,v-) B_1(u+,v) - F(u+,v-) B_1(u-,v) = B A_2(u,v-)
    r2:  F(u-,v-) A_2(u,v+) - F(u-,v+) A_2(u,v-) = A B_1(u-,v)

    with A_2 = d2(A), B_1 = d1(B); each residual is normalized by the
    largest magnitude among its terms.
    """
    f = data.areas.values
    a = data.u_coeff.values
    b = data.v_coeff.values
    a2 = np.diff(a, axis=1)   # A_2(u, v+1/2), shape (n_u-2, n_v-1)
    b1 = np.diff(b, axis=0)   # B_1(u+1/2, v), shape (n_u-1, n_v-2)

    # Characteristic magnitudes of the data; the derivative equations are
    # floored by these so that identically-vanishing coefficient fields
    # (straight rulings) register as compatible instead of noise-vs-noise.
    sig_f = float(f.max())
    sig_a = float(np.abs(a).max()) + sig_f
    sig_b = float(np.abs(b).max()) + sig_f

    r0 = relative_residual([
        f[:-1, 1:] * f[1:, :-1], f[1:, 1:] * f[:-1, :-1], a[:, 1:-1] * b[1:-1, :],
    ])
    r1 = relative_residual([
        f[:-1, :-1] * b1[1:, :], f[1:, :-1] * b1[:-1, :], b[1:-1, :] * a2[:, :-1],
    ], floor=max(sig_f, sig_a) * sig_b)
    r2 = relative_residual([
        f[:-1, :-1] * a2[:, 1:], f[:-1, 1:] * a2[:, :-1], a[:, 1:-1] * b1[:-1, :],
    ], floor=max(sig_f, sig_b) * sig_a)
    return CompatibilityResiduals(r0, r1, r2)


def canonical_seed(f00: float) -> np.ndarray:
    """Four corner points (q00, q10, q01, q11) with determinant exactly F^2."""
    if not f00 > 0.0:
        raise ValueError(f"canonical seed needs F > 0 on the first face, got {f00}")
    return np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [1.0, 1.0, f00 * f00],
    ])


def _seed_check(seed: np.ndarray, f00: float, tol: float):
    expected = f00 * f00
    if not np.isfinite(seed).all():
        # Rejected before det, which warns (or raises under errstate) on NaN.
        raise SeedDeterminantMismatch(expected, float("nan"))
    det = float(np.linalg.det(np.stack([
        seed[1] - seed[0], seed[2] - seed[0], seed[3] - seed[0]
    ])))
    if not abs(det - expected) <= tol * expected:
        raise SeedDeterminantMismatch(expected, det)


def reconstruct(data: FundamentalData, seed=None, tol_seed: float = TOL_SEED,
                tol_compat: float = TOL_COMPAT) -> Immersion:
    """Rebuild the surface of fundamental data through its co-normal.

    ``seed`` holds the four corner points (q00, q10, q01, q11) of the
    lower-left quadrangle; by default the canonical seed for the first
    face's F.  Raises SeedDeterminantMismatch if the seed violates the
    corner determinant condition, and IncompatibleData (worst index and
    gap) if a triple product of the co-normal misses F, A or B by more than
    ``tol_compat`` relative to the largest F, or by NaN, or if an F of the
    co-normal is <= 0.
    """
    dom = data.domain
    f, a, b = (grid.values for grid in (data.areas, data.u_coeff, data.v_coeff))
    if seed is None:
        seed = canonical_seed(float(f[0, 0]))
    seed = np.asarray(seed, dtype=float)
    if seed.shape != (4, 3):
        raise ValueError(f"seed must be four 3-points, got shape {seed.shape}")
    _seed_check(seed, float(f[0, 0]), tol_seed)

    # corners[v, u] is seed point q(u, v).  On a box a harmonic co-normal is
    # separable, so its values on vertex row 0 and column 0 fix it.
    corners = seed.reshape(2, 2, 3)
    nu_row = _march_strip(corners.transpose(2, 0, 1), f[:, 0], a[:, :2])
    nu_col = -_march_strip(corners.T, f[0], b[:2].T)   # e1 x e2 = -(along x across)
    vectors = VertexGrid(dom, np.add(nu_row[:, None], (nu_col - nu_col[0])[None],
                                     out=empty3((dom.n_u, dom.n_v, 3))))

    # By Lelieuvre, F = [nu, nu(v+1), nu(u+1)], A = [nu(u-1), nu, nu(u+1)]
    # and B = [nu(v+1), nu, nu(v-1)].
    scale = float(f.max())
    areas, harmonic = np.empty_like(f), []
    gaps = (BandMax(dom), BandMax(dom, 1, 0), BandMax(dom, 0, 1))
    for lo, band, rows, own in row_bands(vectors, after=2):
        nu = band.values
        triples = (det3(nu[:-1, :-1], nu[:-1, 1:], nu[1:, :-1]), det3(nu[:-2], nu[1:-1], nu[2:]),
                   det3(nu[:, 2:], nu[:, 1:-1], nu[:, :-2]))
        for gap, triple, given in zip(gaps, triples, (f[rows[1]], a[rows[2]], b[rows[0]])):
            gap.add(np.abs(triple - given)[own] / scale, lo)
        areas[rows[1]][own] = triples[0][own]
        harmonic.append(absmax(d12(band).values[own]).max())
    worst = gaps[int(np.argmax([gap.value for gap in gaps]))]   # a NaN counts as worst
    if not worst.value <= tol_compat:
        raise IncompatibleData(worst.index, worst.value)
    i, j = np.unravel_index(np.argmin(areas), areas.shape)
    if not areas[i, j] > 0.0:
        raise IncompatibleData(worst_index(-areas, dom), float((f[i, j] - areas[i, j]) / scale))
    field = ConormalField(vectors, FaceGrid(dom, areas), float(np.max(harmonic)))
    return integrate(field, base_value=seed[0])


def _march_strip(corners: np.ndarray, f: np.ndarray, c: np.ndarray) -> np.ndarray:
    """March a strip of two vertex lines and return the co-normals of line 0.

    ``corners[k, r, i]`` is component k of vertex i (0, 1) on line r,
    ``f[i]`` the F of the face between the lines after vertex i, and
    ``c[i - 1, r]`` the cubic coefficient of vertex i on line r.  Each step
    expands both lines one vertex through the face before it.  The
    co-normal is (along x across) / F; the last vertex reuses the edge along
    and the face before it.
    """
    s = np.empty((3, 2, len(f) + 1))
    s[..., :2] = corners
    for i in range(1, s.shape[2] - 1):
        step = ((f[i] - f[i - 1]) * (s[..., i] - s[..., i - 1])
                + c[i - 1] * (s[:, 1, i] - s[:, 0, i])[:, None]) / f[i - 1]
        s[..., i + 1] = 2.0 * s[..., i] - s[..., i - 1] + step
    last = np.minimum(np.arange(s.shape[2]), s.shape[2] - 2)
    along = (s[:, 0, 1:] - s[:, 0, :-1])[:, last]
    return div3(cross3(along.T, (s[:, 1] - s[:, 0]).T), f[last])


@dataclass(frozen=True)
class AffineMap:
    """Affine transformation x -> linear @ x + translation."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        if self.linear.shape != (3, 3) or self.translation.shape != (3,):
            raise ValueError("AffineMap needs a 3x3 linear part and a 3-translation")
        if abs(float(np.linalg.det(self.linear))) <= 0.0:
            raise DegenerateQuadrangle("affine map has singular linear part")

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.linear))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.linear.T + self.translation


def _corner_frame(positions: VertexGrid) -> tuple[np.ndarray, np.ndarray]:
    p = positions.values
    base = p[0, 0]
    frame = np.column_stack([p[1, 0] - base, p[0, 1] - base, p[1, 1] - base])
    norms = np.linalg.norm(frame, axis=0)
    if abs(np.linalg.det(frame)) <= 1e-14 * max(float(norms.prod()), TINY):
        raise DegenerateQuadrangle(
            f"corner quadrangle at {positions.domain.u_min, positions.domain.v_min} "
            "spans no volume"
        )
    return base, frame


def affine_equivalence(qa: Immersion, qb: Immersion,
                       tol: float = TOL_EQUIV) -> AffineMap:
    """Affine map sending qa to qb, determined by the corner quadrangles.

    The four lower-left corner points fix the map; it is then verified on
    every vertex.  Raises NotEquivalent (with the worst vertex and relative
    gap, NaN included) if the map fails globally, DegenerateQuadrangle if no
    map exists.
    """
    if qa.domain != qb.domain:
        raise DomainMismatch(f"domains differ: {qa.domain} vs {qb.domain}")
    base_a, frame_a = _corner_frame(qa.positions)
    base_b, frame_b = _corner_frame(qb.positions)
    linear = np.linalg.solve(frame_a.T, frame_b.T).T
    translation = base_b - linear @ base_a
    mapped = qa.positions.values @ linear.T + translation

    pb = qb.positions.values
    # nanmax keeps a NaN in qb from hiding which vertex carries it.
    scale = max(float(np.nanmax(np.abs(pb - pb[0, 0]))), TINY)
    gaps = absmax(mapped - pb) / scale
    worst = gaps.max()
    if not worst <= tol:
        raise NotEquivalent(worst_index(gaps, qa.domain), float(worst))
    return AffineMap(linear, translation)
