"""Compatibility equations, reconstruction from fundamental data, uniqueness.

A face-area density F together with cubic coefficients A, B determines a
surface up to an affine map, provided three algebraic compatibility
equations hold.  Reconstruction seeds the lower-left quadrangle (four points
whose corner determinant equals F^2 there), marches the bottom two rows with
the u-expansions and every further row with the v-expansions, then certifies
the data by checking that extending each interior face the other way lands
on the same point.
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
from .grids import (TINY, BandMax, FaceGrid, GridDomain, VertexGrid, absmax, div3, empty3,
                    mul3, relative_residual, row_bands, worst_index)
from .lelieuvre import Immersion

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
    """March fundamental data into vertex positions and certify the result.

    ``seed`` holds the four corner points (q00, q10, q01, q11) of the
    lower-left quadrangle; by default the canonical seed for the first
    face's F.  Raises SeedDeterminantMismatch if the seed violates the
    corner determinant condition and IncompatibleData if the two marching
    routes disagree on any interior face beyond ``tol_compat`` (relative
    to the longest marched edge) or the march leaves the finite numbers.
    """
    dom = data.domain
    f = data.areas.values
    a = data.u_coeff.values
    b = data.v_coeff.values
    nu, nv = dom.n_u, dom.n_v

    if seed is None:
        seed = canonical_seed(float(f[0, 0]))
    seed = np.asarray(seed, dtype=float)
    if seed.shape != (4, 3):
        raise ValueError(f"seed must be four 3-points, got shape {seed.shape}")
    _seed_check(seed, float(f[0, 0]), tol_seed)

    # The march runs component- and v-major: q[k, j] holds component k of
    # vertex column v_min + j, so every marched row is contiguous and each
    # per-vertex coefficient broadcasts along it.
    q = np.empty((3, nv, nu))
    q[:, 0, 0], q[:, 0, 1], q[:, 1, 0], q[:, 1, 1] = seed

    # Bottom two rows, marching +u.  Row 0 expands q11 through the face
    # above (v+1/2); row 1 through the face below (v-1/2); both faces are
    # the already-known strip j=0.
    for i in range(1, nu - 1):
        f_w = f[i - 1, 0]
        q11 = ((f[i, 0] - f_w) * (q[:, :2, i] - q[:, :2, i - 1])
               + a[i - 1, :2] * (q[:, 1, i] - q[:, 0, i])[:, None]) / f_w
        q[:, :2, i + 1] = 2.0 * q[:, :2, i] - q[:, :2, i - 1] + q11

    # Remaining rows, marching +v with the q22 expansion through the face
    # below; every column except the last uses its right-hand face pair, so
    # the last vertex row repeats the face row and the u-edge before it.
    f_t = np.ascontiguousarray(np.concatenate([f, f[-1:]]).T)
    df_t = f_t[1:] - f_t[:-1]
    b_t = np.ascontiguousarray(b.T)
    q1p = np.empty((3, nu))
    for j in range(1, nv - 1):
        np.subtract(q[:, j, 1:], q[:, j, :-1], out=q1p[:, :-1])
        q1p[:, -1] = q1p[:, -2]
        q22 = (b_t[j - 1] * q1p + df_t[j - 1] * (q[:, j] - q[:, j - 1])) / f_t[j - 1]
        q[:, j + 1] = 2.0 * q[:, j] - q[:, j - 1] + q22

    # One transposing copy into the u-major component planes of a grid.
    planes = empty3((nu, nv, 3))
    planes[...] = q.T
    positions = VertexGrid(dom, planes)
    _two_way_sweep(positions, f, a, b, tol_compat)
    return Immersion(positions, (dom.u_min, dom.v_min), positions.values[0, 0])


def _two_way_sweep(q: VertexGrid, f, a, b, tol: float):
    """Certify that both extensions of every interior face agree.

    For each face with its lower-left corner interior, predict the NE corner
    once by the u-expansion from the row above and once by the v-expansion
    from the column to the right; the worst relative gap over faces must stay
    below ``tol``.  A NaN gap fails, and so does a non-finite position.
    Both passes run on row bands.
    """
    dom = q.domain
    edge_scale = np.max([TINY] + [np.abs(np.diff(band.values, axis=axis)).max()
                                  for _, band, _, _ in row_bands(q, after=1) for axis in (0, 1)])
    if not edge_scale < np.inf:
        raise IncompatibleData(worst_index(~np.isfinite(q.values).all(axis=2), dom),
                               float(edge_scale))
    worst = BandMax(dom, 1, 1)
    for lo, band, rows, own in row_bands(q, after=2):
        p, fb, ab, bb = band.values, f[rows[1]], a[rows[2]], b[rows[0]]
        way1 = (
            2.0 * p[1:-1, 2:] - p[:-2, 2:]
            + div3(mul3(fb[1:, 1:] - fb[:-1, 1:], p[1:-1, 2:] - p[:-2, 2:])
                   + mul3(ab[:, 2:], p[1:-1, 2:] - p[1:-1, 1:-1]), fb[:-1, 1:])
        )
        way2 = (
            2.0 * p[2:, 1:-1] - p[2:, :-2]
            + div3(mul3(bb[2:, :], p[2:, 1:-1] - p[1:-1, 1:-1])
                   + mul3(fb[1:, 1:] - fb[1:, :-1], p[2:, 1:-1] - p[2:, :-2]), fb[1:, :-1])
        )
        worst.add((absmax(way1 - way2) / edge_scale)[own], lo)
    if not worst.value <= tol:
        raise IncompatibleData(worst.index, worst.value)


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
