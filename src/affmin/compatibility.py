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

from .conormal import face_area_density
from .errors import DegenerateQuadrangle, IncompatibleData, NotEquivalent, SeedDeterminantMismatch
from .forms import CubicForm, FundamentalData, cubic_coefficients
from .geometry import affine_normal, face_volumes
from .grids import (TINY, VALUE_BOUND, BandMax, GridDomain, VertexGrid, absmax, as_positions,
                    cross3, det3, div3, outer_sum3, relative_residual, require_bounded,
                    require_domain, row_bands)
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
    "as_seed",
    "reconstruct",
    "affine_equivalence",
]

# reconstruct: |F, A or B of the co-normal - the data| / max F; also the compatibility
# residuals and a round trip's gap / max |q - q(u_min, v_min)|.
TOL_COMPAT = 1e-7
TOL_EQUIV = 1e-6   # max |L qa + t - qb| / max |qb - qb(u_min, v_min)|, and ||det L| - 1|
TOL_SEED = 1e-9    # |det(q10 - q00, q01 - q00, q11 - q00) - F^2| / F^2 of the seed


def extract_fundamental_data(surface) -> CubicForm:
    """Read (F, A, B) off an immersion: its cubic form, whose spread ``TOL_FORMS`` bounds."""
    return cubic_coefficients(surface, affine_normal(surface, face_volumes(surface).areas))


class CompatibilityResiduals(NamedTuple):
    """Worst relative residual of each compatibility equation; ``passed``: all <= ``TOL_COMPAT``."""

    r0: float
    r1: float
    r2: float

    @property
    def max(self) -> float:
        return float(np.max(tuple(self)))   # np.max(self) would call this property

    @property
    def passed(self) -> bool:
        return self.max <= TOL_COMPAT


def compatibility_residuals(data: FundamentalData) -> CompatibilityResiduals:
    """Evaluate the three equations on every fully interior vertex.

    r0:  F(u-,v+) F(u+,v-) - F(u+,v+) F(u-,v-) = A B
    r1:  F(u-,v-) B_1(u+,v) - F(u+,v-) B_1(u-,v) = B A_2(u,v-)
    r2:  F(u-,v-) A_2(u,v+) - F(u-,v+) A_2(u,v-) = A B_1(u-,v)

    with A_2 = d2(A), B_1 = d1(B); each residual is normalized by the
    largest magnitude among its terms.  The equations run on the row bands
    of B, whose rows are the vertex rows: a vertex reads rows u-1 to u+1.
    """
    f_all, a_all = data.areas.values, data.u_coeff.values

    # Characteristic magnitudes of the data; the derivative equations are
    # floored by these so that identically-vanishing coefficient fields
    # (straight rulings) register as compatible instead of noise-vs-noise.
    # max |x| is max(max x, -min x), and NaN if x holds one.
    sig_f = float(f_all.max())
    sig_a, sig_b = (float(np.max([x.max(), -x.min()])) + sig_f
                    for x in (a_all, data.v_coeff.values))
    floors = (0.0, max(sig_f, sig_a) * sig_b, max(sig_f, sig_b) * sig_a)

    worst = ([], [], [])
    for _, band, (f, a), _ in row_bands(data.v_coeff, 0, 2, f_all, a_all):
        b = band.values
        a2 = a[:, 1:] - a[:, :-1]   # A_2(u, v+1/2)
        b1 = b[1:] - b[:-1]         # B_1(u+1/2, v)
        for residuals, terms, floor in zip(worst, (
            (f[:-1, 1:] * f[1:, :-1], f[1:, 1:] * f[:-1, :-1], a[:, 1:-1] * b[1:-1, :]),
            (f[:-1, :-1] * b1[1:, :], f[1:, :-1] * b1[:-1, :], b[1:-1, :] * a2[:, :-1]),
            (f[:-1, :-1] * a2[:, 1:], f[:-1, 1:] * a2[:, :-1], a[:, 1:-1] * b1[:-1, :]),
        ), floors):
            residuals.append(relative_residual(terms, floor))
    return CompatibilityResiduals(*(float(np.max(residuals)) for residuals in worst))


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


def as_seed(points, what: str = "seed") -> np.ndarray:
    """The corner points (q00, q10, q01, q11) of a seed as a (4, 3) float array;
    ValueError names ``what`` and a wrong shape, or ``require_bounded`` a corner (u, v)."""
    try:
        points = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must hold four 3-points: {exc}") from exc
    if points.shape != (4, 3):
        raise ValueError(f"{what} must hold four 3-points, got shape {points.shape}")
    require_bounded(points.reshape(2, 2, 3).swapaxes(0, 1), GridDomain(0, 1, 0, 1), what)
    return points


def reconstruct(data: FundamentalData, seed=None) -> Immersion:
    """Rebuild the surface of fundamental data through its co-normal.

    ``seed`` holds the four corner points (q00, q10, q01, q11) of the
    lower-left quadrangle; by default the canonical seed for the first
    face's F.  A given seed passes ``as_seed`` (ValueError), and so must an
    F^2 of the first face that does not underflow to 0.  Raises
    SeedDeterminantMismatch if the seed's corner determinant misses F^2 by
    more than ``TOL_SEED`` of it, and IncompatibleData (worst index and
    gap) if a marched strip leaves ``VALUE_BOUND`` (gap inf), or if a triple
    product of the co-normal misses F, A or B by more than ``TOL_COMPAT``
    relative to the largest F, or by NaN, or if an F of the co-normal is <= 0.
    """
    dom = data.domain
    f, a, b = (grid.values for grid in (data.areas, data.u_coeff, data.v_coeff))
    f00 = float(f[0, 0])
    expected = f00 * f00
    if not expected > 0.0:
        raise ValueError(f"F at face {dom.u_min, dom.v_min} is {f00!r}: its square, the "
                         "seed determinant, underflows to 0")
    seed = canonical_seed(f00) if seed is None else as_seed(seed)
    det = float(np.linalg.det(seed[1:] - seed[0]))   # rows q10 - q00, q01 - q00, q11 - q00
    if not abs(det - expected) <= TOL_SEED * expected:
        raise SeedDeterminantMismatch(expected, det)

    # corners[v, u] is seed point q(u, v).  On a box a harmonic co-normal is
    # separable, so its values on vertex row 0 and column 0 fix it.
    corners = seed.reshape(2, 2, 3)
    u, v = dom.u_min, dom.v_min
    nu_row = _march_strip(corners.transpose(2, 0, 1), f[:, 0], a[:, :2],
                          lambda i, r: (u + i, v + r))
    nu_col = -_march_strip(corners.T, f[0], b[:2].T,   # e1 x e2 = -(along x across)
                           lambda i, r: (u + r, v + i))
    col = nu_col - nu_col[0]
    # Component k of nu is at most m_k in size, so a triple product of nu is finite
    # when every product of two or three m_k is within VALUE_BOUND^3 = max float / 64.
    m0, m1, m2 = (np.abs(nu_row).max(axis=0) + np.abs(col).max(axis=0)).tolist()
    if not max(m0 * m1, m0 * m2, m1 * m2, m0 * m1 * m2) <= VALUE_BOUND ** 3:
        big = absmax(nu_row), absmax(col)
        i, j = int(np.argmax(big[0])), int(np.argmax(big[1]))
        raise IncompatibleData((u + i, v) if big[0][i] >= big[1][j] else (u, v + j), float("inf"))
    vectors = VertexGrid(dom, outer_sum3(nu_row, col))

    # By Lelieuvre, F = [nu, nu(v+1), nu(u+1)], A = [nu(u-1), nu, nu(u+1)]
    # and B = [nu(v+1), nu, nu(v-1)].  The gaps are divided by max F as Python
    # floats, which give inf rather than a warning.
    scale = float(f.max())
    areas = np.empty_like(f)
    gaps = (BandMax(dom), BandMax(dom, 1, 0), BandMax(dom, 0, 1))
    for lo, band, (*data_rows, areas_out), own in row_bands(vectors, 0, 2, f, a, b, areas):
        nu = band.values
        triples = (face_area_density(band).values, det3(nu[:-2], nu[1:-1], nu[2:]),
                   det3(nu[:, 2:], nu[:, 1:-1], nu[:, :-2]))
        for gap, triple, given in zip(gaps, triples, data_rows):
            gap.add(np.abs(triple - given)[own], lo)
        areas_out[own] = triples[0][own]
    worst = gaps[int(np.argmax([gap.value for gap in gaps]))]   # a NaN counts as worst
    if not worst.value / scale <= TOL_COMPAT:
        raise IncompatibleData(worst.index, worst.value / scale)
    i, j = np.unravel_index(np.argmin(areas), areas.shape)
    if not areas[i, j] > 0.0:
        raise IncompatibleData((dom.u_min + int(i), dom.v_min + int(j)),
                               float(f[i, j] - areas[i, j]) / scale)
    return integrate(vectors, base_value=seed[0])


def _march_strip(corners: np.ndarray, f: np.ndarray, c: np.ndarray, at) -> np.ndarray:
    """March a strip of two vertex lines and return the co-normals of line 0.

    ``corners[k, r, i]`` is component k of vertex i (0, 1) on line r,
    ``f[i]`` the F of the face between the lines after vertex i, and
    ``c[i - 1, r]`` the cubic coefficient of vertex i on line r.  Each step
    expands both lines one vertex through the face before it, on Python
    floats: per component, the operations and their order of the whole-array
    step, so the same bits (``FundamentalData`` keeps every F > 0).  The
    co-normal is (along x across) / F; the last vertex reuses the edge along
    and the face before it.  Vertex i of line r beyond ``VALUE_BOUND`` or NaN (after
    a tiny F), or the co-normal of vertex i of line 0 over ``VALUE_BOUND``^3,
    raises IncompatibleData at ``at(i, r)`` with gap inf before numpy computes it.
    """
    lines = corners.reshape(6, 2).tolist()   # lines[2 k + r]: component k of line r
    fl, cl = f.tolist(), c.tolist()
    for i in range(1, len(fl)):
        df, f0, (c0, c1) = fl[i] - fl[i - 1], fl[i - 1], cl[i - 1]
        for x0, x1 in zip(lines[0::2], lines[1::2]):
            s0, p0, s1, p1 = x0[i], x0[i - 1], x1[i], x1[i - 1]
            across = s1 - s0
            x0.append(2.0 * s0 - p0 + (df * (s0 - p0) + c0 * across) / f0)
            x1.append(2.0 * s1 - p1 + (df * (s1 - p1) + c1 * across) / f0)
    s = np.array(lines).reshape(3, 2, len(fl) + 1)
    outside = np.argwhere(~(np.abs(s) <= VALUE_BOUND).all(axis=0).T)   # (i, r), i first
    if outside.size:
        raise IncompatibleData(at(*outside[0].tolist()), float("inf"))
    last = np.minimum(np.arange(s.shape[2]), s.shape[2] - 2)
    along = (s[:, 0, 1:] - s[:, 0, :-1])[:, last]
    cross = cross3(along.T, (s[:, 1] - s[:, 0]).T)   # at most 8 VALUE_BOUND^2
    outside = np.argwhere(~(absmax(cross) / VALUE_BOUND ** 3 <= f[last]))
    if outside.size:
        raise IncompatibleData(at(int(outside[0, 0]), 0), float("inf"))
    return div3(cross, f[last])


@dataclass(frozen=True)
class AffineMap:
    """Affine transformation x -> linear @ x + translation; ``relative_gap`` is the gap
    that ``affine_equivalence`` verified it to (NaN for a map built by hand)."""

    linear: np.ndarray
    translation: np.ndarray
    relative_gap: float = float("nan")

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=float))
        if self.linear.shape != (3, 3) or self.translation.shape != (3,):
            raise ValueError("AffineMap needs a 3x3 linear part and a 3-translation")
        require_bounded(np.column_stack([self.linear, self.translation]), GridDomain(0, 2, 0, 3),
                        "AffineMap [linear | translation]")
        if abs(float(np.linalg.det(self.linear))) <= 0.0:
            raise DegenerateQuadrangle("affine map has singular linear part")

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.linear))

    @property
    def unimodular(self) -> bool:
        """Whether |det| is 1 within ``TOL_EQUIV``: the map keeps volumes up to sign."""
        return abs(abs(self.det) - 1.0) <= TOL_EQUIV

    @property
    def closes_round_trip(self) -> bool:
        """Whether, as the map of a canonical reconstruction onto its surface, it
        closes the round trip: unimodular, with a gap within ``TOL_COMPAT``."""
        return self.relative_gap <= TOL_COMPAT and self.unimodular

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.linear.T + self.translation


def _corner_frame(positions: VertexGrid) -> tuple[np.ndarray, np.ndarray]:
    p = positions.values
    u, v = positions.domain.u_min, positions.domain.v_min
    degenerate = DegenerateQuadrangle(f"corner quadrangle at {u, v} spans no volume")
    if not np.isfinite(p[:2, :2]).all():   # before np.linalg.det would warn on it
        raise degenerate
    base = p[0, 0]
    frame = np.column_stack([p[1, 0] - base, p[0, 1] - base, p[1, 1] - base])
    norms = np.linalg.norm(frame, axis=0)
    if abs(np.linalg.det(frame)) <= 1e-14 * max(float(norms.prod()), TINY):
        raise degenerate
    return base, frame


def affine_equivalence(qa, qb) -> AffineMap:
    """Affine map sending qa to qb, determined by the corner quadrangles.

    The four lower-left corner points fix the map; it is then verified on
    every vertex in one band sweep, which takes both the worst gap with its
    vertex and the extent of qb that scales it.  The map keeps that relative
    gap.  Raises NotEquivalent (with the worst vertex and relative gap, NaN
    included) if it exceeds ``TOL_EQUIV``, DegenerateQuadrangle if no map exists.
    """
    qa, qb = as_positions(qa), as_positions(qb)
    require_domain(qa.domain, qb=qb)
    base_a, frame_a = _corner_frame(qa)
    base_b, frame_b = _corner_frame(qb)
    linear = np.linalg.solve(frame_a.T, frame_b.T).T
    translation = base_b - linear @ base_a
    pb = qb.values
    spans, worst = [], BandMax(qa.domain)
    for lo, band, (target,), _ in row_bands(qa, 0, 0, pb):
        gap = band.values @ linear.T   # the whole grid's matmul, one u-row at a time
        gap += translation
        gap -= target
        worst.add(absmax(gap), lo)
        # qb's extent in gap's buffer, by fmax: a NaN in qb does not hide its vertex.
        np.abs(np.subtract(target, pb[0, 0], out=gap), out=gap)
        spans.append(np.fmax.reduce(gap, axis=None))
        del gap
    # Division by a positive scale is monotone: the worst quotient is the worst gap's.
    relative = worst.value / max(float(np.fmax.reduce(spans)), TINY)
    if not relative <= TOL_EQUIV:
        raise NotEquivalent(worst.index, relative)
    return AffineMap(linear, translation, relative)
