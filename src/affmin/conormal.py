"""Discrete co-normal fields: construction, validation and example families.

A co-normal field is a vertex grid of 3-vectors whose mixed difference
vanishes on every face (discrete harmonicity) and whose face area density

    F(u+1/2, v+1/2) = nu(u,v) . (nu(u,v+1) x nu(u+1,v))

is strictly positive.  Harmonic fields are exactly the separable ones,
nu(u,v) = nu1(u) + nu2(v), which is how every generator below is built.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonConvexFace, NotHarmonic
from .grids import (BandMax, FaceGrid, GridDomain, VertexGrid, absmax, d12, det3, empty3,
                    require_bounded, require_positive, row_bands)

__all__ = [
    "TOL_HARMONIC",
    "ConormalField",
    "SeparableConormalSpec",
    "from_separable",
    "validate",
    "face_area_density",
    "helicoid",
    "minimal_cubic",
    "hyperbolic_paraboloid",
    "improper_sphere",
]

# Absolute per-component harmonicity tolerance for externally supplied fields;
# generator output is harmonic by construction and is not held to one.
TOL_HARMONIC = 1e-9


def face_area_density(vectors: VertexGrid) -> FaceGrid:
    """Area density F per face of a co-normal vertex grid (sign not checked)."""
    vectors.domain.require_faces("co-normal field")
    nu = vectors.values
    return FaceGrid(vectors.domain, det3(nu[:-1, :-1], nu[:-1, 1:], nu[1:, :-1]))


@dataclass(frozen=True)
class ConormalField:
    """Validated co-normal field with its face area density.

    Attributes:
        vectors: VertexGrid of co-normal 3-vectors.
        areas: FaceGrid of the (positive) area density F.
        harmonic_residual: worst |mixed difference| component over all faces.
    """

    vectors: VertexGrid
    areas: FaceGrid
    harmonic_residual: float

    @property
    def domain(self) -> GridDomain:
        return self.vectors.domain

    @property
    def min_area(self) -> float:
        return float(self.areas.values.min())


@dataclass(frozen=True)
class SeparableConormalSpec:
    """One-variable profiles whose sum defines a harmonic co-normal field.

    ``u_part[i]`` is the 3-vector contribution of vertex column u_min+i and
    ``v_part[j]`` of vertex row v_min+j; lengths must match the domain.  Each
    profile passes ``require_bounded``, entry i named as grid index (i, 0),
    so nu stays within 2 ``VALUE_BOUND``; both are stored read-only.
    """

    domain: GridDomain
    u_part: np.ndarray
    v_part: np.ndarray

    def __post_init__(self):
        for name, n in (("u_part", self.domain.n_u), ("v_part", self.domain.n_v)):
            part = np.asarray(getattr(self, name), dtype=float).view()
            part.setflags(write=False)
            object.__setattr__(self, name, part)
            if part.shape != (n, 3):
                raise ValueError(f"{name} must have shape ({n}, 3), got {part.shape}")
            require_bounded(part[:, None], GridDomain(0, n - 1, 0, 0), name)


def _build(vectors: VertexGrid, tol_harmonic: float) -> ConormalField:
    """Validate a co-normal grid and wrap it; a NaN residual or F fails too.

    Harmonicity and F run on row bands.  A field that is not harmonic raises
    NotHarmonic naming the worst face, then every other face over
    ``tol_harmonic`` in row-major order; F is not evaluated past the first
    band with such a face.
    """
    dom = vectors.domain
    worst, bad = BandMax(dom), []
    areas = np.empty((dom.n_u - 1, dom.n_v - 1))
    for lo, band, (areas_out,), own in row_bands(vectors, 0, 1, areas):
        residuals = absmax(d12(band).values[own])
        worst.add(residuals, lo)
        bad += [(dom.u_min + lo + int(i), dom.v_min + int(j))
                for i, j in np.argwhere(~(residuals <= tol_harmonic))]
        if not bad:
            areas_out[own] = face_area_density(band).values[own]
    if bad:
        raise NotHarmonic(worst.value, [worst.index] + [face for face in bad
                                                         if face != worst.index])
    require_positive(areas, dom, NonConvexFace)
    return ConormalField(vectors, FaceGrid(dom, areas), worst.value)


def from_separable(spec: SeparableConormalSpec) -> ConormalField:
    """Build the field nu(u,v) = u_part(u) + v_part(v) and check its F.

    Harmonicity is structural here: each mixed difference cancels to a few
    roundings of max |nu|, so no tolerance gates it (NonConvexFace still
    does); ``harmonic_residual`` reports it.
    """
    spec.domain.require_faces("co-normal field")
    nu = np.add(spec.u_part[:, None, :], spec.v_part[None, :, :],
                out=empty3((spec.domain.n_u, spec.domain.n_v, 3)))
    return _build(VertexGrid(spec.domain, nu), np.inf)


def validate(vectors: VertexGrid) -> ConormalField:
    """Check an externally supplied vertex grid and wrap it as a field.

    Raises NotHarmonic (naming every face over ``TOL_HARMONIC``) or
    NonConvexFace, and, by ``require_bounded``, ValueError naming the first
    vertex whose nu is not finite or over ``VALUE_BOUND`` in size.
    """
    vectors.domain.require_faces("co-normal field")
    if vectors.components != 3:
        raise ValueError("co-normal grids must hold 3-vectors")
    require_bounded(vectors.values, vectors.domain, "co-normal grid")
    return _build(vectors, TOL_HARMONIC)


def _separable(domain: GridDomain, u_columns, v_columns) -> ConormalField:
    """``from_separable`` of the profiles whose three columns are given, each
    an array over the u (or v) values or a constant broadcast along it (so a
    constant 0.0 column holds +0.0, never -0.0)."""
    u_part, v_part = (np.column_stack(np.broadcast_arrays(*columns))
                      for columns in (u_columns, v_columns))
    return from_separable(SeparableConormalSpec(domain, u_part, v_part))


def _samples(domain: GridDomain):
    """The u and the v values of a box, as floats."""
    return domain.u_values().astype(float), domain.v_values().astype(float)


def helicoid(n: int, u_range: tuple, v_range: tuple | None = None) -> ConormalField:
    """Helicoid-style field (sin(2 pi v / n), -cos(2 pi v / n), u).

    ``n`` is the number of v samples per turn; v defaults to one full
    turn [0, n].  F is the constant sin(2 pi / n), so n >= 3 is required.
    """
    if n < 3:
        raise ValueError(f"helicoid needs n >= 3 v-samples per turn, got {n}")
    if v_range is None:
        v_range = (0, n)
    domain = GridDomain(u_range[0], u_range[1], v_range[0], v_range[1])
    u, v = _samples(domain)
    freq = 2.0 * np.pi / n
    return _separable(domain, (0.0, 0.0, u), (np.sin(freq * v), -np.cos(freq * v), 0.0))


def minimal_cubic(box: GridDomain) -> ConormalField:
    """Field (u, v, u^2 + v^2) of the cubic minimal surface.

    F vanishes on faces whose corner co-normal is the zero vector (the
    origin), so boxes must avoid those; e.g. u_min, v_min >= 1 works.
    """
    u, v = _samples(box)
    return _separable(box, (u, 0.0, u * u), (0.0, v, v * v))


def hyperbolic_paraboloid(box: GridDomain) -> ConormalField:
    """Field (-v, -u, 1) of the hyperbolic paraboloid; F is identically 1."""
    u, v = _samples(box)
    return _separable(box, (0.0, -u, 1.0), (-v, 0.0, 0.0))


def improper_sphere(box: GridDomain) -> ConormalField:
    """Planar field ((v^2 - u^2)/4, (u - v)/2, -1) of an improper affine sphere.

    The field degenerates on the diagonal u = v (F is (u - v)/4 there), so
    the whole box must satisfy u > v.
    """
    if box.u_min <= box.v_max:
        # Worst corner is (u_min, v_max); F of the face diagonally under it.
        face = (box.u_min, box.v_max - 1)
        raise NonConvexFace(
            face,
            (box.u_min - box.v_max) / 4.0,
            detail=f"box {box.as_tuple()} touches u <= v; the field requires u > v",
        )
    u, v = _samples(box)
    return _separable(box, (-u * u / 4.0, u / 2.0, -0.5), (v * v / 4.0, -v / 2.0, -0.5))
