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
                    row_bands, worst_index)

__all__ = [
    "TOL_HARMONIC",
    "TOL_HARMONIC_INTERNAL",
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
# generator output must meet the much tighter internal bound.
TOL_HARMONIC = 1e-9
TOL_HARMONIC_INTERNAL = 1e-12


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
    ``v_part[j]`` of vertex row v_min+j; lengths must match the domain.
    """

    domain: GridDomain
    u_part: np.ndarray
    v_part: np.ndarray

    def __post_init__(self):
        for name, n in (("u_part", self.domain.n_u), ("v_part", self.domain.n_v)):
            part = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, part)
            if part.shape != (n, 3):
                raise ValueError(f"{name} must have shape ({n}, 3), got {part.shape}")
            bad = np.argwhere(~np.isfinite(part))
            if len(bad):
                i, k = bad[0]
                raise ValueError(f"{name} entry {i}, component {k} is {part[i, k]}, not finite")


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
    for lo, band, rows, own in row_bands(vectors, after=1):
        residuals = absmax(d12(band).values[own])
        worst.add(residuals, lo)
        bad += [(dom.u_min + lo + int(i), dom.v_min + int(j))
                for i, j in np.argwhere(~(residuals <= tol_harmonic))]
        if not bad:
            areas[rows[1]][own] = face_area_density(band).values[own]
    if bad:
        raise NotHarmonic(worst.value, [worst.index] + [face for face in bad
                                                         if face != worst.index])

    lowest = areas.min()
    if not lowest > 0.0:
        raise NonConvexFace(worst_index(-areas, dom), float(lowest))
    return ConormalField(vectors, FaceGrid(dom, areas), worst.value)


def _require_bounded(top, bottom, spelled: str):
    """ValueError naming the first component of nu whose max ``top`` or min
    ``bottom`` is over R = cbrt(max float / 8) in size: within R, F stays under
    6 R^3 and ``d12`` under 4 R; ``spelled`` forms a bound from "{0}", max or min."""
    for which, bound in (("max", top), ("min", bottom)):
        bad = np.flatnonzero(np.abs(bound) > np.cbrt(np.finfo(float).max / 8))   # NaN passes
        if len(bad):
            raise ValueError(f"component {bad[0]} of nu overflows: {spelled.format(which)} "
                             f"is {bound[bad[0]]}")


def from_separable(spec: SeparableConormalSpec) -> ConormalField:
    """Build the field nu(u,v) = u_part(u) + v_part(v) and validate it.

    Harmonicity is structural here (each face residual is a rounding-level
    cancellation), so the internal tolerance applies, times max(1, max |nu|).
    Rounding is monotone, so max nu and min nu come from the (finite)
    profiles: per component, max u_part + max v_part and min u_part + min
    v_part.  So a component too large for F or ``d12`` shows in these bounds,
    and raises ValueError naming it before nu is built.
    """
    spec.domain.require_faces("co-normal field")
    with np.errstate(over="ignore"):
        top = spec.u_part.max(axis=0) + spec.v_part.max(axis=0)
        bottom = spec.u_part.min(axis=0) + spec.v_part.min(axis=0)
    _require_bounded(top, bottom, "{0} u_part + {0} v_part")
    hi, lo = float(top.max()), float(bottom.min())
    nu = np.add(spec.u_part[:, None, :], spec.v_part[None, :, :],
                out=empty3((spec.domain.n_u, spec.domain.n_v, 3)))
    return _build(VertexGrid(spec.domain, nu), TOL_HARMONIC_INTERNAL * max(1.0, hi, -lo))


def validate(vectors: VertexGrid, tol_harmonic: float = TOL_HARMONIC) -> ConormalField:
    """Check an externally supplied vertex grid and wrap it as a field.

    Raises NotHarmonic (naming every face over tolerance) or NonConvexFace,
    and ValueError if a component of nu exceeds cbrt(max float / 8) ~ 2.8e102.
    """
    vectors.domain.require_faces("co-normal field")
    if vectors.components != 3:
        raise ValueError("co-normal grids must hold 3-vectors")
    nu = vectors.values   # the fmax and fmin reductions skip NaN, which NotHarmonic names
    _require_bounded(np.fmax.reduce(nu, axis=(0, 1)), np.fmin.reduce(nu, axis=(0, 1)), "{0} nu")
    return _build(vectors, tol_harmonic)


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
