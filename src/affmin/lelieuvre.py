"""Integration of co-normal fields into immersions via discrete Lelieuvre steps.

The edge vectors of the immersion are cross products of adjacent co-normals,

    q1(u+1/2, v) =  nu(u,v) x nu(u+1,v)
    q2(u, v+1/2) = -nu(u,v) x nu(u,v+1),

and harmonicity of nu makes the two-form closed, so summing edge vectors from
a base vertex is path independent and produces a well-defined vertex grid of
positions.
"""

from dataclasses import dataclass, field

import numpy as np

from .conormal import ConormalField
from .errors import DomainMismatch
from .grids import (TINY, BandMax, GridDomain, UEdgeGrid, VEdgeGrid, VertexGrid, absmax, cross3,
                    d1, d2, empty3, row_bands)

__all__ = [
    "TOL_INTEGRATE",
    "Immersion",
    "lelieuvre_edges",
    "integrate",
    "path_independence_residual",
    "verify_lelieuvre",
    "LelieuvreReport",
]

# Relative (to the longest edge) tolerance for edge-equation residuals.
TOL_INTEGRATE = 1e-10


class Immersion:
    """Vertex positions of an asymptotic quad net plus its integration anchor."""

    def __init__(self, positions: VertexGrid, base_vertex, base_value):
        positions.domain.require_faces("immersion")
        if positions.components != 3:
            raise ValueError("immersions hold 3-vector positions")
        self.positions = positions
        self.base_vertex = (int(base_vertex[0]), int(base_vertex[1]))
        self.base_value = np.asarray(base_value, dtype=float)

    @property
    def domain(self) -> GridDomain:
        return self.positions.domain

    def __repr__(self):
        return f"Immersion(domain={self.domain.as_tuple()}, base={self.base_vertex})"


def lelieuvre_edges(vectors: VertexGrid) -> tuple[UEdgeGrid, VEdgeGrid]:
    """Edge vectors prescribed by a co-normal vertex grid (not validated)."""
    nu = vectors.values
    q1 = cross3(nu[:-1, :], nu[1:, :])
    q2 = cross3(nu[:, 1:], nu[:, :-1])
    return UEdgeGrid(vectors.domain, q1), VEdgeGrid(vectors.domain, q2)


def _line_integral(steps: np.ndarray, anchor: int, start, out: np.ndarray):
    """Fill ``out`` with positions along grid lines (axis 0) given their steps,
    entry ``anchor`` holding ``start``; each sum runs outward from the anchor."""
    out[anchor] = start
    if anchor < len(out) - 1:
        ahead = np.cumsum(steps[anchor:], axis=0, out=out[anchor + 1:])
        np.add(start, ahead, out=ahead)
    if anchor > 0:
        behind = np.cumsum(steps[:anchor][::-1], axis=0, out=out[:anchor][::-1])
        np.subtract(start, behind, out=behind)


def integrate(field: ConormalField, base_vertex=None, base_value=None) -> Immersion:
    """Sum the Lelieuvre edge vectors into vertex positions.

    The base vertex (default: the lower-left corner) receives ``base_value``
    (default: the origin).  The sums run in u through the base vertex, then
    in v from there; harmonicity makes every other path agree up to rounding.
    """
    dom = field.domain
    if base_vertex is None:
        base_vertex = (dom.u_min, dom.v_min)
    if base_value is None:
        base_value = np.zeros(3)
    base_value = np.asarray(base_value, dtype=float)
    if not dom.contains_vertex(*base_vertex):
        raise IndexError(f"base vertex {base_vertex} outside domain {dom}")
    ib = base_vertex[0] - dom.u_min
    jb = base_vertex[1] - dom.v_min

    # q1 is read on the base row only; every u-row's v-sum runs on its own.
    nu = field.vectors.values
    q = empty3((dom.n_u, dom.n_v, 3))
    _line_integral(cross3(nu[:-1, jb], nu[1:, jb]), ib, base_value, q[:, jb])
    for _, band, rows, _ in row_bands(field.vectors):
        q2 = cross3(band.values[:, 1:], band.values[:, :-1])
        _line_integral(np.moveaxis(q2, 1, 0), jb, q[rows[0], jb], np.moveaxis(q[rows[0]], 1, 0))
    return Immersion(VertexGrid(dom, q), base_vertex, base_value)


def path_independence_residual(field) -> float:
    """Max face obstruction to integrability; zero (to rounding) when harmonic.

    Accepts a ConormalField or a raw co-normal VertexGrid; the obstruction on
    face (u+1/2, v+1/2) is

        (nu(u+1,v) + nu(u,v+1)) x (nu(u+1,v+1) + nu(u,v)).
    """
    vectors = field.vectors if isinstance(field, ConormalField) else field
    worst = []
    for _, band, _, _ in row_bands(vectors, after=1):
        nu = band.values
        obstruction = cross3(nu[1:, :-1] + nu[:-1, 1:], nu[1:, 1:] + nu[:-1, :-1])
        worst.append(np.abs(obstruction).max())
    return float(np.max(worst))


@dataclass(frozen=True)
class LelieuvreReport:
    """Residuals of the edge equations for an immersion/co-normal pair."""

    max_residual_u: float
    max_residual_v: float
    max_residual: float = field(init=False)   # the larger, a NaN counting as larger
    edge_scale: float
    worst_edge: tuple
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "max_residual",
                           float(np.max([self.max_residual_u, self.max_residual_v])))


def verify_lelieuvre(immersion: Immersion, field: ConormalField,
                     tol: float = TOL_INTEGRATE) -> LelieuvreReport:
    """Check both edge equations; residuals are relative to the longest edge."""
    if immersion.domain != field.domain:
        raise DomainMismatch(
            f"immersion domain {immersion.domain} != field domain {field.domain}"
        )
    res = (BandMax(immersion.domain), BandMax(immersion.domain))
    scale = []
    for lo, band, rows, _ in row_bands(immersion.positions, after=1):
        nu = VertexGrid(band.domain, field.vectors.values[rows[0]])
        q1, q2 = (edges.values for edges in lelieuvre_edges(nu))
        res[0].add(absmax(d1(band).values - q1), lo)
        res[1].add(absmax(d2(band).values - q2), lo)
        scale += [np.abs(q1).max(), np.abs(q2).max()]
    scale = float(np.max(scale))

    max_u, max_v = res[0].value, res[1].value
    side = int(np.argmax([max_u, max_v]))   # a NaN counts as worst
    return LelieuvreReport(
        max_residual_u=max_u,
        max_residual_v=max_v,
        edge_scale=scale,
        worst_edge=("uv"[side], res[side].index),
        passed=bool(np.max([max_u, max_v]) <= tol * np.maximum(scale, TINY)),
    )
