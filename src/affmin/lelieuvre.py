"""Integration of co-normal fields into immersions via discrete Lelieuvre steps.

The edge vectors of the immersion are cross products of adjacent co-normals,

    q1(u+1/2, v) =  nu(u,v) x nu(u+1,v)
    q2(u, v+1/2) = -nu(u,v) x nu(u,v+1),

and harmonicity of nu makes the two-form closed, so summing edge vectors from
a base vertex is path independent and produces a well-defined vertex grid of
positions.
"""

from dataclasses import dataclass

import numpy as np

from .grids import (TINY, BandMax, GridDomain, UEdgeGrid, VEdgeGrid, VertexGrid, absmax,
                    as_conormal, as_positions, cross3, d1, d2, empty3, require_domain, row_bands)

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


@dataclass(frozen=True)
class Immersion:
    """Vertex positions of an asymptotic quad net."""

    positions: VertexGrid

    def __post_init__(self):
        self.positions.domain.require_faces("immersion")
        if self.positions.components != 3:
            raise ValueError("immersions hold 3-vector positions")

    @property
    def domain(self) -> GridDomain:
        return self.positions.domain


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


def integrate(field, base_vertex=None, base_value=(0.0, 0.0, 0.0)) -> Immersion:
    """Sum the Lelieuvre edges of a ConormalField or co-normal VertexGrid into positions.

    The base vertex (default: the lower-left corner) receives ``base_value``.
    The sums run in u through the base vertex, then in v from there;
    harmonicity makes every other path agree up to rounding.
    """
    vectors = as_conormal(field)
    dom = vectors.domain
    if base_vertex is None:
        base_vertex = (dom.u_min, dom.v_min)
    base_value = np.asarray(base_value, dtype=float)
    if not dom.contains_vertex(*base_vertex):
        raise IndexError(f"base vertex {base_vertex} outside domain {dom}")
    ib = base_vertex[0] - dom.u_min
    jb = base_vertex[1] - dom.v_min

    # q1 is read on the base row only; every u-row's v-sum runs on its own.
    nu = vectors.values
    q = empty3((dom.n_u, dom.n_v, 3))
    _line_integral(cross3(nu[:-1, jb], nu[1:, jb]), ib, base_value, q[:, jb])
    for _, band, (q_out,), _ in row_bands(vectors, 0, 0, q):
        q2 = cross3(band.values[:, 1:], band.values[:, :-1])
        _line_integral(np.moveaxis(q2, 1, 0), jb, q_out[:, jb], np.moveaxis(q_out, 1, 0))
    return Immersion(VertexGrid(dom, q))


def path_independence_residual(field) -> float:
    """Max face obstruction to integrability; zero (to rounding) when harmonic.

    Accepts a ConormalField or a raw co-normal VertexGrid; the obstruction on
    face (u+1/2, v+1/2) is

        (nu(u+1,v) + nu(u,v+1)) x (nu(u+1,v+1) + nu(u,v)).
    """
    vectors = as_conormal(field)
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
    max_residual: float   # the larger, a NaN counting as larger
    edge_scale: float
    worst_edge: tuple
    passed: bool


def verify_lelieuvre(immersion, field) -> LelieuvreReport:
    """Check both edge equations; residuals are relative to the longest edge."""
    q, vectors = as_positions(immersion), as_conormal(field)
    require_domain(q.domain, field=vectors)
    res = (BandMax(q.domain), BandMax(q.domain))
    scale = []
    for lo, band, (nu,), _ in row_bands(q, 0, 1, vectors.values):
        q1, q2 = (edges.values for edges in lelieuvre_edges(VertexGrid(band.domain, nu)))
        res[0].add(absmax(d1(band).values - q1), lo)
        res[1].add(absmax(d2(band).values - q2), lo)
        scale += [np.abs(q1).max(), np.abs(q2).max()]
    scale = float(np.max(scale))

    side = int(np.argmax([res[0].value, res[1].value]))   # a NaN counts as worst
    worst = res[side].value
    return LelieuvreReport(
        max_residual_u=res[0].value,
        max_residual_v=res[1].value,
        max_residual=worst,
        edge_scale=scale,
        worst_edge=("uv"[side], res[side].index),
        passed=bool(worst <= TOL_INTEGRATE * np.maximum(scale, TINY)),
    )
