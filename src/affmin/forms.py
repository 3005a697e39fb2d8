"""Discrete cubic form coefficients and the structural identities they obey.

The cubic form assigns to each u-interior vertex the coefficient

    A(u,v) = [q1(u-1/2,v), q1(u+1/2,v), xi(adjacent face)]

and to each v-interior vertex

    B(u,v) = [q2(u,v+1/2), q2(u,v-1/2), xi(adjacent face)]

(the argument order of B matters for downstream signs).  Which of the up to
four adjacent faces supplies xi must not matter; the construction asserts
this and reports the average.  The second differences of the positions then
expand in the edge basis with coefficients built from F, A and B, and the
affine normal differentiates against A_2 = d2(A), B_1 = d1(B); both facts
are checked here as residual reports.  F, A and B are the fundamental data,
which fix the surface up to an affine map: a ``CubicForm`` is that record
plus the face-choice spreads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IllDefinedForm, NonConvexFace
from .geometry import edge_cross_products, face_volumes
from .grids import (TINY, BandMax, FaceGrid, GridDomain, UEdgeGrid, VEdgeGrid, VertexGrid, absmax,
                    as_positions, d1, d2, d11, d22, det3, dot3, face_choice_mean, mul3,
                    relative_residual, require_domain, require_positive, row_bands)

__all__ = [
    "TOL_FORMS",
    "FundamentalData",
    "CubicForm",
    "FormDerivatives",
    "cubic_coefficients",
    "StructuralReport",
    "structural_residuals",
    "ClosedFormReport",
    "a2_b1_closed_form",
    "NormalDerivativeReport",
    "normal_derivative_residuals",
]

# The spread of A, B over face choices / (|mean| + F); each forms residual / its largest term.
TOL_FORMS = 1e-8


@dataclass(frozen=True)
class FundamentalData:
    """Face area density ``areas`` (F) on the faces of the vertex box, and the cubic
    coefficients ``u_coeff`` (A) and ``v_coeff`` (B) on its u- and v-interior vertices."""

    areas: FaceGrid
    u_coeff: VertexGrid
    v_coeff: VertexGrid

    def __post_init__(self):
        dom = self.areas.domain
        require_domain(dom.shrink(du_lo=1, du_hi=1), u_coeff=self.u_coeff)
        require_domain(dom.shrink(dv_lo=1, dv_hi=1), v_coeff=self.v_coeff)
        require_positive(self.areas.values, dom, NonConvexFace)

    @property
    def domain(self) -> GridDomain:
        return self.areas.domain


@dataclass(frozen=True)
class CubicForm(FundamentalData):
    """The fundamental data of a net plus the worst relative face-choice spread
    of A (``max_spread_u``) and of B (``max_spread_v``)."""

    max_spread_u: float
    max_spread_v: float


@dataclass(frozen=True)
class FormDerivatives:
    """Staggered derivatives of the cubic coefficients.

    The coefficient derivatives equal d2(A) and d1(B) up to rounding;
    ``a2_b1_closed_form`` fills them from the closed-form determinants and
    certifies that agreement.
    """

    u_coeff_dv: VEdgeGrid   # A_2(u, v+1/2), u interior
    v_coeff_du: UEdgeGrid   # B_1(u+1/2, v), v interior


def _average(dets_by_face, shape, out, own, spreads: BandMax, lo):
    """Fill ``out[own]`` with a cubic coefficient averaged over face choices,
    from ((determinant, area), slice) pairs that cover a band of ``shape``,
    and offer ``spreads`` the spread of the choices relative to |mean| plus
    their mean area density (a NaN spread counts as largest)."""
    mean, spread = face_choice_mean(((det, sl) for (det, _), sl in dets_by_face), shape)
    f_mean, _ = face_choice_mean(((f, sl) for (_, f), sl in dets_by_face), shape)
    out[own], scale = mean[own], np.abs(mean[own]) + f_mean[own]
    spreads.add(spread[own] / np.maximum(scale, TINY), lo)


def _along(axis, sl):
    """The index that cuts ``sl`` from a grid along ``axis`` (0: u, 1: v)."""
    return (slice(None),) * axis + (sl,)


def _face_choices(cross, xi, f, axis):
    """((determinant, area), slice) per face choice of the coefficient with edge cross
    products ``cross`` on vertices interior along ``axis``: faces on the low, then the
    high side across the edges, each on the high, then the low side along them."""
    across = [_along(1 - axis, sl) for sl in (slice(None, -1), slice(1, None))]
    along = [_along(axis, sl) for sl in (slice(1, None), slice(None, -1))]
    return [((dot3(cross[c], xi[a]), f[a]), c) for c in across for a in along]


def cubic_coefficients(surface, normals: FaceGrid) -> CubicForm:
    """Cubic coefficients of an immersion given its affine normal field.

    Raises IllDefinedForm, naming the vertex of the largest spread (a NaN
    first, A before B), unless both spreads are at most ``TOL_FORMS``.  Only
    a form that passed is stored on the position grid with ``normals``.
    """
    q = as_positions(surface)
    require_domain(q.domain, normals=normals)
    return q.memo("cubic_coefficients", (normals,), lambda: _cubic_coefficients(q, normals))


def _cubic_coefficients(q: VertexGrid, normals: FaceGrid) -> CubicForm:
    dom = q.domain.require_interior("the cubic form")
    areas = face_volumes(q).areas
    a, b = np.empty((dom.n_u - 2, dom.n_v)), np.empty((dom.n_u, dom.n_v - 2))
    spreads = (BandMax(dom, 1, 0), BandMax(dom, 0, 1))
    for lo, band, (xi, f, a_out, b_out), own in row_bands(q, 1, 2, normals.values, areas.values,
                                                          a, b):
        cross_u, cross_v = edge_cross_products(d1(band).values, d2(band).values)
        _average(_face_choices(cross_u, xi, f, 0), cross_u.shape[:2], a_out, own, spreads[0], lo)
        _average(_face_choices(cross_v, xi, f, 1), cross_v.shape[:2], b_out, own, spreads[1], lo)
    for spread in spreads:   # A first, then B
        if not spread.value <= TOL_FORMS:
            raise IllDefinedForm(spread.index, spread.value)

    return CubicForm(
        areas=areas,
        u_coeff=VertexGrid(dom.shrink(du_lo=1, du_hi=1), a),
        v_coeff=VertexGrid(dom.shrink(dv_lo=1, dv_hi=1), b),
        max_spread_u=spreads[0].value,
        max_spread_v=spreads[1].value,
    )


@dataclass(frozen=True)
class StructuralReport:
    """Worst relative residual of the four second-difference expansions (``per_identity``)."""

    max_residual: float
    per_identity: dict
    worst_identity: str
    passed: bool


def structural_residuals(surface, areas: FaceGrid, form: CubicForm) -> StructuralReport:
    """Check F*q11 = F1*q1 + A*q2 with q2 at v+-1/2 (``q11[v+-]``) and F*q22 = B*q1 +
    F2*q2 with q1 at u+-1/2 (``q22[u+-]``), F and q1 (q2) read at u+1/2 (v+1/2).

    The u-1/2 (v-1/2) reading is the same vector for any positions, F, A and B:
    the two differ by F1*q11 - F1*(q1(u+1/2) - q1(u-1/2)) = 0.  Residuals are
    normalized by the largest participating term per stencil.  Every term,
    F1 = d1(F) and F2 = d2(F) included, is formed on row bands.
    """
    q = as_positions(surface)
    require_domain(q.domain, areas=areas, form=form)

    # The per-stencil scale is floored by F times the participating edge
    # lengths so identities whose every term vanishes (straight rulings,
    # constant F) register as satisfied instead of comparing noise to noise.
    per, hi, lo = {}, slice(1, None), slice(None, -1)
    for _, band, (f, a, b), _ in row_bands(q, 0, 2, areas.values, form.u_coeff.values,
                                           form.v_coeff.values):
        edges = (d1(band).values, d2(band).values)
        abs_edges = (absmax(edges[0]), absmax(edges[1]))
        for axis, second, coeff in ((0, d11(band).values, a), (1, d22(band).values, b)):
            high, across = _along(axis, hi), _along(axis, slice(1, -1))
            f_face, f_d = f[high], f[high] - f[_along(axis, lo)]   # F, and d1(F) or d2(F)
            for sign, side in (("+", lo), ("-", hi)):   # the across edge at +1/2, -1/2
                sl = _along(1 - axis, side)
                by_edge = {axis: (mul3(f_d, edges[axis][high][sl]), abs_edges[axis][high][sl]),
                           1 - axis: (mul3(coeff[sl], edges[1 - axis][across]),
                                      abs_edges[1 - axis][across])}
                (t1, m1), (t2, m2) = by_edge[0], by_edge[1]   # the q1 term first
                per.setdefault(f"q{axis + 1}{axis + 1}[{'vu'[axis]}{sign}]", []).append(
                    relative_residual([mul3(f_face, second[sl]), t1, t2],
                                      f_face * np.maximum(m1, m2)))

    per = {name: float(np.max(values)) for name, values in per.items()}
    worst = list(per)[int(np.argmax(list(per.values())))]   # a NaN counts as worst
    return StructuralReport(
        max_residual=per[worst],
        per_identity=per,
        worst_identity=worst,
        passed=per[worst] <= TOL_FORMS,
    )


@dataclass(frozen=True)
class ClosedFormReport:
    """Gap of closed-form A_2, B_1 to d2(A), d1(B); ``passed`` holds it to ``TOL_FORMS``."""

    max_gap: float
    scale: float
    relative_gap: float
    passed: bool


def a2_b1_closed_form(surface, normals: FaceGrid, areas: FaceGrid,
                      form: CubicForm) -> tuple[FormDerivatives, ClosedFormReport]:
    """Closed-form cubic-coefficient derivatives, checked against differences.

    A_2(u, v+1/2) = -F(u-1/2,v+1/2) [q1(u+1/2,v), xi(u-1/2,v+1/2), xi(u+1/2,v+1/2)]
    B_1(u+1/2, v) =  F(u+1/2,v-1/2) [q2(u,v+1/2), xi(u+1/2,v-1/2), xi(u+1/2,v+1/2)]

    These follow by differencing the cross-product identities
    q1(u-1/2,v) x q1(u+1/2,v) = A nu and q2(u,v+1/2) x q2(u,v-1/2) = B nu
    and expanding the shifted edges through the affine normal.  Both forms,
    their gap and their scale are taken on row bands; only the closed forms
    are kept.
    """
    q = as_positions(surface)
    require_domain(q.domain, normals=normals, areas=areas, form=form)
    a, b = form.u_coeff.values, form.v_coeff.values
    a2_closed = np.empty((a.shape[0], a.shape[1] - 1))
    b1_closed = np.empty((b.shape[0] - 1, b.shape[1]))
    gaps, scales = [], []
    for _, band, (xi, f, a_band, b_band, a2_out, b1_out), _ in row_bands(
            q, 0, 2, normals.values, areas.values, a, b, a2_closed, b1_closed):
        a2 = -f[:-1, :] * det3(d1(band).values[1:, :-1], xi[:-1, :], xi[1:, :])
        b1 = f[:, :-1] * det3(d2(band).values[:-1, 1:], xi[:, :-1], xi[:, 1:])
        a2_out[...], b1_out[...] = a2, b1
        for closed, direct in ((a2, a_band[:, 1:] - a_band[:, :-1]),   # d2(A), d1(B)
                               (b1, b_band[1:] - b_band[:-1])):
            scales += [np.abs(direct).max(), np.abs(closed).max()]
            direct -= closed
            gaps.append(np.abs(direct, out=direct).max())

    derivs = FormDerivatives(
        u_coeff_dv=VEdgeGrid(form.u_coeff.domain, a2_closed),
        v_coeff_du=UEdgeGrid(form.v_coeff.domain, b1_closed),
    )
    gap, scale = float(np.max(gaps)), float(np.max(scales))
    relative = float(gap / np.maximum(scale, TINY))
    return derivs, ClosedFormReport(gap, scale, relative, relative <= TOL_FORMS)


@dataclass(frozen=True)
class NormalDerivativeReport:
    """Residuals of F F xi_1 = A_2 q2 and F F xi_2 = B_1 q1, normalized.

    The affine normal differentiates inside the edge span with the cubic
    derivative as coefficient, matching the smooth structural equations of
    a vanishing-mean-curvature surface.
    """

    max_residual_u: float
    max_residual_v: float
    max_residual: float   # the larger, a NaN counting as larger
    passed: bool


def normal_derivative_residuals(surface, normals: FaceGrid, areas: FaceGrid,
                                derivs: FormDerivatives) -> NormalDerivativeReport:
    q = as_positions(surface)
    require_domain(q.domain, normals=normals, areas=areas)
    require_domain(q.domain.shrink(du_lo=1, du_hi=1), u_coeff_dv=derivs.u_coeff_dv)
    require_domain(q.domain.shrink(dv_lo=1, dv_hi=1), v_coeff_du=derivs.v_coeff_du)
    res = ([], [])
    # Floored by F F |xi| so constant-normal regions do not compare rounding
    # noise against rounding noise.
    for _, band, (xi, f, a2, b1), _ in row_bands(q, 0, 2, normals.values, areas.values,
                                                 derivs.u_coeff_dv.values,
                                                 derivs.v_coeff_du.values):
        abs_xi, edges = absmax(xi), (d1(band).values, d2(band).values)
        for axis, coeff_d in ((0, a2), (1, b1)):
            hi, lo, mid = (_along(axis, sl) for sl in (slice(1, None), slice(None, -1),
                                                       slice(1, -1)))
            ff = f[lo] * f[hi]
            res[axis].append(relative_residual(
                [mul3(ff, xi[hi] - xi[lo]), mul3(coeff_d, edges[1 - axis][mid])],
                ff * np.maximum(abs_xi[hi], abs_xi[lo]),
            ))
    res_u, res_v = float(np.max(res[0])), float(np.max(res[1]))
    worst = float(np.max([res_u, res_v]))
    return NormalDerivativeReport(
        max_residual_u=res_u,
        max_residual_v=res_v,
        max_residual=worst,
        passed=worst <= TOL_FORMS,
    )
