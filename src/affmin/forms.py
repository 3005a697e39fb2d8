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
are checked here as residual reports.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IllDefinedForm
from .geometry import face_volumes
from .grids import (TINY, BandMax, FaceGrid, UEdgeGrid, VEdgeGrid, VertexGrid, absmax,
                    as_positions, cross3, d1, d2, d11, d22, det3, dot3, face_choice_mean, mul3,
                    relative_residual, row_bands)

__all__ = [
    "TOL_FORMS",
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

# Relative agreement required between the face choices defining A and B.
TOL_FORMS = 1e-8


@dataclass(frozen=True)
class CubicForm:
    """Cubic form coefficients: u_coeff (A) on u-interior vertices, v_coeff (B)
    on v-interior vertices, each with the worst relative face-choice spread."""

    u_coeff: VertexGrid
    v_coeff: VertexGrid
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


class _Coefficient:
    """A cubic coefficient averaged over face choices, band by band, and the
    largest spread of the choices relative to |mean| plus their mean area
    density, with its vertex (a NaN spread counts as largest)."""

    def __init__(self, shape, domain, du, dv):
        self.mean, self.spread = np.empty(shape), BandMax(domain, du, dv)

    def add(self, dets_by_face, shape, rows, own, lo):
        """Fill ``rows`` of the mean from ((determinant, area), slice) pairs
        that cover a band of ``shape``."""
        mean, spread = face_choice_mean(((det, sl) for (det, _), sl in dets_by_face), shape)
        f_mean, _ = face_choice_mean(((f, sl) for (_, f), sl in dets_by_face), shape)
        mean, spread, scale = mean[own], spread[own], np.abs(mean[own]) + f_mean[own]
        self.mean[rows][own] = mean
        self.spread.add(spread / np.maximum(scale, TINY), lo)


def cubic_coefficients(surface, normals: FaceGrid, tol: float = TOL_FORMS) -> CubicForm:
    """Cubic coefficients of an immersion given its affine normal field.

    Raises IllDefinedForm, naming the vertex of the largest spread (a NaN
    first), unless ``max_spread_u`` and ``max_spread_v`` are at most ``tol``.
    Stored on the position grid, whatever ``tol``, when ``normals`` is the
    affine normal that ``affine_normal`` stored there; others are used once.
    """
    q = as_positions(surface)
    own = q.memo("affine_normal")
    if own is not None and normals is own:
        form, worst = q.memo("cubic_coefficients", lambda: _cubic_coefficients(q, normals))
    else:
        form, worst = _cubic_coefficients(q, normals)
    for spread, vertex in zip((form.max_spread_u, form.max_spread_v), worst):
        if not spread <= tol:
            raise IllDefinedForm(vertex, spread)
    return form


def _cubic_coefficients(q: VertexGrid, normals: FaceGrid):
    dom = q.domain.require_interior("the cubic form")
    areas = face_volumes(q).areas.values
    a = _Coefficient((dom.n_u - 2, dom.n_v), dom, 1, 0)
    b = _Coefficient((dom.n_u, dom.n_v - 2), dom, 0, 1)
    for lo, band, rows, own in row_bands(q, before=1, after=2):
        e1, e2 = d1(band).values, d2(band).values
        xi, f = normals.values[rows[1]], areas[rows[1]]
        cross_u = cross3(e1[:-1, :], e1[1:, :])            # u-interior vertices
        a.add((
            ((dot3(cross_u[:, :-1], xi[1:, :]), f[1:, :]), (slice(None), slice(None, -1))),
            ((dot3(cross_u[:, :-1], xi[:-1, :]), f[:-1, :]), (slice(None), slice(None, -1))),
            ((dot3(cross_u[:, 1:], xi[1:, :]), f[1:, :]), (slice(None), slice(1, None))),
            ((dot3(cross_u[:, 1:], xi[:-1, :]), f[:-1, :]), (slice(None), slice(1, None))),
        ), cross_u.shape[:2], rows[2], own, lo)

        cross_v = cross3(e2[:, 1:], e2[:, :-1])            # v-interior vertices
        b.add((
            ((dot3(cross_v[:-1, :], xi[:, 1:]), f[:, 1:]), (slice(None, -1), slice(None))),
            ((dot3(cross_v[:-1, :], xi[:, :-1]), f[:, :-1]), (slice(None, -1), slice(None))),
            ((dot3(cross_v[1:, :], xi[:, 1:]), f[:, 1:]), (slice(1, None), slice(None))),
            ((dot3(cross_v[1:, :], xi[:, :-1]), f[:, :-1]), (slice(1, None), slice(None))),
        ), cross_v.shape[:2], rows[0], own, lo)

    return CubicForm(
        u_coeff=VertexGrid(dom.shrink(du_lo=1, du_hi=1), a.mean),
        v_coeff=VertexGrid(dom.shrink(dv_lo=1, dv_hi=1), b.mean),
        max_spread_u=a.spread.value,
        max_spread_v=b.spread.value,
    ), (a.spread.index, b.spread.index)   # the vertices of the largest spreads


@dataclass(frozen=True)
class StructuralReport:
    """Worst relative residual of the eight second-difference expansions."""

    max_residual: float
    per_identity: dict
    worst_identity: str
    passed: bool


def structural_residuals(surface, areas: FaceGrid, form: CubicForm,
                         tol: float = TOL_FORMS) -> StructuralReport:
    """Check F*q11 = F1*q1 + A*q2 and F*q22 = B*q1 + F2*q2, all variants.

    Residuals are normalized by the largest participating term per stencil.
    Every term, F1 = d1(F) and F2 = d2(F) included, is formed on row bands.
    """
    q = as_positions(surface)

    # The per-stencil scale is floored by F times the participating edge
    # lengths so identities whose every term vanishes (straight rulings,
    # constant F) register as satisfied instead of comparing noise to noise.
    per = {}
    for _, band, rows, _ in row_bands(q, after=2):
        e1, e2 = d1(band).values, d2(band).values
        quu, qvv = d11(band).values, d22(band).values
        f = areas.values[rows[1]]
        f1, f2 = f[1:] - f[:-1], f[:, 1:] - f[:, :-1]   # d1(F), d2(F) on the band's faces
        a, b = form.u_coeff.values[rows[2]], form.v_coeff.values[rows[0]]
        abs_e1, abs_e2 = absmax(e1), absmax(e2)

        # q11 expansions (vertex u-interior; vsign picks the v+1/2 or v-1/2 row).
        q2_used, abs_q2 = e2[1:-1, :], abs_e2[1:-1, :]
        for vsign, vsl in ((+1, np.s_[:, :-1]), (-1, np.s_[:, 1:])):
            a_q2 = mul3(a[vsl], q2_used)
            for uside, f_face, e1_used, abs_e1_used in (
                (+1, f[1:, :], e1[1:, :][vsl], abs_e1[1:, :][vsl]),
                (-1, f[:-1, :], e1[:-1, :][vsl], abs_e1[:-1, :][vsl]),
            ):
                floor = f_face * np.maximum(abs_e1_used, abs_q2)
                name = f"q11[v{'+' if vsign > 0 else '-'}][u{'+' if uside > 0 else '-'}]"
                per.setdefault(name, []).append(relative_residual(
                    [mul3(f_face, quu[vsl]), mul3(f1, e1_used), a_q2], floor))

        # q22 expansions (vertex v-interior; usign picks the u+1/2 or u-1/2 column).
        q1_used, abs_q1 = e1[:, 1:-1], abs_e1[:, 1:-1]
        for usign, usl in ((+1, np.s_[:-1, :]), (-1, np.s_[1:, :])):
            b_q1 = mul3(b[usl], q1_used)
            for vside, f_face, e2_used, abs_e2_used in (
                (+1, f[:, 1:], e2[:, 1:][usl], abs_e2[:, 1:][usl]),
                (-1, f[:, :-1], e2[:, :-1][usl], abs_e2[:, :-1][usl]),
            ):
                floor = f_face * np.maximum(abs_q1, abs_e2_used)
                name = f"q22[u{'+' if usign > 0 else '-'}][v{'+' if vside > 0 else '-'}]"
                per.setdefault(name, []).append(relative_residual(
                    [mul3(f_face, qvv[usl]), b_q1, mul3(f2, e2_used)], floor))

    per = {name: float(np.max(values)) for name, values in per.items()}
    worst = list(per)[int(np.argmax(list(per.values())))]   # a NaN counts as worst
    return StructuralReport(
        max_residual=per[worst],
        per_identity=per,
        worst_identity=worst,
        passed=per[worst] <= tol,
    )


@dataclass(frozen=True)
class ClosedFormReport:
    """Gap between closed-form A_2, B_1 and the direct differences d2(A), d1(B)."""

    max_gap: float
    scale: float
    relative_gap: float


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
    a, b = form.u_coeff.values, form.v_coeff.values
    a2_closed = np.empty((a.shape[0], a.shape[1] - 1))
    b1_closed = np.empty((b.shape[0] - 1, b.shape[1]))
    gaps, scales = [], []
    for _, band, rows, _ in row_bands(q, after=2):
        xi, f = normals.values[rows[1]], areas.values[rows[1]]
        a_rows, b_rows = a[rows[2]], b[rows[0]]
        a2 = -f[:-1, :] * det3(d1(band).values[1:, :-1], xi[:-1, :], xi[1:, :])
        b1 = f[:, :-1] * det3(d2(band).values[:-1, 1:], xi[:, :-1], xi[:, 1:])
        a2_closed[rows[2]], b1_closed[rows[1]] = a2, b1
        for closed, direct in ((a2, a_rows[:, 1:] - a_rows[:, :-1]),   # d2(A), d1(B)
                               (b1, b_rows[1:] - b_rows[:-1])):
            scales += [np.abs(direct).max(), np.abs(closed).max()]
            direct -= closed
            gaps.append(np.abs(direct, out=direct).max())

    derivs = FormDerivatives(
        u_coeff_dv=VEdgeGrid(form.u_coeff.domain, a2_closed),
        v_coeff_du=UEdgeGrid(form.v_coeff.domain, b1_closed),
    )
    gap, scale = float(np.max(gaps)), float(np.max(scales))
    return derivs, ClosedFormReport(
        max_gap=gap, scale=scale, relative_gap=float(gap / np.maximum(scale, TINY))
    )


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
                                derivs: FormDerivatives,
                                tol: float = TOL_FORMS) -> NormalDerivativeReport:
    q = as_positions(surface)
    res_u, res_v = [], []
    # Floored by F F |xi| so constant-normal regions do not compare rounding
    # noise against rounding noise.
    for _, band, rows, _ in row_bands(q, after=2):
        xi, f = normals.values[rows[1]], areas.values[rows[1]]
        a2, b1 = derivs.u_coeff_dv.values[rows[2]], derivs.v_coeff_du.values[rows[1]]
        abs_xi = absmax(xi)
        ff_u = f[:-1, :] * f[1:, :]
        res_u.append(relative_residual(
            [mul3(ff_u, xi[1:, :] - xi[:-1, :]), mul3(a2, d2(band).values[1:-1, :])],
            ff_u * np.maximum(abs_xi[1:, :], abs_xi[:-1, :]),
        ))
        ff_v = f[:, :-1] * f[:, 1:]
        res_v.append(relative_residual(
            [mul3(ff_v, xi[:, 1:] - xi[:, :-1]), mul3(b1, d1(band).values[:, 1:-1])],
            ff_v * np.maximum(abs_xi[:, 1:], abs_xi[:, :-1]),
        ))
    res_u, res_v = float(np.max(res_u)), float(np.max(res_v))
    worst = float(np.max([res_u, res_v]))
    return NormalDerivativeReport(
        max_residual_u=res_u,
        max_residual_v=res_v,
        max_residual=worst,
        passed=worst <= tol,
    )
