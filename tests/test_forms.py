"""Cubic form coefficients and the structural identities of the net."""

import dataclasses

import numpy as np
import pytest

import affmin as am
from affmin import forms
from affmin.errors import DomainMismatch, DomainTooSmall, IllDefinedForm
from affmin.forms import (
    CubicForm,
    FormDerivatives,
    a2_b1_closed_form,
    cubic_coefficients,
    normal_derivative_residuals,
    structural_residuals,
)
from affmin.geometry import affine_normal, face_volumes
from affmin.grids import TINY, VertexGrid


def setup_chain(surf):
    vols = face_volumes(surf)
    xi = affine_normal(surf, vols.areas)
    form = cubic_coefficients(surf, xi)
    return vols, xi, form


class TestCubicCoefficients:
    def test_paraboloid_coefficients_vanish(self, paraboloid):
        _, surf = paraboloid
        _, _, form = setup_chain(surf)
        np.testing.assert_array_equal(form.u_coeff.values, 0.0)
        np.testing.assert_array_equal(form.v_coeff.values, 0.0)

    def test_cubic_coefficients_nonzero(self, cubic):
        _, surf = cubic
        _, _, form = setup_chain(surf)
        assert np.abs(form.u_coeff.values).max() > 0.1
        assert np.abs(form.v_coeff.values).max() > 0.1

    @pytest.mark.parametrize("box", [(0, 1, 0, 5), (0, 5, 0, 1)])
    def test_thin_box_needs_three_vertices_per_direction(self, box):
        surf = am.integrate(am.hyperbolic_paraboloid(am.GridDomain(*box)))
        xi = affine_normal(surf, face_volumes(surf).areas)
        with pytest.raises(DomainTooSmall, match=r"at least 3 vertices along u and v") as err:
            cubic_coefficients(surf, xi)
        assert str(surf.domain) in str(err.value)

    def test_matches_direct_determinant(self, cubic, rng):
        """Oracle: the defining determinant evaluated with an explicit loop."""
        _, surf = cubic
        _, xi, form = setup_chain(surf)
        q = surf.positions
        dom = surf.domain
        for _ in range(8):
            u = int(rng.integers(dom.u_min + 1, dom.u_max))
            v = int(rng.integers(dom.v_min + 1, dom.v_max))
            e1m = q.vertex_at(u, v) - q.vertex_at(u - 1, v)
            e1p = q.vertex_at(u + 1, v) - q.vertex_at(u, v)
            a_direct = float(np.linalg.det(np.stack([e1m, e1p, xi.face_at(u, v)])))
            assert form.u_coeff.vertex_at(u, v) == pytest.approx(a_direct, rel=1e-9)
            e2p = q.vertex_at(u, v + 1) - q.vertex_at(u, v)
            e2m = q.vertex_at(u, v) - q.vertex_at(u, v - 1)
            b_direct = float(np.linalg.det(np.stack([e2p, e2m, xi.face_at(u, v)])))
            assert form.v_coeff.vertex_at(u, v) == pytest.approx(b_direct, rel=1e-9)

    def test_domains(self, cubic):
        _, surf = cubic
        vols, _, form = setup_chain(surf)
        dom = surf.domain
        assert form.u_coeff.domain == dom.shrink(du_lo=1, du_hi=1)
        assert form.v_coeff.domain == dom.shrink(dv_lo=1, dv_hi=1)
        # The cubic form is the fundamental data of the net plus its spreads.
        assert isinstance(form, am.FundamentalData) and form.domain == dom
        assert form.areas is vols.areas

    def test_form_of_another_box_is_rejected(self, cubic):
        _, surf = cubic
        _, _, form = setup_chain(surf)
        other = am.integrate(am.minimal_cubic(am.GridDomain(1, 9, 1, 8)))
        with pytest.raises(DomainMismatch) as err:
            CubicForm(form.areas, setup_chain(other)[2].u_coeff, form.v_coeff,
                      form.max_spread_u, form.max_spread_v)
        assert str(err.value) == (f"u_coeff domain {am.GridDomain(2, 8, 1, 8)} is not "
                                  f"{am.GridDomain(2, 7, 1, 8)}")

    def test_four_face_agreement(self, all_examples):
        for name, (_, surf) in all_examples.items():
            _, _, form = setup_chain(surf)
            assert max(form.max_spread_u, form.max_spread_v) <= 1e-9, name

    def test_corrupted_normal_is_ill_defined(self, cubic):
        _, surf = cubic
        vols, xi, _ = setup_chain(surf)
        bent = np.array(xi.values)
        bent[3, 3] += (0.5, 0.0, 0.0)
        with pytest.raises(IllDefinedForm):
            cubic_coefficients(surf, xi.with_values(bent))

    def test_ill_defined_form_names_the_largest_relative_spread(self, cubic, monkeypatch):
        p = cubic[1].positions
        rng = np.random.default_rng(11)
        q = VertexGrid(p.domain, p.values * (1.0 + 1e-7 * rng.standard_normal(p.values.shape)))
        areas = face_volumes(q).areas
        xi, dom = affine_normal(q, areas), q.domain
        spreads = {}   # A at every u-interior vertex, over its two or four faces
        for u in range(dom.u_min + 1, dom.u_max):
            for v in range(dom.v_min, dom.v_max + 1):
                e1m = q.vertex_at(u, v) - q.vertex_at(u - 1, v)
                e1p = q.vertex_at(u + 1, v) - q.vertex_at(u, v)
                faces = [(u + du, v + dv) for du in (-1, 0) for dv in (-1, 0)
                         if dom.v_min <= v + dv < dom.v_max]
                dets = [np.linalg.det(np.stack([e1m, e1p, xi.face_at(*f)])) for f in faces]
                scale = abs(np.mean(dets)) + np.mean([areas.face_at(*f) for f in faces])
                spreads[u, v] = (max(dets) - min(dets)) / scale
        worst = max(spreads, key=spreads.get)
        for tol in (1e-30, 1e-8, 1e-6):
            monkeypatch.setattr(forms, "TOL_FORMS", tol)
            with pytest.raises(IllDefinedForm) as err:
                cubic_coefficients(q, xi)
            assert err.value.vertex == worst
            assert err.value.spread == pytest.approx(spreads[worst], rel=1e-6)
        monkeypatch.setattr(forms, "TOL_FORMS", 1e-5)
        form = cubic_coefficients(q, xi)
        assert form.max_spread_u == err.value.spread

    def test_sphere_coefficients_separate(self, sphere):
        _, surf = sphere
        _, _, form = setup_chain(surf)
        # improper affine sphere: A depends only on u, B only on v
        assert np.abs(np.diff(form.u_coeff.values, axis=1)).max() <= 1e-10
        assert np.abs(np.diff(form.v_coeff.values, axis=0)).max() <= 1e-10


def structural_reference(q, f, a, b):
    """``per_identity`` of ``structural_residuals`` from whole-grid numpy forms:
    q the positions, f the areas, a and b the cubic coefficients."""
    e1, e2 = q[1:] - q[:-1], q[:, 1:] - q[:, :-1]
    quu, qvv = q[2:] - 2.0 * q[1:-1] + q[:-2], q[:, 2:] - 2.0 * q[:, 1:-1] + q[:, :-2]
    f1, f2 = f[1:] - f[:-1], f[:, 1:] - f[:, :-1]

    def magnitude(x):
        return np.abs(x).max(axis=-1)

    def residual(terms, floor):
        resid = magnitude(terms[0] - terms[1] - terms[2])
        scale = np.maximum.reduce([magnitude(t) for t in terms]
                                  + [floor, np.full_like(floor, TINY)])
        return float((resid / scale).max())

    per, q1, q2 = {}, e1[:, 1:-1], e2[1:-1]
    for vsign, vsl in (("+", np.s_[:, :-1]), ("-", np.s_[:, 1:])):
        for uside, f_face, e1_used in (("+", f[1:], e1[1:][vsl]), ("-", f[:-1], e1[:-1][vsl])):
            per[f"q11[v{vsign}][u{uside}]"] = residual(
                [f_face[..., None] * quu[vsl], f1[..., None] * e1_used, a[vsl][..., None] * q2],
                f_face * np.maximum(magnitude(e1_used), magnitude(q2)))
    for usign, usl in (("+", np.s_[:-1, :]), ("-", np.s_[1:, :])):
        for vside, f_face, e2_used in (("+", f[:, 1:], e2[:, 1:][usl]),
                                       ("-", f[:, :-1], e2[:, :-1][usl])):
            per[f"q22[u{usign}][v{vside}]"] = residual(
                [f_face[..., None] * qvv[usl], b[usl][..., None] * q1, f2[..., None] * e2_used],
                f_face * np.maximum(magnitude(q1), magnitude(e2_used)))
    return per


def perturbed(field, seed=5):
    """The positions of ``field``'s net, each moved by about 1e-9 relative."""
    p = am.integrate(field).positions
    rng = np.random.default_rng(seed)
    return VertexGrid(p.domain, p.values * (1.0 + 1e-9 * rng.standard_normal(p.values.shape)))


@pytest.mark.parametrize("net", [
    lambda: perturbed(am.minimal_cubic(am.GridDomain(1, 40, 1, 300))),
    lambda: am.integrate(am.helicoid(32, (0, 40), (0, 500))).positions,   # two row bands
    lambda: am.integrate(am.hyperbolic_paraboloid(am.GridDomain(0, 30, 0, 30))).positions,
    lambda: am.integrate(am.improper_sphere(am.GridDomain(31, 60, 0, 29))).positions,
], ids=["perturbed-cubic-40x300", "helicoid-41x501", "paraboloid-31", "sphere-30"])
def test_structural_residuals_equal_a_whole_grid_reference(net, monkeypatch):
    q = net()
    areas = face_volumes(q).areas
    monkeypatch.setattr(forms, "TOL_FORMS", 1.0)   # the perturbed net's form spreads
    form = cubic_coefficients(q, affine_normal(q, areas))
    report = structural_residuals(q, areas, form)
    expected = structural_reference(q.values, areas.values, form.u_coeff.values,
                                    form.v_coeff.values)
    # The report keeps the variants whose face and own edge sit on the high side.
    kept = {name[:-4]: value for name, value in expected.items() if name.endswith("+]")}
    assert list(report.per_identity.items()) == list(kept.items())


class TestStructuralResiduals:
    def test_integrated_surfaces(self, all_examples):
        for name, (_, surf) in all_examples.items():
            vols, _, form = setup_chain(surf)
            report = structural_residuals(surf, vols.areas, form)
            assert report.passed, (name, report.per_identity)
            assert report.max_residual <= 1e-9, name

    def test_paraboloid_exact(self, paraboloid):
        _, surf = paraboloid
        vols, _, form = setup_chain(surf)
        assert structural_residuals(surf, vols.areas, form).max_residual == 0.0

    def test_shifted_coefficient_detected(self, cubic):
        _, surf = cubic
        vols, _, form = setup_chain(surf)
        bumped = dataclasses.replace(
            form, u_coeff=form.u_coeff.with_values(form.u_coeff.values + 1.0))
        report = structural_residuals(surf, vols.areas, bumped)
        assert report.max_residual > 1e-4
        assert not report.passed


class TestClosedForms:
    def test_matches_differences(self, all_examples):
        for name, (_, surf) in all_examples.items():
            vols, xi, form = setup_chain(surf)
            _, report = a2_b1_closed_form(surf, xi, vols.areas, form)
            assert report.relative_gap <= 1e-9, name

    def test_paraboloid_all_zero(self, paraboloid):
        _, surf = paraboloid
        vols, xi, form = setup_chain(surf)
        derivs, report = a2_b1_closed_form(surf, xi, vols.areas, form)
        np.testing.assert_array_equal(derivs.u_coeff_dv.values, 0.0)
        assert report.max_gap == 0.0

    def test_sphere_derivatives_exactly_zero(self, sphere):
        # Constant affine normal collapses both closed-form determinants.
        _, surf = sphere
        vols, xi, form = setup_chain(surf)
        derivs, report = a2_b1_closed_form(surf, xi, vols.areas, form)
        np.testing.assert_array_equal(derivs.u_coeff_dv.values, 0.0)
        np.testing.assert_array_equal(derivs.v_coeff_du.values, 0.0)
        assert report.max_gap == 0.0

    def test_cubic_closed_vs_direct(self, cubic):
        _, surf = cubic
        vols, xi, form = setup_chain(surf)
        derivs, report = a2_b1_closed_form(surf, xi, vols.areas, form)
        direct_a2 = np.diff(form.u_coeff.values, axis=1)
        np.testing.assert_allclose(derivs.u_coeff_dv.values, direct_a2,
                                   rtol=1e-9, atol=1e-12)
        assert report.relative_gap <= 1e-9


class TestNormalDerivatives:
    def test_integrated_surfaces(self, all_examples):
        for name, (_, surf) in all_examples.items():
            vols, xi, form = setup_chain(surf)
            derivs, _ = a2_b1_closed_form(surf, xi, vols.areas, form)
            report = normal_derivative_residuals(surf, xi, vols.areas, derivs)
            assert report.passed, name
            assert report.max_residual <= 1e-9, name

    def test_sphere_exactly_zero(self, sphere):
        _, surf = sphere
        vols, xi, form = setup_chain(surf)
        derivs, _ = a2_b1_closed_form(surf, xi, vols.areas, form)
        report = normal_derivative_residuals(surf, xi, vols.areas, derivs)
        assert report.max_residual == 0.0


def test_improper_sphere_flag(sphere, helicoid):
    """Constant affine normal iff the cubic coefficients separate."""
    tol = 1e-10
    for (field, surf), expect_sphere in ((sphere, True), (helicoid, False)):
        vols, xi, form = setup_chain(surf)
        xi_spread = np.abs(xi.values - xi.values[0, 0]).max()
        a2 = np.abs(np.diff(form.u_coeff.values, axis=1)).max()
        b1 = np.abs(np.diff(form.v_coeff.values, axis=0)).max()
        scale = vols.areas.values.max()
        is_sphere = xi_spread <= tol
        assert is_sphere == expect_sphere
        assert (a2 <= tol * scale and b1 <= tol * scale) == expect_sphere


def test_nan_normal_is_ill_defined(cubic):
    _, surf = cubic
    _, xi, _ = setup_chain(surf)
    bent = np.array(xi.values)
    bent[4, 2, 2] = np.nan
    with pytest.raises(IllDefinedForm) as err:
        cubic_coefficients(surf, xi.with_values(bent))
    # Face (5, 3) feeds A at vertices (5, 3), (5, 4), (6, 3), (6, 4).
    assert err.value.vertex == (5, 3)
    assert np.isnan(err.value.spread)


class TestNanGates:
    """A NaN residual fails its report even when it is not the first term."""

    @staticmethod
    def nan_b(form):
        b = np.array(form.v_coeff.values)
        b[0, 0] = np.nan   # reaches only the B-side (q22, B_1) terms
        return dataclasses.replace(form, v_coeff=form.v_coeff.with_values(b))

    def test_structural_residuals(self, cubic):
        _, surf = cubic
        vols, _, form = setup_chain(surf)
        report = structural_residuals(surf, vols.areas, self.nan_b(form))
        assert not report.passed
        assert np.isnan(report.max_residual)
        assert report.worst_identity.startswith("q22")

    def test_closed_form_gap(self, cubic):
        _, surf = cubic
        vols, xi, form = setup_chain(surf)
        _, report = a2_b1_closed_form(surf, xi, vols.areas, self.nan_b(form))
        assert np.isnan(report.max_gap) and np.isnan(report.scale)
        assert not report.relative_gap <= 1e-9

    def test_normal_derivative_residuals(self, cubic):
        _, surf = cubic
        vols, xi, form = setup_chain(surf)
        derivs, _ = a2_b1_closed_form(surf, xi, vols.areas, form)
        b1 = np.array(derivs.v_coeff_du.values)
        b1[1, 1] = np.nan
        bent = FormDerivatives(derivs.u_coeff_dv, derivs.v_coeff_du.with_values(b1))
        report = normal_derivative_residuals(surf, xi, vols.areas, bent)
        assert not report.passed
        assert np.isnan(report.max_residual)


def _chain_inputs(surf):
    """Every grid argument of the four forms functions, computed on ``surf``."""
    vols, xi, form = setup_chain(surf)
    return {"areas": vols.areas, "xi": xi, "form": form,
            "derivs": a2_b1_closed_form(surf, xi, vols.areas, form)[0]}


@pytest.mark.parametrize("call, name, foreign", [
    (lambda surf, own, other: cubic_coefficients(surf, other["xi"]),
     "normals", (1, 9, 1, 8)),
    (lambda surf, own, other: structural_residuals(surf, other["areas"], own["form"]),
     "areas", (1, 9, 1, 8)),
    (lambda surf, own, other: a2_b1_closed_form(surf, own["xi"], own["areas"], other["form"]),
     "form", (1, 9, 1, 8)),
    (lambda surf, own, other: normal_derivative_residuals(surf, own["xi"], own["areas"],
                                                          other["derivs"]),
     "u_coeff_dv", (2, 8, 1, 8)),
], ids=["cubic_coefficients", "structural_residuals", "a2_b1_closed_form",
        "normal_derivative_residuals"])
def test_forms_functions_reject_a_grid_of_another_box(cubic, call, name, foreign):
    # Without the check, numpy raised "operands could not be broadcast".
    _, surf = cubic   # on (1, 8, 1, 8)
    other = am.integrate(am.minimal_cubic(am.GridDomain(1, 9, 1, 8)))
    own_domain = am.GridDomain(*foreign[:1], foreign[1] - 1, *foreign[2:])
    with pytest.raises(DomainMismatch) as err:
        call(surf, _chain_inputs(surf), _chain_inputs(other))
    assert str(err.value) == f"{name} domain {am.GridDomain(*foreign)} is not {own_domain}"
