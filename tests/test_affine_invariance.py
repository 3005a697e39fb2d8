"""Property: a unimodular affine image of a valid net is a valid net.

The paper's objects are equi-affine: x -> L x + t with det L = 1 keeps every
face volume M, hence the affine area, and maps the co-normals to L^-T nu.
So on the image every certificate must still pass, the affine area must stay
the same, and ``affine_equivalence`` must recover (L, t).

Two residuals are not yet invariant; the strict xfail tests at the end show
how they fail, and start to pass (failing the run) once they are mended.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import affmin as am
from affmin.compatibility import TOL_COMPAT, TOL_EQUIV
from affmin.forms import TOL_FORMS
from affmin.geometry import TOL_ASYMPTOTIC, TOL_DUAL
from affmin.lelieuvre import TOL_INTEGRATE

EXAMPLES = ("paraboloid", "helicoid", "cubic", "sphere")


@st.composite
def unimodular_maps(draw):
    """A well-conditioned linear map with det exactly 1 (to rounding), and a shift."""
    linear = np.eye(3) + draw(hnp.arrays(np.float64, (3, 3), elements=st.floats(-0.6, 0.6)))
    det = np.linalg.det(linear)
    assume(det > 0.2 and np.linalg.cond(linear) < 20.0)
    translation = draw(hnp.arrays(np.float64, 3, elements=st.floats(-50.0, 50.0)))
    return linear / np.cbrt(det), translation


def assert_certificates_pass(surf, field):
    vols = am.face_volumes(surf)
    xi = am.affine_normal(surf, vols.areas)
    recovery = am.recover_conormal(surf)
    assert am.verify_lelieuvre(surf, field).passed
    closure_scale = max(float(np.abs(field.vectors.values).max()) ** 2, 1.0)
    assert am.path_independence_residual(field) <= TOL_INTEGRATE * closure_scale
    assert am.asymptotic_certificate(surf).max_mixed_residual <= TOL_ASYMPTOTIC
    assert recovery.max_deviation <= TOL_DUAL
    assert am.planarity_and_saddle(surf, field.vectors).passed
    assert am.duality_certificate(field.vectors, xi, vols.areas).passed
    form = am.cubic_coefficients(surf, xi)
    assert am.structural_residuals(surf, vols.areas, form).passed
    derivs, _ = am.a2_b1_closed_form(surf, xi, vols.areas, form)
    assert am.normal_derivative_residuals(surf, xi, vols.areas, derivs).passed
    assert am.compatibility_residuals(form).max <= TOL_COMPAT
    assert am.criticality_certificate(surf).passed


@given(name=st.sampled_from(EXAMPLES), affine=unimodular_maps())
@settings(max_examples=40, deadline=None)
def test_unimodular_image_keeps_area_map_and_certificates(all_examples, name, affine):
    field, surf = all_examples[name]
    linear, translation = affine
    p = surf.positions.values
    image = am.Immersion(surf.positions.with_values(p @ linear.T + translation))

    area = am.affine_area(surf)
    assert abs(am.affine_area(image) - area) <= 1e-12 * area

    found = am.affine_equivalence(surf, image)
    assert np.abs(found.linear - linear).max() <= TOL_EQUIV
    assert np.abs(found.translation - translation).max() <= TOL_EQUIV * max(
        1.0, float(np.abs(p).max()))

    mapped = field.vectors.with_values(field.vectors.values @ np.linalg.inv(linear))
    assert_certificates_pass(image, am.validate(mapped))


# A shear with det 1, and a shift: a plain unimodular image.
SHEAR = np.array([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.0, 0.7, 1.0]])
SHIFT = np.array([0.1, 0.2, 0.3])


def image_of(surf):
    return surf.positions.with_values(surf.positions.values @ SHEAR.T + SHIFT)


@pytest.mark.xfail(strict=True, reason="the asymptotic zero residual is an absolute "
                   "determinant, so rounding on a larger image exceeds 1e-9")
def test_asymptotic_zero_residual_of_an_image():
    surf = am.integrate(am.minimal_cubic(am.GridDomain(1, 12, 1, 12)))
    assert am.asymptotic_certificate(surf).passed   # exact: every residual is 0
    assert am.asymptotic_certificate(image_of(surf)).passed   # 1.5e-8


@pytest.mark.xfail(strict=True, reason="A_2 and B_1 vanish on the sphere, so the closed-form "
                   "gap is rounding noise relative to rounding noise")
def test_closed_form_gap_of_an_image(sphere):
    image = image_of(sphere[1])
    vols = am.face_volumes(image)
    xi = am.affine_normal(image, vols.areas)
    form = am.cubic_coefficients(image, xi)
    _, closed = am.a2_b1_closed_form(image, xi, vols.areas, form)
    assert closed.relative_gap <= TOL_FORMS   # 0.71
