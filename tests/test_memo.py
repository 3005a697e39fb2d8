"""Per-grid memo: each quantity of a net is derived once and shared.

``face_volumes``, ``affine_normal`` and ``cubic_coefficients`` store their
results on the position grid (``Grid.memo``).  The affine normal and the cubic
form are stored only when their input is the one stored for the same grid;
foreign inputs are used once, and a failing call stores nothing.
"""

import numpy as np
import pytest

import affmin as am
from affmin.errors import IllDefinedForm, NonPositiveVolume
from affmin.grids import GridDomain, VertexGrid, as_positions


def fresh(surf):
    """The same positions on a new grid, with nothing stored yet."""
    p = as_positions(surf)
    return VertexGrid(p.domain, p.values)


def folded_cubic():
    p = np.array(am.integrate(am.minimal_cubic(GridDomain(1, 8, 1, 8))).positions.values)
    p[3, 3] += 50.0
    return VertexGrid(GridDomain(1, 8, 1, 8), p)


def test_face_volumes_is_computed_once(cubic):
    s = fresh(cubic[1])
    vols = am.face_volumes(s)
    assert am.face_volumes(s) is vols
    assert am.face_volumes(am.Immersion(s)) is vols
    assert am.face_volumes(fresh(cubic[1])) is not vols


def test_own_inputs_are_shared_by_every_caller(cubic):
    s = fresh(cubic[1])
    vols = am.face_volumes(s)
    xi = am.affine_normal(s, vols.areas)
    form = am.cubic_coefficients(s, xi)
    assert am.affine_normal(s, vols.areas) is xi
    assert am.cubic_coefficients(s, xi) is form
    data = am.extract_fundamental_data(s)
    assert data.areas is vols.areas
    assert data.u_coeff is form.u_coeff and data.v_coeff is form.v_coeff


def test_foreign_areas_are_neither_stored_nor_returned(cubic):
    s = fresh(cubic[1])
    areas = am.face_volumes(s).areas
    doubled = areas.with_values(2.0 * areas.values)
    half = am.affine_normal(s, doubled)
    np.testing.assert_array_equal(2.0 * half.values, am.affine_normal(fresh(s), areas).values)
    own = am.affine_normal(s, areas)
    assert own is not half
    assert am.affine_normal(s, doubled) is not half
    assert am.affine_normal(s, areas) is own
    # An equal copy of the own areas is foreign too: it is used, not stored.
    assert am.affine_normal(s, areas.with_values(areas.values)) is not own


def test_foreign_normals_are_neither_stored_nor_returned(cubic):
    s = fresh(cubic[1])
    xi = am.affine_normal(s, am.face_volumes(s).areas)
    doubled = xi.with_values(2.0 * xi.values)
    scaled = am.cubic_coefficients(s, doubled)
    own = am.cubic_coefficients(s, xi)
    assert own is not scaled
    np.testing.assert_array_equal(scaled.u_coeff.values, 2.0 * own.u_coeff.values)
    assert am.cubic_coefficients(s, doubled) is not scaled
    assert am.cubic_coefficients(s, xi) is own


def test_normals_from_foreign_areas_do_not_compute_volumes():
    # Every M is looked up, never computed, when deciding whether to store
    # xi, so a folded net whose own volumes fail still gets its normal.
    s = folded_cubic()
    with pytest.raises(NonPositiveVolume):
        am.face_volumes(s)
    areas = am.face_volumes(am.integrate(am.minimal_cubic(GridDomain(1, 8, 1, 8)))).areas
    xi = am.affine_normal(s, areas)
    assert np.isfinite(xi.values).all()
    assert s.memo("affine_normal") is None


def test_non_positive_volume_is_raised_on_every_call():
    s = folded_cubic()
    for _ in range(3):
        with pytest.raises(NonPositiveVolume):
            am.face_volumes(s)
    assert s.memo("face_volumes") is None


def test_tighter_tolerance_is_checked_again(cubic):
    p = cubic[1].positions
    rng = np.random.default_rng(11)
    s = VertexGrid(p.domain, p.values * (1.0 + 1e-7 * rng.standard_normal(p.values.shape)))
    xi = am.affine_normal(s, am.face_volumes(s).areas)
    loose = am.cubic_coefficients(s, xi, tol=1.0)
    assert am.cubic_coefficients(s, xi, tol=1.0) is loose
    for _ in range(2):
        with pytest.raises(IllDefinedForm):
            am.cubic_coefficients(s, xi)
