"""Per-grid memo: each quantity of a net is derived once and shared.

``face_volumes``, ``affine_normal`` and ``cubic_coefficients`` store their
results on the position grid (``Grid.memo``), each with the inputs it was
computed from: no inputs, the areas, the normals.  A call with the stored
inputs (``is``) gets the stored result; other inputs compute again and
replace it.  A gate runs inside its computation (every M > 0; the cubic
form's face-choice spreads within ``TOL_FORMS``), so a stored result is one
that passed it, and a computation that raises stores nothing and runs again.
"""

import numpy as np
import pytest

import affmin as am
from affmin import forms, geometry
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
    assert am.extract_fundamental_data(s) is form
    assert form.areas is vols.areas


def test_other_areas_replace_the_stored_normal(cubic):
    s = fresh(cubic[1])
    areas = am.face_volumes(s).areas
    doubled = areas.with_values(2.0 * areas.values)
    half = am.affine_normal(s, doubled)
    np.testing.assert_array_equal(2.0 * half.values, am.affine_normal(fresh(s), areas).values)
    assert am.affine_normal(s, doubled) is half
    own = am.affine_normal(s, areas)
    assert own is not half
    assert am.affine_normal(s, areas) is own
    assert am.affine_normal(s, doubled) is not half   # replaced: one entry per key
    # An equal copy of the stored areas is another input: it computes again.
    own = am.affine_normal(s, areas)
    assert am.affine_normal(s, areas.with_values(areas.values)) is not own


def test_other_normals_replace_the_stored_form(cubic):
    s = fresh(cubic[1])
    xi = am.affine_normal(s, am.face_volumes(s).areas)
    doubled = xi.with_values(2.0 * xi.values)
    scaled = am.cubic_coefficients(s, doubled)
    assert am.cubic_coefficients(s, doubled) is scaled
    own = am.cubic_coefficients(s, xi)
    assert own is not scaled
    np.testing.assert_array_equal(scaled.u_coeff.values, 2.0 * own.u_coeff.values)
    assert am.cubic_coefficients(s, xi) is own
    assert am.cubic_coefficients(s, doubled) is not scaled


def test_normals_from_foreign_areas_do_not_compute_volumes():
    # affine_normal reads only the areas passed in, so a folded net whose own
    # volumes fail still gets (and stores) its normal for another net's areas.
    s = folded_cubic()
    with pytest.raises(NonPositiveVolume):
        am.face_volumes(s)
    areas = am.face_volumes(am.integrate(am.minimal_cubic(GridDomain(1, 8, 1, 8)))).areas
    xi = am.affine_normal(s, areas)
    assert np.isfinite(xi.values).all()
    assert am.affine_normal(s, areas) is xi
    with pytest.raises(NonPositiveVolume):
        am.face_volumes(s)


def test_non_positive_volume_is_raised_on_every_call(monkeypatch):
    s = folded_cubic()
    computed, compute = [], geometry._face_volumes
    monkeypatch.setattr(geometry, "_face_volumes",
                        lambda q: computed.append(q) or compute(q))
    for _ in range(3):
        with pytest.raises(NonPositiveVolume):
            am.face_volumes(s)
    assert len(computed) == 3


def test_memo_rule():
    g = VertexGrid(GridDomain(0, 1, 0, 1), np.zeros((2, 2, 3)))
    a, b, calls = object(), object(), []

    def compute(value):
        return lambda: calls.append(value) or value

    assert g.memo("k", (a,), compute(1)) == 1
    assert g.memo("k", (a,), compute(2)) == 1   # the stored inputs: not computed
    assert g.memo("k", (b,), compute(3)) == 3   # other inputs replace the entry
    assert g.memo("k", (a,), compute(4)) == 4
    with pytest.raises(ZeroDivisionError):
        g.memo("k", (b,), lambda: 1 / 0)        # stores nothing
    assert g.memo("k", (a,), compute(5)) == 4
    assert g.memo("other", (), compute(6)) == 6 and g.memo("other", (), compute(7)) == 6
    assert calls == [1, 3, 4, 6]


def perturbed_cubic(cubic):
    """The cubic net with positions moved by 1e-7 relative: its cubic form
    has face-choice spreads of about 2e-6."""
    p = cubic[1].positions
    rng = np.random.default_rng(11)
    return VertexGrid(p.domain, p.values * (1.0 + 1e-7 * rng.standard_normal(p.values.shape)))


def test_ill_defined_form_is_raised_on_every_call(cubic):
    s = perturbed_cubic(cubic)
    xi = am.affine_normal(s, am.face_volumes(s).areas)
    raised = []
    for call in (lambda: am.cubic_coefficients(s, xi), lambda: am.extract_fundamental_data(s)) * 2:
        with pytest.raises(IllDefinedForm) as err:
            call()
        raised.append((err.value.vertex, err.value.spread))
    assert len(set(raised)) == 1


def test_a_failing_form_is_computed_again_and_stores_nothing(cubic, monkeypatch):
    s = perturbed_cubic(cubic)
    xi = am.affine_normal(s, am.face_volumes(s).areas)
    computed, compute = [], forms._cubic_coefficients
    monkeypatch.setattr(forms, "_cubic_coefficients",
                        lambda *args: computed.append(args) or compute(*args))
    for _ in range(3):
        with pytest.raises(IllDefinedForm):
            am.cubic_coefficients(s, xi)
    assert len(computed) == 3
    # A form that passes the gate is stored as itself and computed once.
    monkeypatch.setattr(forms, "TOL_FORMS", 1.0)
    form = am.cubic_coefficients(s, xi)
    assert am.cubic_coefficients(s, xi) is form and len(computed) == 4
    assert s.memo("cubic_coefficients", (xi,), lambda: None) is form
