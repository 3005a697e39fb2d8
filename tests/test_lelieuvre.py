"""Discrete Lelieuvre integration and its verification passes."""

import dataclasses

import numpy as np
import pytest

from affmin.errors import DomainMismatch
from affmin.geometry import affine_normal, duality_certificate, face_volumes, planarity_and_saddle
from affmin.grids import GridDomain, VertexGrid, as_positions
from affmin.lelieuvre import (
    Immersion,
    LelieuvreReport,
    _line_integral,
    integrate,
    lelieuvre_edges,
    path_independence_residual,
    verify_lelieuvre,
)


@pytest.mark.parametrize("wrap, error, message", [
    (as_positions, TypeError, "expected an Immersion or a 3-vector VertexGrid"),
    (Immersion, ValueError, "immersions hold 3-vector positions")],
    ids=["as_positions", "Immersion"])
def test_scalar_grid_is_no_surface(wrap, error, message):
    scalar = VertexGrid(GridDomain(0, 2, 0, 2), np.zeros((3, 3)))
    with pytest.raises(error, match=message):
        wrap(scalar)


def _normals(surf):
    areas = face_volumes(surf).areas
    return affine_normal(surf, areas), areas


@pytest.mark.parametrize("given, usual", [
    (lambda field, surf: duality_certificate(field, *_normals(surf)),
     lambda field, surf: duality_certificate(field.vectors, *_normals(surf))),
    (lambda field, surf: planarity_and_saddle(surf, field),
     lambda field, surf: planarity_and_saddle(surf, field.vectors)),
    (lambda field, surf: verify_lelieuvre(surf.positions, field),
     lambda field, surf: verify_lelieuvre(surf, field)),
    (lambda field, surf: verify_lelieuvre(surf, field.vectors),
     lambda field, surf: verify_lelieuvre(surf, field)),
], ids=["duality_certificate", "planarity_and_saddle", "verify_lelieuvre[positions]",
        "verify_lelieuvre[vectors]"])
def test_surface_and_conormal_arguments_take_either_kind(paraboloid, given, usual):
    # Each of these calls raised AttributeError on .values, .positions or .vectors.
    assert given(*paraboloid) == usual(*paraboloid)


@pytest.mark.parametrize("call", [
    lambda field, surf: integrate(surf),
    lambda field, surf: path_independence_residual(field.areas),
], ids=["integrate", "path_independence_residual"])
def test_a_surface_or_an_area_grid_is_no_conormal(paraboloid, call):
    with pytest.raises(TypeError, match="expected a ConormalField or a 3-vector co-normal "
                                        "VertexGrid"):
        call(*paraboloid)


class TestIntegrate:
    def test_paraboloid_is_exact(self, paraboloid):
        field, surf = paraboloid
        dom = surf.domain
        for u in dom.u_values():
            for v in dom.v_values():
                np.testing.assert_array_equal(
                    surf.positions.vertex_at(u, v), (u, v, u * v)
                )

    def test_translation_equivariance(self, helicoid):
        field, base = helicoid
        shifted = integrate(field, base_value=np.array([2.0, -1.0, 0.5]))
        np.testing.assert_allclose(
            shifted.positions.values, base.positions.values + [2.0, -1.0, 0.5],
            atol=1e-12,
        )

    @pytest.mark.parametrize("base", [(1.0, 2.0, 3.0), (1.0, 0.0, -1e5), (1.0, 0.0, -2.5e-3)],
                             ids=["unit", "large", "small"])
    def test_base_value_lands_on_the_corner(self, all_examples, base):
        # The corner (u_min, v_min) holds base_value itself, not a sum that
        # rounds it, whatever the magnitude of the value.
        for name, (field, _) in all_examples.items():
            dom = field.domain
            corner = integrate(field, base_value=base).positions.vertex_at(dom.u_min, dom.v_min)
            np.testing.assert_array_equal(corner, base, err_msg=name)

    def test_opposite_corner_base_agrees(self, all_examples):
        # Summed back from the far corner, along the row v = v_max and then
        # each u-row, every vertex is reached along another path; harmonicity
        # makes both agree with the corner-anchored run up to rounding.
        def tail_sums(steps, axis):
            """Sums of ``steps`` from each index to the end of ``axis``, then a 0."""
            sums = np.cumsum(np.flip(steps, axis), axis=axis)
            pad = [(0, 0)] * steps.ndim
            pad[axis] = (1, 0)
            return np.flip(np.pad(sums, pad), axis)

        for name, (field, _) in all_examples.items():
            a = integrate(field).positions.values
            q1, q2 = (edges.values for edges in lelieuvre_edges(field.vectors))
            b = (a[-1, -1] - tail_sums(q1[:, -1], 0))[:, None] - tail_sums(q2, 1)
            scale = np.abs(a).max()
            assert np.abs(a - b).max() <= 1e-10 * scale, name

    def test_negating_conormals_leaves_edges_unchanged(self, sphere):
        # Both edge cross products are quadratic in nu, hence even under
        # negation.  (The area density F is cubic, so -nu fails the F > 0
        # validation; the symmetry lives at the edge level.)
        field, _ = sphere
        negated = field.vectors.with_values(-field.vectors.values)
        q1, q2 = lelieuvre_edges(field.vectors)
        n1, n2 = lelieuvre_edges(negated)
        np.testing.assert_array_equal(q1.values, n1.values)
        np.testing.assert_array_equal(q2.values, n2.values)


@pytest.mark.parametrize("transpose", [False, True], ids=["rows", "strided"])
def test_line_integral_sums_outward_from_entry_0(transpose):
    # Each entry is ``start`` plus the steps before it, written through a
    # strided view as well, as ``integrate`` passes its v-lines.
    steps = np.arange(1.0, 13.0).reshape(4, 3) ** 2
    start = np.array([0.5, -1.0, 2.0])
    if transpose:
        out = np.moveaxis(np.zeros((3, 5)), 1, 0)
    else:
        out = np.zeros((5, 3))
    _line_integral(steps, start, out)
    expected = np.vstack([start, start + np.cumsum(steps, axis=0)])
    np.testing.assert_array_equal(out, expected)


class TestEdgeFormulas:
    def test_paraboloid_edges(self, paraboloid):
        field, _ = paraboloid
        q1, q2 = lelieuvre_edges(field.vectors)
        dom = field.domain
        for u in range(dom.u_min, dom.u_max):
            for v in range(dom.v_min, dom.v_max + 1):
                np.testing.assert_array_equal(q1.uedge_at(u, v), (1.0, 0.0, v))
        for u in range(dom.u_min, dom.u_max + 1):
            for v in range(dom.v_min, dom.v_max):
                np.testing.assert_array_equal(q2.vedge_at(u, v), (0.0, 1.0, u))

    def test_cubic_first_edge_vanishes_at_origin(self):
        # The raw cubic profile on a box containing the origin has the zero
        # co-normal there, so the first u-edge step is the zero vector; the
        # validated generator refuses that box, so test on the raw grid.
        grid = VertexGrid.from_function(
            GridDomain(0, 2, 0, 2), lambda u, v: (u, v, u * u + v * v)
        )
        q1, _ = lelieuvre_edges(grid)
        np.testing.assert_array_equal(q1.uedge_at(0, 0), (0.0, 0.0, 0.0))


class TestPathIndependence:
    def test_separable_fields_close(self, all_examples):
        for name, (field, _) in all_examples.items():
            scale = np.abs(field.vectors.values).max()
            assert path_independence_residual(field) <= 1e-12 * scale, name

    def test_paraboloid_exactly_zero(self, paraboloid):
        field, _ = paraboloid
        assert path_independence_residual(field) == 0.0

    def test_perturbed_vertex_positive(self, paraboloid):
        field, _ = paraboloid
        values = np.array(field.vectors.values)
        values[3, 3] += (0.0, 0.0, 0.25)
        assert path_independence_residual(
            field.vectors.with_values(values)) > 0.1


class TestVerify:
    def test_round_trip(self, all_examples):
        for name, (field, surf) in all_examples.items():
            report = verify_lelieuvre(surf, field)
            assert report.passed, name
            assert report.max_residual <= 1e-12 * max(report.edge_scale, 1.0), name

    def test_scaled_surface_detected(self, paraboloid):
        field, surf = paraboloid
        doubled = Immersion(surf.positions.with_values(2.0 * surf.positions.values))
        report = verify_lelieuvre(doubled, field)
        assert not report.passed
        assert report.max_residual >= 1.0

    def test_domain_mismatch(self, paraboloid, helicoid):
        field, _ = paraboloid
        _, other = helicoid
        with pytest.raises(DomainMismatch):
            verify_lelieuvre(other, field)

    def test_report_keeps_a_later_nan(self):
        # The record stores the worst value its certificate found, in the
        # field order of the report's JSON section.
        report = LelieuvreReport(max_residual_u=1e-3, max_residual_v=np.nan, max_residual=np.nan,
                                 edge_scale=1.0, worst_edge=("v", (0, 0)), passed=False)
        assert np.isnan(report.max_residual)
        assert [f.name for f in dataclasses.fields(report)] == [
            "max_residual_u", "max_residual_v", "max_residual", "edge_scale", "worst_edge",
            "passed"]

    def test_nan_only_in_v_residual_fails(self, paraboloid):
        # Two v-adjacent infinite positions: d1 is infinite there, d2 is NaN.
        field, surf = paraboloid
        values = np.array(surf.positions.values)
        values[3, 2:4, 1] = np.inf
        broken = Immersion(VertexGrid(surf.domain, values))
        with np.errstate(invalid="ignore"):
            report = verify_lelieuvre(broken, field)
        assert report.max_residual_u == np.inf and np.isnan(report.max_residual_v)
        assert np.isnan(report.max_residual)
        assert report.worst_edge == ("v", (3, 2))
        assert report.passed is False
