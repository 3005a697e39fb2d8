"""Face volumes, affine normals, co-normal recovery and net certificates."""

import numpy as np
import pytest

from affmin.errors import DomainMismatch, NonPositiveVolume
from affmin.geometry import (
    affine_normal,
    asymptotic_certificate,
    duality_certificate,
    face_volumes,
    planarity_and_saddle,
    recover_conormal,
)
from affmin.conormal import minimal_cubic
from affmin.grids import GridDomain, VertexGrid
from affmin.lelieuvre import Immersion, integrate


def perturbed(surf, vertex, offset):
    dom = surf.domain
    values = np.array(surf.positions.values)
    values[vertex[0] - dom.u_min, vertex[1] - dom.v_min] += offset
    return Immersion(VertexGrid(dom, values))


class TestFaceVolumes:
    def test_paraboloid_unit_volumes(self, paraboloid):
        _, surf = paraboloid
        vols = face_volumes(surf)
        np.testing.assert_array_equal(vols.volumes.values, 1.0)
        np.testing.assert_array_equal(vols.areas.values, 1.0)

    def test_volume_matches_direct_determinant(self, cubic, rng):
        _, surf = cubic
        vols = face_volumes(surf)
        q = surf.positions
        dom = surf.domain
        for _ in range(10):
            u = int(rng.integers(dom.u_min, dom.u_max))
            v = int(rng.integers(dom.v_min, dom.v_max))
            base = q.vertex_at(u, v)
            expected = float(np.linalg.det(np.stack([
                q.vertex_at(u + 1, v) - base,
                q.vertex_at(u, v + 1) - base,
                q.vertex_at(u + 1, v + 1) - base,
            ])))
            assert vols.volumes.face_at(u, v) == pytest.approx(expected, rel=1e-12)

    def test_planar_grid_rejected(self):
        grid = VertexGrid.from_function(GridDomain(0, 3, 0, 3),
                                        lambda u, v: (u, v, 0.0))
        with pytest.raises(NonPositiveVolume) as err:
            face_volumes(grid)
        assert err.value.value == 0.0

    def test_helicoid_positive(self, helicoid):
        _, surf = helicoid
        assert face_volumes(surf).volumes.values.min() > 0


class TestAffineNormal:
    def test_paraboloid_unit_normal(self, paraboloid):
        _, surf = paraboloid
        vols = face_volumes(surf)
        xi = affine_normal(surf, vols.areas)
        np.testing.assert_array_equal(xi.values, np.broadcast_to(
            (0.0, 0.0, 1.0), xi.values.shape))

    def test_sphere_normal_constant(self, sphere):
        _, surf = sphere
        xi = affine_normal(surf, face_volumes(surf).areas)
        spread = np.abs(xi.values - xi.values[0, 0]).max()
        assert spread <= 1e-12

    def test_helicoid_normal_varies(self, helicoid):
        _, surf = helicoid
        xi = affine_normal(surf, face_volumes(surf).areas)
        assert np.abs(xi.values - xi.values[0, 0]).max() > 0.1

    def test_domain_mismatch(self, paraboloid, helicoid):
        _, surf = paraboloid
        _, other = helicoid
        with pytest.raises(DomainMismatch):
            affine_normal(surf, face_volumes(other).areas)


@pytest.mark.parametrize("certificate, message", [
    (lambda surf, nu, areas: planarity_and_saddle(surf, nu),
     "vectors domain GridDomain(u_min=0, u_max=8, v_min=0, v_max=8) is not "
     "GridDomain(u_min=0, u_max=6, v_min=0, v_max=6)"),
    (lambda surf, nu, areas: duality_certificate(nu, affine_normal(surf, areas), areas),
     "normals domain GridDomain(u_min=0, u_max=6, v_min=0, v_max=6) is not "
     "GridDomain(u_min=0, u_max=8, v_min=0, v_max=8)"),
], ids=["planarity_and_saddle", "duality_certificate"])
def test_certificate_rejects_a_conormal_on_another_domain(paraboloid, helicoid, certificate,
                                                          message):
    _, surf = paraboloid
    other, _ = helicoid
    with pytest.raises(DomainMismatch) as err:
        certificate(surf, other.vectors, face_volumes(surf).areas)
    assert str(err.value) == message


class TestRecoverConormal:
    def test_paraboloid_recovered_exactly(self, paraboloid):
        _, surf = paraboloid
        recovery = recover_conormal(surf)
        dom = surf.domain
        for u in dom.u_values():
            for v in dom.v_values():
                np.testing.assert_array_equal(
                    recovery.vectors.vertex_at(u, v), (-v, -u, 1.0))
        assert recovery.max_deviation == 0.0

    def test_round_trip_all_examples(self, all_examples):
        for name, (field, surf) in all_examples.items():
            recovery = recover_conormal(surf)
            gap = np.abs(recovery.vectors.values - field.vectors.values).max()
            assert gap <= 1e-9, name
            assert recovery.max_deviation <= 1e-10, name

    def test_perturbed_surface_reports_deviation(self, helicoid):
        _, surf = helicoid
        recovery = recover_conormal(perturbed(surf, (4, 4), (0.0, 0.0, 0.05)))
        assert recovery.max_deviation > 1e-3


class TestAsymptoticCertificate:
    def test_integrated_surfaces(self, all_examples):
        for name, (_, surf) in all_examples.items():
            report = asymptotic_certificate(surf)
            assert report.passed, name
            assert report.max_zero_residual <= 1e-9, name
            assert report.max_mixed_residual <= 1e-9, name

    def test_paraboloid_exact(self, paraboloid):
        _, surf = paraboloid
        report = asymptotic_certificate(surf)
        assert report.max_zero_residual <= 1e-14
        assert report.max_mixed_residual <= 1e-14

    def test_noise_fails_through_the_zero_residual_alone(self):
        # q12 = (q11 - q00) - e1 - e2 makes [e1', e2', q12] = M for either u- and
        # v-edge of a face of any quad net: the mixed residual reads rounding.
        surf = integrate(minimal_cubic(GridDomain(1, 12, 1, 10)))
        p = surf.positions.values
        noise = np.random.default_rng(0).standard_normal(p.shape)
        report = asymptotic_certificate(surf.positions.with_values(p + 0.05 * noise))
        assert not report.passed
        assert report.max_zero_residual > 1e3
        assert report.max_mixed_residual <= 1e-12

    def test_vertex_off_cross_plane_detected(self, paraboloid):
        _, surf = paraboloid
        report = asymptotic_certificate(perturbed(surf, (3, 3), (0.0, 0.0, 0.2)))
        assert report.max_zero_residual > 0.01
        assert not report.passed


class TestPlanarityAndSaddle:
    def test_helicoid_passes(self, helicoid):
        field, surf = helicoid
        report = planarity_and_saddle(surf, field.vectors)
        assert report.passed and report.saddle_ok

    def test_paraboloid_diagonals_alternate_unit(self, paraboloid):
        field, surf = paraboloid
        q = surf.positions
        nu = field.vectors
        u, v = 3, 3
        diagonals = [
            float((q.vertex_at(u + du, v + dv) - q.vertex_at(u, v))
                  @ nu.vertex_at(u, v))
            for du, dv in ((1, 1), (-1, 1), (-1, -1), (1, -1))
        ]
        assert diagonals == [1.0, -1.0, 1.0, -1.0]
        assert planarity_and_saddle(surf, nu).passed

    def test_flat_grid_fails_saddle_only(self):
        dom = GridDomain(0, 4, 0, 4)
        flat = VertexGrid.from_function(dom, lambda u, v: (u, v, 0.0))
        nu = VertexGrid.from_function(dom, lambda u, v: (0.0, 0.0, 1.0))
        report = planarity_and_saddle(flat, nu)
        assert report.max_orthogonality_residual == 0.0
        assert not report.saddle_ok
        assert len(report.saddle_failures) == 9

    def test_no_interior_is_vacuous(self):
        dom = GridDomain(0, 1, 0, 1)
        q = VertexGrid.from_function(dom, lambda u, v: (u, v, u * v))
        nu = VertexGrid.from_function(dom, lambda u, v: (-v, -u, 1.0))
        assert planarity_and_saddle(q, nu).passed


class TestDuality:
    def test_integrated_surfaces(self, all_examples):
        for name, (field, surf) in all_examples.items():
            vols = face_volumes(surf)
            xi = affine_normal(surf, vols.areas)
            report = duality_certificate(field.vectors, xi, vols.areas)
            assert report.passed, name
            assert report.max_pairing_residual <= 1e-9, name
            assert report.max_cross_residual <= 1e-9, name

    def test_paraboloid_pairing_exact(self, paraboloid):
        field, surf = paraboloid
        vols = face_volumes(surf)
        xi = affine_normal(surf, vols.areas)
        report = duality_certificate(field.vectors, xi, vols.areas)
        assert report.max_pairing_residual == 0.0

    def test_scaled_normal_detected(self, paraboloid):
        field, surf = paraboloid
        vols = face_volumes(surf)
        xi = affine_normal(surf, vols.areas)
        report = duality_certificate(
            field.vectors, xi.with_values(2.0 * xi.values), vols.areas)
        assert report.max_pairing_residual == pytest.approx(1.0)
        assert not report.passed


def test_area_density_bridge(all_examples):
    """F from the co-normal triple product equals sqrt(M) of the immersion."""
    for name, (field, surf) in all_examples.items():
        surface_side = face_volumes(surf).areas.values
        gap = np.abs(field.areas.values / surface_side - 1.0).max()
        assert gap <= 1e-9, name


def test_nan_position_fails_face_volumes(paraboloid):
    _, surf = paraboloid
    with pytest.raises(NonPositiveVolume) as err:
        face_volumes(perturbed(surf, (3, 4), (np.nan, 0.0, 0.0)))
    # (3, 4) is a corner of faces (2..3, 3..4); the first one in grid order is named.
    assert err.value.face == (2, 3)
    assert np.isnan(err.value.value)
