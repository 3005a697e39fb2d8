"""Face volumes, affine normals, co-normal recovery and net certificates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affmin.errors import DomainMismatch, NonPositiveVolume
from affmin.geometry import (
    TOL_DUAL,
    affine_normal,
    asymptotic_certificate,
    duality_certificate,
    face_volumes,
    planarity_and_saddle,
    recover_conormal,
)
from affmin.conormal import helicoid, minimal_cubic
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
        assert report.saddle_count == 9
        assert report.saddle_failures == [(u, v) for u in (1, 2, 3) for v in (1, 2, 3)][:8]

    def test_no_interior_is_vacuous(self):
        dom = GridDomain(0, 1, 0, 1)
        q = VertexGrid.from_function(dom, lambda u, v: (u, v, u * v))
        nu = VertexGrid.from_function(dom, lambda u, v: (-v, -u, 1.0))
        assert planarity_and_saddle(q, nu).passed

    @pytest.mark.parametrize("seed", range(12))
    def test_saddle_report_equals_the_four_pair_reference(self, seed):
        # Small integers make many diagonal dot products exactly 0; NaN at a few
        # positions and co-normals makes some NaN.
        rng = np.random.default_rng(seed)
        dom = GridDomain(-2, 9, 3, 11)
        shape = (dom.n_u, dom.n_v, 3)
        q, nu = (rng.integers(-2, 3, shape).astype(float) if seed % 2 else
                 rng.standard_normal(shape) for _ in range(2))
        for values in (q, nu):
            values[tuple(rng.integers(0, (dom.n_u, dom.n_v, 3), (3, 3)).T)] = np.nan
        report = planarity_and_saddle(VertexGrid(dom, q), VertexGrid(dom, nu))
        failures = four_pair_saddle_failures(dom, q, nu)
        assert failures and len(failures) < (dom.n_u - 2) * (dom.n_v - 2)
        assert report.saddle_count == len(failures)
        assert report.saddle_failures == failures[:8]
        assert report.saddle_ok is report.passed is False

    def test_saddle_signs_alternate_where_the_fourth_product_underflows(self):
        # NE, NW, SW, SE = 1e-200, -1, 1, -1e-200 alternate, and NE.NW, NW.SW and
        # SW.SE are < 0; SE.NE = -1e-400 rounds to -0.0, which a fourth product fails.
        dom = GridDomain(0, 2, 0, 2)
        z = {(2, 2): 1e-200, (0, 2): -1.0, (0, 0): 1.0, (2, 0): -1e-200}
        q = VertexGrid.from_function(dom, lambda u, v: (u - 1.0, v - 1.0, z.get((u, v), 0.0)))
        nu = VertexGrid.from_function(dom, lambda u, v: (0.0, 0.0, 1.0))
        assert -1e-200 * 1e-200 == 0.0
        assert planarity_and_saddle(q, nu).passed


def four_pair_saddle_failures(dom, q, nu):
    """Interior vertices of positions ``q`` where the diagonal dot products NE, NW,
    SW, SE with co-normals ``nu`` do not give NE.NW, NW.SW, SW.SE and SE.NE all < 0."""
    center, nu = q[1:-1, 1:-1], nu[1:-1, 1:-1]
    diag = [np.einsum("ijk,ijk->ij", corner - center, nu)
            for corner in (q[2:, 2:], q[:-2, 2:], q[:-2, :-2], q[2:, :-2])]
    alternating = np.ones(center.shape[:2], dtype=bool)
    for a, b in zip(diag, diag[1:] + diag[:1]):
        alternating &= a * b < 0.0
    return [(dom.u_min + 1 + int(i), dom.v_min + 1 + int(j))
            for i, j in np.argwhere(~alternating)]


# Signs whose products neither underflow nor round to 0: +-0.0, NaN, +-inf, and
# magnitudes in [1e-150, 1e150].
SIGNS = (st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf])
         | st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150))


@settings(deadline=None)
@given(SIGNS, SIGNS, SIGNS, SIGNS)
def test_three_negative_sign_products_imply_the_fourth(ne, nw, sw, se):
    # NE.NW < 0 and NW.SW < 0 give NE and SW one sign, SW.SE < 0 gives SE the other;
    # a zero or NaN fails a product it takes part in, and each value is in one of three.
    three = ne * nw < 0.0 and nw * sw < 0.0 and sw * se < 0.0
    assert three == (three and se * ne < 0.0)


CORNER_NETS = pytest.mark.parametrize("make, corner", [
    (make, corner) for make in (lambda: minimal_cubic(GridDomain(1, 8, 1, 7)),
                                lambda: helicoid(16, (-4, 4), (0, 6)))
    for corner in ((0, 0), (-1, 0), (0, -1), (-1, -1))],
    ids=[f"{name}-{corner}" for name in ("cubic", "helicoid")
         for corner in ("min-min", "max-min", "min-max", "max-max")])


def duality_with_a_moved_corner(field, corner, move):
    """The duality report of ``field``'s net against its co-normal with nu at the box
    corner ``corner`` (an index pair of 0 and -1) moved by ``move(nu, far_u, far_v)``,
    far_u and far_v the u- and v-edge of the corner's face that do not touch it; and
    the (u, v) of that face."""
    surf = integrate(field)
    vols = face_volumes(surf)
    nu = np.array(field.vectors.values)
    (i, j), (fi, fj) = corner, (1 if k == 0 else -2 for k in corner)
    nu[i, j] += move(nu[i, j], nu[fi, fj] - nu[i, fj], nu[fi, fj] - nu[fi, j])
    report = duality_certificate(field.vectors.with_values(nu), affine_normal(surf, vols.areas),
                                 vols.areas)
    dom = field.domain
    return report, (dom.u_max - 1 if i else dom.u_min, dom.v_max - 1 if j else dom.v_min)


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

    @CORNER_NETS
    def test_a_corner_conormal_fails_its_one_face(self, make, corner):
        # nu at a box corner is read by one face only, at one corner pick of the
        # pairing and at one edge of each cross pick.
        report, face = duality_with_a_moved_corner(make(), corner, lambda nu, *far: 1e-6 * nu)
        assert report.max_pairing_residual > TOL_DUAL
        assert report.max_cross_residual > TOL_DUAL
        assert report.worst_pairing_face == report.worst_cross_face == face

    @pytest.mark.parametrize("edge", [0, 1])
    @CORNER_NETS
    def test_a_corner_conormal_moved_along_a_far_edge_fails_two_cross_picks(self, make, corner,
                                                                           edge):
        # Moved along the u- (v-) edge of its face that does not touch it, nu at a box
        # corner keeps nu . xi = 1.  Of the four cross picks only the two with the
        # corner's u- (v-) edge change: its other edge moves along the far edge that
        # it is crossed with, so each edge pick is needed.
        report, face = duality_with_a_moved_corner(make(), corner,
                                                   lambda nu, *far: 1e-6 * far[edge])
        assert report.max_pairing_residual <= TOL_DUAL
        assert report.max_cross_residual > TOL_DUAL
        assert report.worst_cross_face == face


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
