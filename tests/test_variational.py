"""Affine area functional, analytic gradient, FD probes and criticality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import affmin as am
from affmin.errors import NonPositiveVolume
from affmin.geometry import face_volumes, recover_conormal
from affmin.grids import GridDomain, VertexGrid
from affmin.lelieuvre import Immersion, integrate
from affmin.variational import (
    affine_area,
    area_gradient,
    criticality_certificate,
    fd_gradient_check,
)


def perturbed(surf, vertex, offset):
    dom = surf.domain
    values = np.array(surf.positions.values)
    values[vertex[0] - dom.u_min, vertex[1] - dom.v_min] += offset
    return Immersion(VertexGrid(dom, values))


class TestAffineArea:
    def test_paraboloid_unit_faces(self):
        surf = integrate(am.hyperbolic_paraboloid(GridDomain(0, 3, 0, 3)))
        assert affine_area(surf) == 9.0

    def test_single_face(self):
        dom = GridDomain(0, 1, 0, 1)
        grid = VertexGrid(dom, np.array([
            [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, 0.0, 0.0], [1.0, 1.0, 2.0]],
        ]))
        assert affine_area(grid) == pytest.approx(np.sqrt(2.0))

    def test_planar_rejected(self):
        grid = VertexGrid.from_function(GridDomain(0, 2, 0, 2),
                                        lambda u, v: (u, v, 0.0))
        with pytest.raises(NonPositiveVolume):
            affine_area(grid)


@given(st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_area_scales_with_power_three_halves(lam):
    surf = integrate(am.helicoid(16, (0, 5), (0, 5)))
    base = affine_area(surf)
    scaled = surf.positions.with_values(lam * surf.positions.values)
    assert affine_area(scaled) == pytest.approx(lam ** 1.5 * base, rel=1e-12)


class TestAreaGradient:
    def test_minimal_surfaces_are_critical(self, all_examples):
        for name, (_, surf) in all_examples.items():
            g = area_gradient(surf)
            mean_f = face_volumes(surf).areas.values.mean()
            assert np.abs(g.values).max() <= 1e-9 * mean_f, name

    def test_translation_invariance_exact(self, cubic):
        _, surf = cubic
        g0 = area_gradient(surf)
        moved = surf.positions.with_values(surf.positions.values + [3.0, -7.0, 11.0])
        np.testing.assert_array_equal(area_gradient(moved).values, g0.values)

    def test_perturbation_locality(self, paraboloid):
        _, surf = paraboloid
        center = (3, 3)
        g = area_gradient(perturbed(surf, center, (0.0, 0.0, 1e-3))).values
        dom = area_gradient(surf).domain
        nonzero = np.abs(g).max(axis=2) > 0
        for i, j in np.argwhere(nonzero):
            u, v = dom.u_min + i, dom.v_min + j
            assert abs(u - center[0]) <= 1 and abs(v - center[1]) <= 1
        ci, cj = center[0] - dom.u_min, center[1] - dom.v_min
        assert np.abs(g[ci, cj]).max() > 0

    def test_matches_recovered_diagonal_harmonicity(self, all_examples):
        # The gradient is half the mixed second difference of the recovered
        # co-normals along the diagonals.
        for name, (_, surf) in all_examples.items():
            g = area_gradient(surf)
            nu = recover_conormal(surf).vectors.values
            diag = 0.5 * (nu[:-2, :-2] + nu[2:, 2:] - nu[:-2, 2:] - nu[2:, :-2])
            scale = max(np.abs(nu).max(), 1.0)
            assert np.abs(g.values - diag).max() <= 1e-8 * scale, name


# float.hex of (analytic, numeric at h = 1e-5, numeric at h = 5e-6) for the
# probe along the unit gradient at the bumped center of each example.
PROBE_PINS = {
    "paraboloid": ("0x1.1daa3c1c22e3ep-8", "0x1.1daa3ace25700p-8", "0x1.1daa3bc8a3600p-8"),
    "helicoid": ("0x1.74724e6ac63e5p-5", "0x1.74724ea434b40p-5", "0x1.74724e7921d80p-5"),
    "cubic": ("0x1.3390ad8ff26b9p-5", "0x1.3390ad869b900p-5", "0x1.3390ad8d9c900p-5"),
    "sphere": ("0x1.29184ea752b8bp-9", "0x1.29184fd74ce00p-9", "0x1.29184ef351400p-9"),
}

# float.hex of (analytic, numeric) on cubic (1, 150) x (1, 140), bumped at
# each probed vertex; u = 117 and 118 sit on either side of a band boundary.
BAND_PROBE_PINS = {
    (117, 70): ("-0x1.04b5db9f4680fp+4", "-0x1.04b5db9f67300p+4"),
    (118, 71): ("-0x1.08eab1a09f8d5p+4", "-0x1.08eab1a0c0b00p+4"),
    (2, 139): ("-0x1.aec9889cab5d6p+3", "-0x1.aec9889ce3200p+3"),
    (149, 2): ("-0x1.f2e7205f11e19p+3", "-0x1.f2e7205f53000p+3"),
}


class TestFdGradientCheck:
    def test_matches_on_perturbed_surfaces(self, all_examples):
        for name, (_, surf) in all_examples.items():
            dom = surf.domain
            center = ((dom.u_min + dom.u_max) // 2, (dom.v_min + dom.v_max) // 2)
            bumped = perturbed(surf, center, (0.0, 0.0, 1e-3))
            gv = area_gradient(bumped).vertex_at(*center)
            direction = gv / np.linalg.norm(gv)
            probe = fd_gradient_check(bumped, center, direction, 1e-5)
            assert probe.gap <= 1e-6 * abs(probe.numeric), name

    def test_gap_is_second_order(self, cubic):
        _, surf = cubic
        bumped = perturbed(surf, (4, 4), (0.0, 0.0, 1e-3))
        gv = area_gradient(bumped).vertex_at(4, 4)
        direction = gv / np.linalg.norm(gv)
        coarse = fd_gradient_check(bumped, (4, 4), direction, 1e-5)
        fine = fd_gradient_check(bumped, (4, 4), direction, 5e-6)
        assert coarse.gap / fine.gap == pytest.approx(4.0, abs=1.0)

    def test_orthogonal_direction_gives_zero(self, cubic, rng):
        _, surf = cubic
        bumped = perturbed(surf, (4, 4), (0.0, 0.0, 1e-3))
        gv = area_gradient(bumped).vertex_at(4, 4)
        direction = np.cross(gv, rng.normal(size=3))
        direction /= np.linalg.norm(direction)
        probe = fd_gradient_check(bumped, (4, 4), direction, 1e-5)
        assert abs(probe.numeric) <= 1e-9 * np.linalg.norm(gv)

    def test_envelope_on_minimal_cubic(self, cubic, rng):
        _, surf = cubic
        dom = surf.domain
        for _ in range(20):
            u = int(rng.integers(dom.u_min + 1, dom.u_max))
            v = int(rng.integers(dom.v_min + 1, dom.v_max))
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            probe = fd_gradient_check(surf, (u, v), d, 1e-5)
            assert probe.gap <= 1e-7 * abs(probe.numeric) + 1e-10

    def test_envelope_on_all_surfaces(self, all_examples, rng):
        for name, (_, surf) in all_examples.items():
            dom = surf.domain
            mean_f = face_volumes(surf).areas.values.mean()
            for _ in range(20):
                u = int(rng.integers(dom.u_min + 1, dom.u_max))
                v = int(rng.integers(dom.v_min + 1, dom.v_max))
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                probe = fd_gradient_check(surf, (u, v), d, 1e-5)
                assert probe.gap <= 1e-7 * abs(probe.numeric) + 1e-8 * (1 + mean_f), name

    def test_probe_bits_are_pinned(self, all_examples):
        # The analytic value reads the gradient off the vertex's 3x3 box;
        # it must keep the bits of the whole-grid gradient.
        for name, (_, surf) in all_examples.items():
            dom = surf.domain
            center = ((dom.u_min + dom.u_max) // 2, (dom.v_min + dom.v_max) // 2)
            bumped = perturbed(surf, center, (0.0, 0.0, 1e-3))
            gv = area_gradient(bumped).vertex_at(*center)
            for h, numeric in zip((1e-5, 5e-6), PROBE_PINS[name][1:]):
                probe = fd_gradient_check(bumped, center, gv / np.linalg.norm(gv), h)
                assert (probe.analytic.hex(), float(probe.numeric).hex()) == (
                    PROBE_PINS[name][0], numeric), (name, h)

    def test_probe_bits_across_row_bands(self):
        surf = integrate(am.minimal_cubic(GridDomain(1, 150, 1, 140)))   # two row bands
        for vertex in BAND_PROBE_PINS:
            surf = perturbed(surf, vertex, (0.0, 0.0, 1e-3))
        for vertex, pins in BAND_PROBE_PINS.items():
            probe = fd_gradient_check(surf, vertex, (0.3, -0.5, 0.7), 1e-5)
            assert (probe.analytic.hex(), float(probe.numeric).hex()) == pins, vertex

    def test_boundary_vertex_rejected(self, cubic):
        _, surf = cubic
        with pytest.raises(IndexError):
            fd_gradient_check(surf, (surf.domain.u_min, 3), (0, 0, 1), 1e-5)

    def test_box_without_interior_names_the_check_and_the_box(self):
        surf = integrate(am.minimal_cubic(GridDomain(1, 6, 1, 2)))
        for call, what in ((lambda: am.area_gradient(surf), "the area gradient"),
                           (lambda: fd_gradient_check(surf, (3, 1), (0, 0, 1), 1e-5),
                            "the finite-difference gradient check")):
            with pytest.raises(am.DomainTooSmall) as err:
                call()
            assert str(err.value) == (f"{what} needs at least 3 vertices along u and v, "
                                      f"got 6 x 2 on {surf.domain}")

    def test_probe_crossing_degeneracy_rejected(self, paraboloid):
        _, surf = paraboloid
        with pytest.raises(NonPositiveVolume):
            fd_gradient_check(surf, (3, 3), (0.0, 0.0, 1.0), 2.0)


class TestCriticality:
    def test_examples_pass(self, all_examples):
        for name, (_, surf) in all_examples.items():
            report = criticality_certificate(surf)
            assert report.passed and not report.vacuous, name

    def test_perturbed_fails_and_names_vertex(self, helicoid):
        _, surf = helicoid
        report = criticality_certificate(perturbed(surf, (4, 4), (0.0, 0.0, 1e-3)))
        assert not report.passed
        assert abs(report.worst_vertex[0] - 4) <= 1
        assert abs(report.worst_vertex[1] - 4) <= 1

    def test_two_by_two_is_vacuous(self):
        surf = integrate(am.hyperbolic_paraboloid(GridDomain(0, 1, 0, 1)))
        report = criticality_certificate(surf)
        assert report.passed and report.vacuous
