"""Compatibility equations, reconstruction and affine-equivalence certificates."""

import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import affmin as am
from affmin.compatibility import (
    AffineMap,
    FundamentalData,
    affine_equivalence,
    canonical_seed,
    compatibility_residuals,
    extract_fundamental_data,
    reconstruct,
)
from affmin.errors import (
    DegenerateQuadrangle,
    DomainMismatch,
    IncompatibleData,
    NonConvexFace,
    NotEquivalent,
    SeedDeterminantMismatch,
)
from affmin.grids import FaceGrid, GridDomain, VertexGrid, det3
from affmin.lelieuvre import Immersion, integrate


def constant_data(domain, f=1.0, a=0.0, b=0.0):
    return FundamentalData(
        FaceGrid(domain, np.full((domain.n_u - 1, domain.n_v - 1), f)),
        VertexGrid(domain.shrink(du_lo=1, du_hi=1),
                   np.full((domain.n_u - 2, domain.n_v), a)),
        VertexGrid(domain.shrink(dv_lo=1, dv_hi=1),
                   np.full((domain.n_u, domain.n_v - 2), b)),
    )


def own_seed(surf):
    p = surf.positions.values
    return np.stack([p[0, 0], p[1, 0], p[0, 1], p[1, 1]])


def random_unimodular(rng):
    lower = np.eye(3)
    upper = np.eye(3)
    lower[np.tril_indices(3, -1)] = rng.integers(-3, 4, 3).astype(float)
    upper[np.triu_indices(3, 1)] = rng.integers(-3, 4, 3).astype(float)
    return lower @ upper


class TestResiduals:
    def test_flat_data_exact(self):
        res = compatibility_residuals(constant_data(GridDomain(0, 5, 0, 5)))
        assert tuple(res) == (0.0, 0.0, 0.0)

    def test_unit_coefficients_violate_first_equation(self):
        res = compatibility_residuals(
            constant_data(GridDomain(0, 5, 0, 5), f=1.0, a=1.0, b=1.0))
        assert res.r0 == pytest.approx(1.0)
        assert res.r1 == 0.0 and res.r2 == 0.0

    def test_extracted_data_compatible(self, all_examples):
        for name, (_, surf) in all_examples.items():
            res = compatibility_residuals(extract_fundamental_data(surf))
            assert res.max <= 1e-8, name

    def test_needs_interior(self):
        with pytest.raises(am.DomainTooSmall):
            compatibility_residuals(constant_data(GridDomain(0, 5, 0, 1)))


class TestFundamentalData:
    def test_rejects_nonpositive_area(self):
        dom = GridDomain(0, 3, 0, 3)
        areas = np.ones((3, 3))
        areas[1, 1] = -0.5
        with pytest.raises(NonConvexFace):
            FundamentalData(
                FaceGrid(dom, areas),
                VertexGrid(dom.shrink(du_lo=1, du_hi=1), np.zeros((2, 4))),
                VertexGrid(dom.shrink(dv_lo=1, dv_hi=1), np.zeros((4, 2))),
            )

    def test_rejects_wrong_stencil_domain(self):
        dom = GridDomain(0, 3, 0, 3)
        with pytest.raises(DomainMismatch):
            FundamentalData(
                FaceGrid(dom, np.ones((3, 3))),
                VertexGrid(dom, np.zeros((4, 4))),
                VertexGrid(dom.shrink(dv_lo=1, dv_hi=1), np.zeros((4, 2))),
            )


class TestCanonicalSeed:
    def test_unit_area(self):
        np.testing.assert_array_equal(canonical_seed(1.0)[3], (1.0, 1.0, 1.0))

    def test_area_two(self):
        seed = canonical_seed(2.0)
        np.testing.assert_array_equal(seed[3], (1.0, 1.0, 4.0))
        det = np.linalg.det(np.stack([seed[1] - seed[0], seed[2] - seed[0],
                                      seed[3] - seed[0]]))
        assert det == pytest.approx(4.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonical_seed(0.0)


MARCH_DIGESTS = {
    ("helicoid", "own"): "7f2cc842ddad326ca4d5dbd80fdf72bc0eef1b5b25b1a4fffa5cc09211d95741",
    ("helicoid", "canonical"): "e044b90b79b4789d8588343c1b5b7103b71cc48714fd650fecde429056fb1b2f",
    ("cubic", "own"): "34a5f13b36d50f5c5f5fdbd99a2cbf2403693b1c7ab0dbe4d1f63f8bec9d01d4",
    ("cubic", "canonical"): "3a4ed80782c7a22893826fb2cdc83b40a7889ff7fc60232a31dc4892a861b90f",
}


class TestReconstruct:
    def test_paraboloid_canonical_seed(self, paraboloid):
        _, surf = paraboloid
        data = extract_fundamental_data(surf)
        rebuilt = reconstruct(data)
        mapping = affine_equivalence(rebuilt, surf)
        assert abs(mapping.det - 1.0) <= 1e-6

    def test_own_seed_round_trip(self, all_examples):
        for name, (_, surf) in all_examples.items():
            data = extract_fundamental_data(surf)
            rebuilt = reconstruct(data, own_seed(surf))
            p = surf.positions.values
            scale = np.abs(p - p[0, 0]).max()
            gap = np.abs(rebuilt.positions.values - p).max()
            assert gap <= 1e-8 * scale, name

    def test_reextracted_data_matches(self, cubic):
        _, surf = cubic
        data = extract_fundamental_data(surf)
        rebuilt = reconstruct(data, own_seed(surf))
        again = extract_fundamental_data(rebuilt)
        np.testing.assert_allclose(again.areas.values, data.areas.values, rtol=1e-9)
        np.testing.assert_allclose(again.u_coeff.values, data.u_coeff.values,
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(again.v_coeff.values, data.v_coeff.values,
                                   rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("name, field", [
        ("helicoid", lambda: am.helicoid(32, (-10, 10), (0, 20))),
        ("cubic", lambda: am.minimal_cubic(GridDomain(1, 150, 1, 140))),   # two row bands
    ])
    def test_march_bits_on_rounded_data(self, name, field):
        # Neither net has dyadic data, so every marching step rounds: the
        # SHA-256 of the positions pins the order of every operation.
        surf = integrate(field())
        data = extract_fundamental_data(surf)
        for seed_name, seed in (("own", own_seed(surf)), ("canonical", None)):
            positions = reconstruct(data, seed).positions.values
            assert all(positions[..., k].flags.c_contiguous for k in range(3))
            digest = hashlib.sha256(positions.tobytes()).hexdigest()
            assert digest == MARCH_DIGESTS[name, seed_name], (name, seed_name)

    def test_bad_seed_rejected(self, paraboloid):
        _, surf = paraboloid
        data = extract_fundamental_data(surf)
        seed = canonical_seed(1.0)
        seed[3, 2] = 2.0   # breaks the corner determinant condition
        with pytest.raises(SeedDeterminantMismatch):
            reconstruct(data, seed)

    def test_corrupted_coefficient_detected(self, cubic):
        _, surf = cubic
        data = extract_fundamental_data(surf)
        bumped = np.array(data.u_coeff.values)
        dom = data.u_coeff.domain
        iu, jv = 3, 4   # a mid-grid vertex, away from the marching seed rows
        bumped[iu, jv] += 1.0
        corrupt = FundamentalData(
            data.areas, data.u_coeff.with_values(bumped), data.v_coeff)
        with pytest.raises(IncompatibleData) as err:
            reconstruct(corrupt, own_seed(surf))
        bad_u = dom.u_min + iu
        bad_v = dom.v_min + jv
        assert abs(err.value.face[0] - bad_u) <= 1
        assert abs(err.value.face[1] - bad_v) <= 1

    @pytest.mark.parametrize("which, index, on_strip", [
        ("A", (3, 0), True), ("A", (3, 1), True), ("A", (3, 4), False),
        ("B", (0, 3), True), ("B", (1, 3), True), ("B", (4, 3), False),
    ])
    def test_small_corruption_detected_on_and_off_the_strips(self, cubic, which, index, on_strip):
        # Rows 0-1 of A and columns 0-1 of B feed the strip march itself;
        # the rest reaches the co-normal's triple products only.
        _, surf = cubic
        data = extract_fundamental_data(surf)
        grid = data.u_coeff if which == "A" else data.v_coeff
        bumped = np.array(grid.values)
        bumped[index] += 1e-3 * data.areas.values.max()
        coeff = {"A": data.u_coeff, "B": data.v_coeff, which: grid.with_values(bumped)}
        corrupt = FundamentalData(data.areas, coeff["A"], coeff["B"])
        with pytest.raises(IncompatibleData) as err:
            reconstruct(corrupt, own_seed(surf))
        if not on_strip:
            assert err.value.face == (grid.domain.u_min + index[0],
                                      grid.domain.v_min + index[1])

    @pytest.mark.parametrize("n, u_range, v_range", [
        (16, (-10, 10), (0, 20)), (32, (-20, 20), (0, 40)),
        (64, (-75, 74), (0, 149)), (64, (-300, 300), (0, 40)),
    ])
    def test_helicoids_beyond_twenty_squared(self, n, u_range, v_range):
        # Each was rejected (gaps 7.4e-6 to 1.6) by a march over the whole box.
        surf = integrate(am.helicoid(n, u_range, v_range))
        data = extract_fundamental_data(surf)
        p = surf.positions.values
        gap = np.abs(reconstruct(data, own_seed(surf)).positions.values - p).max()
        assert gap <= 1e-8 * np.abs(p - p[0, 0]).max()
        assert abs(affine_equivalence(reconstruct(data), surf).det - 1.0) <= 1e-6

    def test_triple_products_of_the_conormal_are_the_data(self, all_examples):
        # F = [nu, nu(v+1), nu(u+1)], A = [nu(u-1), nu, nu(u+1)], B = [nu(v+1), nu, nu(v-1)].
        for name, (field, surf) in all_examples.items():
            nu = field.vectors.values
            data = extract_fundamental_data(surf)
            for triple, grid in ((det3(nu[:-1, :-1], nu[:-1, 1:], nu[1:, :-1]), data.areas),
                                 (det3(nu[:-2], nu[1:-1], nu[2:]), data.u_coeff),
                                 (det3(nu[:, 2:], nu[:, 1:-1], nu[:, :-2]), data.v_coeff)):
                gap = np.abs(triple - grid.values).max()
                assert gap <= 1e-9 * data.areas.values.max(), (name, grid.kind)

    def test_conormal_with_a_folded_face_rejected(self):
        # nu = (u, v, alpha(u) + beta(v)) has F > 0 on vertex row 0 and column
        # 0, which fix it, and F = -0.5 inside; the data claims +0.5 there.
        # With no bound on the gap, only the sign of the co-normal's F is left.
        alpha, beta = np.array([-2.0, -1, -1, -1]), np.array([-2.0, 1.5, 1.5, 1.5])
        i = np.arange(4.0)
        nu = np.stack(np.broadcast_arrays(i[:, None], i[None], alpha[:, None] + beta[None]), -1)
        dom = GridDomain(0, 3, 0, 3)
        folded = FundamentalData(
            FaceGrid(dom, np.abs(det3(nu[:-1, :-1], nu[:-1, 1:], nu[1:, :-1]))),
            VertexGrid(dom.shrink(du_lo=1, du_hi=1), det3(nu[:-2], nu[1:-1], nu[2:])),
            VertexGrid(dom.shrink(dv_lo=1, dv_hi=1), det3(nu[:, 2:], nu[:, 1:-1], nu[:, :-2])))
        with pytest.raises(IncompatibleData) as err:
            reconstruct(folded, tol_compat=np.inf)
        assert err.value.face == (1, 1) and err.value.gap == 0.25

    def test_seed_freedom_gives_unimodular_map(self, cubic):
        _, surf = cubic
        data = extract_fundamental_data(surf)
        one = reconstruct(data, own_seed(surf))
        two = reconstruct(data)   # canonical seed
        mapping = affine_equivalence(one, two)
        assert abs(abs(mapping.det) - 1.0) <= 1e-6

    def test_error_growth_stays_negligible_on_paraboloid(self):
        # Integer data: the march is exact, so the residual cannot grow at
        # all, let alone faster than linearly in the number of steps.
        for size in (10, 20, 30):
            field = am.hyperbolic_paraboloid(GridDomain(0, size, 0, size))
            surf = integrate(field)
            data = extract_fundamental_data(surf)
            rebuilt = reconstruct(data, own_seed(surf))
            assert np.abs(rebuilt.positions.values - surf.positions.values).max() == 0.0


EXAMPLE_FIELDS = {
    "paraboloid": lambda n_u, n_v: am.hyperbolic_paraboloid(GridDomain(0, n_u - 1, 0, n_v - 1)),
    "helicoid": lambda n_u, n_v: am.helicoid(16, (0, n_u - 1), (0, n_v - 1)),
    "cubic": lambda n_u, n_v: am.minimal_cubic(GridDomain(1, n_u, 1, n_v)),
    "sphere": lambda n_u, n_v: am.improper_sphere(GridDomain(1, n_u, 1 - n_v, 0)),
}


@settings(max_examples=25, deadline=None)
@given(family=st.sampled_from(sorted(EXAMPLE_FIELDS)), n_u=st.integers(3, 32),
       n_v=st.integers(3, 32), noise_seed=st.integers(0, 2**32 - 1))
def test_perturbed_profiles_round_trip(family, n_u, n_v, noise_seed):
    """Example profiles moved by up to 1e-2 per entry still reconstruct."""
    nu = EXAMPLE_FIELDS[family](n_u, n_v).vectors.values
    noise = np.random.default_rng(noise_seed).uniform(-1e-2, 1e-2, (n_u + n_v, 3))
    spec = am.SeparableConormalSpec(GridDomain(0, n_u - 1, 0, n_v - 1),
                                    nu[:, 0] + noise[:n_u], nu[0] - nu[0, 0] + noise[n_u:])
    try:
        field = am.from_separable(spec)
    except NonConvexFace:
        assume(False)
    surf = integrate(field)
    p = surf.positions.values
    rebuilt = reconstruct(extract_fundamental_data(surf), own_seed(surf))
    assert np.abs(rebuilt.positions.values - p).max() <= 1e-8 * np.abs(p - p[0, 0]).max()


class TestAffineEquivalence:
    def test_constructed_equivalence_recovered(self, helicoid, rng):
        _, surf = helicoid
        linear = random_unimodular(rng)
        shift = rng.uniform(-5, 5, 3)
        moved = Immersion(
            surf.positions.with_values(
                surf.positions.values @ linear.T + shift),
            surf.base_vertex, linear @ surf.base_value + shift,
        )
        mapping = affine_equivalence(surf, moved)
        np.testing.assert_allclose(mapping.linear, linear, atol=1e-9)
        np.testing.assert_allclose(mapping.translation, shift, atol=1e-8)
        assert mapping.det == pytest.approx(1.0, abs=1e-9)

    def test_different_surfaces_not_equivalent(self, cubic):
        _, surf = cubic
        dom = surf.domain
        other = integrate(am.helicoid(16, (dom.u_min, dom.u_max),
                                      (dom.v_min, dom.v_max)))
        with pytest.raises(NotEquivalent):
            affine_equivalence(surf, other)

    def test_domain_mismatch(self, cubic, paraboloid):
        _, a = cubic
        _, b = paraboloid
        with pytest.raises(DomainMismatch):
            affine_equivalence(a, b)

    def test_degenerate_quadrangle(self):
        dom = GridDomain(0, 2, 0, 2)
        flat = VertexGrid.from_function(dom, lambda u, v: (u, v, 0.0))
        surf = Immersion(flat, (0, 0), np.zeros(3))
        with pytest.raises(DegenerateQuadrangle):
            affine_equivalence(surf, surf)

    def test_map_apply(self):
        mapping = AffineMap(2.0 * np.eye(3), np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(mapping.apply(np.array([1.0, 1.0, 1.0])),
                                      (3.0, 2.0, 2.0))
        assert mapping.det == pytest.approx(8.0)


class TestNanGates:
    def test_fundamental_data_rejects_nan_area(self, paraboloid):
        _, surf = paraboloid
        data = extract_fundamental_data(surf)
        areas = np.array(data.areas.values)
        areas[2, 5] = np.nan
        with pytest.raises(NonConvexFace) as err:
            FundamentalData(data.areas.with_values(areas), data.u_coeff, data.v_coeff)
        assert err.value.face == (2, 5)

    def test_reconstruct_rejects_overflowing_march(self, paraboloid):
        _, surf = paraboloid
        data = extract_fundamental_data(surf)
        shifted = FundamentalData(
            data.areas,
            data.u_coeff.with_values(data.u_coeff.values + 1e150),
            data.v_coeff.with_values(data.v_coeff.values + 1e150),
        )
        with np.errstate(all="ignore"), pytest.raises(IncompatibleData):
            reconstruct(shifted)

    def test_nan_seed_rejected_before_marching(self, paraboloid):
        _, surf = paraboloid
        data = extract_fundamental_data(surf)
        seed = canonical_seed(1.0)
        seed[3, 2] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(SeedDeterminantMismatch) as err:
            reconstruct(data, seed)
        assert np.isnan(err.value.actual)

    def test_nan_seed_rejected_without_a_floating_point_error(self, paraboloid):
        _, surf = paraboloid
        data = extract_fundamental_data(surf)
        seed = canonical_seed(1.0)
        seed[3, 2] = np.nan
        with np.errstate(all="raise"), pytest.raises(SeedDeterminantMismatch) as err:
            reconstruct(data, seed)
        assert np.isnan(err.value.actual)

    def test_residual_max_keeps_a_later_nan(self):
        data = constant_data(GridDomain(0, 5, 0, 5))
        b = np.array(data.v_coeff.values)
        b[0, 1] = np.nan   # outside r0's stencils, inside r1's
        res = compatibility_residuals(
            FundamentalData(data.areas, data.u_coeff, data.v_coeff.with_values(b)))
        assert res.r0 == 0.0 and np.isnan(res.r1)
        assert np.isnan(res.max)
        assert not res.max <= 1e-8

    def test_equivalence_rejects_nan_vertex(self, paraboloid):
        _, surf = paraboloid
        values = np.array(surf.positions.values)
        values[4, 2, 0] = np.nan
        broken = Immersion(VertexGrid(surf.domain, values), surf.base_vertex,
                           surf.base_value)
        for qa, qb in ((broken, surf), (surf, broken)):
            with pytest.raises(NotEquivalent) as err:
                affine_equivalence(qa, qb)
            assert err.value.vertex == (4, 2)
            assert np.isnan(err.value.gap)
