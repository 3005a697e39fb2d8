"""Component-wise 3-vector kernels: bit-identical to the numpy forms they replace.

``absmax``, ``cross3`` and ``norm3`` must give the very bits of
``np.abs(x).max(axis=-1)``, ``np.cross`` and ``np.linalg.norm(x, axis=-1)``,
``dot3`` those of ``np.einsum`` on interleaved vectors, and ``mul3``/``div3``
those of ``s[..., None] * v`` and ``v / s[..., None]``, on any memory layout,
so the certificates below are pinned as ``float.hex`` strings: non-dyadic
residuals that the golden artifact digests of the paraboloid do not cover.
Every 3-vector grid that the package produces is stored as component planes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import affmin as am
from affmin.gridio import read_grid, write_grid
from affmin.grids import VertexGrid, absmax, cross3, div3, dot3, empty3, mul3, norm3

SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e300,
                    1.0, -3.5, 0.1])


def assert_same_bits(got, expected):
    got = np.asarray(got)
    expected = np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got, expected, equal_nan=True)
    # array_equal calls -0.0 equal to 0.0; the sign bits must agree as well.
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def check_all(a, b):
    with np.errstate(all="ignore"):
        assert_same_bits(absmax(a), np.abs(a).max(axis=-1))
        assert_same_bits(norm3(a), np.linalg.norm(a, axis=-1))
        assert_same_bits(cross3(a, b), np.cross(a, b))


@pytest.fixture()
def pair(rng):
    scale = np.exp(rng.uniform(-30, 30, (2, 17, 13, 3)))
    return rng.standard_normal((2, 17, 13, 3)) * scale


class TestLayouts:
    def test_contiguous(self, pair):
        check_all(pair[0], pair[1])

    def test_strided_slices(self, pair):
        check_all(pair[0][1::2, 1:], pair[1][:-1:2, :-1])
        check_all(pair[0][:-1, :-1], pair[1][1:, 1:])

    def test_component_major_views(self, rng):
        a = np.moveaxis(rng.standard_normal((3, 9, 7)), 0, -1)
        b = np.moveaxis(rng.standard_normal((3, 9, 7)), 0, -1)
        check_all(a, b)

    def test_broadcast_shapes(self, rng):
        a = rng.standard_normal((4, 1, 3))
        b = rng.standard_normal((5, 3))
        with np.errstate(all="ignore"):
            assert_same_bits(cross3(a, b), np.cross(a, b))
            assert_same_bits(cross3(b[0], a), np.cross(b[0], a))

    def test_single_vectors(self):
        a = np.array([0.1, -2.0, 3.0])
        b = np.array([1e-3, 7.0, -0.25])
        check_all(a, b)
        assert_same_bits(cross3([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), [0.0, 0.0, 1.0])

    def test_length_one_and_longer_last_axis(self, rng):
        for n in (1, 2, 5):
            x = rng.standard_normal((4, 6, n))
            assert_same_bits(absmax(x), np.abs(x).max(axis=-1))


class TestSpecialValues:
    def test_every_triple_of_special_values(self):
        grid = np.stack(np.meshgrid(SPECIAL, SPECIAL, SPECIAL, indexing="ij"), axis=-1)
        a = grid.reshape(-1, 3)
        check_all(a, a[::-1])
        check_all(a, np.roll(a, 7, axis=0))


@st.composite
def vector_pairs(draw):
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=6)) + (3,)
    values = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    a = draw(hnp.arrays(np.float64, shape, elements=values))
    b = draw(hnp.arrays(np.float64, shape, elements=values))
    return a, b


@given(vector_pairs())
@settings(max_examples=150, deadline=None)
def test_random_shapes_and_values(pair):
    check_all(*pair)


def check_scalar_products(s, v):
    with np.errstate(all="ignore"):
        got, expected = mul3(s, v), s[..., None] * v
        assert_same_bits(div3(v, s), v / s[..., None])
    # Of two NaN factors, numpy's broadcast product returns either one, by the
    # element's place in its vector loop; only there may the NaN signs differ.
    both_nan = np.isnan(s)[..., None] & np.isnan(v)
    assert_same_bits(np.where(both_nan, np.nan, got), np.where(both_nan, np.nan, expected))


class TestScalarProducts:
    def test_contiguous(self, pair):
        check_scalar_products(pair[0][..., 0], pair[1])

    def test_strided_slices(self, pair):
        check_scalar_products(pair[0][1::2, 1:, 2], pair[1][:-1:2, :-1])
        check_scalar_products(pair[0][:-1, :-1, 1], pair[1][1:, 1:])

    def test_broadcast_shapes(self, rng):
        s, v = rng.standard_normal((4, 1)), rng.standard_normal((5, 3))
        check_scalar_products(s, v)
        check_scalar_products(rng.standard_normal(5), v)
        check_scalar_products(np.float64(0.3), v)

    def test_every_pair_of_special_values(self):
        s, v = np.meshgrid(SPECIAL, SPECIAL, indexing="ij")
        check_scalar_products(s, np.stack([v, v[::-1], np.roll(v, 5, axis=1)], axis=-1))


def planes(x):
    """A copy of ``x`` stored as component planes."""
    out = empty3(x.shape)
    out[...] = x
    return out


# Views holding the values of x in each memory layout a kernel may meet.
LAYOUTS = {
    "interleaved": np.ascontiguousarray,
    "planar": planes,
    "sliced interleaved": lambda x: np.stack([x, x], axis=-2)[..., 1, :],
    "sliced planar": lambda x: planes(np.stack([x, x], axis=-2))[..., 1, :],
    "reversed planar": lambda x: planes(x[::-1])[::-1] if x.ndim > 1 else planes(x),
}


def interleaved(x, shape):
    return np.ascontiguousarray(np.broadcast_to(x, shape))


def check_vector_kernels(a, b, nan_sign=True):
    """dot3 and cross3 against np.einsum and np.cross on interleaved copies of
    the broadcast operands; mul3 and div3 against the broadcast products."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    a_i, b_i = interleaved(a, shape), interleaved(b, shape)
    with np.errstate(all="ignore"):
        dot, expected = dot3(a, b), np.einsum("...k,...k->...", a_i, b_i)
        assert_same_bits(cross3(a, b), np.cross(a_i, b_i))
    if not nan_sign:
        # The sign of a NaN sum of NaNs of both signs follows einsum's
        # operand order, which no sequence of ufunc calls reproduces.
        dot, expected = (np.where(np.isnan(x), np.nan, x) for x in (dot, expected))
    assert_same_bits(dot, expected)
    check_scalar_products(a[..., 0], b)


class TestStorage:
    def test_allocator_gives_contiguous_planes(self):
        for shape in ((3,), (4, 3), (5, 7, 3), (0, 2, 3)):
            x = empty3(shape)
            assert x.shape == shape
            assert all(x[..., k].flags.c_contiguous for k in range(3))

    def test_interleaved_input_is_copied_into_planes(self, rng):
        x = rng.standard_normal((5, 4, 3))
        grid = VertexGrid(am.GridDomain(0, 4, 0, 3), x)
        assert np.array_equal(grid.values, x) and not np.shares_memory(grid.values, x)
        assert all(grid.values[..., k].flags.c_contiguous for k in range(3))

    def test_planar_input_and_band_views_are_kept(self, rng):
        x = planes(rng.standard_normal((5, 4, 3)))
        grid = VertexGrid(am.GridDomain(0, 4, 0, 3), x)
        assert np.shares_memory(grid.values, x)
        band = VertexGrid(am.GridDomain(1, 3, 0, 3), grid.values[1:4])
        assert np.shares_memory(band.values, x)
        one_row = grid.values[2:3] + 0.0   # its own strides along the length-1 axis
        assert VertexGrid(am.GridDomain(2, 2, 0, 3), one_row).values.base is one_row

    def test_the_source_array_stays_writable(self, rng):
        dom = am.GridDomain(0, 4, 0, 3)
        for x in (rng.standard_normal((5, 4)), planes(rng.standard_normal((5, 4, 3)))):
            grid = VertexGrid(dom, x)
            assert x.flags.writeable and not grid.values.flags.writeable
            assert np.shares_memory(grid.values, x)

    def test_every_vector_grid_is_planar(self, tmp_path):
        def assert_planes(grid):
            assert grid.components == 3
            assert all(grid.values[..., k].flags.c_contiguous for k in range(3)), grid

        box = am.GridDomain(1, 9, 1, 8)
        fields = [am.helicoid(16, (-4, 4), (0, 7)), am.minimal_cubic(box),
                  am.hyperbolic_paraboloid(box), am.improper_sphere(am.GridDomain(9, 17, 0, 7))]
        for field in fields:
            assert_planes(field.vectors)
            surf = am.integrate(field, (field.domain.u_min + 2, field.domain.v_min + 3))
            assert_planes(surf.positions)
            assert_planes(am.affine_normal(surf, am.face_volumes(surf).areas))
            assert_planes(am.recover_conormal(surf).vectors)
            assert_planes(am.reconstruct(am.extract_fundamental_data(surf)).positions)
            assert_planes(am.area_gradient(surf))
            write_grid(surf.positions, tmp_path / "q.json")
            assert_planes(read_grid(tmp_path / "q.json"))


class TestVectorKernelLayouts:
    @pytest.mark.parametrize("layout_a", LAYOUTS)
    @pytest.mark.parametrize("layout_b", LAYOUTS)
    def test_layout_pairs(self, pair, layout_a, layout_b):
        check_vector_kernels(LAYOUTS[layout_a](pair[0]), LAYOUTS[layout_b](pair[1]))

    def test_broadcast_shapes(self, rng):
        a, b = planes(rng.standard_normal((4, 1, 3))), rng.standard_normal((5, 3))
        check_vector_kernels(a, b)
        check_vector_kernels(b, a)
        check_vector_kernels(rng.standard_normal(3), planes(rng.standard_normal((6, 5, 3))))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_triple_of_special_values(self, layout):
        grid = np.stack(np.meshgrid(SPECIAL, SPECIAL, SPECIAL, indexing="ij"), axis=-1)
        a = LAYOUTS[layout](grid.reshape(-1, 3))
        check_vector_kernels(a, np.ascontiguousarray(a[::-1]))
        check_vector_kernels(planes(np.roll(a, 7, axis=0)), a)


@st.composite
def vector_pairs_in_layouts(draw):
    a, b = draw(vector_pairs())
    layouts = st.sampled_from(list(LAYOUTS.values()))
    return draw(layouts)(a), draw(layouts)(b)


@given(vector_pairs_in_layouts())
@settings(max_examples=150, deadline=None)
def test_random_vector_kernels_in_layouts(pair):
    check_vector_kernels(*pair, nan_sign=False)


@st.composite
def scalar_vector_pairs(draw, min_dims=0, min_side=0):
    shape = draw(hnp.array_shapes(min_dims=min_dims, max_dims=2, min_side=min_side, max_side=6))
    values = st.one_of(st.sampled_from(SPECIAL),
                       st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    s = draw(hnp.arrays(np.float64, shape, elements=values))
    v = draw(hnp.arrays(np.float64, shape + (3,), elements=values))
    return s, v


@given(scalar_vector_pairs())
@settings(max_examples=150, deadline=None)
def test_random_scalar_products(pair):
    check_scalar_products(*pair)


def certificate_values(field):
    """Every certificate value of a field and its integrated net, as float.hex."""
    surf = am.integrate(field)
    vols = am.face_volumes(surf)
    xi = am.affine_normal(surf, vols.areas)
    lel = am.verify_lelieuvre(surf, field)
    asym = am.asymptotic_certificate(surf)
    planar = am.planarity_and_saddle(surf, field.vectors)
    dual = am.duality_certificate(field.vectors, xi, vols.areas)
    form = am.cubic_coefficients(surf, xi)
    struct = am.structural_residuals(surf, vols.areas, form)
    derivs, closed = am.a2_b1_closed_form(surf, xi, vols.areas, form)
    normal = am.normal_derivative_residuals(surf, xi, vols.areas, derivs)
    data = am.FundamentalData(vols.areas, form.u_coeff, form.v_coeff)
    compat = am.compatibility_residuals(data)
    crit = am.criticality_certificate(surf)
    values = {
        "harmonic_residual": field.harmonic_residual,
        "path_independence": am.path_independence_residual(field),
        "lelieuvre_u": lel.max_residual_u,
        "lelieuvre_v": lel.max_residual_v,
        "lelieuvre_edge_scale": lel.edge_scale,
        "conormal_recovery": am.recover_conormal(surf).max_deviation,
        "asymptotic_zero": asym.max_zero_residual,
        "asymptotic_mixed": asym.max_mixed_residual,
        "orthogonality": planar.max_orthogonality_residual,
        "duality_pairing": dual.max_pairing_residual,
        "duality_cross": dual.max_cross_residual,
        "spread_u": form.max_spread_u,
        "spread_v": form.max_spread_v,
        **{f"structural_{k}": v for k, v in struct.per_identity.items()},
        "closed_form_gap": closed.max_gap,
        "closed_form_scale": closed.scale,
        "normal_derivative_u": normal.max_residual_u,
        "normal_derivative_v": normal.max_residual_v,
        "compat_r0": compat.r0,
        "compat_r1": compat.r1,
        "compat_r2": compat.r2,
        "max_gradient": crit.max_gradient,
        "mean_area": crit.mean_area,
    }
    return {k: float(v).hex() for k, v in values.items()}


# Recorded with np.linalg.norm, np.cross and the last-axis abs-max reduction
# in place of the kernels; any change in a last bit shows here.
PINS = {
    "helicoid": {
        "harmonic_residual": "0x1.0000000000000p-53",
        "path_independence": "0x0.0p+0",
        "lelieuvre_u": "0x1.8000000000000p-48",
        "lelieuvre_v": "0x1.4000000000000p-48",
        "lelieuvre_edge_scale": "0x1.2d1bd0d1f4727p+0",
        "conormal_recovery": "0x1.a600000000000p-42",
        "asymptotic_zero": "0x1.f7c0000000000p-51",
        "asymptotic_mixed": "0x1.739f65eff51f9p-44",
        "orthogonality": "0x1.285355a986d67p-47",
        "duality_pairing": "0x1.5800000000000p-44",
        "duality_cross": "0x1.243e2bc667789p-43",
        "spread_u": "0x1.81725a0b5e9f9p-92",
        "spread_v": "0x1.938a62ce05b7bp-47",
        "structural_q11[v+][u+]": "0x1.a8a288f8a679bp-45",
        "structural_q11[v+][u-]": "0x1.a8a288f8a6695p-45",
        "structural_q11[v-][u+]": "0x1.2c28b36ae633cp-45",
        "structural_q11[v-][u-]": "0x1.2c28b36ae6289p-45",
        "structural_q22[u+][v+]": "0x1.2d99d36385821p-45",
        "structural_q22[u+][v-]": "0x1.3380d69286d99p-45",
        "structural_q22[u-][v+]": "0x1.0ea5ef51637e6p-45",
        "structural_q22[u-][v-]": "0x1.190653443ec44p-45",
        "closed_form_gap": "0x1.6a90000000000p-51",
        "closed_form_scale": "0x1.eee7fc00e4607p-11",
        "normal_derivative_u": "0x1.da7e2a7afa835p-43",
        "normal_derivative_v": "0x1.5b17b21f191c1p-44",
        "compat_r0": "0x1.07784a82e9283p-44",
        "compat_r1": "0x1.949b263e75b52p-47",
        "compat_r2": "0x1.172386512dfadp-92",
        "max_gradient": "0x1.2800000000000p-42",
        "mean_area": "0x1.917a6bc29b42cp-4",
    },
    "cubic": {
        "harmonic_residual": "0x0.0p+0",
        "path_independence": "0x0.0p+0",
        "lelieuvre_u": "0x0.0p+0",
        "lelieuvre_v": "0x0.0p+0",
        "lelieuvre_edge_scale": "0x1.8b00000000000p+11",
        "conormal_recovery": "0x0.0p+0",
        "asymptotic_zero": "0x0.0p+0",
        "asymptotic_mixed": "0x0.0p+0",
        "orthogonality": "0x0.0p+0",
        "duality_pairing": "0x1.0000000000000p-51",
        "duality_cross": "0x1.b4e81b4e81b50p-53",
        "spread_u": "0x1.1745d1745d174p-53",
        "spread_v": "0x1.1745d1745d174p-53",
        "structural_q11[v+][u+]": "0x1.790ccb9f28f6bp-55",
        "structural_q11[v+][u-]": "0x1.802a049880ae1p-55",
        "structural_q11[v-][u+]": "0x1.6a47d767130cap-55",
        "structural_q11[v-][u-]": "0x1.756cac201756dp-55",
        "structural_q22[u+][v+]": "0x1.790ccb9f28f6bp-55",
        "structural_q22[u+][v-]": "0x1.802a049880ae1p-55",
        "structural_q22[u-][v+]": "0x1.6a47d767130cap-55",
        "structural_q22[u-][v-]": "0x1.756cac201756dp-55",
        "closed_form_gap": "0x1.e000000000000p-46",
        "closed_form_scale": "0x1.000000000002fp+1",
        "normal_derivative_u": "0x1.0842108421084p-51",
        "normal_derivative_v": "0x1.0842108421084p-51",
        "compat_r0": "0x1.224dadc900489p-58",
        "compat_r1": "0x1.166cf41f212d7p-57",
        "compat_r2": "0x1.166cf41f212d7p-57",
        "max_gradient": "0x0.0p+0",
        "mean_area": "0x1.1155555555555p+10",
    },
}


@pytest.mark.parametrize("name, field", [
    ("helicoid", lambda: am.helicoid(64, (-12, 11), (3, 26))),
    ("cubic", lambda: am.minimal_cubic(am.GridDomain(1, 40, 1, 40))),
])
def test_certificate_values_pinned(name, field):
    assert certificate_values(field()) == PINS[name]
