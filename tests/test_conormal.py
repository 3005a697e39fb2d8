"""Co-normal construction, validation and the four example families."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import affmin as am
from affmin.conormal import (
    SeparableConormalSpec,
    face_area_density,
    from_separable,
    validate,
)
from affmin.errors import NonConvexFace, NotHarmonic
from affmin.grids import VALUE_BOUND, GridDomain, VertexGrid, d12


def spec_from(domain, fu, fv):
    return SeparableConormalSpec(
        domain,
        np.array([fu(float(u)) for u in domain.u_values()]),
        np.array([fv(float(v)) for v in domain.v_values()]),
    )


class TestFromSeparable:
    def test_helicoid_field_values(self):
        # u-profile (0,0,u) plus v-profile (sin, -cos, 0) at N=16
        n = 16
        field = am.helicoid(n, (0, 4), (0, n))
        w = 2 * np.pi / n
        for (u, v) in [(0, 0), (2, 5), (4, 16)]:
            expected = (np.sin(w * v), -np.cos(w * v), u)
            np.testing.assert_allclose(field.vectors.vertex_at(u, v), expected,
                                       atol=1e-15)

    def test_sphere_profiles_sum_to_field(self):
        field = am.improper_sphere(GridDomain(1, 6, -5, 0))
        for (u, v) in [(1, 0), (3, -2), (6, -5)]:
            expected = ((v * v - u * u) / 4.0, (u - v) / 2.0, -1.0)
            np.testing.assert_allclose(field.vectors.vertex_at(u, v), expected)

    def test_degenerate_constant_profiles(self):
        dom = GridDomain(0, 3, 0, 3)
        spec = spec_from(dom, lambda u: (1.0, 0.0, 0.0), lambda v: (0.0, 1.0, 0.0))
        with pytest.raises(NonConvexFace) as err:
            from_separable(spec)
        assert err.value.value == 0.0

    def test_harmonicity_is_structural(self):
        field = am.minimal_cubic(GridDomain(1, 20, 1, 20))
        bound = 4 * np.finfo(float).eps * np.abs(field.vectors.values).max()
        assert field.harmonic_residual <= bound

    @pytest.mark.parametrize("seed", range(20))
    def test_large_entries_meet_the_scaled_internal_bound(self, seed):
        # Cubic profiles on (1, 64)^2 reach |nu| = 8192; the rounding of
        # u_part + v_part alone then exceeds an absolute 1e-12, yet stays
        # within a few roundings of max |nu|.
        rng = np.random.default_rng(seed)
        dom = GridDomain(1, 64, 1, 64)
        spec = spec_from(dom, lambda u: (u, 0.0, u * u), lambda v: (0.0, v, v * v))
        noisy = SeparableConormalSpec(dom, spec.u_part + rng.uniform(-1e-2, 1e-2, (dom.n_u, 3)),
                                      spec.v_part + rng.uniform(-1e-2, 1e-2, (dom.n_v, 3)))
        field = from_separable(noisy)
        scale = np.abs(field.vectors.values).max()
        assert 1e-12 < field.harmonic_residual <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("part, entry, component, value", [
        ("u_part", 0, 0, np.nan), ("u_part", 4, 2, np.inf), ("v_part", 3, 1, -np.inf),
        ("v_part", 5, 0, np.nan)])
    def test_non_finite_profiles_are_rejected(self, part, entry, component, value):
        dom = GridDomain(0, 4, 0, 5)
        parts = {"u_part": np.ones((dom.n_u, 3)), "v_part": np.ones((dom.n_v, 3))}
        parts[part][entry, component] = value
        with pytest.raises(ValueError) as err:
            SeparableConormalSpec(dom, **parts)
        assert str(err.value) == (f"{part} at grid index ({entry}, 0), component {component}: "
                                  f"{value} is not finite or over 1.41e+102 in size")

    @pytest.mark.parametrize("part, n", [("u_part", 4), ("v_part", 7)])
    def test_profiles_of_the_wrong_length_are_rejected(self, part, n):
        dom = GridDomain(0, 4, 0, 5)
        parts = {"u_part": np.ones((dom.n_u, 3)), "v_part": np.ones((dom.n_v, 3))}
        parts[part] = np.ones((n, 3))
        expected = dom.n_u if part == "u_part" else dom.n_v
        with pytest.raises(ValueError, match=rf"{part} must have shape \({expected}, 3\), "
                                             rf"got \({n}, 3\)"):
            SeparableConormalSpec(dom, **parts)

    @pytest.mark.parametrize("sign, component", [(1.0, 2), (-1.0, 0)])
    def test_overflowing_profiles_are_rejected_without_a_warning(self, sign, component):
        # Finite profiles whose sum would overflow: nu would hold an infinity.
        dom = GridDomain(0, 3, 0, 3)
        spec = spec_from(dom, lambda u: (u, 0.0, u * u), lambda v: (0.0, v, v * v))
        u_part, v_part = np.array(spec.u_part), np.array(spec.v_part)
        u_part[2, component] = v_part[1, component] = sign * 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                SeparableConormalSpec(dom, u_part, v_part)
        assert str(err.value) == (f"u_part at grid index (2, 0), component {component}: "
                                  f"{sign * 1.5e308} is not finite or over 1.41e+102 in size")

    def test_profiles_at_the_bound_build_a_field_without_a_warning(self):
        # nu reaches 2 VALUE_BOUND = cbrt(max float / 8); F and d12 stay finite.
        dom = GridDomain(0, 1, 0, 1)
        u_part = np.array([[0.0, 0.0, 0.0], [VALUE_BOUND, 0.0, 0.0]])
        v_part = np.array([[0.0, 0.0, VALUE_BOUND], [0.0, -VALUE_BOUND, VALUE_BOUND]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = from_separable(SeparableConormalSpec(dom, u_part, v_part))
        assert np.isfinite(field.min_area) and field.min_area > 0.0

    def test_profiles_are_read_only(self):
        spec = spec_from(GridDomain(0, 2, 0, 2), lambda u: (u, 0.0, 1.0), lambda v: (0.0, v, 0.0))
        with pytest.raises(ValueError, match="read-only"):
            spec.u_part[0, 0] = 1e308


@pytest.mark.parametrize("build", [
    lambda dom, u_part, v_part: from_separable(SeparableConormalSpec(dom, u_part, v_part)),
    lambda dom, u_part, v_part: validate(VertexGrid(dom, u_part[:, None] + v_part[None])),
], ids=["from_separable", "validate"])
def test_a_field_beyond_half_the_float_range_is_rejected_without_a_warning(build):
    # nu is finite, but d12 adds two entries of 1e308 first.
    dom = GridDomain(0, 3, 0, 3)
    spec = spec_from(dom, lambda u: (u, 0.0, u * u), lambda v: (0.0, v, v * v))
    u_part = np.array(spec.u_part)
    u_part[1, 2] = u_part[2, 2] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"at grid index \(1, 0\), component 2: 1e\+308 is not "
                                             r"finite or over 1\.41e\+102 in size"):
            build(dom, u_part, spec.v_part)


def test_a_field_whose_area_density_would_overflow_is_rejected_without_a_warning():
    # Every entry is within half the float range, but F is cubic in nu: the
    # profiles' bound rejects entry 0, u = 1, before F is formed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"u_part at grid index \(0, 0\), component 0: 1e\+150 "
                                             r"is not finite or over 1\.41e\+102 in size"):
            spec_from(GridDomain(1, 3, 1, 3), lambda u: (1e150 * u, 0.0, 1e150 * u * u),
                      lambda v: (0.0, 1e150 * v, 1e150 * v * v))


def test_a_mixed_difference_that_would_overflow_is_rejected_without_a_warning():
    # d12 sums g11 + g00 - g10 - g01 left to right: 2.4e308 after three terms.
    nu = np.zeros((2, 2, 3))
    nu[..., 2] = [[0.8e308, -0.8e308], [0.0, 0.8e308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"co-normal grid at grid index \(0, 0\), component 2: "
                                             r"8e\+307 is not finite or over 1\.41e\+102 in size"):
            validate(VertexGrid(GridDomain(0, 1, 0, 1), nu))


class TestValidate:
    def test_paraboloid_field_f_is_one(self):
        dom = GridDomain(-2, 4, 0, 5)
        grid = VertexGrid.from_function(dom, lambda u, v: (-v, -u, 1.0))
        field = validate(grid)
        np.testing.assert_array_equal(field.areas.values, 1.0)

    def test_cubic_field_on_positive_box(self):
        dom = GridDomain(1, 5, 1, 5)
        grid = VertexGrid.from_function(dom, lambda u, v: (u, v, u * u + v * v))
        field = validate(grid)
        assert field.min_area > 0

    def test_perturbed_vertex_names_four_faces(self):
        dom = GridDomain(0, 4, 0, 4)
        values = np.array(VertexGrid.from_function(
            dom, lambda u, v: (-v, -u, 1.0)).values)
        values[2, 2] += (0.0, 0.0, 1.0)
        with pytest.raises(NotHarmonic) as err:
            validate(VertexGrid(dom, values))
        assert sorted(err.value.faces) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert err.value.max_residual == pytest.approx(1.0)

    def test_scalar_grid_rejected(self):
        grid = VertexGrid.from_function(GridDomain(0, 2, 0, 2), lambda u, v: u)
        with pytest.raises(ValueError):
            validate(grid)


class TestGenerators:
    def test_paraboloid_value(self):
        field = am.hyperbolic_paraboloid(GridDomain(0, 3, 0, 3))
        np.testing.assert_array_equal(field.vectors.vertex_at(1, 2), (-2.0, -1.0, 1.0))

    def test_cubic_value(self):
        # nu(2,2) = (2, 2, 8); built off [1,3]^2 since the [0,..] box has a
        # face with F = 0 at the origin corner.
        field = am.minimal_cubic(GridDomain(1, 3, 1, 3))
        np.testing.assert_array_equal(field.vectors.vertex_at(2, 2), (2.0, 2.0, 8.0))

    def test_cubic_box_with_origin_rejected(self):
        with pytest.raises(NonConvexFace) as err:
            am.minimal_cubic(GridDomain(0, 2, 0, 2))
        assert err.value.face == (0, 0)
        assert err.value.value == 0.0

    def test_helicoid_value(self):
        field = am.helicoid(4, (0, 2), (0, 4))
        np.testing.assert_allclose(field.vectors.vertex_at(0, 1), (1.0, 0.0, 0.0),
                                   atol=1e-16)

    def test_helicoid_area_density_is_constant(self):
        n = 16
        field = am.helicoid(n, (-3, 3), (0, n))
        np.testing.assert_allclose(field.areas.values, np.sin(2 * np.pi / n),
                                   rtol=1e-13)

    def test_sphere_area_density_formula(self):
        field = am.improper_sphere(GridDomain(2, 8, -4, 1))
        dom = field.domain
        for u in range(dom.u_min, dom.u_max):
            for v in range(dom.v_min, dom.v_max):
                assert field.areas.face_at(u, v) == pytest.approx((u - v) / 4.0)

    def test_sphere_requires_u_above_v(self):
        with pytest.raises(NonConvexFace):
            am.improper_sphere(GridDomain(0, 5, -3, 0))   # touches u = v at (0, 0)
        with pytest.raises(NonConvexFace):
            am.improper_sphere(GridDomain(0, 5, -3, 2))   # crosses the diagonal

    def test_helicoid_spans_one_turn_by_default(self):
        assert am.helicoid(5, (0, 2)).domain == GridDomain(0, 2, 0, 5)

    def test_helicoid_needs_three_samples(self):
        with pytest.raises(ValueError):
            am.helicoid(2, (0, 2))


def test_area_density_matches_direct_triple_product(rng):
    """Oracle: F per face from an explicit loop over triple products."""
    dom = GridDomain(1, 6, 1, 6)
    field = am.minimal_cubic(dom)
    nu = field.vectors
    for _ in range(10):
        u = int(rng.integers(dom.u_min, dom.u_max))
        v = int(rng.integers(dom.v_min, dom.v_max))
        expected = float(np.dot(
            nu.vertex_at(u, v),
            np.cross(nu.vertex_at(u, v + 1), nu.vertex_at(u + 1, v)),
        ))
        assert field.areas.face_at(u, v) == pytest.approx(expected, rel=1e-15)


def test_face_area_density_requires_faces():
    grid = VertexGrid.from_function(GridDomain(0, 0, 0, 3), lambda u, v: (u, v, 1.0))
    with pytest.raises(am.DomainTooSmall):
        face_area_density(grid)


def test_mixed_difference_zero_on_every_face(all_examples):
    for name, (field, _) in all_examples.items():
        residual = np.abs(d12(field.vectors).values).max()
        bound = 4 * np.finfo(float).eps * np.abs(field.vectors.values).max()
        assert residual <= bound, name


def test_validate_rejects_nan_vector():
    field = am.hyperbolic_paraboloid(GridDomain(0, 4, 0, 4))
    values = np.array(field.vectors.values)
    values[2, 3, 1] = np.nan
    with pytest.raises(ValueError) as err:
        validate(VertexGrid(field.domain, values))
    assert str(err.value) == ("co-normal grid at grid index (2, 3), component 1: nan is not "
                              "finite or over 1.41e+102 in size")


# Family -> (field of (box, n), u profile, v profile): the reference spells
# each profile as a function of one sample t (and n), called once per sample.
PER_POINT = {
    "helicoid": (lambda box, n: am.helicoid(n, box.as_tuple()[:2], box.as_tuple()[2:]),
                 lambda u, n: (0.0, 0.0, u),
                 lambda v, n: (np.sin(2.0 * np.pi / n * v), -np.cos(2.0 * np.pi / n * v), 0.0)),
    "cubic": (lambda box, n: am.minimal_cubic(box),
              lambda u, n: (u, 0.0, u * u), lambda v, n: (0.0, v, v * v)),
    "paraboloid": (lambda box, n: am.hyperbolic_paraboloid(box),
                   lambda u, n: (0.0, -u, 1.0), lambda v, n: (-v, 0.0, 0.0)),
    "sphere": (lambda box, n: am.improper_sphere(box),
               lambda u, n: (-u * u / 4.0, u / 2.0, -0.5),
               lambda v, n: (v * v / 4.0, -v / 2.0, -0.5)),
}


def outcome(build):
    """The field's vectors, F and residual as bits, or the error it raises."""
    try:
        field = build()
    except (am.AffminError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    values = field.vectors.values
    assert not (np.signbit(values) & (values == 0.0)).any()   # no -0.0 reaches an artifact
    return values.tobytes(), field.areas.values.tobytes(), float(field.harmonic_residual).hex()


corners = st.integers(-40, 40) | st.integers(-10**5, 10**5)   # boxes about 0, and far out


@given(name=st.sampled_from(sorted(PER_POINT)), u_min=corners, v_min=corners,
       n_u=st.integers(1, 40), n_v=st.integers(1, 40),
       n=st.sampled_from([3, 7, 16, 64, 1000]))
@settings(max_examples=120, deadline=None)
def test_families_equal_their_per_point_profiles(name, u_min, v_min, n_u, n_v, n):
    if name == "sphere":   # a box under the diagonal, past the family's own box check
        v_min = min(v_min, u_min - n_v)
    box = GridDomain(u_min, u_min + n_u - 1, v_min, v_min + n_v - 1)
    family, fu, fv = PER_POINT[name]
    reference = outcome(lambda: from_separable(spec_from(box, lambda u: fu(u, n),
                                                         lambda v: fv(v, n))))
    assert outcome(lambda: family(box, n)) == reference


@given(n_u=st.integers(2, 39), n_v=st.integers(2, 39), exponent=st.floats(-100.0, 100.0),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_separable_fields_are_harmonic_to_a_few_roundings(n_u, n_v, exponent, seed):
    # nu = u_part + v_part, so each mixed difference of nu is four roundings of
    # a sum of size at most max |nu|, cancelled; no tolerance gates it.  The
    # profiles are the cubic family's on increasing positive a, b in (0, 1],
    # scaled by 10^exponent, so that F > 0 and the field is built.
    rng = np.random.default_rng(seed)
    a, b = (np.cumsum(rng.uniform(0.05, 1.0, n)) for n in (n_u, n_v))
    a, b = a / a[-1], b / b[-1]
    zero_u, zero_v = np.zeros(n_u), np.zeros(n_v)
    scale = 10.0 ** exponent
    spec = SeparableConormalSpec(GridDomain(0, n_u - 1, 0, n_v - 1),
                                 scale * np.column_stack([a, zero_u, a * a]),
                                 scale * np.column_stack([zero_v, b, b * b]))
    field = from_separable(spec)
    bound = 4 * np.finfo(float).eps * np.abs(field.vectors.values).max()
    assert field.harmonic_residual <= bound
    assert field.harmonic_residual == np.abs(d12(field.vectors).values).max()
