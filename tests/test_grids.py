"""Staggered-grid containers and difference operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affmin.errors import DomainTooSmall
from affmin.grids import (
    FaceGrid,
    GridDomain,
    UEdgeGrid,
    VEdgeGrid,
    VertexGrid,
    d1,
    d2,
    d11,
    d12,
    d22,
)


def vgrid(domain, fn):
    return VertexGrid.from_function(domain, fn)


class TestGridDomain:
    def test_counts(self):
        dom = GridDomain(-2, 3, 0, 4)
        assert (dom.n_u, dom.n_v) == (6, 5)

    def test_empty_domain_rejected(self):
        with pytest.raises(DomainTooSmall):
            GridDomain(0, -1, 0, 3)

    def test_single_column_allowed_for_derived_grids(self):
        # Second differences live on thinner boxes; one vertex column is legal.
        dom = GridDomain(1, 1, 0, 3)
        assert dom.n_u == 1
        with pytest.raises(DomainTooSmall):
            dom.require_faces()

    def test_interior(self):
        assert GridDomain(0, 4, -1, 2).interior() == GridDomain(1, 3, 0, 1)


class TestAccessors:
    def test_named_accessors_match_offsets(self):
        dom = GridDomain(2, 5, -1, 1)
        g = vgrid(dom, lambda u, v: 10.0 * u + v)
        assert g.vertex_at(3, 0) == 30.0
        ue = d1(g)
        # entry (u, v) holds the value at (u + 1/2, v)
        assert ue.uedge_at(2, -1) == g.vertex_at(3, -1) - g.vertex_at(2, -1)
        ve = d2(g)
        assert ve.vedge_at(5, 0) == g.vertex_at(5, 1) - g.vertex_at(5, 0)
        f = d12(g)
        assert f.face_at(4, 0) == pytest.approx(0.0)

    def test_out_of_range_raises(self):
        g = vgrid(GridDomain(0, 2, 0, 2), lambda u, v: u)
        with pytest.raises(IndexError):
            g.vertex_at(3, 0)
        with pytest.raises(IndexError):
            d1(g).uedge_at(2, 0)   # u-edges stop at u_max - 1
        with pytest.raises(IndexError):
            d12(g).face_at(-1, 0)

    def test_values_read_only(self):
        g = vgrid(GridDomain(0, 2, 0, 2), lambda u, v: u * v)
        with pytest.raises(ValueError):
            g.values[0, 0] = 7.0

    def test_vector_grid_shape(self):
        g = vgrid(GridDomain(0, 1, 0, 1), lambda u, v: (u, v, 1.0))
        assert g.components == 3
        with pytest.raises(ValueError):
            VertexGrid(GridDomain(0, 1, 0, 1), np.zeros((2, 2, 4)))
        with pytest.raises(ValueError, match=r"expects leading shape \(2, 2\), got \(2, 3\)"):
            VertexGrid(GridDomain(0, 1, 0, 1), np.zeros((2, 3)))


class TestFirstDifferences:
    def test_d1_constant_is_zero(self):
        g = vgrid(GridDomain(0, 3, 0, 2), lambda u, v: 4.5)
        assert np.all(d1(g).values == 0.0)

    def test_d1_linear_is_one(self):
        g = vgrid(GridDomain(0, 2, 0, 1), lambda u, v: float(u))
        assert np.all(d1(g).values == 1.0)

    def test_d1_square(self):
        # g = u^2 on u in {0,1,2}: differences 1, 3
        g = vgrid(GridDomain(0, 2, 0, 1), lambda u, v: u * u)
        assert d1(g).values[:, 0].tolist() == [1.0, 3.0]

    def test_d2_constant_and_linear(self):
        dom = GridDomain(0, 2, 0, 2)
        assert np.all(d2(vgrid(dom, lambda u, v: -3.0)).values == 0.0)
        assert np.all(d2(vgrid(dom, lambda u, v: float(v))).values == 1.0)

    def test_d2_product(self):
        # g = u v at u = 2, v in {0,1,2}: differences 2, 2
        g = vgrid(GridDomain(0, 2, 0, 2), lambda u, v: u * v)
        assert d2(g).values[2].tolist() == [2.0, 2.0]

    def test_d1_needs_two_columns(self):
        g = vgrid(GridDomain(0, 0, 0, 3), lambda u, v: v)
        with pytest.raises(DomainTooSmall):
            d1(g)


class TestSecondDifferences:
    def test_affine_killed(self):
        g = vgrid(GridDomain(-1, 3, -2, 2), lambda u, v: 2.0 * u - 3.0 * v + 1.0)
        assert np.all(d11(g).values == 0.0)
        assert np.all(d22(g).values == 0.0)
        assert np.all(d12(g).values == 0.0)

    def test_d12_of_product_is_one(self):
        g = vgrid(GridDomain(0, 4, 0, 3), lambda u, v: u * v)
        assert np.all(d12(g).values == 1.0)

    def test_d11_of_square_is_two(self):
        g = vgrid(GridDomain(0, 4, 0, 1), lambda u, v: u * u)
        assert np.all(d11(g).values == 2.0)

    def test_output_domains(self):
        g = vgrid(GridDomain(0, 4, 0, 3), lambda u, v: u * v)
        assert d11(g).domain == GridDomain(1, 3, 0, 3)
        assert d22(g).domain == GridDomain(0, 4, 1, 2)
        assert d12(g).domain == g.domain

    def test_stencil_too_small(self):
        g = vgrid(GridDomain(0, 1, 0, 5), lambda u, v: v)
        with pytest.raises(DomainTooSmall):
            d11(g)


class TestStaggeredLadder:
    def test_d1_then_d1_equals_d11(self):
        g = vgrid(GridDomain(0, 5, 0, 2), lambda u, v: u ** 3 + v)
        twice = d1(d1(g))
        direct = d11(g)
        assert twice.domain == direct.domain
        np.testing.assert_array_equal(twice.values, direct.values)

    def test_face_difference_lands_on_edges(self):
        g = vgrid(GridDomain(0, 4, 0, 4), lambda u, v: u * u * v)
        face = d12(g)
        assert isinstance(d1(face), VEdgeGrid)
        assert d1(face).domain == GridDomain(1, 3, 0, 4)
        assert isinstance(d2(face), UEdgeGrid)


# (kind, difference) -> (result kind, box it lands on) on the box (0, 4) x (0, 5).
LADDER = {
    (VertexGrid, d1): (UEdgeGrid, GridDomain(0, 4, 0, 5)),
    (VertexGrid, d2): (VEdgeGrid, GridDomain(0, 4, 0, 5)),
    (UEdgeGrid, d1): (VertexGrid, GridDomain(1, 3, 0, 5)),
    (UEdgeGrid, d2): (FaceGrid, GridDomain(0, 4, 0, 5)),
    (VEdgeGrid, d1): (FaceGrid, GridDomain(0, 4, 0, 5)),
    (VEdgeGrid, d2): (VertexGrid, GridDomain(0, 4, 1, 4)),
    (FaceGrid, d1): (VEdgeGrid, GridDomain(1, 3, 0, 5)),
    (FaceGrid, d2): (UEdgeGrid, GridDomain(0, 4, 1, 4)),
}


@pytest.mark.parametrize("components", [(), (3,)])
@pytest.mark.parametrize("kind, diff", list(LADDER), ids=lambda x: x.__name__)
def test_first_difference_table(kind, diff, components, rng):
    """Every kind and direction: the result kind, its box, and the slice difference's bits."""
    dom = GridDomain(0, 4, 0, 5)
    g = kind(dom, rng.uniform(-10, 10, kind._entry_shape(dom) + components))
    out = diff(g)
    expected_kind, expected_domain = LADDER[kind, diff]
    assert type(out) is expected_kind and out.domain == expected_domain
    x = g.values
    np.testing.assert_array_equal(out.values, x[1:] - x[:-1] if diff is d1
                                  else x[:, 1:] - x[:, :-1])


@st.composite
def small_vertex_grids(draw, integer_valued=False):
    n_u = draw(st.integers(min_value=2, max_value=6))
    n_v = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    gen = np.random.default_rng(seed)
    if integer_valued:
        values = gen.integers(-1000, 1000, (n_u, n_v)).astype(float)
    else:
        values = gen.uniform(-10, 10, (n_u, n_v))
    return VertexGrid(GridDomain(0, n_u - 1, 0, n_v - 1), values)


@given(small_vertex_grids(integer_valued=True))
@settings(max_examples=80, deadline=None)
def test_mixed_difference_commutes_exactly(g):
    """d12 per the face formula == d1 after d2 == d2 after d1.

    Integer-valued grids make every intermediate exact, so equality is
    bitwise here.
    """
    mixed = d12(g)
    via_12 = d1(d2(g))
    via_21 = d2(d1(g))
    assert isinstance(via_12, FaceGrid) and isinstance(via_21, FaceGrid)
    np.testing.assert_array_equal(mixed.values, via_12.values)
    np.testing.assert_array_equal(mixed.values, via_21.values)


@given(small_vertex_grids())
@settings(max_examples=80, deadline=None)
def test_mixed_difference_commutes_to_rounding(g):
    slack = 8 * np.finfo(float).eps * np.abs(g.values).max()
    np.testing.assert_allclose(d12(g).values, d1(d2(g)).values, atol=slack)
    np.testing.assert_allclose(d12(g).values, d2(d1(g)).values, atol=slack)
