"""Identities of the face co-normal kernel on exact rational nets.

On a net integrated from a co-normal field, each face's cross product of
the two edges at a corner, divided by F, is the co-normal of that corner;
and the derivative of F with respect to a vertex is half the co-normal that
the face reads at the corner opposite it, with sign + on the diagonal
through (u, v) and - on the other.  So the area gradient, half the
alternating sum of those co-normals over the four faces of a vertex,
vanishes.  The affine normal and each face choice of the cubic coefficients
are rational as well: the choices agree exactly, every vertex star is
planar, and the structural and the three compatibility equations hold with
no remainder.
``exact.py`` builds the nets in Fractions; these tests check each step
exactly and the floating-point kernels against it, on fixed nets and on
nets that hypothesis draws.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from affmin.forms import TOL_FORMS, cubic_coefficients, structural_residuals
from affmin.geometry import affine_normal, asymptotic_certificate, face_conormals, face_volumes
from affmin.grids import GridDomain, absmax, d1, d2
from exact import (add, cross, cubic_like, det, mixed_determinants, rational_nets, rational_sqrt,
                   star_determinants, stepped, structural_vectors, sub, volume)


def _random_net(seed):
    """A 7 x 6 net on random increasing rational samples a, b >= 1/4."""
    rng = np.random.default_rng(seed)
    steps_u, steps_v = ([Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 6)))
                         for _ in range(n)] for n in (7, 6))
    return stepped(GridDomain(-3, 3, 2, 7), steps_u, steps_v, int(rng.integers(-9, 4)))


NETS = {
    "k0": lambda: cubic_like(GridDomain(1, 7, 1, 6), 0),
    "k9": lambda: cubic_like(GridDomain(1, 7, 1, 6), 9),
    "k-9": lambda: cubic_like(GridDomain(1, 7, 1, 6), -9),
    "k4-thirds": lambda: cubic_like(GridDomain(2, 8, 3, 8), 4, Fraction(1, 3), Fraction(2, 5)),
    "random-1": lambda: _random_net(1),
    "random-2": lambda: _random_net(2),
    "k2-12x10": lambda: cubic_like(GridDomain(1, 12, 1, 10), 2),
}

# (vertex offset (di, dj) within the face, sign of dF there) per corner, in
# the order face_conormals reads them: (u, v), (u+1, v), (u, v+1), (u+1, v+1).
CORNERS = (((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 1), 1))


@pytest.fixture(scope="module", params=sorted(NETS))
def net(request):
    return NETS[request.param]()


def corner_conormals(q00, q10, q01, q11, f):
    """e1 x e2 / F at the corners (u, v), (u+1, v), (u, v+1), (u+1, v+1), exactly."""
    lower, upper = sub(q10, q00), sub(q11, q01)   # the u-edges
    left, right = sub(q01, q00), sub(q11, q10)    # the v-edges
    return [tuple(x / f for x in cross(e1, e2))
            for e1, e2 in ((lower, left), (lower, right), (upper, left), (upper, right))]


def test_m_is_the_square_of_f(net):
    for face, f in net.f.items():
        assert f > 0
        assert net.m[face] == f * f
        assert rational_sqrt(net.m[face]) == f


def test_each_corner_conormal_is_nu_at_that_corner(net):
    for (i, j), m in net.m.items():
        estimates = corner_conormals(*net.face_corners(i, j), rational_sqrt(m))
        for estimate, ((di, dj), _) in zip(estimates, CORNERS):
            assert estimate == net.nu[i + di][j + dj]


# The rounded positions carry half an ulp each; their edges, M, sqrt(M), the
# cross products and the quotient add a few more of the co-normal's scale; at
# most 16 were seen on these nets.
ULPS = 64


def test_face_conormals_are_within_ulps_of_nu(net):
    q = net.grid(net.q)
    nu = net.grid(net.nu).values
    estimates = face_conormals(q, face_volumes(q).areas.values)
    bound = ULPS * np.finfo(float).eps * np.abs(nu).max()
    for estimate, ((di, dj), _) in zip(estimates, CORNERS):
        corner = nu[di:di + nu.shape[0] - 1, dj:dj + nu.shape[1] - 1]
        assert np.abs(estimate - corner).max() <= bound


def _volume_slopes(corners):
    """dM of a face per corner: M with that corner moved by each unit vector, minus M.

    M is affine in each corner (a repeated column drops out), so these are
    the exact gradients of M."""
    m = volume(*corners)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [tuple(volume(*(add(p, unit) if n == k else p for n, p in enumerate(corners))) - m
                  for unit in units) for k in range(4)]


@pytest.mark.parametrize("seed", range(8))
def test_volume_slope_at_a_corner_is_the_opposite_corner_cross_product(seed):
    # For any quadrangle, planar, twisted or flipped: dM at a corner is
    # +- F times the co-normal read at the opposite corner, so dF = +- c / 2.
    rng = np.random.default_rng(seed)
    corners = [tuple(Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 8)))
                     for _ in range(3)) for _ in range(4)]
    products = corner_conormals(*corners, 1)
    for slope, (_, sign), opposite in zip(_volume_slopes(corners), CORNERS, products[::-1]):
        assert slope == tuple(sign * x for x in opposite)


def test_exact_area_gradient_vanishes(net):
    # The gradient of sum F = sqrt(M) at each interior vertex, from the four
    # incident faces' dM / (2F); it is corner 3 - k of face (i - 1 + di, j - 1 + dj).
    dom = net.domain
    for i in range(1, dom.n_u - 1):
        for j in range(1, dom.n_v - 1):
            total = [Fraction(0)] * 3
            for k, ((di, dj), _) in enumerate(CORNERS):
                face = (i - 1 + di, j - 1 + dj)
                slope = _volume_slopes(net.face_corners(*face))[3 - k]
                total = [t + s / (2 * net.f[face]) for t, s in zip(total, slope)]
            assert total == [0, 0, 0], (dom.u_min + i, dom.v_min + j)


def test_face_choices_of_the_cubic_form_agree_exactly(net):
    for choices in (net.a_choices, net.b_choices):
        assert choices and all(len(values) in (2, 4) for values in choices.values())
        for vertex, values in choices.items():
            assert max(values) - min(values) == 0, vertex


def test_compatibility_products_vanish_exactly(net):
    products = net.compatibility_products()
    assert len(products) == (net.domain.n_u - 2) * (net.domain.n_v - 2)
    for vertex, (r0, r1, r2) in products.items():
        assert (r0, r1, r2) == (0, 0, 0), vertex


def test_star_determinants_vanish_exactly(net):
    stars = star_determinants(net.q)
    dom = net.domain
    assert len(stars) == dom.n_u * dom.n_v - 4   # every vertex but the box corners
    for vertex, dets in stars.items():
        assert dets and all(d == 0 for d in dets), vertex


_RATIONAL = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 20))
_POINT = st.tuples(_RATIONAL, _RATIONAL, _RATIONAL)


@settings(deadline=None)
@given(_POINT, _POINT, _POINT, _POINT)
def test_every_mixed_pick_is_the_volume_of_any_four_points(q00, q10, q01, q11):
    # q12 = (q11 - q00) - q1 - q2 for either pick of q1 and q2, and a determinant does
    # not change when q1 or q2 is added to its third column: [q1, q2, q12] =
    # [q1, q2, q11 - q00] = M on any four points, planar, twisted or repeated.  So the
    # asymptotic certificate's mixed residual reads rounding only, from one pick.
    assert mixed_determinants(q00, q10, q01, q11) == [volume(q00, q10, q01, q11)] * 4


def test_second_difference_determinants_are_star_determinants():
    # [q1(u-+1/2), q2, q11] with q11 = q1(u+1/2) - q1(u-1/2) is minus the star
    # determinant [q1(u-1/2), q1(u+1/2), q2] on any net, and so is
    # [q2(v+-1/2), q1, ...] with q22 for [q2(v+1/2), q2(v-1/2), q1].  On a
    # net with one vertex moved, every such pair holds exactly, and the float
    # certificate reads the largest star determinant.
    net = NETS["k2-12x10"]()
    q = [row[:] for row in net.q]
    q[5][4] = add(q[5][4], (Fraction(1, 1000), Fraction(-1, 2000), Fraction(1, 3000)))
    stars = star_determinants(q)
    n_u, n_v = len(q), len(q[0])
    for (i, j), dets in stars.items():
        # The edges at u-1/2, u+1/2 and at v-1/2, v+1/2 that the box has.
        q1 = [sub(q[i + s][j], q[i + s - 1][j]) for s in (0, 1) if 0 < i + s < n_u]
        q2 = [sub(q[i][j + s], q[i][j + s - 1]) for s in (0, 1) if 0 < j + s < n_v]
        old = []   # the second-difference determinants, each star's two in a row
        if 0 < i < n_u - 1:
            old += [det(pick, e, sub(q1[1], q1[0])) for e in q2[::-1] for pick in q1]
        if 0 < j < n_v - 1:
            old += [det(e, pick, sub(q2[1], q2[0])) for e in q1[::-1] for pick in q2]
        assert old == [-d for d in dets for _ in range(2)], (i, j)

    exact = max(abs(d) for dets in stars.values() for d in dets)
    assert exact > 0
    report = asymptotic_certificate(net.grid(q))
    # Positions of up to 1.2e3 rounded to half an ulp each; 6.6e-13 relative seen.
    assert abs(report.max_zero_residual - float(exact)) <= 1e-11 * float(exact)
    assert report.worst_zero_vertex == (net.domain.u_min + 5, net.domain.v_min + 4)
    assert not report.passed


# The variants that structural_residuals reports, F and the edge along the axis at +1/2.
KEPT = ("q11[v+][u+]", "q11[v-][u+]", "q22[u+][v+]", "q22[u-][v+]")


@pytest.mark.parametrize("seed", range(4))
def test_face_side_twins_of_the_structural_equations_are_equal_on_any_data(seed):
    # r(u+1/2) - r(u-1/2) = (F(u+1/2) - F(u-1/2)) q11 - F1 (q1(u+1/2) - q1(u-1/2))
    # = F1 q11 - F1 q11, and the same along v: the twins agree on data that
    # is no net of the family, nor F, A, B of any net.
    rng = np.random.default_rng(seed)

    def draw():
        return Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 20)))

    n_u, n_v = 6, 5
    q = [[(draw(), draw(), draw()) for _ in range(n_v)] for _ in range(n_u)]
    f = {(i, j): draw() for i in range(n_u - 1) for j in range(n_v - 1)}
    a = {(i, j): draw() for i in range(1, n_u - 1) for j in range(n_v)}
    b = {(i, j): draw() for i in range(n_u) for j in range(1, n_v - 1)}
    vectors = structural_vectors(q, f, a, b)
    assert sorted(vectors) == sorted(KEPT + tuple(name[:-2] + "-]" for name in KEPT))
    for name in KEPT:
        kept, twin = vectors[name], vectors[name[:-2] + "-]"]
        assert len(kept) == ((n_u - 2) * (n_v - 1) if name[1] == "1" else (n_u - 1) * (n_v - 2))
        assert kept == twin, name
        assert any(vec != (0, 0, 0) for vec in kept.values()), name   # not equal as zeros


def test_structural_equations_hold_exactly(net):
    a, b = net.coefficients()
    vectors = structural_vectors(net.q, net.f, a, b)
    for name in KEPT:
        assert vectors[name] and all(vec == (0, 0, 0) for vec in vectors[name].values()), name


def test_a_bumped_cubic_coefficient_fails_the_q11_equations():
    # A + 1/1000 at vertex (5, 4) leaves F q11 - F1 q1 - (A + 1/1000) q2 =
    # -(1/1000) q2 there, for q2 at v+1/2 and at v-1/2, and 0 everywhere else.
    net, bump = NETS["k2-12x10"](), Fraction(1, 1000)
    a, b = net.coefficients()
    a[5, 4] += bump
    q = net.q
    q2 = {"+": sub(q[5][5], q[5][4]), "-": sub(q[5][4], q[5][3])}
    for name in KEPT:
        for vertex, vec in structural_vectors(q, net.f, a, b)[name].items():
            if name.startswith("q11") and vertex == (5, 4):
                assert vec == tuple(-bump * x for x in q2[name[5]]) != (0, 0, 0), name
            else:
                assert vec == (0, 0, 0), (name, vertex)

    positions = net.grid(q)
    areas = face_volumes(positions).areas
    form = cubic_coefficients(positions, affine_normal(positions, areas))
    bumped = form.u_coeff.values.copy()
    bumped[4, 4] += float(bump)   # vertex (5, 4) of the box, on A's u-interior rows
    form = dataclasses.replace(form, u_coeff=form.u_coeff.with_values(bumped))
    report = structural_residuals(positions, areas, form)
    assert not report.passed
    assert report.worst_identity.startswith("q11[")
    per = report.per_identity   # 1.4e-5 seen on both q11, 4.2e-15 on both q22
    assert min(per["q11[v+]"], per["q11[v-]"]) > TOL_FORMS >= max(per["q22[u+]"], per["q22[u-]"])


def _exact_array(table, shape):
    return np.array([[table[i, j] for j in range(shape[1])] for i in range(shape[0])], dtype=float)


# xi = d12(q) / F cancels positions that are larger than d12(q): per face its
# error is within 4 ulps of max |q| over the corners / F (at most 1.9 seen, also
# on the random nets of seeds 1-59), and within 64 ulps of max |xi| on these
# nets (at most 23 seen).  A and B dot a cross product of edges with xi, and are
# within 128 ulps of max |A| and max |B| here (at most 41 seen; random nets of
# other seeds reached 254).
ULPS_XI_OF_Q, ULPS_XI, ULPS_FORMS = 4, 64, 128


def test_affine_normal_is_within_ulps_of_the_exact_one(net):
    q = net.grid(net.q)
    areas = face_volumes(q).areas
    exact = _exact_array(net.xi, areas.values.shape)
    error = np.abs(affine_normal(q, areas).values - exact).max(axis=-1)
    eps, p = np.finfo(float).eps, np.abs(q.values).max(axis=-1)
    corners = np.maximum.reduce([p[:-1, :-1], p[1:, :-1], p[:-1, 1:], p[1:, 1:]])
    assert (error <= ULPS_XI_OF_Q * eps * corners / areas.values).all()
    assert error.max() <= ULPS_XI * eps * np.abs(exact).max()


def test_cubic_coefficients_are_within_ulps_of_the_exact_ones(net):
    q = net.grid(net.q)
    form = cubic_coefficients(q, affine_normal(q, face_volumes(q).areas))
    a, b = net.coefficients()
    u_coeff, v_coeff = form.u_coeff.values, form.v_coeff.values
    exact_a = _exact_array({(i - 1, j): x for (i, j), x in a.items()}, u_coeff.shape)
    exact_b = _exact_array({(i, j - 1): x for (i, j), x in b.items()}, v_coeff.shape)
    eps = np.finfo(float).eps
    for coeff, exact in ((u_coeff, exact_a), (v_coeff, exact_b)):
        assert np.abs(coeff - exact).max() <= ULPS_FORMS * eps * np.abs(exact).max()


# The error bounds above use the largest |nu|, |xi|, |A| of the fixed nets as
# scales; drawn nets with long thin faces break them (face co-normals and A
# up to 1.9e3 ulps of max |nu| and max |A| over 400 draws).  These bounds scale each
# error by the rounding it propagates instead: nu through M = F^2, whose
# rounding is eps max|q| |e|^2 per face (at most 0.5 ulps seen); xi as
# ULPS_XI_OF_Q; A and B through a cross product of edges (eps max|q| |e|) and
# xi (eps max|q| / F times |e|^2), with this net's largest values (0.08 seen).
ULPS_NU_OF_M, ULPS_FORMS_OF_Q = 1, 1


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(rational_nets())
def test_drawn_nets_hold_every_identity_and_rounding_bound(net):
    test_star_determinants_vanish_exactly(net)
    test_compatibility_products_vanish_exactly(net)
    eps = np.finfo(float).eps
    q = net.grid(net.q)
    areas = face_volumes(q).areas
    f = areas.values
    p, e1, e2 = absmax(q.values), absmax(d1(q).values), absmax(d2(q).values)
    corners = np.maximum.reduce([p[:-1, :-1], p[1:, :-1], p[:-1, 1:], p[1:, 1:]])
    edges = np.maximum.reduce([e1[:, :-1], e1[:, 1:], e2[:-1], e2[1:]])

    nu = net.grid(net.nu).values
    for estimate, ((di, dj), _) in zip(face_conormals(q, f), CORNERS):
        corner = nu[di:di + nu.shape[0] - 1, dj:dj + nu.shape[1] - 1]
        bound = ULPS_NU_OF_M * eps * absmax(corner) * corners * edges ** 2 / f ** 2
        assert (absmax(estimate - corner) <= bound).all()

    xi = affine_normal(q, areas)
    exact_xi = _exact_array(net.xi, f.shape)
    assert (absmax(xi.values - exact_xi) <= ULPS_XI_OF_Q * eps * corners / f).all()

    form = cubic_coefficients(q, xi)
    a, b = net.coefficients()
    scale = p.max() * edges.max() * (np.abs(exact_xi).max() + (edges / f).max())
    for coeff, exact in ((form.u_coeff.values, {(i - 1, j): x for (i, j), x in a.items()}),
                         (form.v_coeff.values, {(i, j - 1): x for (i, j), x in b.items()})):
        error = np.abs(coeff - _exact_array(exact, coeff.shape))
        assert error.max() <= ULPS_FORMS_OF_Q * eps * scale
