"""Identities of the face co-normal kernel on exact rational nets.

On a net integrated from a co-normal field, each face's cross product of
the two edges at a corner, divided by F, is the co-normal of that corner;
and the derivative of F with respect to a vertex is half the co-normal that
the face reads at the corner opposite it, with sign + on the diagonal
through (u, v) and - on the other.  So the area gradient, half the
alternating sum of those co-normals over the four faces of a vertex,
vanishes.  The affine normal and each face choice of the cubic coefficients
are rational as well: the choices agree exactly, and the three compatibility
equations hold with no remainder.  ``exact.py`` builds the nets in
Fractions; these tests check each step exactly and the floating-point
kernels against it.
"""

from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from affmin.forms import cubic_coefficients
from affmin.geometry import affine_normal, face_conormals, face_volumes
from affmin.grids import GridDomain
from exact import ExactNet, add, cross, cubic_like, rational_sqrt, sub, volume


def _random_net(seed):
    """A 7 x 6 net on random increasing rational samples a, b >= 1/4."""
    rng = np.random.default_rng(seed)
    steps = ((Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 6))) for _ in range(n))
             for n in (7, 6))
    a, b = (list(accumulate(row, initial=Fraction(1, 4)))[1:] for row in steps)
    return ExactNet(GridDomain(-3, 3, 2, 7), a, b, int(rng.integers(-9, 4)))


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
