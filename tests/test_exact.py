"""Identities of the face co-normal kernel on exact rational nets.

On a net integrated from a co-normal field, each face's cross product of
the two edges at a corner, divided by F, is the co-normal of that corner;
and the derivative of F with respect to a vertex is half the co-normal that
the face reads at the corner opposite it, with sign + on the diagonal
through (u, v) and - on the other.  So the area gradient, half the
alternating sum of those co-normals over the four faces of a vertex,
vanishes.  ``exact.py`` builds the nets in Fractions; these tests check each
step exactly and the floating-point kernel against it.
"""

from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from affmin.geometry import face_conormals, face_volumes
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
