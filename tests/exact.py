"""Exact rational nets: the co-normal, its Lelieuvre positions, M, F, the affine
normal and the cubic form in Fractions.

The family is the cubic one shifted along z, nu(u, v) = alpha(a) + beta(b)
with alpha = (a, 0, a^2 + k/9) and beta = (0, b, b^2), sampled at rational
a_0 < a_1 < ... along u and b_0 < b_1 < ... along v.  Its face area density
is F = (a' - a)(b' - b)(a a' + b b' - k/9) on the face with corners a, a'
and b, b', so F > 0 wherever a a' + b b' > k/9.  The positions sum the
Lelieuvre edges

    q(u+1, v) - q(u, v) = nu(u, v) x nu(u+1, v)
    q(u, v+1) - q(u, v) = nu(u, v+1) x nu(u, v)

from q = 0 at the first vertex, in exact arithmetic, so every identity of
the paper holds with no rounding: M = det(e1, e2, q11 - q00) is F^2, a
perfect square of a rational.  The affine normal xi = d12(q) / F of each
face, and each face choice of the cubic coefficients

    A(u, v) = [q1(u-1/2, v), q1(u+1/2, v), xi]
    B(u, v) = [q2(u, v+1/2), q2(u, v-1/2), xi]

over the up to four faces at the vertex (as ``forms.cubic_coefficients``
forms them), are rational too; ``compatibility_products`` gives the three
equations of ``compatibility.compatibility_residuals`` as exact differences.
``star_determinants`` gives the determinants of each vertex star that
vanish on any asymptotic net, of these positions or of corrupted ones, and
``structural_vectors`` the residual vectors of the structural equations
F q11 = F1 q1 + A q2 and F q22 = B q1 + F2 q2 for any positions, F, A and B.
``rational_nets`` draws nets of the family on random rational samples.
"""

from fractions import Fraction
from itertools import accumulate
from math import isqrt

import numpy as np
from hypothesis import assume, strategies as st

from affmin.grids import GridDomain, VertexGrid


def sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def cross(x, y):
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def det(x, y, z):
    """Triple product [x, y, z] = x . (y x z)."""
    return sum(a * b for a, b in zip(x, cross(y, z)))


def volume(q00, q10, q01, q11):
    """M of the face with these corners: det(q10 - q00, q01 - q00, q11 - q00)."""
    return det(sub(q10, q00), sub(q01, q00), sub(q11, q00))


def star_determinants(q):
    """Vertex (i, j) -> the determinants of its star, from positions ``q[i][j]``:
    [q1(u-1/2), q1(u+1/2), q2(v+-1/2)] if it is u-interior and
    [q2(v+1/2), q2(v-1/2), q1(u+-1/2)] if it is v-interior, for each edge
    q2(v+-1/2) or q1(u+-1/2) of the box, the + side first.  All of them
    vanish exactly when every vertex star is planar."""
    n_u, n_v, stars = len(q), len(q[0]), {}
    for i in range(n_u):
        for j in range(n_v):
            # The edges at u-1/2, u+1/2 and at v-1/2, v+1/2, None off the box.
            q1 = [sub(q[i + s][j], q[i + s - 1][j]) if 0 < i + s < n_u else None for s in (0, 1)]
            q2 = [sub(q[i][j + s], q[i][j + s - 1]) if 0 < j + s < n_v else None for s in (0, 1)]
            dets = []
            if None not in q1:
                dets += [det(q1[0], q1[1], edge) for edge in q2[::-1] if edge is not None]
            if None not in q2:
                dets += [det(q2[1], q2[0], edge) for edge in q1[::-1] if edge is not None]
            if dets:
                stars[i, j] = dets
    return stars


def mul(c, x):
    return tuple(c * a for a in x)


def structural_vectors(q, f, a, b):
    """Name -> vertex (i, j) -> residual vector of a structural equation, from
    positions ``q[i][j]``, F ``f[i, j]`` of face (i, j) and A ``a[i, j]``, B
    ``b[i, j]`` of vertex (i, j), whatever they are:

        q11[v s][u t] = F q11 - F1 q1 - A q2   at u-interior vertices,
        q22[u s][v t] = F q22 - B q1 - F2 q2   at v-interior vertices,

    with the edge across the axis (q2, q1) on side s (+: v+1/2, u+1/2; -: v-1/2,
    u-1/2), F and the edge along it (q1, q2) on side t, and F1 = d1(F), F2 =
    d2(F) between the two faces on side s.  ``forms.structural_residuals``
    reports the four with t = +, as ``q11[v s]`` and ``q22[u s]``."""
    n_u, n_v, vectors = len(q), len(q[0]), {}
    for i in range(n_u):
        for j in range(n_v):
            # The edges at u-1/2, u+1/2 and at v-1/2, v+1/2 (keys -1, +1) that the box has.
            q1 = {s: sub(q[i + max(s, 0)][j], q[i + min(s, 0)][j]) for s in (-1, 1)
                  if 0 <= i + s < n_u}
            q2 = {s: sub(q[i][j + max(s, 0)], q[i][j + min(s, 0)]) for s in (-1, 1)
                  if 0 <= j + s < n_v}
            for s, s_name in ((1, "+"), (-1, "-")):   # the side of the edge across
                for t, t_name in ((1, "+"), (-1, "-")):   # the side of F and the edge along
                    if len(q1) == 2 and s in q2:
                        fj = j + min(s, 0)
                        f1 = f[i, fj] - f[i - 1, fj]
                        vectors.setdefault(f"q11[v{s_name}][u{t_name}]", {})[i, j] = sub(sub(
                            mul(f[i + min(t, 0), fj], sub(q1[1], q1[-1])), mul(f1, q1[t])),
                            mul(a[i, j], q2[s]))
                    if len(q2) == 2 and s in q1:
                        fi = i + min(s, 0)
                        f2 = f[fi, j] - f[fi, j - 1]
                        vectors.setdefault(f"q22[u{s_name}][v{t_name}]", {})[i, j] = sub(sub(
                            mul(f[fi, j + min(t, 0)], sub(q2[1], q2[-1])), mul(b[i, j], q1[s])),
                            mul(f2, q2[t]))
    return vectors


def rational_sqrt(m: Fraction) -> Fraction:
    """The rational square root of ``m``; ValueError unless ``m`` is a perfect square."""
    num, den = isqrt(m.numerator), isqrt(m.denominator)
    if m < 0 or Fraction(num * num, den * den) != m:
        raise ValueError(f"{m} is not the square of a rational")
    return Fraction(num, den)


class ExactNet:
    """The cubic-like net on samples ``a`` (along u) and ``b`` (along v) with shift ``k``.

    ``nu[i][j]`` and ``q[i][j]`` are the co-normal and the position of vertex
    (u_min + i, v_min + j) of ``domain``; ``f[i, j]`` is [nu, nu(v+1), nu(u+1)]
    and ``m[i, j]`` the volume M of face (i, j), both Fractions.  ``xi[i, j]``
    is the affine normal of face (i, j); ``a_choices[i, j]`` and
    ``b_choices[i, j]`` list A and B at vertex (i, j) as each face that meets
    it gives them.
    """

    def __init__(self, domain: GridDomain, a, b, k):
        a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
        if (len(a), len(b)) != (domain.n_u, domain.n_v):
            raise ValueError(f"need {domain.n_u} a and {domain.n_v} b samples")
        shift = Fraction(k, 9)
        self.domain = domain
        self.nu = [[(x, y, x * x + shift + y * y) for y in b] for x in a]
        nu = self.nu
        q = [[None] * len(b) for _ in a]
        q[0][0] = (Fraction(0),) * 3
        for i in range(1, len(a)):
            q[i][0] = add(q[i - 1][0], cross(nu[i - 1][0], nu[i][0]))
        for i in range(len(a)):
            for j in range(1, len(b)):
                q[i][j] = add(q[i][j - 1], cross(nu[i][j], nu[i][j - 1]))
        self.q = q
        faces = [(i, j) for i in range(len(a) - 1) for j in range(len(b) - 1)]
        self.f = {(i, j): det(nu[i][j], nu[i][j + 1], nu[i + 1][j]) for i, j in faces}
        self.m = {(i, j): volume(q[i][j], q[i + 1][j], q[i][j + 1], q[i + 1][j + 1])
                  for i, j in faces}
        self.xi = {(i, j): tuple(x / self.f[i, j] for x in sub(
            add(q[i + 1][j + 1], q[i][j]), add(q[i + 1][j], q[i][j + 1]))) for i, j in faces}
        self.a_choices = {(i, j): [det(sub(q[i][j], q[i - 1][j]), sub(q[i + 1][j], q[i][j]),
                                       self.xi[face]) for face in self._incident(i, j)]
                          for i in range(1, len(a) - 1) for j in range(len(b))}
        self.b_choices = {(i, j): [det(sub(q[i][j + 1], q[i][j]), sub(q[i][j], q[i][j - 1]),
                                       self.xi[face]) for face in self._incident(i, j)]
                          for i in range(len(a)) for j in range(1, len(b) - 1)}

    def _incident(self, i, j):
        """The faces (i - 1 or i, j - 1 or j) of the box that meet vertex (i, j)."""
        return [(fi, fj) for fi in (i - 1, i) for fj in (j - 1, j) if (fi, fj) in self.f]

    def face_corners(self, i, j):
        """Positions of face (i, j) at (u, v), (u+1, v), (u, v+1), (u+1, v+1)."""
        q = self.q
        return q[i][j], q[i + 1][j], q[i][j + 1], q[i + 1][j + 1]

    def grid(self, rows) -> VertexGrid:
        """A vertex grid of ``rows`` (``nu`` or ``q``), each Fraction rounded to float."""
        return VertexGrid(self.domain, np.array([[[float(x) for x in vec] for vec in row]
                                                 for row in rows]))

    def coefficients(self):
        """(A, B): each vertex's coefficient, once every face choice agrees on it."""
        spread = [key for key, values in (*self.a_choices.items(), *self.b_choices.items())
                  if len(set(values)) != 1]
        if spread:
            raise ValueError(f"face choices differ at vertices {spread}")
        return ({key: values[0] for key, values in self.a_choices.items()},
                {key: values[0] for key, values in self.b_choices.items()})

    def compatibility_products(self):
        """Vertex (i, j), fully interior -> the exact (r0, r1, r2) differences

        r0 = F(i-1, j) F(i, j-1) - F(i, j) F(i-1, j-1) - A B
        r1 = F(i-1, j-1) B_1(i+1/2) - F(i, j-1) B_1(i-1/2) - B A_2(j-1/2)
        r2 = F(i-1, j-1) A_2(j+1/2) - F(i-1, j) A_2(j-1/2) - A B_1(i-1/2)

        with A, B at (i, j) unless shifted, B_1 = d1(B) and A_2 = d2(A)."""
        f, (a, b) = self.f, self.coefficients()
        products = {}
        for i in range(1, self.domain.n_u - 1):
            for j in range(1, self.domain.n_v - 1):
                b1_lo, b1_hi = b[i, j] - b[i - 1, j], b[i + 1, j] - b[i, j]
                a2_lo, a2_hi = a[i, j] - a[i, j - 1], a[i, j + 1] - a[i, j]
                products[i, j] = (
                    f[i - 1, j] * f[i, j - 1] - f[i, j] * f[i - 1, j - 1] - a[i, j] * b[i, j],
                    f[i - 1, j - 1] * b1_hi - f[i, j - 1] * b1_lo - b[i, j] * a2_lo,
                    f[i - 1, j - 1] * a2_hi - f[i - 1, j] * a2_lo - a[i, j] * b1_lo)
        return products


def cubic_like(domain: GridDomain, k, step_u=1, step_v=1) -> ExactNet:
    """The net with a = u * step_u and b = v * step_v over ``domain``."""
    a = [Fraction(u) * Fraction(step_u) for u in domain.u_values().tolist()]
    b = [Fraction(v) * Fraction(step_v) for v in domain.v_values().tolist()]
    return ExactNet(domain, a, b, k)


def stepped(domain: GridDomain, steps_u, steps_v, k) -> ExactNet:
    """The net on samples that climb from 1/4 by ``steps_u`` along u and ``steps_v`` along v."""
    a, b = (list(accumulate(steps, initial=Fraction(1, 4)))[1:] for steps in (steps_u, steps_v))
    return ExactNet(domain, a, b, k)


@st.composite
def rational_nets(draw, max_n=8):
    """Nets ``stepped`` on 3 to ``max_n`` samples each way, with steps p/q (p in
    1..8, q in 1..5) and shift k in -9..3, kept only with F > 0 on every face."""
    u_min, v_min = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    n_u, n_v = draw(st.integers(3, max_n)), draw(st.integers(3, max_n))
    step = st.builds(Fraction, st.integers(1, 8), st.integers(1, 5))
    net = stepped(GridDomain(u_min, u_min + n_u - 1, v_min, v_min + n_v - 1),
                  draw(st.lists(step, min_size=n_u, max_size=n_u)),
                  draw(st.lists(step, min_size=n_v, max_size=n_v)), draw(st.integers(-9, 3)))
    assume(min(net.f.values()) > 0)
    return net
