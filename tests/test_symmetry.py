"""The symmetries of the box as an oracle for the certificates.

The definitions of a DAMS prefer no corner and no direction of the vertex
box.  Its symmetry group has 8 elements: reverse u, reverse v, and swap u
with v.  Each maps a DAMS to a DAMS, provided the swap comes with x -> -x:
reversals keep every corner tetrahedron's M (its four corners are only
relabelled by an even permutation), while a swap alone flips its sign.  So
under each element every section verdict of ``check`` stays the same, on
family nets and on corruptions of them, and F maps to the mapped F.
"""

import itertools

import numpy as np
import pytest

import affmin as am
from affmin.cli import _surface_checks
from affmin.grids import GridDomain, VertexGrid

FIELDS = {
    "cubic": lambda: am.minimal_cubic(GridDomain(1, 12, 1, 10)),
    "helicoid": lambda: am.helicoid(16, (-5, 6), (0, 9)),
    "sphere": lambda: am.improper_sphere(GridDomain(1, 9, -8, 0)),
    "paraboloid": lambda: am.hyperbolic_paraboloid(GridDomain(0, 7, 0, 9)),
}

# (family, array vertex moved by 1e-6 of max |q|, or None): the clean nets pass
# every section; the corner move fails all but ``planar_saddle``.
NETS = [("cubic", None), ("helicoid", None), ("sphere", None), ("paraboloid", None),
        ("cubic", (4, 4)), ("helicoid", (5, 3)), ("cubic", (0, 0))]

# Positions of the clean cubic, sphere and paraboloid nets are small dyadic
# numbers, so each M is exact and F maps bit for bit.
EXACT = {("cubic", None), ("sphere", None), ("paraboloid", None)}

ELEMENTS = list(itertools.product((False, True), repeat=3))   # (reverse u, reverse v, swap)


def element_id(element):
    return "+".join(name for name, on in zip(("rev_u", "rev_v", "swap"), element) if on) or "id"


def net(family, moved):
    p = am.integrate(FIELDS[family]()).positions
    values = np.array(p.values)
    if moved is not None:
        values[moved] += 1e-6 * np.abs(values).max()
    return VertexGrid(p.domain, values)


def apply(element, values):
    """An entry grid (u, v first) read through a box symmetry."""
    rev_u, rev_v, swap = element
    values = values[::-1] if rev_u else values
    values = values[:, ::-1] if rev_v else values
    return values.swapaxes(0, 1) if swap else values


def image(element, q: VertexGrid) -> VertexGrid:
    """The net under ``element``, with x -> -x when u and v are swapped."""
    d, swap = q.domain, element[2]
    domain = GridDomain(d.v_min, d.v_max, d.u_min, d.u_max) if swap else d
    values = apply(element, q.values)
    return VertexGrid(domain, np.ascontiguousarray(-values if swap else values))


def verdicts(q: VertexGrid) -> dict:
    report = _surface_checks(am.Immersion(q), None)
    return {name: section["passed"] for name, section in report.items() if name != "passed"}


@pytest.fixture(scope="module", params=NETS, ids=lambda n: n[0] + ("" if n[1] is None
                                                                   else f"-moved{n[1]}"))
def case(request):
    q = net(*request.param)
    return request.param, q, verdicts(q), am.face_volumes(q).areas.values


def test_the_nets_pass_or_fail_as_described(case):
    (family, moved), _, expected, _ = case
    if moved is None:
        assert all(expected.values())
    elif moved == (0, 0):
        assert expected == {"asymptotic": False, "conormal_recovery": False,
                            "planar_saddle": True, "duality": False}
    else:
        assert not any(expected.values())


@pytest.mark.parametrize("element", ELEMENTS, ids=element_id)
def test_every_verdict_is_kept(case, element):
    _, q, expected, _ = case
    assert verdicts(image(element, q)) == expected


@pytest.mark.parametrize("element", ELEMENTS, ids=element_id)
def test_areas_map_to_the_mapped_areas(case, element):
    name, q, _, areas = case
    mapped = am.face_volumes(image(element, q)).areas.values
    if name in EXACT:
        np.testing.assert_array_equal(mapped, apply(element, areas))
    else:
        np.testing.assert_allclose(mapped, apply(element, areas), rtol=8 * np.finfo(float).eps)
