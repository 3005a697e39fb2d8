"""Row-band evaluation: any band size gives the whole-grid bits and indices.

Every whole-grid certificate, the co-normal certificate of ``reconstruct``,
the compatibility equations, the gap check of ``affine_equivalence``, the
harmonicity and F of ``validate`` and ``from_separable``, and the v-sums of
``integrate`` run on row bands of ``grids._BAND_VERTICES`` vertices.  The
nets below fit one band at the default size, so the default call is the
whole-grid evaluation; shrinking the bands to one row, or to seven rows
(which divide none of the row counts), must change no bit of any report
field, no worst index and no order of a failure list.
"""

import dataclasses

import numpy as np
import pytest

import affmin as am
from affmin import grids
from affmin.errors import AffminError, IllDefinedForm, IncompatibleData, NotEquivalent
from affmin.grids import BandMax, GridDomain, VertexGrid, row_bands, worst_index

from test_kernels import PINS, certificate_values


def rows_per_band(monkeypatch, rows, n_v):
    monkeypatch.setattr(grids, "_BAND_VERTICES", rows * n_v)


def canonical(x):
    """Report fields as comparable values: floats by their bits, arrays whole."""
    if dataclasses.is_dataclass(x):
        return {f.name: canonical(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, grids.Grid):
        return (type(x).__name__, x.domain, x.values.shape, x.values.tobytes())
    if isinstance(x, AffminError):
        return (type(x).__name__, canonical(vars(x)))
    if isinstance(x, np.ndarray):
        return (x.shape, x.tobytes())
    if isinstance(x, dict):
        return {k: canonical(v) for k, v in x.items()}
    if isinstance(x, list):
        return [canonical(v) for v in x]
    if isinstance(x, tuple):   # named tuples too
        return tuple(canonical(v) for v in x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return x


def reconstructions(surf, data):
    """Positions rebuilt with the net's own and the canonical seed, and the
    rejection of a corrupted coefficient, each as bytes or (face, gap)."""
    p = surf.positions.values
    bumped = np.array(data.u_coeff.values)
    bumped[bumped.shape[0] // 2, bumped.shape[1] // 3] += 1.0
    corrupt = am.FundamentalData(data.areas, data.u_coeff.with_values(bumped), data.v_coeff)
    out = {}
    for name, data, seed in (
        ("own seed", data, np.stack([p[0, 0], p[1, 0], p[0, 1], p[1, 1]])),
        ("canonical seed", data, None),
        ("corrupted", corrupt, None),
    ):
        try:
            out[name] = am.reconstruct(data, seed).positions
        except IncompatibleData as err:
            out[name] = (err.face, err.gap)
    assert isinstance(out["corrupted"], tuple)
    return out


def outcome(fn):
    """What ``fn()`` returns, or the library error it raises."""
    try:
        return fn()
    except AffminError as err:
        return err


def equivalences(surf):
    """affine_equivalence of the net with an affine image of it, and with that
    image bumped at one vertex (which must fail)."""
    linear = np.array([[1.5, 0.2, -0.3], [0.1, 0.9, 0.4], [-0.2, 0.3, 1.1]])
    image = surf.positions.values @ linear.T + np.array([3.0, -1.0, 0.5])
    bumped = np.array(image)
    bumped[bumped.shape[0] // 2, bumped.shape[1] // 3, 1] += 1e-3 * np.abs(image).max()
    out = {}
    for name, values in (("image", image), ("bumped", bumped)):
        other = am.Immersion(surf.positions.with_values(values))
        out[name] = outcome(lambda: am.affine_equivalence(surf, other))
    assert isinstance(out["bumped"], NotEquivalent)
    return out


def conormals(vectors):
    """``validate`` of the co-normals and ``from_separable`` of their edge profiles."""
    nu = vectors.values
    spec = am.SeparableConormalSpec(vectors.domain, nu[:, 0], nu[0] - nu[0, 0])
    return {"validate": outcome(lambda: am.validate(vectors)),
            "from_separable": outcome(lambda: am.from_separable(spec))}


def reports(field, positions, vectors):
    """Every banded function's result on one net, with the derived inputs.

    The net is a new grid on each call, so nothing computed on another call
    (at another band size) is reused through ``Grid.memo``.
    """
    positions = VertexGrid(positions.domain, positions.values)
    surf = am.Immersion(positions)
    vols = am.face_volumes(surf)
    xi = am.affine_normal(surf, vols.areas)
    form = am.cubic_coefficients(surf, xi, tol=1.0)
    derivs, closed = am.a2_b1_closed_form(surf, xi, vols.areas, form)
    return canonical({
        "face_volumes": vols,
        "affine_normal": xi,
        "recover_conormal": am.recover_conormal(surf),
        "asymptotic": am.asymptotic_certificate(surf),
        "planarity": am.planarity_and_saddle(surf, vectors),
        "duality": am.duality_certificate(vectors, xi, vols.areas),
        "cubic": form,
        "structural": am.structural_residuals(surf, vols.areas, form),
        "closed_form": (derivs, closed),
        "normal": am.normal_derivative_residuals(surf, xi, vols.areas, derivs),
        "fundamental": am.extract_fundamental_data(surf, tol=1.0),
        "reconstruct": reconstructions(surf, am.extract_fundamental_data(surf, tol=1.0)),
        "compatibility": am.compatibility_residuals(am.extract_fundamental_data(surf, tol=1.0)),
        "equivalence": equivalences(surf),
        "conormal": conormals(vectors),
        "criticality": am.criticality_certificate(surf),
        "gradient": am.area_gradient(surf),
        "area": am.affine_area(surf),
        "lelieuvre": am.verify_lelieuvre(surf, field),
        "path": am.path_independence_residual(vectors),
    })


def nets():
    """(name, field, positions, co-normals): clean nets, and noisy ones that
    fail with scattered worst entries and many saddle failures."""
    rng = np.random.default_rng(7)
    for name, field in (
        ("helicoid", am.helicoid(64, (-12, 11), (3, 26))),
        ("cubic", am.minimal_cubic(GridDomain(1, 40, 1, 33))),
        ("sphere", am.improper_sphere(GridDomain(31, 50, -30, -11))),
        ("paraboloid", am.hyperbolic_paraboloid(GridDomain(-9, 8, -3, 12))),
    ):
        p = am.integrate(field).positions
        yield name, field, p, field.vectors
        noisy = p.values * (1.0 + 1e-7 * rng.standard_normal(p.values.shape))
        scrambled = rng.standard_normal(field.vectors.values.shape)
        yield (f"{name}-noisy", field, p.with_values(noisy),
               field.vectors.with_values(scrambled))


NETS = list(nets())


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("name, field", [
    ("helicoid", lambda: am.helicoid(64, (-12, 11), (3, 26))),
    ("cubic", lambda: am.minimal_cubic(am.GridDomain(1, 40, 1, 40))),
])
def test_pins_hold_on_many_bands(monkeypatch, rows, name, field):
    net = field()
    rows_per_band(monkeypatch, rows, net.domain.n_v)
    assert certificate_values(net) == PINS[name]


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("name, field, positions, vectors", NETS, ids=[n[0] for n in NETS])
def test_every_report_field_equals_the_whole_grid(monkeypatch, rows, name, field, positions,
                                                  vectors):
    whole = reports(field, positions, vectors)
    rows_per_band(monkeypatch, rows, positions.domain.n_v)
    banded = reports(field, positions, vectors)
    assert banded == whole
    validated = banded["conormal"]["validate"]
    if name.endswith("noisy"):
        assert len(banded["planarity"]["saddle_failures"]) > 10
        assert validated[0] == "NotHarmonic" and len(validated[1]["faces"]) > 10
    else:
        assert validated["vectors"][0] == "VertexGrid"


def test_ties_resolve_to_the_first_entry(monkeypatch):
    # Every residual of the paraboloid is exactly 0: the first entry wins.
    field = am.hyperbolic_paraboloid(GridDomain(-9, 8, -3, 12))
    surf = am.integrate(field)
    rows_per_band(monkeypatch, 1, surf.domain.n_v)
    assert am.recover_conormal(surf).worst_vertex == (-9, -3)
    asym = am.asymptotic_certificate(surf)
    assert (asym.max_zero_residual, asym.worst_zero_vertex) == (0.0, (-9, -3))
    assert asym.worst_mixed_face == (-9, -3)
    assert am.planarity_and_saddle(surf, field.vectors).worst_vertex == (-8, -2)
    assert am.criticality_certificate(surf).worst_vertex == (-8, -2)
    assert am.verify_lelieuvre(surf, field).worst_edge == ("u", (-9, -3))


@pytest.mark.parametrize("rows", [1, 4])
def test_nan_normal_reports_its_vertex_across_a_band_boundary(monkeypatch, cubic, rows):
    # Face (5, 3) feeds A at vertices (5, 3), (5, 4), (6, 3), (6, 4); with
    # 1 or 4 rows per band, rows u = 5 and u = 6 of A fall in different bands.
    _, surf = cubic
    vols = am.face_volumes(surf)
    xi = am.affine_normal(surf, vols.areas)
    bent = np.array(xi.values)
    bent[4, 2, 2] = np.nan
    rows_per_band(monkeypatch, rows, surf.domain.n_v)
    with pytest.raises(IllDefinedForm) as err:
        am.cubic_coefficients(surf, xi.with_values(bent))
    assert err.value.vertex == (5, 3)
    assert np.isnan(err.value.spread)


@pytest.mark.parametrize("n_u, n_v, vertices", [
    (1, 5, 3), (2, 5, 3), (3, 5, 1), (17, 4, 12), (17, 4, 28), (9, 100, 10**6),
])
@pytest.mark.parametrize("before, after", [(0, 1), (0, 2), (1, 1), (1, 2)])
def test_bands_partition_every_grid(monkeypatch, n_u, n_v, vertices, before, after):
    monkeypatch.setattr(grids, "_BAND_VERTICES", vertices)
    grid = VertexGrid(GridDomain(3, 2 + n_u, -1, n_v - 2), np.zeros((n_u, n_v, 3)))
    # Arrays up to ``after`` rows shorter than the vertex grid, each holding
    # its row numbers, are split exactly; a read-only one gives read-only views.
    arrays = [np.arange(max(n_u - k, 0)) for k in range(after + 1)]
    frozen = np.arange(n_u)
    frozen.setflags(write=False)
    owned = [[] for _ in arrays]
    for lo, band, (*views, frozen_view), own in row_bands(grid, before, after, *arrays, frozen):
        assert np.shares_memory(band.values, grid.values)
        start = band.domain.u_min - grid.domain.u_min
        assert 0 <= lo - start <= before
        assert frozen_view.base is frozen and not frozen_view.flags.writeable
        assert list(frozen_view) == list(range(start, start + band.domain.n_u))
        for k, (array, view) in enumerate(zip(arrays, views)):
            assert view.base is array and view.flags.writeable
            assert list(view) == list(range(start, start + max(band.domain.n_u - k, 0)))
            owned[k] += list(view[own])
    assert owned == [list(range(len(array))) for array in arrays]


CLEAN = [net[:2] for net in NETS if not net[0].endswith("noisy")]


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("name, field", CLEAN, ids=[name for name, _ in CLEAN])
def test_integrate_from_an_interior_base_equals_the_whole_grid(monkeypatch, rows, name, field):
    # From an interior base every v-sum runs both ways from the base column,
    # in bands that start before and after the base row; a bare co-normal
    # grid, as ``reconstruct`` passes, integrates to the field's bits.
    dom = field.domain
    base = (dom.u_min + dom.n_u // 2, dom.v_min + dom.n_v // 3)

    def positions():
        return [am.integrate(x, base, (1.0, -2.0, 0.5)).positions.values.tobytes()
                for x in (field, field.vectors)]

    whole = positions()
    rows_per_band(monkeypatch, rows, dom.n_v)
    assert positions() == whole and whole[0] == whole[1]


def test_band_max_matches_the_whole_array(rng):
    values = rng.integers(0, 5, (23, 6)).astype(float)   # many ties
    dom = GridDomain(-4, 18, 2, 7)
    for cuts in ([0, 23], [0, 1, 2, 23], [0, 7, 14, 21, 23], list(range(24))):
        for x in (values, np.where(values > 3, np.nan, values)):
            reducer = BandMax(dom, 1, 0)
            for lo, hi in zip(cuts, cuts[1:]):
                reducer.add(x[lo:hi], lo)
            assert float(reducer.value).hex() == float(x.max()).hex()
            assert reducer.index == worst_index(x, dom, 1, 0)
