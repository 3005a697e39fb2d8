"""Grid, forms-bundle and seed file formats."""

import json

import numpy as np
import pytest

import affmin as am
from affmin.compatibility import FundamentalData, extract_fundamental_data
from affmin.gridio import (
    dumps_json,
    grid_from_obj,
    read_forms,
    read_grid,
    read_seed,
    write_forms,
    write_grid,
    write_json,
    write_seed,
)
from affmin.grids import FaceGrid, GridDomain, UEdgeGrid, VEdgeGrid, VertexGrid


@pytest.mark.parametrize("cls,shape", [
    (VertexGrid, (4, 3)),
    (UEdgeGrid, (3, 3)),
    (VEdgeGrid, (4, 2)),
    (FaceGrid, (3, 2)),
])
@pytest.mark.parametrize("components", [1, 3])
def test_round_trip_exact(cls, shape, components, tmp_path, rng):
    dom = GridDomain(-1, 2, 5, 7)
    full = shape if components == 1 else shape + (3,)
    grid = cls(dom, rng.uniform(-1e6, 1e6, full))
    path = tmp_path / "grid.json"
    write_grid(grid, path)
    back = read_grid(path)
    assert type(back) is cls
    assert back.domain == dom
    np.testing.assert_array_equal(back.values, grid.values)


def test_seventeen_digit_floats(tmp_path):
    grid = VertexGrid(GridDomain(0, 1, 0, 0), np.array([[1.0 / 3.0], [0.1]]))
    path = tmp_path / "g.json"
    write_grid(grid, path)
    text = path.read_text()
    assert "0.33333333333333331" in text
    assert "0.10000000000000001" in text
    assert json.loads(text)["kind"] == "vertex"


def test_expected_kind_enforced(tmp_path, paraboloid):
    _, surf = paraboloid
    path = tmp_path / "s.json"
    write_grid(surf.positions, path)
    assert read_grid(path, expected_kind="vertex").kind == "vertex"
    with pytest.raises(ValueError):
        read_grid(path, expected_kind="face")


def test_malformed_files_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        read_grid(bad)
    with pytest.raises(ValueError):
        grid_from_obj({"kind": "hexagon", "domain": [0, 1, 0, 1],
                       "components": 1, "values": [0, 0, 0, 0]})
    with pytest.raises(ValueError):
        grid_from_obj({"kind": "vertex", "domain": [0, 1, 0, 1],
                       "components": 1, "values": [0, 0, 0]})
    with pytest.raises(ValueError, match="unknown grid kind"):
        grid_from_obj({"kind": ["vertex"], "domain": [0, 1, 0, 1],
                       "components": 1, "values": [0, 0, 0, 0]})
    for values in ({"0": 0}, [[0, 0], [0]], ["x", 0, 0, 0]):
        with pytest.raises(ValueError, match="malformed grid values"):
            grid_from_obj({"kind": "vertex", "domain": [0, 1, 0, 1],
                           "components": 1, "values": values})
    # json.load gives bools and strings, which np.asarray would coerce.
    for values, entry in (([True, True, True, True], "entry 0 is true"),
                          ([0.0, 0.5, "1.5", 2.0], 'entry 2 is "1.5"'),
                          ([0.0, [1.0], 1.0, 1.0], "entry 1 is \\[1.0\\]")):
        with pytest.raises(ValueError, match=f"malformed grid values: {entry}, not a number"):
            grid_from_obj({"kind": "vertex", "domain": [0, 1, 0, 1],
                           "components": 1, "values": values})
    # int() would read 1.9, true and "1" as bounds and true as one component.
    for domain, components, key in (([0, 1.9, 0, True], 1, "domain"),
                                     ([0, "1", 0, 1], 1, "domain"),
                                     ([0, 1, 0, 1], True, "components"),
                                     ([0, 1, 0, 1], 1.0, "components")):
        with pytest.raises(ValueError, match=f"malformed grid object: {key} must be"):
            grid_from_obj({"kind": "vertex", "domain": domain,
                           "components": components, "values": [0, 0, 0, 0]})
    # In a forms bundle null is legal in the padding only, bools and strings nowhere.
    forms = {"F": {"kind": "face", "domain": [0, 2, 0, 2], "components": 1,
                   "values": [1.0, 1.0, 1.0, 1.0]},
             "B": {"values": [None, 0.0, None] * 3}}
    for a_values, entry in (([None] * 3 + [0.0, False, 0.0] + [None] * 3, "entry 4 is false"),
                            ([None] * 3 + [0.0] * 3 + [None, "0", None], 'entry 7 is "0"')):
        bad.write_text(json.dumps({**forms, "A": {"values": a_values}}))
        with pytest.raises(ValueError, match=f"A grid values: {entry}, not a number"):
            read_forms(bad)
    bad.write_text(json.dumps({**forms, "A": {"values": [None] * 3 + [0.0] * 3 + [None] * 3}}))
    assert read_forms(bad).u_coeff.values.shape == (1, 3)
    with pytest.raises(OSError):
        read_grid(tmp_path / "missing.json")


@pytest.mark.parametrize("text", ["[1, 2]", "3.5", "null", '"points"'])
def test_readers_require_a_json_object(tmp_path, text):
    path = tmp_path / "not_an_object.json"
    path.write_text(text)
    for reader in (read_grid, read_forms, read_seed):
        with pytest.raises(ValueError, match="does not hold a JSON object"):
            reader(path)


@pytest.mark.parametrize("key", ["A", "B"])
@pytest.mark.parametrize("bad", [[1, 2], "values", None, {"values": 3}, {"kind": "vertex"}])
def test_forms_reader_requires_coefficient_objects(cubic, tmp_path, key, bad):
    _, surf = cubic
    path = tmp_path / "forms.json"
    write_forms(extract_fundamental_data(surf), path)
    obj = json.loads(path.read_text())
    obj[key] = bad
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=f"{key} must be a grid object with a list of values"):
        read_forms(path)


def test_forms_bundle_round_trip(cubic, tmp_path):
    _, surf = cubic
    data = extract_fundamental_data(surf)
    path = tmp_path / "forms.json"
    write_forms(data, path)
    back = read_forms(path)
    np.testing.assert_array_equal(back.areas.values, data.areas.values)
    np.testing.assert_array_equal(back.u_coeff.values, data.u_coeff.values)
    np.testing.assert_array_equal(back.v_coeff.values, data.v_coeff.values)
    assert back.u_coeff.domain == data.u_coeff.domain


def test_forms_bundle_pads_with_nulls(cubic, tmp_path):
    _, surf = cubic
    data = extract_fundamental_data(surf)
    path = tmp_path / "forms.json"
    write_forms(data, path)
    obj = json.loads(path.read_text())
    dom = data.domain
    a_values = obj["A"]["values"]
    assert len(a_values) == dom.n_u * dom.n_v
    # first and last u-columns have no stencil: all nulls
    assert all(x is None for x in a_values[:dom.n_v])
    assert all(x is None for x in a_values[-dom.n_v:])
    assert obj["A"]["domain"] == list(dom.as_tuple())


def test_forms_bundle_null_inside_stencil_rejected(cubic, tmp_path):
    _, surf = cubic
    data = extract_fundamental_data(surf)
    path = tmp_path / "forms.json"
    write_forms(data, path)
    obj = json.loads(path.read_text())
    obj["A"]["values"][data.domain.n_v + 2] = None   # interior entry
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        read_forms(path)


def test_seed_round_trip(tmp_path):
    seed = am.canonical_seed(2.5)
    path = tmp_path / "seed.json"
    write_seed(seed, path)
    np.testing.assert_array_equal(read_seed(path), seed)
    with pytest.raises(ValueError):
        write_seed(np.zeros((3, 3)), path)
    path.write_text('{"points": {"q00": [0, 0, 0]}}')
    with pytest.raises(ValueError, match="must hold four 3-points"):
        read_seed(path)
    # json.load gives bools and strings, which np.asarray would read as 1.0 and 1.5.
    for points, entry in (([[True, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]],
                           "point 0: entry 0 is true"),
                          ([[0, 0, 0], ["1.5", 0, 0], [0, 1, 0], [1, 1, 1]],
                           'point 1: entry 0 is "1.5"')):
        path.write_text(json.dumps({"points": points}))
        with pytest.raises(ValueError, match=f"{entry}, not a number"):
            read_seed(path)


def test_write_is_deterministic(helicoid, tmp_path):
    _, surf = helicoid
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_grid(surf.positions, a)
    write_grid(surf.positions, b)
    assert a.read_bytes() == b.read_bytes()


def test_dumps_json_values():
    text = dumps_json({"x": 0.5, "flag": True, "items": [1, None, 2.5]})
    parsed = json.loads(text)
    assert parsed == {"x": 0.5, "flag": True, "items": [1, None, 2.5]}


def test_dumps_json_spells_numpy_bools():
    # Comparisons of numpy scalars give np.bool_, alone, in lists and in dicts.
    assert dumps_json(np.bool_(True)) == "true"
    assert dumps_json([np.bool_(False), True, 1]) == "[false, true, 1]"
    assert dumps_json(np.array([1.0, 3.0]) > 2.0) == "[false, true]"
    assert json.loads(dumps_json({"passed": np.float64(1.0) <= 2.0})) == {"passed": True}


class TestNonFinite:
    def test_report_spells_nan_and_infinity_as_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        nan, inf = float("nan"), float("inf")
        report = {
            "scalar": nan,
            "numpy_scalar": np.float64(-inf),
            "floats": [0.5, nan, inf, -inf, 1e-300],
            "padded": [None, nan, 2.5, -inf],
            "mixed": [1, nan, True, np.float64(inf), None],
        }
        path = tmp_path / "report.json"
        write_json(report, path)
        assert json.loads(path.read_text(), parse_constant=reject) == {
            "scalar": None,
            "numpy_scalar": None,
            "floats": [0.5, None, None, None, 1e-300],
            "padded": [None, None, 2.5, None],
            "mixed": [1, None, True, None, None],
        }

    def test_grid_writer_names_first_non_finite_entry(self, helicoid, tmp_path):
        _, surf = helicoid
        values = np.array(surf.positions.values)
        values[3, 5, 2] = np.inf
        values[4, 1, 0] = np.nan
        grid = surf.positions.with_values(values)
        with pytest.raises(ValueError, match=r"non-finite value at grid index \(3, 5\)"):
            write_grid(grid, tmp_path / "g.json")
        assert not (tmp_path / "g.json").exists()

    def test_forms_writer_rejects_nan_coefficient(self, cubic, tmp_path):
        _, surf = cubic
        data = extract_fundamental_data(surf)
        b = np.array(data.v_coeff.values)
        b[2, 3] = np.nan
        broken = FundamentalData(data.areas, data.u_coeff, data.v_coeff.with_values(b))
        sub = data.v_coeff.domain
        where = (sub.u_min + 2, sub.v_min + 3)
        with pytest.raises(ValueError, match=rf"B grid .* index \({where[0]}, {where[1]}\)"):
            write_forms(broken, tmp_path / "forms.json")

    def test_grid_reader_rejects_nan_and_infinity_tokens(self, tmp_path):
        grid = VertexGrid(GridDomain(0, 1, 0, 1), np.arange(4.0).reshape(2, 2))
        path = tmp_path / "g.json"
        write_grid(grid, path)
        text = path.read_text()
        for token in ("NaN", "Infinity", "-Infinity"):
            path.write_text(text.replace("[0, 1, 2, 3]", f"[0, 1, {token}, 3]"))
            with pytest.raises(ValueError, match=r"grid index \(1, 0\)"):
                read_grid(path)

    def test_seed_writer_names_non_finite_point(self, tmp_path):
        path = tmp_path / "seed.json"
        for bad in (np.nan, np.inf, -np.inf):
            seed = am.canonical_seed(2.0)
            seed[2, 1] = bad
            with pytest.raises(ValueError, match=r"seed has a non-finite value at point 2"):
                write_seed(seed, path)
            assert not path.exists()

    def test_seed_reader_rejects_nan_and_infinity_tokens(self, tmp_path):
        path = tmp_path / "seed.json"
        write_seed(am.canonical_seed(2.0), path)
        text = path.read_text()
        assert text.count("[1, 1, 4]") == 1
        for token in ("NaN", "Infinity", "-Infinity"):
            path.write_text(text.replace("[1, 1, 4]", f"[1, {token}, 4]"))
            with pytest.raises(ValueError, match=r"non-finite value at point 3"):
                read_seed(path)

    def test_forms_reader_rejects_nan_token_outside_stencil(self, cubic, tmp_path):
        _, surf = cubic
        path = tmp_path / "forms.json"
        write_forms(extract_fundamental_data(surf), path)
        obj = json.loads(path.read_text())
        obj["A"]["values"][0] = float("nan")   # a padding slot, null before
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="A grid has a non-finite value"):
            read_forms(path)
