"""Grid, forms-bundle and seed file formats."""

import json
import re

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
    with pytest.raises(ValueError, match="components must be 1 or 3, got 2"):
        grid_from_obj({"kind": "vertex", "domain": [0, 1, 0, 1],
                       "components": 2, "values": [0] * 8})
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
    with pytest.raises(ValueError, match="malformed grid object: empty domain"):
        grid_from_obj({"kind": "vertex", "domain": [5, 0, 0, 1], "components": 1, "values": []})
    # In a forms bundle, as in any grid, null, bools and strings are no numbers.
    forms = {"F": {"kind": "face", "domain": [0, 2, 0, 2], "components": 1,
                   "values": [1.0, 1.0, 1.0, 1.0]},
             "B": {"kind": "vertex", "domain": [0, 2, 1, 1], "components": 1,
                   "values": [0.0, 0.0, 0.0]}}
    header = {"kind": "vertex", "domain": [1, 1, 0, 2], "components": 1}
    for a_values, entry in (([0.0, False, 0.0], "entry 1 is false"),
                            ([0.0, 0.0, "0"], 'entry 2 is "0"'),
                            ([None, 0.0, 0.0], "entry 0 is null")):
        bad.write_text(json.dumps({**forms, "A": {**header, "values": a_values}}))
        with pytest.raises(ValueError, match=f"bad.json: A: malformed grid values: {entry}, "
                                             "not a number"):
            read_forms(bad)
    bad.write_text(json.dumps({**forms, "A": {**header, "values": [0.0] * 3}}))
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
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: {key}: malformed grid object"):
        read_forms(path)


def _tripled(grid_obj):
    """``grid_obj`` as a 3-component grid: each value three times."""
    grid_obj.update(components=3, values=[x for x in grid_obj["values"] for _ in range(3)])


@pytest.mark.parametrize("damage, message", [
    (lambda obj: obj.pop("B"), "is missing key 'B'"),
    (lambda obj: obj.update(F={**obj["F"], "kind": "vertex", "values": [1.0] * 64}),
     "F must be a 1-component face"),
    (lambda obj: obj["A"]["values"].pop(), "A: grid value count 47"),
    (lambda obj: obj["A"].update(kind="face", values=obj["A"]["values"][:35]),
     "A must be a 1-component vertex grid, got a 1-component face grid"),
    (lambda obj: obj["A"].update(kind=7), "A: unknown grid kind 7"),
    (lambda obj: obj["B"].update(domain=[0, 99, 0, 99]), "B: grid value count 48 does not match"),
    (lambda obj: _tripled(obj["A"]),
     "A must be a 1-component vertex grid, got a 3-component vertex grid"),
    (lambda obj: _tripled(obj["B"]),
     "B must be a 1-component vertex grid, got a 3-component vertex grid"),
    (lambda obj: [obj["B"].pop(key) for key in ("kind", "domain", "components")],
     "B: malformed grid object: 'kind'"),
])
def test_forms_reader_rejects_a_damaged_bundle(cubic, tmp_path, damage, message):
    _, surf = cubic
    path = tmp_path / "forms.json"
    write_forms(extract_fundamental_data(surf), path)
    obj = json.loads(path.read_text())
    damage(obj)
    path.write_text(json.dumps(obj))
    pattern = f"forms bundle {re.escape(str(path))}.* {re.escape(message)}"
    with pytest.raises(ValueError, match=pattern):
        read_forms(path)


def test_forms_reader_rejects_a_coefficient_on_the_whole_box(cubic, tmp_path):
    # The domain of A in the padded layout, with numbers where nulls were.
    _, surf = cubic
    path = tmp_path / "forms.json"
    write_forms(extract_fundamental_data(surf), path)
    obj = json.loads(path.read_text())
    obj["A"].update(domain=obj["F"]["domain"], values=[1.0] * 64)
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError) as err:
        read_forms(path)
    assert str(err.value) == (f"forms bundle {path}: u_coeff domain GridDomain(u_min=1, u_max=8, "
                              "v_min=1, v_max=8) is not GridDomain(u_min=2, u_max=7, v_min=1, "
                              "v_max=8)")


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


def test_forms_bundle_stores_each_grid_on_its_own_domain(cubic, tmp_path):
    _, surf = cubic
    data = extract_fundamental_data(surf)
    path = tmp_path / "forms.json"
    write_forms(data, path)
    obj = json.loads(path.read_text())
    assert list(obj) == ["F", "A", "B"]
    for key, grid in (("F", data.areas), ("A", data.u_coeff), ("B", data.v_coeff)):
        assert obj[key] == {"kind": grid.kind, "domain": list(grid.domain.as_tuple()),
                            "components": 1, "values": grid.values.reshape(-1).tolist()}
    assert obj["A"]["domain"] == [2, 7, 1, 8] and obj["B"]["domain"] == [1, 8, 2, 7]


def test_forms_bundle_null_inside_stencil_rejected(cubic, tmp_path):
    _, surf = cubic
    data = extract_fundamental_data(surf)
    path = tmp_path / "forms.json"
    write_forms(data, path)
    obj = json.loads(path.read_text())
    obj["A"]["values"][data.domain.n_v + 2] = None   # A holds its stencil's entries only
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: A: malformed grid values: "
                                         "entry 10 is null, not a number"):
        read_forms(path)


def test_seed_round_trip(tmp_path):
    seed = am.canonical_seed(2.5)
    path = tmp_path / "seed.json"
    write_seed(seed, path)
    np.testing.assert_array_equal(read_seed(path), seed)
    with pytest.raises(ValueError):
        write_seed(np.zeros((3, 3)), path)
    with pytest.raises(ValueError, match="seed must hold four 3-points: could not convert"):
        write_seed([[0, 0, 0], [1, 0, 0], ["q01", 1, 0], [1, 1, 1]], path)
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


def test_seed_reader_names_the_file_and_the_malformed_point(tmp_path):
    # np.asarray would raise its own messages here, naming neither.
    path = tmp_path / "seed.json"
    for points, message in (
        ("abc", 'must hold four 3-points, got "abc"'),
        ([[0, 0, 0], [1, 0], [0, 1, 0], [1, 1, 1]], "point 1 has 2 coordinates, not 3"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1, 0]], "point 3 has 4 coordinates, not 3"),
        ([[0, 0, 0], "q10", [0, 1, 0], [1, 1, 1]], "point 1: expected a list, got str"),
    ):
        path.write_text(json.dumps({"points": points}))
        with pytest.raises(ValueError) as err:
            read_seed(path)
        assert str(err.value) == f"seed file {path} {message}"


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


def test_dumps_json_spells_an_empty_dict():
    assert dumps_json({}) == "{}"
    assert dumps_json({"meshes": {}}) == '{\n  "meshes": {}\n}'


def test_unserializable_value_leaves_no_file(tmp_path):
    # The values array spans several passes, so bytes reach the file first.
    report = {"values": np.linspace(0.0, 1.0, 50_000), "bad": object()}
    path = tmp_path / "report.json"
    with pytest.raises(TypeError, match="cannot serialize object"):
        write_json(report, path)
    assert not path.exists()


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
        with pytest.raises(ValueError) as err:
            write_grid(grid, tmp_path / "g.json")
        assert str(err.value) == (f"{tmp_path / 'g.json'}: vertex grid at grid index (3, 5), "
                                  "component 2: inf is not finite or over 1.41e+102 in size")
        assert not (tmp_path / "g.json").exists()

    def test_forms_writer_rejects_nan_coefficient(self, cubic, tmp_path):
        _, surf = cubic
        data = extract_fundamental_data(surf)
        b = np.array(data.v_coeff.values)
        b[2, 3] = np.nan
        broken = FundamentalData(data.areas, data.u_coeff, data.v_coeff.with_values(b))
        sub = data.v_coeff.domain
        where = (sub.u_min + 2, sub.v_min + 3)
        path = tmp_path / "forms.json"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: B: vertex grid at grid "
                                             rf"index \({where[0]}, {where[1]}\)"):
            write_forms(broken, path)

    def test_grid_and_forms_writers_reject_before_opening(self, cubic, tmp_path):
        # A file the writer opened would be truncated, or removed on failure.
        _, surf = cubic
        data = extract_fundamental_data(surf)
        b = np.array(data.v_coeff.values)
        b[-1, -1] = np.nan
        broken = FundamentalData(data.areas, data.u_coeff, data.v_coeff.with_values(b))
        path = tmp_path / "kept.json"
        path.write_text("kept")
        with pytest.raises(ValueError, match="nan is not finite"):
            write_grid(broken.v_coeff, path)
        with pytest.raises(ValueError, match="nan is not finite"):
            write_forms(broken, path)
        assert path.read_text() == "kept"

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
            with pytest.raises(ValueError) as err:   # point 2 is q01
                write_seed(seed, path)
            assert str(err.value) == (f"seed at grid index (0, 1), component 1: {bad} is not "
                                      "finite or over 1.41e+102 in size")
            assert not path.exists()

    def test_seed_reader_rejects_nan_and_infinity_tokens(self, tmp_path):
        path = tmp_path / "seed.json"
        write_seed(am.canonical_seed(2.0), path)
        text = path.read_text()
        assert text.count("[1, 1, 4]") == 1
        for token, value in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")):
            path.write_text(text.replace("[1, 1, 4]", f"[1, {token}, 4]"))
            with pytest.raises(ValueError) as err:   # point 3 is q11
                read_seed(path)
            assert str(err.value) == (f"seed file {path} at grid index (1, 1), component 1: "
                                      f"{value} is not finite or over 1.41e+102 in size")

    def test_forms_reader_rejects_nan_token_outside_stencil(self, cubic, tmp_path):
        # The padded layout of A, NaN tokens where its stencil does not reach.
        _, surf = cubic
        data = extract_fundamental_data(surf)
        path = tmp_path / "forms.json"
        write_forms(data, path)
        obj = json.loads(path.read_text())
        padded = np.full((data.domain.n_u, data.domain.n_v), np.nan)
        padded[1:-1] = data.u_coeff.values
        obj["A"].update(domain=obj["F"]["domain"], values=padded.reshape(-1).tolist())
        path.write_text(json.dumps(obj))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: A: vertex grid at "
                                             r"grid index \(1, 1\): nan is not finite"):
            read_forms(path)
