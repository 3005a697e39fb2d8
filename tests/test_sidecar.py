"""The binary sidecar ``<path>.npy`` that grid and forms writers leave next to
each file: a reader takes the grids from it only when it holds the SHA-256 of
the JSON bytes and agrees with itself, and then gets the JSON path's bits;
otherwise it parses the JSON as before, with the JSON path's errors."""

import errno
import hashlib
import json
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import affmin as am
from affmin import gridio
from affmin.cli import main
from affmin.compatibility import extract_fundamental_data
from affmin.forms import FundamentalData
from affmin.grids import GRID_KINDS, GridDomain


def sidecar(path) -> Path:
    return Path(f"{path}.npy")


@pytest.fixture()
def json_reads(monkeypatch):
    """The paths that readers parsed as JSON, in order."""
    parsed = []
    load = gridio._load_json
    monkeypatch.setattr(gridio, "_load_json", lambda path: parsed.append(path) or load(path))
    return parsed


def same_bits(a, b):
    assert type(a) is type(b) and a.domain == b.domain
    assert a.values.shape == b.values.shape and a.values.tobytes() == b.values.tobytes()
    for grid in (a, b):
        assert all(grid.values[..., k].flags.c_contiguous for k in range(3)) \
            if grid.components == 3 else grid.values.flags.c_contiguous


# Bounded finite values, -0.0 and subnormals among them.
VALUES = st.one_of(st.just(-0.0), st.floats(-1e100, 1e100, allow_nan=False,
                                            allow_subnormal=True))


@st.composite
def grids(draw, kind=None, components=None, domain=None):
    cls = GRID_KINDS[kind or draw(st.sampled_from(sorted(GRID_KINDS)))]
    if domain is None:
        u0, v0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        domain = GridDomain(u0, u0 + draw(st.integers(1, 6)), v0, v0 + draw(st.integers(1, 6)))
    components = components or draw(st.sampled_from([1, 3]))
    shape = cls._entry_shape(domain) + ((3,) if components == 3 else ())
    return cls(domain, draw(hnp.arrays(np.float64, shape, elements=VALUES)))


@st.composite
def bundles(draw):
    u0, v0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    dom = GridDomain(u0, u0 + draw(st.integers(2, 6)), v0, v0 + draw(st.integers(2, 6)))
    areas = draw(grids("face", 1, dom))
    areas = areas.with_values(np.abs(areas.values) + 1.0)   # F > 0
    return FundamentalData(areas, draw(grids("vertex", 1, dom.shrink(1, 1))),
                           draw(grids("vertex", 1, dom.shrink(0, 0, 1, 1))))


def both_paths(write, read, value):
    """What ``read`` gives with the sidecar that ``write`` left, and without it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        write(value, path)
        assert sidecar(path).exists()
        with_sidecar = read(path)
        sidecar(path).unlink()
        return with_sidecar, read(path)


@given(grids())
@settings(max_examples=120, deadline=None)
def test_sidecar_read_gives_the_json_bits(grid):
    fast, parsed = both_paths(gridio.write_grid, gridio.read_grid, grid)
    same_bits(fast, parsed)
    assert not np.signbit(fast.values[fast.values == 0.0]).any()   # "-0" reads as 0.0


@given(bundles())
@settings(max_examples=40, deadline=None)
def test_sidecar_read_gives_the_json_bits_of_a_forms_bundle(data):
    fast, parsed = both_paths(gridio.write_forms, gridio.read_forms, data)
    for name in ("areas", "u_coeff", "v_coeff"):
        same_bits(getattr(fast, name), getattr(parsed, name))


def test_readers_take_the_sidecar(cubic, tmp_path, json_reads):
    field, surf = cubic
    gridio.write_grid(surf.positions, tmp_path / "s.json")
    gridio.write_forms(extract_fundamental_data(surf), tmp_path / "f.json")
    same_bits(gridio.read_grid(tmp_path / "s.json", "vertex"), surf.positions)
    gridio.read_forms(tmp_path / "f.json")
    assert json_reads == []
    nbytes = surf.positions.values.nbytes   # and the digest, kind, domain and header
    assert nbytes < sidecar(tmp_path / "s.json").stat().st_size < nbytes + 512


def test_a_sidecar_read_parses_the_npy_header_once(cubic, tmp_path, json_reads, monkeypatch):
    # The header is read and checked once; the record follows it, without np.load.
    _, surf = cubic
    gridio.write_grid(surf.positions, tmp_path / "s.json")
    monkeypatch.setattr(np, "load", lambda *args, **kwargs: pytest.fail("np.load called"))
    same_bits(gridio.read_grid(tmp_path / "s.json", "vertex"), surf.positions)
    assert json_reads == []


def test_sidecar_holds_the_digest_header_and_planes(cubic, tmp_path):
    _, surf = cubic
    path = tmp_path / "s.json"
    digest = gridio.write_grid(surf.positions, path)
    record = np.load(sidecar(path), allow_pickle=False)
    assert record["sha256"] == digest.encode("ascii")
    assert record["grids"].tolist() == [[0, 1, 8, 1, 8, 3]]
    planes = surf.positions.values.transpose(2, 0, 1)
    assert record["values"].tobytes() == planes.tobytes()


def test_seeds_and_reports_get_no_sidecar(tmp_path):
    gridio.write_seed(am.canonical_seed(2.0), tmp_path / "seed.json")
    gridio.write_json({"passed": True}, tmp_path / "report.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "seed.json"]


def test_sidecars_are_byte_identical_across_writes(helicoid, tmp_path):
    _, surf = helicoid
    for name in ("a.json", "b.json"):
        gridio.write_grid(surf.positions, tmp_path / name)
    assert sidecar(tmp_path / "a.json").read_bytes() == sidecar(tmp_path / "b.json").read_bytes()


# ---------------------------------------------------------------- fallbacks


def write_vertex_grid(tmp_path):
    grid = am.VertexGrid(GridDomain(0, 2, 0, 3), np.arange(36.0).reshape(3, 4, 3) / 7.0)
    path = tmp_path / "g.json"
    gridio.write_grid(grid, path)
    return grid, path


def resave(path, change):
    """Rewrite the sidecar of ``path`` after ``change(record)``, a valid .npy file."""
    record = np.load(sidecar(path), allow_pickle=False)
    changed = change(record)
    record = record if changed is None else changed
    with open(sidecar(path), "wb") as handle:
        np.save(handle, record, allow_pickle=False)


def test_edited_json_is_parsed(tmp_path, json_reads):
    grid, path = write_vertex_grid(tmp_path)
    obj = json.loads(path.read_text())
    obj["values"][4] = 99.5
    path.write_text(json.dumps(obj))
    assert gridio.read_grid(path).values[0, 1, 1] == 99.5
    assert json_reads == [path]
    obj["values"][4] = "x"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="entry 4 is \"x\", not a number"):
        gridio.read_grid(path)


UNPICKLED = []


def _unpickle(tag):
    UNPICKLED.append(tag)


class Pickled:
    """Records its unpickling: a reader must never unpickle a sidecar."""

    def __reduce__(self):
        return (_unpickle, ("ran",))


def _record_with(path, **fields):
    """A sidecar record of ``path``'s own one grid with ``fields`` replaced."""
    record = np.load(sidecar(path), allow_pickle=False)
    rows, values = fields.get("rows", record["grids"]), fields.get("values", record["values"])
    out = np.zeros((), gridio._sidecar_dtype(len(rows), len(values)))
    out["sha256"], out["grids"], out["values"] = record["sha256"], rows, values
    return out


@pytest.mark.parametrize("damage", [
    "truncated", "one byte more", "garbage", "empty", "pickle", "object array", "float array",
    "version 2", "domain off its values", "values off their domain", "unknown kind",
    "two components", "other digest",
])
def test_a_sidecar_that_does_not_agree_is_ignored(tmp_path, json_reads, damage):
    grid, path = write_vertex_grid(tmp_path)
    good = sidecar(path).read_bytes()
    rows = np.load(sidecar(path))["grids"]
    if damage == "truncated":
        sidecar(path).write_bytes(good[:-8])
    elif damage == "one byte more":
        sidecar(path).write_bytes(good + b"\0")
    elif damage == "garbage":
        sidecar(path).write_bytes(np.random.default_rng(38).bytes(len(good)))
    elif damage == "empty":
        sidecar(path).write_bytes(b"")
    elif damage == "pickle":
        sidecar(path).write_bytes(pickle.dumps(Pickled()))
    elif damage == "object array":
        with open(sidecar(path), "wb") as handle:
            np.save(handle, np.array([Pickled()], dtype=object), allow_pickle=True)
    elif damage == "float array":
        with open(sidecar(path), "wb") as handle:
            np.save(handle, grid.values)
    elif damage == "version 2":
        sidecar(path).write_bytes(good[:6] + b"\x02\x00" + good[8:])
    elif damage == "domain off its values":
        rows[0, 2] += 1                       # u_max: one vertex row more than it holds
        resave(path, lambda record: _record_with(path, rows=rows))
    elif damage == "values off their domain":
        resave(path, lambda record: _record_with(path, values=np.r_[record["values"], 0.0]))
    elif damage == "unknown kind":
        rows[0, 0] = 7
        resave(path, lambda record: _record_with(path, rows=rows))
    elif damage == "two components":
        rows[0, 5] = 2
        resave(path, lambda record: _record_with(path, rows=rows))
    elif damage == "other digest":
        resave(path, lambda record: record.__setitem__("sha256", b"0" * 64))
    assert sidecar(path).read_bytes() != good
    same_bits(gridio.read_grid(path), grid)
    assert json_reads == [path]
    assert UNPICKLED == []


def test_a_sidecar_of_another_kind_is_ignored(tmp_path, json_reads):
    # A face grid on a box one vertex larger holds as many values as the vertex grid.
    grid, path = write_vertex_grid(tmp_path)
    rows = np.load(sidecar(path))["grids"]
    rows[0, [0, 2, 4]] = (3, 3, 4)
    resave(path, lambda record: _record_with(path, rows=rows))
    assert gridio._sidecar_grids(path, (None,))[0].kind == "face"
    same_bits(gridio.read_grid(path, "vertex"), grid)
    assert json_reads == [path]


def test_wrong_expected_kind_takes_the_json_path_and_its_error(tmp_path, json_reads):
    _, path = write_vertex_grid(tmp_path)
    with pytest.raises(ValueError, match="holds a vertex grid, expected face"):
        gridio.read_grid(path, expected_kind="face")
    assert json_reads == [path]


def test_a_sidecar_value_out_of_bounds_takes_the_json_path(tmp_path, json_reads):
    grid, path = write_vertex_grid(tmp_path)
    resave(path, lambda record: record["values"].__setitem__(5, np.inf))
    same_bits(gridio.read_grid(path), grid)
    assert json_reads == [path]


def test_a_forms_sidecar_that_does_not_fit_takes_the_json_path(cubic, tmp_path, json_reads):
    _, surf = cubic
    data = extract_fundamental_data(surf)
    path = tmp_path / "forms.json"
    gridio.write_forms(data, path)
    rows = np.load(sidecar(path))["grids"]
    rows[1:, 5] = 3                 # A and B as 3-vector grids on a third of their boxes
    rows[1:, [2, 4]] = rows[1:, [1, 3]] + [[1, 7], [7, 1]]
    record = np.load(sidecar(path))
    out = np.zeros((), record.dtype)
    out["sha256"], out["grids"], out["values"] = record["sha256"], rows, record["values"]
    with open(sidecar(path), "wb") as handle:
        np.save(handle, out)
    assert [g.components for g in gridio._sidecar_grids(path, ("face", "vertex", "vertex"))] \
        == [1, 3, 3]
    back = gridio.read_forms(path)
    same_bits(back.u_coeff, data.u_coeff)
    assert json_reads == [path]


def test_a_header_claiming_more_data_is_ignored_without_allocating_it(tmp_path, json_reads):
    grid, path = write_vertex_grid(tmp_path)
    good = sidecar(path).read_bytes()
    header = {"descr": np.lib.format.dtype_to_descr(gridio._sidecar_dtype(1, 2**27)),
              "fortran_order": False, "shape": ()}
    with open(sidecar(path), "wb") as handle:
        np.lib.format.write_array_header_1_0(handle, header)
        handle.write(good[128:])
    tracemalloc.start()
    try:
        back = gridio.read_grid(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    same_bits(back, grid)
    assert json_reads == [path]
    assert peak < 2**20 < 8 * 2**27


class FillsUp:
    """A file that takes ``room`` writes, then fails as a full disk does."""

    def __init__(self, handle, room):
        self.handle, self.room = handle, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        if not self.room:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= 1
        return self.handle.write(data)


@pytest.mark.parametrize("room", [0, 2, 3])
def test_a_failed_sidecar_write_leaves_the_json_and_no_sidecar(cubic, tmp_path, monkeypatch,
                                                               json_reads, room):
    _, surf = cubic
    path = tmp_path / "s.json"

    def opener(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        return FillsUp(handle, room) if "w" in mode else handle

    monkeypatch.setattr(gridio, "open", opener, raising=False)
    digest = gridio.write_grid(surf.positions, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]
    same_bits(gridio.read_grid(path), surf.positions)
    assert json_reads == [path]


def test_a_grid_too_large_for_a_record_gets_no_sidecar(tmp_path, monkeypatch):
    # numpy refuses a record of over 2 GiB; a grid of 268M numbers is written as JSON only.
    monkeypatch.setattr(gridio, "_sidecar_dtype", lambda n, size: np.dtype(
        [("values", float, (2**28,))]))
    write_vertex_grid(tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def test_a_failed_rename_leaves_no_temporary_file(cubic, tmp_path, monkeypatch):
    _, surf = cubic

    def refuse(src, dst):
        raise PermissionError(errno.EACCES, "Permission denied", dst)

    monkeypatch.setattr(gridio.os, "replace", refuse)
    gridio.write_forms(extract_fundamental_data(surf), tmp_path / "f.json")
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


def test_an_error_other_than_oserror_still_removes_the_temporary_file(cubic, tmp_path,
                                                                       monkeypatch):
    _, surf = cubic

    def interrupt(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(gridio.os, "replace", interrupt)
    with pytest.raises(KeyboardInterrupt):
        gridio.write_grid(surf.positions, tmp_path / "s.json")
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


# ---------------------------------------------------------------- the CLI chain


CHAIN = [
    ["generate", "--example", "cubic", "--box", 1, 12, 1, 10, "--out", "conormal.json"],
    ["integrate", "--conormal", "conormal.json", "--out", "surface.json"],
    ["check", "--surface", "surface.json", "--conormal", "conormal.json",
     "--report", "check_report.json"],
    ["forms", "--surface", "surface.json", "--out", "forms.json"],
    ["reconstruct", "--forms", "forms.json", "--out", "reconstructed.json"],
    ["compare", "--a", "reconstructed.json", "--b", "surface.json", "--report", "equivalence.json"],
    ["critical", "--surface", "surface.json"],
    ["gradient", "--surface", "surface.json", "--out", "gradient.json"],
]


def test_the_cli_chain_writes_the_same_artifacts_on_either_read_path(tmp_path, monkeypatch,
                                                                      capsys, json_reads):
    outputs = {}
    for mode in ("sidecars", "json"):
        (tmp_path / mode).mkdir()
        monkeypatch.chdir(tmp_path / mode)
        for argv in CHAIN:
            if mode == "json":
                for old in Path().glob("*.npy"):
                    old.unlink()
            assert main([str(a) for a in argv]) == 0
        outputs[mode] = {p.name: p.read_bytes() for p in Path().iterdir()}, capsys.readouterr().out
        if mode == "sidecars":
            assert json_reads == []
    (fast, fast_out), (parsed, parsed_out) = outputs["sidecars"], outputs["json"]
    assert fast_out == parsed_out
    assert {name: body for name, body in fast.items() if name in parsed} == parsed
    assert sorted(set(fast) - set(parsed)) == [
        "conormal.json.npy", "forms.json.npy", "reconstructed.json.npy", "surface.json.npy"]
    assert len(json_reads) == 9   # every grid read of the chain
