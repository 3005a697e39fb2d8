"""The block writers against the per-number reference writers they replaced.

``reference_export_obj`` and ``reference_dumps_json`` are the earlier
one-f-string-per-number writers, kept as oracles: every byte the block
writers produce, and every byte the streaming surface export writes band by
band, must equal theirs.  ``reference_mesh`` builds the exported mesh point
by point through the public ``patch_point``, and ``reference_faces`` spells
its face lines one ``"f %d %d %d"`` per triangle.
"""

import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import affmin as am
from affmin import gridio, mesh as mesh_module, spelling
from affmin.compatibility import extract_fundamental_data
from affmin.gridio import _format_number, dumps_json, grid_to_obj, write_forms, write_grid
from affmin.mesh import export_surface_obj, patch_point


def reference_export_obj(positions, triangles, path):
    lines = []
    for x, y, z in positions:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for i, j, k in triangles + 1:
        lines.append(f"f {i} {j} {k}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def reference_mesh(surface, res):
    """Vertices and 0-based triangles of the exported tessellation.

    Lattice row g lies on face f = min(g // res, faces - 1) at parameter
    (g - f res) / res, so the last row lies on the last face at 1; columns
    likewise.  Each cell splits along its (0,0)-(1,1) diagonal.
    """
    dom = surface.domain
    ni, nj = (dom.n_u - 1) * res + 1, (dom.n_v - 1) * res + 1

    def owner(g, faces):
        face = min(g // res, faces - 1)
        return face, (g - face * res) / res

    positions = []
    for gi in range(ni):
        fi, s = owner(gi, dom.n_u - 1)
        for gj in range(nj):
            fj, t = owner(gj, dom.n_v - 1)
            positions.append(patch_point(surface, (dom.u_min + fi, dom.v_min + fj), s, t))
    triangles = []
    for i in range(ni - 1):
        for a in range(i * nj, (i + 1) * nj - 1):
            triangles += [(a, a + nj, a + nj + 1), (a, a + nj + 1, a + 1)]
    return np.array(positions).reshape(-1, 3), np.array(triangles, dtype=int).reshape(-1, 3)


@pytest.fixture(scope="module")
def helicoid_mesh(helicoid):
    _, surf = helicoid
    return reference_mesh(surf, 23)   # k / 23 lattice: non-dyadic coordinates


def _reference_format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def reference_dumps_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, gridio.RowMajor):
        obj = obj.rows.reshape(-1)   # the flat copy that the writer does not make
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _reference_format_number(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {reference_dumps_json(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if all(isinstance(x, (bool, int, float, np.integer, np.floating)) or x is None
               for x in seq):
            return "[" + ", ".join(
                "null" if x is None else _reference_format_number(x) for x in seq
            ) + "]"
        items = [f"{inner}{reference_dumps_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# Signed zero, the smallest subnormal, huge and tiny magnitudes, values
# whose shortest repr differs from their 17-digit spelling, the %g style
# boundaries 1e-5, 1e-4, 1e16 and 1e17, the doubles 1e-14 and 1e-305, which
# lie below their power of ten so that their 17 digits carry to 10^17, and
# two exact ties of the 18th digit, 1 + 2^-17 and -26215 / 2^18.
SPECIAL = [-0.0, 5e-324, 1e300, 0.1, 2.0, 1.0 / 3.0, 1e16, 1e-5,
           1.7976931348623157e308, -123456789.125, 2.5e-310, 0.0,
           1e-14, 1e-305, 1e-4, 1e17, 1.0 + 2.0 ** -17, -26215 / 2 ** 18]
TIES = SPECIAL[-2:]


def test_special_values_spell_differently_under_repr():
    assert sum(repr(x) != "%.17g" % x for x in SPECIAL) >= 6


def reference_vertex_text(positions, tmp_path):
    path = tmp_path / "vertices.obj"
    reference_export_obj(positions, np.zeros((0, 3), dtype=int), path)
    return path.read_bytes()


def vertex_lines(block) -> bytes:
    """The vertex lines ``_vertex_lines`` yields pass by pass, joined."""
    return b"".join(mesh_module._vertex_lines(block))


def test_obj_matches_reference_across_block_boundaries(helicoid_mesh, tmp_path):
    # The whole streamed file is test_streamed_export_matches_reference_over_several_bands.
    positions, triangles = helicoid_mesh
    assert len(positions) > 1 << 15 and len(triangles) > 1 << 16
    rows = mesh_module._BLOCK_ROWS
    text = b"".join(vertex_lines(positions[k:k + rows]) for k in range(0, len(positions), rows))
    assert text == reference_vertex_text(positions, tmp_path)


def test_obj_matches_reference_on_special_values(tmp_path):
    positions = np.array(SPECIAL).reshape(-1, 3)
    text = vertex_lines(positions)
    assert text == reference_vertex_text(positions, tmp_path)
    assert b"v -0 4.9406564584124654e-324 1.0000000000000001e+300\n" in text
    # The six rows as the corners of a 2 x 3 net, exported at resolution 1.
    grid = am.VertexGrid(am.GridDomain(0, 1, 0, 2), positions.reshape(2, 3, 3))
    ours, theirs = streamed_and_reference(tmp_path, grid, 1)
    assert ours == theirs


def test_obj_without_triangles_matches_reference(paraboloid, tmp_path):
    # The vertex section of an export is the reference's file of its vertices alone.
    _, surf = paraboloid
    positions, _ = reference_mesh(surf, 2)
    path = tmp_path / "mesh.obj"
    export_surface_obj(surf, 2, path)
    vertices = path.read_bytes().split(b"f ", 1)[0]
    assert vertices == reference_vertex_text(positions, tmp_path)
    assert vertices.endswith(b"\n") and not vertices.endswith(b"\n\n")


def test_vertex_lines_match_reference_on_bit_patterns_and_powers_of_ten(tmp_path):
    patterns = np.random.default_rng(14).integers(0, 2 ** 64, 2 ** 16, dtype=np.uint64)
    powers = np.array([float(f"1e{e}") for e in range(-324, 309)])
    neighbours = np.stack([np.nextafter(powers, -np.inf), powers, np.nextafter(powers, np.inf)])
    for values in (np.append(patterns.view(np.float64), [0.0, -0.0]), neighbours.T.ravel()):
        positions = values.reshape(-1, 3)
        assert vertex_lines(positions) == reference_vertex_text(positions, tmp_path)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_vertex_lines_match_percent_g(block):
    expected = "".join(f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in block)
    assert vertex_lines(block) == expected.encode("ascii")


def test_carries_and_ties_spell_like_reference(tmp_path):
    digits, exponents, defer = spelling._decimal_digits(np.array(SPECIAL))
    # 1e-14 and 1e-305 round up to 10^17 and move to the next exponent.
    assert digits[12:14].tolist() == [10 ** 16] * 2 and exponents[12:14].tolist() == [-14, -305]
    # Only the exact ties go to %: the digits alone round -26215 / 2^18 the
    # wrong way (...37, where half-even gives ...38).
    assert defer.tolist() == [x in TIES for x in SPECIAL]
    assert digits[-1] == 10000228881835937
    positions = np.array(SPECIAL).reshape(-1, 3)
    text = vertex_lines(positions)
    assert text == reference_vertex_text(positions, tmp_path)
    assert text.endswith(b"v 1e-14 1e-305 0.0001\n"
                         b"v 1e+17 1.0000076293945312 -0.10000228881835938\n")


def test_non_finite_values_are_spelled_by_percent_g(tmp_path):
    positions = np.array([[np.inf, -np.inf, np.nan], [1.5, -np.nan, 0.0]])
    assert vertex_lines(positions) == reference_vertex_text(positions, tmp_path)


def reference_faces(nj, c0, c1) -> bytes:
    """``"f %d %d %d"`` lines of cell rows c0..c1-1, each cell split along its
    (0,0)-(1,1) diagonal, 1-based."""
    cells = [a for a in range(c0 * nj + 1, c1 * nj + 1) if a % nj]   # not last in its row
    return "".join("f %d %d %d\nf %d %d %d\n" % (a, a + nj, a + nj + 1, a, a + nj + 1, a + 1)
                   for a in cells).encode("ascii")


# Blocks whose indices straddle each power of ten from 10 to 10^10; the block
# whose last index, 2^32 - 1, is the largest that uint32 arithmetic spells; and
# the block after it, which ends at 2^32; then blocks of one width.
STRADDLING = [(3, 10 ** e // 3 - 1, 10 ** e // 3 + 1) for e in range(1, 11)] + [
    (3, (2 ** 32 - 1) // 3 - 3, (2 ** 32 - 1) // 3 - 1), (4, 2 ** 30 - 3, 2 ** 30 - 1),
    (2, 0, 1), (5, 2, 3), (17, 30, 40)]


@pytest.mark.parametrize("nj, c0, c1", STRADDLING)
def test_face_indices_straddling_every_power_of_ten_match_reference(nj, c0, c1):
    lines = mesh_module._face_block(nj, c0, c1)
    assert bytes(lines) == reference_faces(nj, c0, c1)
    # A block of one width goes out without a 0-byte pass.
    assert isinstance(lines, memoryview) == (len(str(c0 * nj + 1)) == len(str((c1 + 1) * nj)))


@st.composite
def face_blocks(draw):
    nj = draw(st.integers(2, 6))
    c0 = draw(st.integers(0, 10 ** 10 // nj))
    return nj, c0, c0 + draw(st.integers(1, 4))


@settings(deadline=None)
@given(face_blocks())
def test_face_block_spells_like_percent_d(block):
    assert bytes(mesh_module._face_block(*block)) == reference_faces(*block)


@pytest.mark.parametrize("values, dtype", [([0, 7, 10, 99, 2 ** 32 - 1], np.uint32),
                                           ([0, 2 ** 32, 2 ** 63 - 2, 2 ** 64 - 1], np.uint64)])
def test_int_digits_spell_like_percent_d(values, dtype):
    rows = np.zeros((21, len(values)), np.uint8)   # 2^64 - 1 has 20 digits
    spelling.int_digits(np.array(values, dtype), rows)
    assert rows.T.tobytes().replace(b"\0", b" ").split() == [b"%d" % x for x in values]
    assert rows[-1, 0] == ord("0") and not rows[:-1, 0].any()   # 0 is one digit


# The two record layouts of the kernel for p columns: an OBJ vertex row and a
# JSON number list.
def layouts(p):
    return {"obj": ((b"v ",) + (b"",) * (p - 1), b" " * (p - 1) + b"\n"),
            "json": ((b", ",) * p, bytes(p))}


def percent_g(block, layout) -> bytes:
    """What ``spell`` must write for ``block`` in ``layout``, one ``%.17g`` per number."""
    if layout == "json":
        return "".join(", %.17g" % x for x in block.ravel().tolist()).encode("ascii")
    return "".join("v " + " ".join("%.17g" % x for x in row) + "\n"
                   for row in block.tolist()).encode("ascii")


def spelled(block, layout) -> bytes:
    lead, trail = layouts(block.shape[1])[layout]
    return b"".join(spelling.spell(block, lead, trail, "%.17g".__mod__))


def count_paths(monkeypatch) -> dict:
    """Count the passes that each of ``spell``'s two spellers spells: an integer
    pass only when ``_spell_dyadic`` returns bytes, not None."""
    counts = {"integer": 0, "general": 0}
    for path, name in (("integer", "_spell_dyadic"), ("general", "_spell_records")):
        def counted(*args, path=path, kernel=getattr(spelling, name)):
            records = kernel(*args)
            counts[path] += records is not None
            return records
        monkeypatch.setattr(spelling, name, counted)
    return counts


@st.composite
def dyadic_blocks(draw):
    """A block of short dyadic decimals: m / 2^K with K <= 13 and m 5^K < 10^17,
    both signs, and signed zeros; 1 to 3 columns."""
    places = draw(st.integers(0, 13))
    top = min(-(-10 ** 17 // 5 ** places) - 1, 2 ** 53)   # m exact as a double
    number = st.builds(lambda m, sign: sign * m / 2.0 ** places,
                       st.integers(0, top), st.sampled_from([1.0, -1.0]))
    shape = (draw(st.integers(1, 30)), draw(st.integers(1, 3)))
    return draw(hnp.arrays(np.float64, shape, elements=number | st.sampled_from([0.0, -0.0])))


@settings(deadline=None)
@given(dyadic_blocks())
def test_dyadic_blocks_take_the_integer_path_and_spell_like_percent_g(block):
    lead, trail = layouts(block.shape[1])["obj"]
    assert spelling._spell_dyadic(block.ravel(), lead, trail) is not None
    for layout in ("obj", "json"):
        assert spelled(block, layout) == percent_g(block, layout)
    assert dumps_json(block.ravel()) == "[" + percent_g(block, "json")[2:].decode() + "]"
    if block.shape[1] == 3:
        assert vertex_lines(block) == percent_g(block, "obj")


DYADIC = [0.0, 1.5, -2.25, 1000.125]


@pytest.mark.parametrize("values, path", [
    ([2.0 ** -13], "integer"),          # 0.0001220703125, 13 places
    ([2.0 ** -14], "general"),          # 6.103515625e-05: 14 places
    ([2.0 ** 56], "integer"),           # 17 digits, above int64's float-exact range
    ([2.0 ** 53 + 2], "integer"),
    ([1e17], "general"),                # 1e+17
    ([-0.0], "integer"),                # -0
    (DYADIC + [0.1], "general"),
    # 0.1 as the 101st number: the test reads the whole pass, not a head of it
    pytest.param(DYADIC * 25 + [0.1], "general", id="0.1 at 100-general"),
    (DYADIC + [5e-324], "general"),
    (DYADIC + [np.inf], "general"),
    (DYADIC + [np.nan], "general"),
    (DYADIC + [1e300], "general"),
    ([2.0 ** -13, 2.0 ** 14], "general"),   # 2^14 10^13 >= 10^17
    ([2.0 ** -13, 2.0 ** 13], "integer"),   # 2^13 10^13 < 10^17
], ids=lambda v: v if isinstance(v, str) else repr(v[-1]))
def test_boundary_passes_take_the_expected_path(monkeypatch, values, path):
    counts = count_paths(monkeypatch)
    block = np.array(values)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning on inf, NaN or huge values
        for layout in ("obj", "json"):
            assert spelled(block, layout) == percent_g(block, layout)
    assert counts == {"integer": 2 * (path == "integer"), "general": 2 * (path == "general")}


def test_dyadic_exports_spell_every_vertex_pass_from_integers(monkeypatch, tmp_path):
    counts = count_paths(monkeypatch)
    paraboloid = am.integrate(am.hyperbolic_paraboloid(am.GridDomain(0, 6, 0, 6)))
    export_surface_obj(paraboloid, 8, tmp_path / "paraboloid.obj")
    assert counts["integer"] >= 2 and counts["general"] == 0
    counts.update(integer=0)
    export_surface_obj(am.integrate(am.helicoid(32, (0, 8), (0, 8))), 8, tmp_path / "helicoid.obj")
    assert counts["integer"] == 0 and counts["general"] >= 2


@pytest.mark.parametrize("u_range, v_range, res", [((-2, 2), (0, 7), 3), ((0, 1), (0, 5), 3),
                                                   ((-3, 2), (4, 5), 2)])
def test_lattice_points_equal_reference_bit_for_bit(u_range, v_range, res):
    surf = am.integrate(am.helicoid(12, u_range, v_range))
    positions, _ = reference_mesh(surf, res)
    p = surf.positions.values
    ni, nj = (surf.domain.n_u - 1) * res + 1, (surf.domain.n_v - 1) * res + 1
    lattice = mesh_module._lattice_points(p, res, 0, ni)
    assert np.ascontiguousarray(lattice).tobytes() == positions.tobytes()
    band = mesh_module._lattice_points(p, res, 1, 3)   # rows of the full lattice
    assert np.ascontiguousarray(band).tobytes() == positions[nj:3 * nj].tobytes()


def test_dumps_json_matches_reference(helicoid):
    _, surf = helicoid
    obj = {
        "floats": SPECIAL,
        "tuple": tuple(SPECIAL),
        "numpy": np.array(SPECIAL),
        "numpy_scalars": [np.float64(x) for x in SPECIAL],
        "mixed": [1, 2.5, None, True, np.float64(0.1), np.int64(3), -0.0],
        "nulls": [None, 0.1, None],
        "rows": [SPECIAL, SPECIAL[:2], []],
        "empty": [],
        "grid": grid_to_obj(surf.positions, "positions"),
    }
    assert dumps_json(obj) == reference_dumps_json(obj)
    for value in obj.values():
        assert dumps_json(value) == reference_dumps_json(value)


def test_dumps_json_matches_reference_on_null_padded_lists():
    obj = {
        "leading": [None] + SPECIAL,
        "trailing": SPECIAL + [None, None],
        "interleaved": [x for pair in zip(SPECIAL, [None] * len(SPECIAL)) for x in pair],
        "only_nulls": [None, None, None],
        "rows": [[None, 0.1], [2.5, None], [None]],
    }
    assert dumps_json(obj) == reference_dumps_json(obj)
    for value in obj.values():
        assert dumps_json(value) == reference_dumps_json(value)


def reference_json_floats(values) -> str:
    """A JSON float list spelled one ``_format_number`` per entry (null for None, NaN, inf)."""
    return "[" + ", ".join("null" if x is None else _format_number(x) for x in values) + "]"


def test_json_floats_match_reference_on_bit_patterns_and_powers_of_ten():
    patterns = np.random.default_rng(15).integers(0, 2 ** 64, 2 ** 16, dtype=np.uint64)
    powers = np.array([float(f"1e{e}") for e in range(-324, 309)])
    neighbours = np.stack([np.nextafter(powers, -np.inf), powers, np.nextafter(powers, np.inf)])
    for values in (np.append(patterns.view(np.float64), [0.0, -0.0]), neighbours.T.ravel()):
        expected = reference_json_floats(values.tolist())
        assert dumps_json(values) == expected
        assert dumps_json(values.tolist()) == expected
    assert (~np.isfinite(patterns.view(np.float64))).sum() > 0   # some patterns are NaN or inf


def test_json_floats_spell_carries_and_ties_like_reference():
    text = dumps_json(np.array(SPECIAL))
    assert text == dumps_json(SPECIAL) == reference_json_floats(SPECIAL)
    assert text.endswith("1e-14, 1e-305, 0.0001, 1e+17, 1.0000076293945312, -0.10000228881835938]")


def test_json_floats_spell_nan_and_inf_as_null():
    values = [np.nan, np.inf, -np.inf, 1.5, -np.nan, -0.0]
    assert dumps_json(np.array(values)) == "[null, null, null, 1.5, null, -0]"
    assert dumps_json([None, 2.5] + values + [None]) == \
        "[null, 2.5, null, null, null, 1.5, null, -0, null]"
    assert dumps_json([None, None]) == "[null, null]"


def test_json_floats_longer_than_one_pass_match_reference():
    n = 2 * spelling._PASS + 7
    values = np.random.default_rng(15).standard_normal(n) * 10.0 ** (np.arange(n) % 25 - 12)
    values[spelling._PASS - 1:spelling._PASS + 1] = np.nan   # nulls on a pass boundary
    values[2 * spelling._PASS] = np.inf
    padded = [None if k % 97 == 3 else x for k, x in enumerate(values.tolist())]
    for seq in (gridio.RowMajor(values[:, None]), values, padded):
        text = dumps_json(seq)
        assert text == reference_json_floats(padded if seq is padded else values.tolist())
        assert len(json.loads(text)) == n


def test_empty_json_float_lists():
    assert dumps_json(np.array([])) == dumps_json(np.zeros(0)) == dumps_json([]) == "[]"
    assert dumps_json({"values": np.zeros(0)}) == '{\n  "values": []\n}'


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 60), elements=st.floats()),
       st.lists(st.one_of(st.none(), st.floats()), min_size=1, max_size=60))
def test_json_floats_match_format_number(values, padded):
    # A 1-D array takes the scalar-list path, a RowMajor the kernel: the same bytes.
    assert dumps_json(values) == reference_json_floats(values.tolist())
    assert dumps_json(gridio.RowMajor(values[:, None])) == reference_json_floats(values.tolist())
    assert dumps_json(padded) == reference_json_floats(padded)


def test_forms_file_matches_reference(helicoid, tmp_path):
    _, surf = helicoid
    data = extract_fundamental_data(surf)
    obj = {key: {"kind": grid.kind, "domain": list(grid.domain.as_tuple()), "components": 1,
                 "values": grid.values.reshape(-1).tolist()}
           for key, grid in (("F", data.areas), ("A", data.u_coeff), ("B", data.v_coeff))}
    path = tmp_path / "forms.json"
    write_forms(data, path)
    assert path.read_text() == reference_dumps_json(obj) + "\n"


def test_float_lists_are_spelled_without_the_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(gridio, "spell", lambda *args: calls.append(args) or iter([]))
    expected = "[0.10000000000000001, null, null]"
    assert dumps_json([0.1, None, np.inf]) == dumps_json((0.1, None, np.inf)) == expected
    assert dumps_json(np.array([0.1, 2.5])) == "[0.10000000000000001, 2.5]"
    assert calls == []
    dumps_json(gridio.RowMajor(np.array([[0.1], [2.5]])))
    assert len(calls) == 1


def test_grid_file_streams_one_pass_at_a_time(tmp_path):
    # 27,000 numbers: more than two passes, about 24 bytes each.
    rng = np.random.default_rng(17)
    values = rng.standard_normal((100, 90, 3)) * 10.0 ** rng.integers(-30, 30, (100, 90, 3))
    grid = am.VertexGrid(am.GridDomain(-3, 96, 5, 94), values)
    assert values.size > 2 * spelling._PASS
    path = tmp_path / "grid.json"
    write_grid(grid, path)
    assert path.read_text() == reference_dumps_json(grid_to_obj(grid, "grid")) + "\n"
    chunks = list(gridio._json_chunks(grid_to_obj(grid, "grid")))
    assert b"".join(chunks) + b"\n" == path.read_bytes()
    assert path.stat().st_size > 3 * 32 * spelling._PASS // 2
    assert max(map(len, chunks)) <= 32 * spelling._PASS   # 32 bytes a record at most


def test_grid_writer_peak_memory_is_bounded_by_a_pass(tmp_path):
    # The file is 10.2 MB; building its whole text as one str peaked at 34.3 MB.
    values = np.random.default_rng(17).standard_normal((400, 400, 3))
    grid = am.VertexGrid(am.GridDomain(1, 400, 1, 400), values)
    tracemalloc.start()
    try:
        write_grid(grid, tmp_path / "grid.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_grid_writer_spells_the_component_planes_without_an_interleaved_copy(tmp_path):
    # Flattening the (600, 600, 3) view of the three planes copied all 8.6 MB.
    grid = am.VertexGrid(am.GridDomain(1, 600, 1, 600),
                         np.random.default_rng(18).standard_normal((600, 600, 3)))
    tracemalloc.start()
    try:
        write_grid(grid, tmp_path / "grid.json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6 < grid.values.nbytes / 3   # a pass's temporaries (1.6 MB)


def streamed_and_reference(tmp_path, surface, resolution, mesh=None):
    ours, theirs = tmp_path / "streamed.obj", tmp_path / "reference.obj"
    counts = export_surface_obj(surface, resolution, ours)
    positions, triangles = mesh if mesh is not None else reference_mesh(surface, resolution)
    reference_export_obj(positions, triangles, theirs)
    assert (counts.vertices, counts.triangles) == (len(positions), len(triangles))
    return ours.read_bytes(), theirs.read_bytes()


@pytest.mark.parametrize("block_rows", [mesh_module._BLOCK_ROWS, 997])
def test_streamed_export_matches_reference_over_several_bands(helicoid, helicoid_mesh, tmp_path,
                                                              monkeypatch, block_rows):
    _, surf = helicoid
    monkeypatch.setattr(mesh_module, "_BLOCK_ROWS", block_rows)
    ours, theirs = streamed_and_reference(tmp_path, surf, 23, helicoid_mesh)
    assert (8 * 23 + 1) ** 2 > block_rows   # more than one band
    assert ours == theirs


def test_streamed_export_matches_reference_on_one_face(tmp_path):
    surf = am.integrate(am.hyperbolic_paraboloid(am.GridDomain(0, 1, 0, 1)))
    ours, theirs = streamed_and_reference(tmp_path, surf, 1)
    assert ours == theirs
    assert ours.count(b"\n") == 4 + 2


def test_streamed_export_matches_reference_on_rows_wider_than_a_block(tmp_path):
    n_v = mesh_module._BLOCK_ROWS + 1
    surf = am.integrate(am.hyperbolic_paraboloid(am.GridDomain(0, 2, 0, n_v - 1)))
    ours, theirs = streamed_and_reference(tmp_path, surf, 1)   # one lattice row per band
    assert ours == theirs


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("res", [1, 3])
def test_every_writer_returns_the_digest_of_the_file_it_wrote(tmp_path, res):
    # At res 3 the surface grid spans two spelling passes and the mesh two bands.
    surf = am.integrate(am.minimal_cubic(am.GridDomain(1, 16 * res, 1, 16 * res)))
    p = surf.positions.values
    writers = {
        "surface.json": lambda path: write_grid(surf.positions, path),
        "forms.json": lambda path: write_forms(extract_fundamental_data(surf), path),
        "report.json": lambda path: gridio.write_json(
            {"passed": np.True_, "gap": float("nan"), "column": p[:, 0, 2]}, path),
        "seed.json": lambda path: gridio.write_seed(
            np.stack([p[0, 0], p[1, 0], p[0, 1], p[1, 1]]), path),
        "mesh.obj": lambda path: export_surface_obj(surf, res, path).sha256,
    }
    for name, write in writers.items():
        assert write(tmp_path / name) == sha256_of(tmp_path / name), name
    assert (p.size > spelling._PASS) == (res == 3)


def test_write_chunks_digests_the_chunks_it_writes(tmp_path):
    chunks = [b"v 1 2 3\n", b"", b"f 1 1 1\n"]
    assert spelling.write_chunks(tmp_path / "a.obj", chunks) == sha256_of(tmp_path / "a.obj")
    assert (tmp_path / "a.obj").read_bytes() == b"".join(chunks)
    assert spelling.write_chunks(tmp_path / "empty", []) == hashlib.sha256(b"").hexdigest()


def test_write_chunks_leaves_no_file_when_a_chunk_generator_raises(tmp_path):
    path = tmp_path / "partial.obj"

    def chunks():
        yield b"v 1 2 3\n"
        raise RuntimeError("spelling failed")

    with pytest.raises(RuntimeError, match="spelling failed"):
        spelling.write_chunks(path, chunks())
    assert not path.exists()
