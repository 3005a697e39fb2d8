"""The block writers against the per-number reference writers they replaced.

``reference_export_obj`` and ``reference_dumps_json`` are the earlier
one-f-string-per-number writers, kept verbatim as oracles: every byte the
block writers produce must equal theirs.
"""

import json

import numpy as np

from affmin.gridio import dumps_json, grid_to_obj
from affmin.mesh import TriangleMesh, export_obj, tessellate


def reference_export_obj(mesh, path):
    lines = []
    for x, y, z in mesh.positions:
        lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
    for i, j, k in mesh.triangles + 1:
        lines.append(f"f {i} {j} {k}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def _reference_format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def reference_dumps_json(obj, indent: int = 0) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
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


# Signed zero, the smallest subnormal, huge and tiny magnitudes, and values
# whose shortest repr differs from their 17-digit spelling.
SPECIAL = [-0.0, 5e-324, 1e300, 0.1, 2.0, 1.0 / 3.0, 1e16, 1e-5,
           1.7976931348623157e308, -123456789.125, 2.5e-310, 0.0]


def obj_bytes(tmp_path, mesh):
    ours, theirs = tmp_path / "ours.obj", tmp_path / "reference.obj"
    export_obj(mesh, ours)
    reference_export_obj(mesh, theirs)
    return ours.read_bytes(), theirs.read_bytes()


def test_special_values_spell_differently_under_repr():
    assert sum(repr(x) != "%.17g" % x for x in SPECIAL) >= 6


def test_obj_matches_reference_across_block_boundaries(helicoid, tmp_path):
    _, surf = helicoid
    mesh = tessellate(surf, 23)   # k / 23 lattice: non-dyadic coordinates
    assert len(mesh.positions) > 1 << 15 and len(mesh.triangles) > 1 << 16
    ours, theirs = obj_bytes(tmp_path, mesh)
    assert ours == theirs


def test_obj_matches_reference_on_special_values(tmp_path):
    positions = np.array(SPECIAL).reshape(-1, 3)
    mesh = TriangleMesh(positions, np.array([[0, 1, 2], [3, 2, 1], [0, 3, 3]]))
    ours, theirs = obj_bytes(tmp_path, mesh)
    assert ours == theirs
    assert b"v -0 4.9406564584124654e-324 1.0000000000000001e+300\n" in ours


def test_obj_without_triangles_matches_reference(tmp_path):
    mesh = TriangleMesh(np.array(SPECIAL).reshape(-1, 3), np.zeros((0, 3), dtype=int))
    ours, theirs = obj_bytes(tmp_path, mesh)
    assert ours == theirs
    assert ours.endswith(b"\n") and not ours.endswith(b"\n\n")


def test_empty_obj_is_an_empty_file(tmp_path):
    # The reference wrote a lone newline for a mesh without vertices.
    mesh = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    ours, theirs = obj_bytes(tmp_path, mesh)
    assert (ours, theirs) == (b"", b"\n")


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
        "grid": grid_to_obj(surf.positions),
    }
    assert dumps_json(obj) == reference_dumps_json(obj)
    for value in obj.values():
        assert dumps_json(value) == reference_dumps_json(value)
