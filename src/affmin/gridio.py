"""JSON file formats for grids, fundamental-data bundles, seeds and reports.

A grid file is one JSON object:

    {"kind": "vertex"|"uedge"|"vedge"|"face",
     "domain": [u_min, u_max, v_min, v_max],
     "components": 1|3,
     "values": [...row-major numbers...]}

Numbers are written with 17 significant digits, so round trips are exact and
repeated writes are byte-identical.  Grid and seed values must be finite:
writers and readers reject NaN and infinities (which JSON cannot spell) and
name the first offending grid index or seed point; grid and seed readers
also reject entries that are not numbers (``true``, ``"1.5"``), naming the
first one, and domain bounds and component counts that are not integers.
Reports written by ``dumps_json`` spell a NaN or infinite value as null and
numpy bools as true/false.  The forms bundle stores F as a face grid and the
cubic coefficients as full vertex grids padded with nulls where their stencil
does not reach.
"""

import json
import math
import re

import numpy as np

from .compatibility import FundamentalData
from .grids import GRID_KINDS, FaceGrid, Grid, GridDomain, VertexGrid, worst_index

__all__ = [
    "dumps_json",
    "write_json",
    "grid_to_obj",
    "grid_from_obj",
    "write_grid",
    "read_grid",
    "write_forms",
    "read_forms",
    "write_seed",
    "read_seed",
]


# What "%.17g" makes of NaN and the infinities; no finite spelling holds
# "nan" or "inf".
_NON_FINITE = re.compile(r"-?(?:nan|inf)")


# Scalars dumps_json spells as JSON numbers or true/false.
_SCALARS = (bool, np.bool_, int, float, np.integer, np.floating)

# What a JSON grid value list may hold: json.load gives bool and str too,
# which np.asarray(..., dtype=float) would take as 1.0 or a parsed number.
_JSON_NUMBERS = {int, float, type(None)}


def _format_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    return f"{x:.17g}" if math.isfinite(x) else "null"


def _format_floats(seq, has_none: bool) -> str:
    """Comma-separated floats and Nones with one ``%``; NaN and inf become null.

    "%.17g" spells a finite float as _format_number does, so the text is
    the per-number text.
    """
    if has_none:
        fields = ["null" if x is None else "%.17g" for x in seq]
        seq = [x for x in seq if x is not None]
    else:
        fields = ["%.17g"] * len(seq)
    text = ", ".join(fields) % tuple(seq)
    # Finite spellings and "null" hold neither letter; one-letter searches
    # are memchr scans, several times faster than searching for "nan".
    if "a" in text or "i" in text:
        text = _NON_FINITE.sub("null", text)
    return text


def dumps_json(obj, indent: int = 0) -> str:
    """Serialize with deterministic 17-significant-digit floats.

    NaN and the infinities, which JSON cannot spell, are written as null.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, _SCALARS):
        return _format_number(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        kinds = set(map(type, seq))
        if seq and kinds <= {float, type(None)}:
            return "[" + _format_floats(seq, type(None) in kinds) + "]"
        if all(isinstance(x, _SCALARS) or x is None for x in seq):
            return "[" + ", ".join(
                "null" if x is None else _format_number(x) for x in seq
            ) + "]"
        items = [f"{inner}{dumps_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(obj, path):
    try:
        with open(path, "w", encoding="ascii") as handle:
            handle.write(dumps_json(obj) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _require_numbers(values, what: str):
    """Raise ValueError unless ``values`` is a list of JSON numbers and nulls,
    naming the first other entry."""
    if not isinstance(values, list):
        raise ValueError(f"{what}: expected a list, got {type(values).__name__}")
    if not set(map(type, values)) <= _JSON_NUMBERS:
        k = next(k for k, x in enumerate(values) if type(x) not in _JSON_NUMBERS)
        raise ValueError(f"{what}: entry {k} is {json.dumps(values[k])}, not a number")


def _require_finite(values: np.ndarray, domain: GridDomain, what: str):
    """Raise ValueError naming the first grid index holding a NaN or inf."""
    bad = ~np.isfinite(values)
    if bad.any():
        index = worst_index(bad.reshape(bad.shape[0], bad.shape[1], -1).any(axis=2), domain)
        raise ValueError(f"{what} has a non-finite value at grid index {index}")


def grid_to_obj(grid: Grid, pad_values=None) -> dict:
    """Grid file object; ``pad_values`` overrides the flat value list."""
    _require_finite(grid.values, grid.domain, f"{grid.kind} grid")
    values = grid.values.reshape(-1).tolist() if pad_values is None else pad_values
    return {
        "kind": grid.kind,
        "domain": list(grid.domain.as_tuple()),
        "components": grid.components,
        "values": values,
    }


def grid_from_obj(obj: dict) -> Grid:
    try:
        kind, bounds, components, values = (
            obj[key] for key in ("kind", "domain", "components", "values"))
        # Only JSON integers: int() would take 1.9, true and "1" as well.
        if not isinstance(bounds, list) or any(type(x) is not int for x in bounds):
            raise ValueError(f"domain must be a list of integers, got {json.dumps(bounds)}")
        if type(components) is not int:
            raise ValueError(f"components must be an integer, got {json.dumps(components)}")
        domain = GridDomain(*bounds)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed grid object: {exc}") from exc
    if not isinstance(kind, str) or kind not in GRID_KINDS:
        raise ValueError(f"unknown grid kind {kind!r}")
    if components not in (1, 3):
        raise ValueError(f"components must be 1 or 3, got {components}")
    cls = GRID_KINDS[kind]
    shape = cls._entry_shape(domain)
    if components == 3:
        shape = shape + (3,)
    _require_numbers(values, "malformed grid values")   # null fails as non-finite below
    array = np.asarray(values, dtype=float)
    if array.size != int(np.prod(shape)):
        raise ValueError(
            f"grid value count {array.size} does not match domain {domain} "
            f"({int(np.prod(shape))} expected)"
        )
    array = array.reshape(shape)
    _require_finite(array, domain, f"{kind} grid")
    return cls(domain, array)


def write_grid(grid: Grid, path):
    write_json(grid_to_obj(grid), path)


def _load_json(path) -> dict:
    """The JSON object in ``path``; OSError if unreadable, ValueError if not an object."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return obj


def read_grid(path, expected_kind: str | None = None) -> Grid:
    grid = grid_from_obj(_load_json(path))
    if expected_kind is not None and grid.kind != expected_kind:
        raise ValueError(f"{path} holds a {grid.kind} grid, expected {expected_kind}")
    return grid


def _pad_coefficient(grid: VertexGrid, full: GridDomain, name: str) -> list:
    """Flat value list over ``full`` with nulls where the stencil is missing."""
    sub = grid.domain
    _require_finite(grid.values, sub, f"{name} grid")
    values = np.full((full.n_u, full.n_v), np.nan)
    i0 = sub.u_min - full.u_min
    j0 = sub.v_min - full.v_min
    values[i0:i0 + sub.n_u, j0:j0 + sub.n_v] = grid.values
    flat = values.reshape(-1)
    return [None if missing else x for x, missing in zip(flat.tolist(), np.isnan(flat).tolist())]


def write_forms(data: FundamentalData, path):
    full = data.domain
    obj = {"F": grid_to_obj(data.areas)}
    for name, grid in (("A", data.u_coeff), ("B", data.v_coeff)):
        obj[name] = {
            "kind": "vertex",
            "domain": list(full.as_tuple()),
            "components": 1,
            "values": _pad_coefficient(grid, full, name),
        }
    write_json(obj, path)


def _strip_coefficient(obj: dict, full: GridDomain, sub: GridDomain, name: str) -> VertexGrid:
    values = obj.get("values") if isinstance(obj, dict) else None
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a grid object with a list of values")
    if len(values) != full.n_u * full.n_v:
        raise ValueError(f"{name} grid has wrong length for domain {full}")
    _require_numbers(values, f"{name} grid values")
    shape = (full.n_u, full.n_v)
    nulls = np.array([x is None for x in values]).reshape(shape)
    arr = np.array(values, dtype=float).reshape(shape)   # null -> NaN
    _require_finite(np.where(nulls, 0.0, arr), full, f"{name} grid")
    inside = np.zeros(shape, dtype=bool)
    i0 = sub.u_min - full.u_min
    j0 = sub.v_min - full.v_min
    inside[i0:i0 + sub.n_u, j0:j0 + sub.n_v] = True
    if (nulls & inside).any():
        raise ValueError(f"{name} grid has nulls inside its stencil domain {sub}")
    if not nulls[~inside].all():
        raise ValueError(f"{name} grid has values outside its stencil domain {sub}")
    return VertexGrid(sub, arr[i0:i0 + sub.n_u, j0:j0 + sub.n_v])


def read_forms(path) -> FundamentalData:
    obj = _load_json(path)
    try:
        f_grid = grid_from_obj(obj["F"])
        a_obj = obj["A"]
        b_obj = obj["B"]
    except KeyError as exc:
        raise ValueError(f"forms bundle {path} is missing key {exc}") from exc
    if not isinstance(f_grid, FaceGrid):
        raise ValueError(f"forms bundle {path}: F must be a face grid")
    full = f_grid.domain
    a = _strip_coefficient(a_obj, full, full.shrink(du_lo=1, du_hi=1), "A")
    b = _strip_coefficient(b_obj, full, full.shrink(dv_lo=1, dv_hi=1), "B")
    return FundamentalData(f_grid, a, b)


def _seed_points(points, what: str) -> np.ndarray:
    """Four finite 3-points; ValueError names a wrong shape or the first bad point."""
    try:
        points = np.asarray(points, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{what} must hold four 3-points: {exc}") from exc
    if points.shape != (4, 3):
        raise ValueError(f"{what} must hold four 3-points, got shape {points.shape}")
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        raise ValueError(f"{what} has a non-finite value at point {int(np.argmax(bad))}")
    return points


def write_seed(points, path):
    points = _seed_points(points, "seed")
    write_json({"points": [list(p) for p in points]}, path)


def read_seed(path) -> np.ndarray:
    points, what = _load_json(path).get("points"), f"seed file {path}"
    for k, point in enumerate(points if isinstance(points, list) else []):
        _require_numbers(point, f"{what} point {k}")   # json.load gives bools and strings too
    return _seed_points(points, what)
