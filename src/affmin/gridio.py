"""JSON file formats for grids, fundamental-data bundles, seeds and reports.

A grid file is one JSON object:

    {"kind": "vertex"|"uedge"|"vedge"|"face",
     "domain": [u_min, u_max, v_min, v_max],
     "components": 1|3,
     "values": [...row-major numbers...]}

Floats are written as ``%.17g`` writes them, grid values (``RowMajor``) by
the shared numpy kernel of ``spelling``, so round trips are exact and
repeated writes are byte-identical.  Writers stream: ``write_json``, and so
``write_grid``, ``write_forms`` and ``write_seed``, writes the ASCII bytes of
each spelling pass as it comes, returns their SHA-256 hex digest and leaves
no file if it fails.  Grid, forms and seed writers and readers hold every
value to ``grids.require_bounded``: finite and at most ``VALUE_BOUND``
(~1.41e102) in size, so every file affmin writes is one it
reads back; a ValueError names the file, the grid, and the first bad grid
index (a seed's corner (u, v)).  Readers first take each value list in one
step, which rejects an entry that is no number (``null``, ``true``,
``"1.5"``) or an integer beyond the float range, naming the file and the
entry; they also reject domain bounds and component counts that are not
integers.  Reports written by ``dumps_json`` spell a NaN or infinite value
as null and numpy bools as true/false.  The forms bundle is the object
``{"F": grid, "A": grid, "B": grid}`` of three grid file objects, each on
its own domain: F a face grid on the vertex box, A and B 1-component vertex
grids on its u- and v-interior.

Once a grid file or forms bundle is complete, ``write_grid`` and
``write_forms`` also write its sidecar ``<path>.npy`` (a temporary file, then
renamed): one ``.npy`` record of the SHA-256 of the JSON bytes, a row
(kind, u_min, u_max, v_min, v_max, components) per grid, and the grids'
values, each 3-vector grid as its three component planes.  ``read_grid``
and ``read_forms`` take the grids from a sidecar that loads without pickles,
holds the SHA-256 of the JSON file's bytes now, agrees with itself and
passes the checks the JSON path makes; otherwise, and for any file without
one, they parse the JSON.  Either path gives the same bits: a JSON ``-0``
reads as +0.0, so sidecar values get ``+ 0.0``.  A sidecar is trusted as a
hash-checked ``.pyc`` is: one forged to match its JSON file is believed.
Seeds and reports get no sidecar.  A failed sidecar write leaves the JSON
file as it is, no temporary file and no new sidecar; a sidecar left from an
earlier write holds another hash unless the bytes are the same.
"""

import contextlib
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .compatibility import FundamentalData, as_seed
from .errors import AffminError, DomainMismatch, DomainTooSmall
from .grids import GRID_KINDS, Grid, GridDomain, require_bounded
from .spelling import spell, write_chunks

__all__ = [
    "dumps_json",
    "write_json",
    "RowMajor",
    "grid_to_obj",
    "grid_from_obj",
    "write_grid",
    "read_grid",
    "write_forms",
    "read_forms",
    "write_seed",
    "read_seed",
]


# Scalars dumps_json spells as JSON numbers or true/false.
_SCALARS = (bool, np.bool_, int, float, np.integer, np.floating)

# What a JSON grid value list may hold: json.load gives bool and str too,
# which np.asarray(..., dtype=float) would take as 1.0 or a parsed number.
_JSON_NUMBERS = {int, float}
_FLOAT_MAX = float(np.finfo(float).max)

# A sidecar names each grid's kind by its index here.
_KINDS = tuple(GRID_KINDS)
# Bytes of a grid file that a reader hashes at a time.
_HASH_CHUNK = 1 << 20


def _format_number(x) -> str:
    """JSON spelling of a scalar; null for None, NaN and the infinities."""
    if x is None:
        return "null"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    return f"{x:.17g}" if math.isfinite(x) else "null"


@dataclass(frozen=True, eq=False)
class RowMajor:
    """A float64 array that ``dumps_json`` spells as one flat list in row-major
    order.  The kernel reads ``rows``, its (n, p) view, p numbers a record, so a
    3-vector grid's component planes are never copied into one interleaved array."""

    rows: np.ndarray


def _json_chunks(obj, indent: int = 0):
    """Yield the ASCII bytes of ``dumps_json(obj)``, each entry at ``indent``
    more spaces, piece by piece, a ``RowMajor`` one spelling pass at a time."""
    if isinstance(obj, str):
        yield json.dumps(obj).encode("ascii")
    elif obj is None or isinstance(obj, _SCALARS):
        yield _format_number(obj).encode("ascii")
    elif isinstance(obj, RowMajor):
        p = obj.rows.shape[1]
        # ", " leads every number the kernel spells; the first pass drops the first one.
        passes = spell(obj.rows, (b", ",) * p, bytes(p), _format_number)
        yield b"[" + next(passes, b", ")[2:]
        yield from passes
        yield b"]"
    elif isinstance(obj, dict) and not obj:
        yield b"{}"
    elif isinstance(obj, (list, tuple, np.ndarray)) and all(
            isinstance(x, _SCALARS) or x is None for x in obj):
        yield f"[{', '.join(map(_format_number, obj))}]".encode("ascii")
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        # One entry a line; a dict's entry follows its key.
        keyed = isinstance(obj, dict)
        entries = (((f"{json.dumps(str(k))}: ", v) for k, v in obj.items()) if keyed
                   else (("", v) for v in obj))
        before = "{" if keyed else "["
        for head, value in entries:
            yield f"{before}\n{' ' * (indent + 2)}{head}".encode("ascii")
            yield from _json_chunks(value, indent + 2)
            before = ","
        yield f"\n{' ' * indent}{'}' if keyed else ']'}".encode("ascii")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Serialize with deterministic 17-significant-digit floats.

    NaN and the infinities, which JSON cannot spell, are written as null.
    """
    return b"".join(_json_chunks(obj)).decode("ascii")


def write_json(obj, path) -> str:
    """Write ``dumps_json(obj)`` and a newline to ``path`` chunk by chunk and return
    the SHA-256 hex digest of the bytes written; a value that cannot be serialized
    raises ``TypeError`` and, like any failure, leaves no file."""
    return write_chunks(path, itertools.chain(_json_chunks(obj), [b"\n"]))


def _numbers(values, what: str) -> np.ndarray:
    """The float64 array of a list of JSON numbers; ValueError naming ``what``
    and the first entry that is no number (null among them) or an integer
    beyond the float range."""
    if not isinstance(values, list):
        raise ValueError(f"{what}: expected a list, got {type(values).__name__}")
    if not set(map(type, values)) <= _JSON_NUMBERS:
        k = next(k for k, x in enumerate(values) if type(x) not in _JSON_NUMBERS)
        raise ValueError(f"{what}: entry {k} is {json.dumps(values[k])}, not a number")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        k = next(k for k, x in enumerate(values) if type(x) is int and abs(x) > _FLOAT_MAX)
        raise ValueError(f"{what}: entry {k} is an integer beyond the float range") from None


def grid_to_obj(grid: Grid, what: str) -> dict:
    """Grid file object, ``"values"`` the ``RowMajor`` of the grid's (n, components)
    view; a ValueError starts with ``what``."""
    require_bounded(grid.values, grid.domain, f"{what}: {grid.kind} grid")
    return {
        "kind": grid.kind,
        "domain": list(grid.domain.as_tuple()),
        "components": grid.components,
        "values": RowMajor(grid.values.reshape(-1, grid.components)),
    }


def grid_from_obj(obj: dict, what: str = "grid object") -> Grid:
    """The grid of a grid file object; every ValueError starts with ``what``."""
    try:
        kind, bounds, components, values = (
            obj[key] for key in ("kind", "domain", "components", "values"))
        # Only JSON integers: int() would take 1.9, true and "1" as well.
        if not isinstance(bounds, list) or any(type(x) is not int for x in bounds):
            raise ValueError(f"domain must be a list of integers, got {json.dumps(bounds)}")
        if type(components) is not int:
            raise ValueError(f"components must be an integer, got {json.dumps(components)}")
        domain = GridDomain(*bounds)
    except (KeyError, TypeError, ValueError, DomainTooSmall) as exc:
        raise ValueError(f"{what}: malformed grid object: {exc}") from exc
    if not isinstance(kind, str) or kind not in GRID_KINDS:
        raise ValueError(f"{what}: unknown grid kind {kind!r}")
    if components not in (1, 3):
        raise ValueError(f"{what}: components must be 1 or 3, got {components}")
    cls = GRID_KINDS[kind]
    shape = cls._entry_shape(domain) + ((3,) if components == 3 else ())
    array = _numbers(values, f"{what}: malformed grid values")
    if array.size != math.prod(shape):
        raise ValueError(f"{what}: grid value count {array.size} does not match domain {domain} "
                         f"({math.prod(shape)} expected)")
    array = array.reshape(shape)
    require_bounded(array, domain, f"{what}: {kind} grid")
    return cls(domain, array)


def _sidecar_dtype(n_grids: int, n_values: int) -> np.dtype:
    """The sidecar record of ``n_grids`` grids of ``n_values`` numbers in all."""
    return np.dtype([("sha256", "S64"), ("grids", np.int64, (n_grids, 6)),
                     ("values", float, (n_values,))])


def _write_sidecar(path, digest: str, grids) -> None:
    """Write the sidecar of the grid file ``path``, whose bytes hash to ``digest``,
    each component plane as it is; an OSError leaves no new sidecar and no
    temporary file and is not raised, since a missing sidecar only costs a
    reader time."""
    sidecar = f"{os.fspath(path)}.npy"
    temp = f"{sidecar}.tmp"
    rows = np.array([(_KINDS.index(grid.kind), *grid.domain.as_tuple(), grid.components)
                     for grid in grids], np.int64)
    try:
        dtype = _sidecar_dtype(len(grids), sum(grid.values.size for grid in grids))
    except ValueError:   # a numpy record holds at most 2 GiB: 268M numbers get no sidecar
        return
    try:
        with open(temp, "wb") as handle:
            np.lib.format.write_array_header_1_0(handle, {
                "descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False,
                "shape": ()})
            handle.write(digest.encode("ascii"))
            handle.write(rows.tobytes())
            for grid in grids:
                v = grid.values
                for plane in (v,) if grid.components == 1 else (v[..., k] for k in range(3)):
                    handle.write(np.ascontiguousarray(plane))
        os.replace(temp, sidecar)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):   # no temporary file is left after the rename
            os.remove(temp)


def _sha256_file(path) -> str:
    """SHA-256 hex digest of the file ``path``, read ``_HASH_CHUNK`` bytes at a time."""
    digest, view = hashlib.sha256(), memoryview(bytearray(_HASH_CHUNK))
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(view):
            digest.update(view[:size])
    return digest.hexdigest()


def _sidecar_grids(path, kinds: tuple) -> list | None:
    """The grids in the sidecar of the grid file ``path``, or None unless the
    sidecar loads without pickles, holds the SHA-256 of the bytes now in
    ``path``, one grid of each of ``kinds`` (None: any kind) and nothing more,
    and its values fit their domains and ``require_bounded``."""
    try:
        with open(f"{os.fspath(path)}.npy", "rb") as handle:
            if np.lib.format.read_magic(handle) != (1, 0):
                return None
            shape, _, dtype = np.lib.format.read_array_header_1_0(handle)
            offset = handle.tell()
            # Checked before anything is allocated: a header may claim any size.
            if (shape != () or dtype.names != ("sha256", "grids", "values")
                    or dtype != _sidecar_dtype(len(kinds), dtype["values"].itemsize // 8)
                    or os.fstat(handle.fileno()).st_size != offset + dtype.itemsize
                    or handle.read(64) != _sha256_file(path).encode("ascii")):
                return None
            handle.seek(offset)
            record = np.fromfile(handle, dtype, 1)[0]
        values, grids, start = record["values"], [], 0
        np.add(values, 0.0, out=values)   # the JSON path reads "-0" as 0.0
        for (code, *bounds, components), kind in zip(record["grids"].tolist(), kinds):
            cls = GRID_KINDS[_KINDS[code]] if 0 <= code < len(_KINDS) else None
            if cls is None or kind not in (None, cls.kind) or components not in (1, 3):
                return None
            domain = GridDomain(*bounds)
            shape = (components,) + cls._entry_shape(domain)
            array = values[start:start + math.prod(shape)]
            start += array.size
            if array.size != math.prod(shape):
                return None
            array = array.reshape(shape).transpose(1, 2, 0) if components == 3 \
                else array.reshape(shape[1:])
            require_bounded(array, domain, str(path))
            grids.append(cls(domain, array))
        return grids if start == values.size else None
    except (OSError, ValueError, DomainTooSmall):
        return None


def write_grid(grid: Grid, path) -> str:
    digest = write_json(grid_to_obj(grid, str(path)), path)
    _write_sidecar(path, digest, (grid,))
    return digest


def _load_json(path) -> dict:
    """The JSON object in ``path``; OSError if unreadable, ValueError if not an object."""
    try:
        with open(path, "r", encoding="ascii") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError, or an integer of over 4300 digits
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return obj


def read_grid(path, expected_kind: str | None = None) -> Grid:
    sidecar = _sidecar_grids(path, (expected_kind,))
    if sidecar is not None:
        return sidecar[0]
    grid = grid_from_obj(_load_json(path), str(path))
    if expected_kind is not None and grid.kind != expected_kind:
        raise ValueError(f"{path} holds a {grid.kind} grid, expected {expected_kind}")
    return grid


def write_forms(data: FundamentalData, path) -> str:
    grids = (data.areas, data.u_coeff, data.v_coeff)
    digest = write_json({key: grid_to_obj(grid, f"{path}: {key}")
                         for key, grid in zip("FAB", grids)}, path)
    _write_sidecar(path, digest, grids)
    return digest


def read_forms(path) -> FundamentalData:
    """The F, A and B of a forms bundle; ValueError naming the file and the grid
    that is missing, malformed, not 1-component of its kind, or off F's box."""
    sidecar = _sidecar_grids(path, ("face", "vertex", "vertex"))
    if sidecar is not None and all(grid.components == 1 for grid in sidecar):
        with contextlib.suppress(AffminError):   # the JSON path names the error
            return FundamentalData(*sidecar)
    obj, what = _load_json(path), f"forms bundle {path}"
    grids = []
    for key, kind in zip("FAB", ("face", "vertex", "vertex")):
        if key not in obj:
            raise ValueError(f"{what} is missing key {key!r}")
        grid = grid_from_obj(obj[key], f"{what}: {key}")
        if grid.kind != kind or grid.components != 1:
            raise ValueError(f"{what}: {key} must be a 1-component {kind} grid, "
                             f"got a {grid.components}-component {grid.kind} grid")
        grids.append(grid)
    try:
        return FundamentalData(*grids)
    except DomainMismatch as exc:
        raise ValueError(f"{what}: {exc}") from exc


def write_seed(points, path) -> str:
    points = as_seed(points)
    return write_json({"points": [list(p) for p in points]}, path)


def read_seed(path) -> np.ndarray:
    """The four points of a seed file (``as_seed``); ValueError names the file
    and the first point that is not a list of three JSON numbers."""
    points, what = _load_json(path).get("points"), f"seed file {path}"
    if not isinstance(points, list):
        raise ValueError(f"{what} must hold four 3-points, got {json.dumps(points)[:40]}")
    for k, point in enumerate(points):
        points[k] = _numbers(point, f"{what} point {k}")
        if len(point) != 3:
            raise ValueError(f"{what} point {k} has {len(point)} coordinates, not 3")
    return as_seed(points, what)
