"""Output checks that do not trust the library's own ``passed`` flags.

Every bound is tested as ``value <= bound`` inside ``within``, a comparison
that is False for NaN, so a NaN residual fails instead of slipping through
a ``value > bound`` test.  Reconstructions and affine maps are re-derived
here with numpy (a least-squares fit over every vertex, not the library's
corner-frame solve), and OBJ files are counted and scanned byte by byte.
"""

import hashlib

import numpy as np

from affmin.compatibility import TOL_COMPAT, TOL_EQUIV
from affmin.conormal import TOL_HARMONIC
from affmin.forms import TOL_FORMS
from affmin.geometry import TOL_ASYMPTOTIC, TOL_DUAL
from affmin.lelieuvre import TOL_INTEGRATE
from affmin.variational import TOL_CRIT

_TINY = 1e-300
_CHUNK = 1 << 20


class CheckFailed(Exception):
    """An output that the benchmark rejects; ``stage`` names where it came from."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


def within(value, bound) -> bool:
    """True when ``value <= bound``; False for NaN and for non-numbers."""
    try:
        return bool(float(value) <= float(bound))
    except (TypeError, ValueError):
        return False


def require(stage: str, name: str, value, bound):
    if not within(value, bound):
        raise CheckFailed(stage, f"{name} = {value!r} is not <= {bound!r}")


def all_finite(values) -> bool:
    return bool(np.isfinite(np.asarray(values, dtype=float)).all())


def require_finite(stage: str, name: str, values):
    if not all_finite(values):
        raise CheckFailed(stage, f"{name} holds non-finite values")


def criticality_ok(report, tol: float = TOL_CRIT) -> bool:
    """The criticality bound |grad|_inf <= tol * mean F, NaN failing."""
    return report.vacuous or within(report.max_gradient, tol * report.mean_area)


def lelieuvre_gap(nu: np.ndarray, q: np.ndarray) -> float:
    """Worst edge-equation residual of positions q against co-normals nu,
    relative to the longest prescribed edge."""
    q1 = np.cross(nu[:-1, :], nu[1:, :])
    q2 = np.cross(nu[:, 1:], nu[:, :-1])
    gap = max(float(np.abs(np.diff(q, axis=0) - q1).max()),
              float(np.abs(np.diff(q, axis=1) - q2).max()))
    scale = max(float(np.abs(q1).max()), float(np.abs(q2).max()), _TINY)
    return gap / scale


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| relative to the extent of b about its first vertex."""
    scale = max(float(np.abs(b - b[0, 0]).max()), _TINY)
    return float(np.abs(a - b).max()) / scale


def affine_fit(stage: str, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Least-squares affine map sending net a to net b: (det, relative gap).

    Raises CheckFailed when either net holds a non-finite position.
    """
    require_finite(stage, "source positions", a)
    require_finite(stage, "target positions", b)
    pa = a.reshape(-1, 3)
    pb = b.reshape(-1, 3)
    ca, cb = pa.mean(axis=0), pb.mean(axis=0)
    linear_t, *_ = np.linalg.lstsq(pa - ca, pb - cb, rcond=None)
    mapped = (pa - ca) @ linear_t + cb
    return float(np.linalg.det(linear_t)), relative_gap(mapped.reshape(b.shape), b)


def require_equivalent(stage: str, rebuilt: np.ndarray, original: np.ndarray):
    """The rebuilt net is a unimodular affine image of the original."""
    det, gap = affine_fit(stage, rebuilt, original)
    require(stage, "affine gap", gap, TOL_EQUIV)
    require(stage, "|det - 1|", abs(det - 1.0), TOL_EQUIV)
    return det


def require_roundtrip(stage: str, rebuilt: np.ndarray, original: np.ndarray):
    """Rebuilt with the original's own corner seed, the net comes back."""
    require_finite(stage, "reconstructed positions", rebuilt)
    require(stage, "round-trip gap", relative_gap(rebuilt, original), TOL_COMPAT)


def digest_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
    return digest.hexdigest()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def obj_stats(path) -> dict:
    """SHA-256, vertex and triangle counts of an OBJ file, read in chunks.

    ``letters_n`` counts the byte ``n``: vertex lines hold digits, signs,
    ``.``, ``e`` and spaces only, so any ``nan`` or ``inf`` shows up there.
    """
    digest = hashlib.sha256()
    counts = {b"\nv ": 0, b"\nf ": 0}
    letters_n = 0
    tail = b"\n"
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
            letters_n += chunk.count(b"n")
            # A match that starts in the previous chunk's last two bytes ends
            # in this one, so counting in tail + chunk counts each line once.
            window = tail + chunk
            for key in counts:
                counts[key] += window.count(key)
            tail = window[-2:]
    return {"sha256": digest.hexdigest(), "vertices": counts[b"\nv "],
            "triangles": counts[b"\nf "], "letters_n": letters_n}


def require_obj(stage: str, stats: dict, n_u: int, n_v: int, resolution: int):
    """Vertex lattice ((n_u-1)r+1) x ((n_v-1)r+1), two triangles per cell."""
    vertices = ((n_u - 1) * resolution + 1) * ((n_v - 1) * resolution + 1)
    triangles = 2 * (n_u - 1) * (n_v - 1) * resolution ** 2
    if stats["vertices"] != vertices or stats["triangles"] != triangles:
        raise CheckFailed(stage, f"OBJ has {stats['vertices']} vertices and "
                                 f"{stats['triangles']} triangles, expected "
                                 f"{vertices} and {triangles}")
    if stats["letters_n"]:
        raise CheckFailed(stage, "OBJ holds nan or inf")


def obj_vertices(path) -> np.ndarray:
    """Vertex positions of a (small) OBJ file."""
    rows = []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("v "):
                rows.append([float(x) for x in line.split()[1:4]])
    return np.array(rows)


def require_check_report(stage: str, report: dict, nu: np.ndarray):
    """Residuals of a ``check``/pipeline certificate report against tolerances.

    ``nu`` (the co-normal grid) scales the path-independence residual the
    same way the CLI does.
    """
    asym = report["asymptotic"]
    require(stage, "asymptotic zero residual", asym["max_zero_residual"], TOL_ASYMPTOTIC)
    require(stage, "asymptotic mixed residual", asym["max_mixed_residual"], TOL_ASYMPTOTIC)
    require(stage, "co-normal recovery", report["conormal_recovery"]["max_deviation"], TOL_DUAL)
    planar = report["planar_saddle"]
    require(stage, "planar cross", planar["max_orthogonality_residual"], TOL_DUAL)
    if planar["saddle_failures"]:
        raise CheckFailed(stage, f"saddle sign fails at {planar['saddle_failures'][:3]}")
    dual = report["duality"]
    require(stage, "duality pairing", dual["max_pairing_residual"], TOL_DUAL)
    require(stage, "duality cross", dual["max_cross_residual"], TOL_DUAL)
    lel = report["lelieuvre"]
    require(stage, "Lelieuvre residual", lel["max_residual"],
            TOL_INTEGRATE * max(float(lel["edge_scale"]), _TINY))
    closure_scale = max(float(np.abs(nu).max()) ** 2, 1.0)
    require(stage, "path independence", report["path_independence"]["residual"],
            TOL_INTEGRATE * closure_scale)
    require(stage, "area density bridge",
            report["area_density_bridge"]["max_relative_gap"], TOL_DUAL)


def require_harmonic(stage: str, nu: np.ndarray):
    mixed = nu[1:, 1:] + nu[:-1, :-1] - nu[1:, :-1] - nu[:-1, 1:]
    require(stage, "harmonicity", float(np.abs(mixed).max()), TOL_HARMONIC)

