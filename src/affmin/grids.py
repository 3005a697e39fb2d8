"""Staggered grids on rectangular integer boxes and their difference operators.

Quantities of a quad net live on four interlocking lattices: vertices (u, v),
u-edges (u+1/2, v), v-edges (u, v+1/2) and faces (u+1/2, v+1/2).  Half-integer
positions are stored at the floor integer, so ``FaceGrid`` entry ``(u, v)``
holds the value at ``(u+1/2, v+1/2)``.  Every grid carries its own
``GridDomain`` and exposes named accessors (``face_at``, ``uedge_at``...)
so callers never do offset arithmetic themselves.

Each kind's ``offset`` (du, dv) counts its half steps off the vertices:
(0, 0) for vertices, (1, 0) u-edges, (0, 1) v-edges, (1, 1) faces.  A first
difference moves half a step, so it flips one bit: ``d1`` flips du and
``d2`` flips dv.  Landing on whole steps (a bit going from 1 to 0) moves the
entries to the interior vertices of that axis.  All arrays are float64, dense,
row-major with the u index first, and read-only after construction.  A
3-vector grid stores its components as three contiguous ``(nu, nv)`` planes
behind the ``(nu, nv, 3)`` view, so every component slice that a kernel
reads is contiguous; ``empty3`` allocates that layout.

The pointwise kernels shared by every certificate live here too: dot, cross
and triple products, norm and largest |component| of 3-vector arrays, their
products with and quotients by scalar arrays, the worst-entry lookup that
names a grid index, the face-choice average, the relative residual of a
stencil identity, and the ``TINY`` denominator floor.  So does the input
contract: ``require_bounded`` holds every value a file or a validator hands
in within ``VALUE_BOUND``, ``require_domain`` every grid a function takes to
the domain it needs, ``require_positive`` every F and M to be > 0, and
``as_positions``/``as_conormal`` a surface or co-normal argument to a
3-vector vertex grid.  So do the row bands that every whole-grid certificate
is evaluated on, and the worst-entry reducer that joins their results.
Every array is aligned at row 0, so a band of vertex rows ``start:stop``
reads rows ``start:stop - k`` of an array k rows shorter; ``row_bands`` cuts
them, and no caller does.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch, DomainTooSmall

__all__ = [
    "GridDomain",
    "Grid",
    "VertexGrid",
    "UEdgeGrid",
    "VEdgeGrid",
    "FaceGrid",
    "d1",
    "d2",
    "d11",
    "d22",
    "d12",
    "TINY",
    "empty3",
    "dot3",
    "cross3",
    "det3",
    "norm3",
    "absmax",
    "mul3",
    "div3",
    "as_positions",
    "as_conormal",
    "VALUE_BOUND",
    "require_bounded",
    "require_domain",
    "require_positive",
    "worst_index",
    "face_choice_mean",
    "relative_residual",
    "row_bands",
    "BandMax",
]

# Floor for denominators that may vanish (scales of all-zero fields).
TINY = 1e-300

# Largest |value| an input may hold, cbrt(max float / 64) ~ 1.41e102: a difference
# of two values stays within R = cbrt(max float / 8), so a triple product of
# differences (at most 6 R^3) and a mixed difference of R-bounded values (4 R) are finite.
VALUE_BOUND = float(np.cbrt(np.finfo(float).max / 64))

# Vertices per row band: a band's 3-vector temporaries (384 KiB) stay in L2.
_BAND_VERTICES = 2**14


@dataclass(frozen=True)
class GridDomain:
    """Inclusive vertex index bounds of a rectangular box in the integer plane.

    Surface-level fields (co-normals, immersions) additionally require at
    least one face, i.e. at least two vertices per direction; that is enforced
    where such fields are built, because derived grids (second differences,
    interior restrictions) legitimately live on thinner boxes.
    """

    u_min: int
    u_max: int
    v_min: int
    v_max: int

    def __post_init__(self):
        if self.u_max < self.u_min or self.v_max < self.v_min:
            raise DomainTooSmall(f"empty domain {self}")

    @property
    def n_u(self) -> int:
        return self.u_max - self.u_min + 1

    @property
    def n_v(self) -> int:
        return self.v_max - self.v_min + 1

    def require_faces(self, what: str = "grid"):
        """Raise unless the box supports at least one face."""
        if self.n_u < 2 or self.n_v < 2:
            raise DomainTooSmall(f"{what} needs at least one face, got {self}")
        return self

    def require_interior(self, what: str):
        """Raise, naming ``what`` and the box, unless the box has an interior vertex."""
        if self.n_u < 3 or self.n_v < 3:
            raise DomainTooSmall(f"{what} needs at least 3 vertices along u and v, "
                                 f"got {self.n_u} x {self.n_v} on {self}")
        return self

    def u_values(self) -> np.ndarray:
        return np.arange(self.u_min, self.u_max + 1)

    def v_values(self) -> np.ndarray:
        return np.arange(self.v_min, self.v_max + 1)

    def shrink(self, du_lo=0, du_hi=0, dv_lo=0, dv_hi=0) -> "GridDomain":
        return GridDomain(
            self.u_min + du_lo, self.u_max - du_hi,
            self.v_min + dv_lo, self.v_max - dv_hi,
        )

    def interior(self) -> "GridDomain":
        return self.shrink(1, 1, 1, 1)

    def contains_vertex(self, u: int, v: int) -> bool:
        return self.u_min <= u <= self.u_max and self.v_min <= v <= self.v_max

    def as_tuple(self):
        return (self.u_min, self.u_max, self.v_min, self.v_max)


class Grid:
    """Dense array of scalars or 3-vectors attached to one staggered lattice.

    ``values`` has shape ``(nu, nv)`` for scalars or ``(nu, nv, 3)`` for
    vectors, where ``(nu, nv)`` is ``(n_u - du, n_v - dv)`` for the kind's
    ``offset`` (du, dv).  Vectors are
    stored as component planes (see ``empty3``): an array whose component
    stride is not its largest (over the axes longer than 1), such as an
    interleaved ``(nu, nv, 3)`` array, is copied into planes; any other array,
    such as a row band of a grid, is kept as it is.  ``values`` is read-only
    (a read-only view of a writable array), so grids are safe to share
    across threads; the array a grid was built from stays as writable as it
    was, but writing to it is unsupported: it would also stale what ``memo``
    stored.
    """

    kind = "abstract"

    def __init__(self, domain: GridDomain, values):
        values = np.asarray(values, dtype=float)
        expected = self._entry_shape(domain)
        if values.shape[:2] != expected or values.ndim not in (2, 3):
            raise ValueError(
                f"{type(self).__name__} on {domain} expects leading shape "
                f"{expected}, got {values.shape}"
            )
        if values.ndim == 3 and values.shape[2] != 3:
            raise ValueError(f"vector grids must have 3 components, got {values.shape}")
        if values.ndim == 3 and any(n > 1 and abs(step) > values.strides[2]
                                    for n, step in zip(values.shape, values.strides[:2])):
            planes = empty3(values.shape)
            planes[...] = values
            values = planes
        self.domain = domain
        # Freeze a view, so the caller's array stays writable; a read-only
        # array (such as a band of a grid) is kept as it is.
        self.values = values.view() if values.flags.writeable else values
        self.values.setflags(write=False)

    @classmethod
    def _entry_shape(cls, domain: GridDomain):
        """Leading (nu, nv) shape of this lattice kind on ``domain``."""
        du, dv = cls.offset
        return (domain.n_u - du, domain.n_v - dv)

    @property
    def components(self) -> int:
        return 1 if self.values.ndim == 2 else 3

    def with_values(self, values):
        """Same-kind grid on the same domain with new values."""
        return type(self)(self.domain, values)

    def memo(self, key, inputs: tuple, compute):
        """``compute()``, stored under ``key`` with the ``inputs`` it was computed
        from besides this grid, whose values are frozen.  A call with the stored
        inputs (``is``) gets the stored value; other inputs compute again and
        replace it.  A ``compute`` that raises stores nothing."""
        store = self.__dict__.setdefault("_memo", {})
        if key not in store or any(a is not b for a, b in zip(store[key][0], inputs)):
            store[key] = (inputs, compute())
        return store[key][1]

    def _index(self, u: int, v: int):
        nu, nv = self._entry_shape(self.domain)
        i = u - self.domain.u_min
        j = v - self.domain.v_min
        if not (0 <= i < nu and 0 <= j < nv):
            raise IndexError(
                f"{type(self).__name__} index ({u}, {v}) outside domain {self.domain}"
            )
        return i, j

    def _at(self, u: int, v: int):
        return self.values[self._index(u, v)]

    def __repr__(self):
        return (
            f"{type(self).__name__}(domain={self.domain.as_tuple()}, "
            f"components={self.components})"
        )


class VertexGrid(Grid):
    """Values at integer vertices (u, v)."""

    kind = "vertex"
    offset = (0, 0)
    vertex_at = Grid._at

    @classmethod
    def from_function(cls, domain: GridDomain, fn) -> "VertexGrid":
        """Sample ``fn(u, v)`` (scalar or 3-vector valued) on every vertex."""
        rows = [[fn(u, v) for v in domain.v_values()] for u in domain.u_values()]
        return cls(domain, np.asarray(rows, dtype=float))


class UEdgeGrid(Grid):
    """Values at horizontal edge midpoints; entry (u, v) sits at (u+1/2, v)."""

    kind = "uedge"
    offset = (1, 0)
    uedge_at = Grid._at


class VEdgeGrid(Grid):
    """Values at vertical edge midpoints; entry (u, v) sits at (u, v+1/2)."""

    kind = "vedge"
    offset = (0, 1)
    vedge_at = Grid._at


class FaceGrid(Grid):
    """Values at face centers; entry (u, v) sits at (u+1/2, v+1/2)."""

    kind = "face"
    offset = (1, 1)
    face_at = Grid._at


GRID_KINDS = {cls.kind: cls for cls in (VertexGrid, UEdgeGrid, VEdgeGrid, FaceGrid)}
_BY_OFFSET = {cls.offset: cls for cls in GRID_KINDS.values()}


def _require_extent(grid: Grid, axis: int, needed: int, op: str):
    if grid.values.shape[axis] < needed:
        raise DomainTooSmall(
            f"{op} needs {needed} entries along {'u' if axis == 0 else 'v'}, "
            f"grid has {grid.values.shape[axis]} on {grid.domain}"
        )


def _difference(grid: Grid, axis: int) -> Grid:
    """Forward difference along ``axis`` (0: u, 1: v): flips that bit of the offset."""
    _require_extent(grid, axis, 2, f"d{axis + 1}")
    offset = list(grid.offset)
    offset[axis] ^= 1
    domain = grid.domain
    if not offset[axis]:   # half steps to whole steps: the interior of this axis
        domain = domain.shrink(1, 1) if axis == 0 else domain.shrink(0, 0, 1, 1)
    return _BY_OFFSET[tuple(offset)](domain, np.diff(grid.values, axis=axis))


def d1(grid: Grid) -> Grid:
    """Forward difference in u, half a step along u (du flips)."""
    return _difference(grid, 0)


def d2(grid: Grid) -> Grid:
    """Forward difference in v, half a step along v (dv flips)."""
    return _difference(grid, 1)


def d11(grid: VertexGrid) -> VertexGrid:
    """Second difference in u, on u-interior vertices."""
    _require_extent(grid, 0, 3, "d11")
    g = grid.values
    return VertexGrid(grid.domain.shrink(du_lo=1, du_hi=1), g[2:] - 2.0 * g[1:-1] + g[:-2])


def d22(grid: VertexGrid) -> VertexGrid:
    """Second difference in v, on v-interior vertices."""
    _require_extent(grid, 1, 3, "d22")
    g = grid.values
    return VertexGrid(
        grid.domain.shrink(dv_lo=1, dv_hi=1), g[:, 2:] - 2.0 * g[:, 1:-1] + g[:, :-2]
    )


def d12(grid: VertexGrid) -> FaceGrid:
    """Mixed difference on faces: g(u+1,v+1) + g(u,v) - g(u+1,v) - g(u,v+1)."""
    _require_extent(grid, 0, 2, "d12")
    _require_extent(grid, 1, 2, "d12")
    g = grid.values
    return FaceGrid(grid.domain, g[1:, 1:] + g[:-1, :-1] - g[1:, :-1] - g[:-1, 1:])


def empty3(shape, dtype=float):
    """Uninitialised array of 3-vectors (``shape`` ends in 3) stored as three
    contiguous component planes: ``out[..., k]`` is C-contiguous."""
    planes = np.empty((3,) + tuple(shape[:-1]), dtype)
    return planes.transpose(tuple(range(1, planes.ndim)) + (0,))


def dot3(a, b):
    """Dot product of 3-vector arrays along their last axis, one component slice at a time.

    The sum ((a0 b0 + a2 b2) + a1 b1) + 0.0 is the one ``np.einsum`` forms
    over interleaved vectors into its zeroed output (a zero sum is never
    -0.0), so these are einsum's bits on any memory layout; only the sign of
    a NaN made from NaNs of both signs may differ.
    """
    a, b = np.asarray(a), np.asarray(b)
    out = np.asarray(a[..., 0] * b[..., 0])   # a 0-d array for single vectors
    for k in (2, 1):
        out += a[..., k] * b[..., k]
    out += 0.0
    return out if out.ndim else out[()]


def cross3(a, b):
    """Cross product of broadcastable 3-vector arrays: numpy's sums, no input copies."""
    a, b = np.asarray(a), np.asarray(b)
    out = empty3(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        plane = np.multiply(a[..., i], b[..., j], out=out[..., k])
        np.subtract(plane, a[..., j] * b[..., i], out=plane)
    return out


def det3(a, b, c):
    """Triple product [a, b, c] = a . (b x c) of 3-vector arrays."""
    return dot3(a, cross3(b, c))


def norm3(x):
    """Euclidean length of 3-vectors along the last axis: ``np.linalg.norm``'s
    reduce without its ``conj`` copy.

    Which NaN a sum of NaNs of both signs keeps depends on the loop numpy
    runs for the array's shape and layout, so a component-wise sum cannot
    give numpy's bits; the same reduce on the same array does.
    """
    x = np.asarray(x)
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def absmax(x):
    """Largest |component| along the last axis (a NaN wins): |x_0| into one new
    plane, then the max with each later |x_k|."""
    x = np.asarray(x)
    out = np.abs(x[..., 0], out=np.empty_like(x[..., 0]))
    for k in range(1, x.shape[-1]):
        np.maximum(out, np.abs(x[..., k]), out=out)
    return out if out.ndim else out[()]


def mul3(s, v):
    """``s[..., None] * v``, bit for bit: one multiply per component, no broadcast loop.

    Of two NaN factors the product is s's NaN; numpy's broadcast returns either.
    """
    s, v = np.asarray(s), np.asarray(v)
    out = empty3(np.broadcast_shapes(s.shape + (1,), v.shape), np.result_type(s, v))
    for k in range(3):
        np.multiply(s, v[..., k], out=out[..., k])
    return out


def div3(v, s, out=None):
    """``v / s[..., None]``, bit for bit: one divide per component, no broadcast loop.

    Written into ``out`` if given, else into new component planes.
    """
    v, s = np.asarray(v), np.asarray(s)
    if out is None:
        out = empty3(np.broadcast_shapes(v.shape, s.shape + (1,)), np.result_type(v, s))
    for k in range(3):
        np.divide(v[..., k], s, out=out[..., k])
    return out


def as_positions(surface) -> VertexGrid:
    """Accept an Immersion or a bare position VertexGrid."""
    grid = getattr(surface, "positions", surface)
    if not isinstance(grid, VertexGrid) or grid.components != 3:
        raise TypeError("expected an Immersion or a 3-vector VertexGrid")
    return grid


def as_conormal(field) -> VertexGrid:
    """Accept a ConormalField or a bare co-normal VertexGrid."""
    grid = getattr(field, "vectors", field)
    if not isinstance(grid, VertexGrid) or grid.components != 3:
        raise TypeError("expected a ConormalField or a 3-vector co-normal VertexGrid")
    return grid


def require_bounded(values, domain: GridDomain, what: str):
    """Raise ValueError, naming ``what``, the first bad grid index (entry (0, 0) is
    (u_min, v_min) of ``domain``), its component and value, unless every entry is
    finite and at most ``VALUE_BOUND`` in size.  Two reductions, no temporary."""
    values = np.asarray(values)
    if values.max(initial=0.0) <= VALUE_BOUND and -values.min(initial=0.0) <= VALUE_BOUND:
        return
    first = tuple(int(i) for i in np.argwhere(~(np.abs(values) <= VALUE_BOUND))[0])
    where = f"grid index {(domain.u_min + first[0], domain.v_min + first[1])}"
    if len(first) == 3:
        where += f", component {first[2]}"
    raise ValueError(f"{what} at {where}: {values[first]} is not finite or over "
                     f"{VALUE_BOUND:.3g} in size")


def require_domain(domain: GridDomain, **grids):
    """Raise DomainMismatch naming the first of ``grids`` (name=grid) whose
    ``domain`` is not ``domain``, and both domains."""
    for name, grid in grids.items():
        if grid.domain != domain:
            raise DomainMismatch(f"{name} domain {grid.domain} is not {domain}")


def require_positive(values, domain: GridDomain, error):
    """Raise ``error(index, lowest)`` with the lowest entry of a 2-D array (the first
    NaN, if any) and its grid index, as ``worst_index`` names it, unless every entry is > 0."""
    lowest = values.min()
    if not lowest > 0.0:
        raise error(worst_index(-values, domain), float(lowest))


def worst_index(values, domain: GridDomain, du=0, dv=0):
    """Grid index of the largest entry of a 2-D array (the first NaN, if any).

    Entry (0, 0) of ``values`` sits at (u_min + du, v_min + dv) of ``domain``.
    """
    i, j = np.unravel_index(np.argmax(values), values.shape)
    return (domain.u_min + du + int(i), domain.v_min + dv + int(j))


def face_choice_mean(choices, shape):
    """Mean and spread (max - min) of estimates gathered over face choices.

    ``choices`` yields (estimate, output slice) pairs; each output entry
    averages the estimates of the faces whose slices reach it.
    """
    def filled(value):
        out = (np.empty if len(shape) == 2 else empty3)(shape)
        out.fill(value)
        return out

    total, count, lo, hi = filled(0.0), np.zeros(shape[:2]), filled(np.inf), filled(-np.inf)
    for est, sl in choices:
        total[sl] += est
        count[sl] += 1.0
        np.minimum(lo[sl], est, out=lo[sl])
        np.maximum(hi[sl], est, out=hi[sl])
    return (total / count if len(shape) == 2 else div3(total, count)), hi - lo


def relative_residual(terms, floor=0.0) -> float:
    """Worst |t0 - t1 - t2 ...| relative to the largest |t_k| or ``floor``.

    Each term is a 2-D grid of scalar stencils or a 3-D grid of 3-vectors;
    the residual and the scale of a vector stencil are maxima over its
    components, each formed in one array of its own, in place.
    """
    resid = np.subtract(terms[0], terms[1])
    for term in terms[2:]:
        np.subtract(resid, term, out=resid)
    np.abs(resid, out=resid)
    if resid.ndim != 2:   # a vector stencil's worst component, into component 0
        for k in (1, 2):
            np.maximum(resid[..., 0], resid[..., k], out=resid[..., 0])
        resid = resid[..., 0]
    magnitudes = (np.abs(t) if t.ndim == 2 else absmax(t) for t in terms)
    scale = np.maximum(next(magnitudes), next(magnitudes), out=np.empty(resid.shape))
    for magnitude in (*magnitudes, floor, TINY):
        np.maximum(scale, magnitude, out=scale)
    return float(np.divide(resid, scale, out=resid).max())


def row_bands(grid: VertexGrid, before: int = 0, after: int = 0, *arrays):
    """Row bands of about ``_BAND_VERTICES`` vertices for a stencil that reads
    ``before`` vertex rows behind its own row and ``after`` rows ahead.

    Yields ``(lo, band, views, own)``.  ``band`` holds the vertex rows
    ``start:stop`` that the band reads, a view of ``grid`` on their own box,
    and ``views`` the same rows of each of ``arrays``: ``array[start:stop -
    k]`` of one k = n_u - len(array) rows shorter (faces, u-edges: 1;
    u-interior vertices: 2), a view writable where the array is.  ``own``
    cuts from any grid computed on the band, or from a view, the rows it
    owns, from grid row ``lo`` on.  The bands split the first ``n_u - after`` rows
    and the last one owns the rest.  A stencil that fits in the band gives
    the bits of the whole grid, and a row of it past ``own`` comes again,
    with the same bits, in the next band.
    """
    dom = grid.domain
    step = max(_BAND_VERTICES // dom.n_v, 1)
    n_out = max(dom.n_u - after, 1)
    for lo in range(0, n_out, step):
        start, stop = max(lo - before, 0), (dom.n_u if lo + step >= n_out else lo + step + after)
        band = VertexGrid(dom.shrink(start, dom.n_u - stop), grid.values[start:stop])
        yield (lo, band, tuple(x[start:stop - dom.n_u + len(x)] for x in arrays),
               slice(lo - start, None if stop == dom.n_u else lo + step - start))


class BandMax:
    """Largest entry of a grid fed band by band in row order, and its index.

    ``value`` and ``index`` equal ``x.max()`` and ``worst_index(x, domain,
    du, dv)`` of the whole grid x: a later band wins only with a larger
    entry (ties keep the first in row-major order), and a NaN wins.
    """

    def __init__(self, domain: GridDomain, du=0, dv=0):
        self.value = self.index = None
        self._origin = (domain, du, dv)

    def add(self, values, lo: int):
        """Offer ``values``, whose first row is grid row ``lo``."""
        m = float(values.max())
        if self.value is None or not (np.isnan(self.value) or m <= self.value):
            domain, du, dv = self._origin
            self.value, self.index = m, worst_index(values, domain, du + lo, dv)
