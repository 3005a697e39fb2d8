"""Span tracer that times affmin's layers from outside the library.

``Tracer.install`` replaces every public function of every ``affmin`` module
with a timing wrapper, in each module namespace that binds it (so
``face_volumes`` is wrapped as ``affmin.geometry.face_volumes``,
``affmin.forms.face_volumes``, ``affmin.cli.face_volumes`` and so on, and
calls inside a module go through the wrapper too).  ``Tracer.restore`` puts
the originals back.  Each call becomes a span kept in memory: name, module,
start, end, parent span and op id.  Nested calls appear as children, for
example ``extract_fundamental_data -> cubic_coefficients -> face_volumes``.
Installed with ``memory=True`` it also runs ``tracemalloc`` and records the
peak reached inside each span; that multiplies the run time of
allocation-heavy code such as the OBJ writer by ten, so the timing pass
runs without it.

The wrapper's own bookkeeping (memory probes, file sizes, net fingerprints,
outcome checks) happens outside the span's [start, end] interval but inside
the parent's; it is charged to neither, so a span's self time is its
duration minus the outer extent of its children.
"""

import functools
import importlib
import inspect
import json
import os
import time
import tracemalloc
import zlib

import numpy as np

import checks

MODULES = ("conormal", "lelieuvre", "geometry", "grids", "forms", "compatibility",
           "variational", "mesh", "gridio", "cli")

DIFF_OPS = frozenset(f"grids.{name}" for name in ("d1", "d2", "d11", "d12", "d22"))
GRIDIO_WRITES = frozenset(f"gridio.{name}" for name in
                          ("write_json", "write_grid", "write_forms", "write_seed"))
GRIDIO_READS = frozenset(f"gridio.{name}" for name in ("read_grid", "read_forms", "read_seed"))

# Which argument holds the file path, for the spans whose byte counts matter.
_PATH_ARG = {name: ("path", 1) for name in GRIDIO_WRITES}
_PATH_ARG.update({name: ("path", 0) for name in GRIDIO_READS})
_PATH_ARG["mesh.export_obj"] = ("path", 1)


def public_functions():
    """(module short name, function name, function) for every public function."""
    found = []
    for short in MODULES:
        module = importlib.import_module(f"affmin.{short}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found.append((short, name, obj))
    return found


def _argument(args, kwargs, name, position):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _net_fingerprint(surface):
    """Identify the net a call works on by the bytes of its positions."""
    values = np.ascontiguousarray(getattr(surface, "positions", surface).values)
    return (values.shape, zlib.crc32(values.data))


class Span:
    __slots__ = ("name", "module", "op", "parent", "start", "end", "outer",
                 "children", "base", "max_seen", "peak", "extra")

    def __init__(self, name, module, op, parent):
        self.name = name
        self.module = module
        self.op = op
        self.parent = parent
        self.children = 0.0
        self.peak = None
        self.extra = {}

    def as_dict(self, index):
        return {
            "id": index, "name": self.name, "parent": self.parent, "op": self.op,
            "start": self.start, "end": self.end, "self_s": self.self_time,
            "peak_bytes": self.peak, **self.extra,
        }

    @property
    def self_time(self) -> float:
        return (self.end - self.start) - self.children


class Tracer:
    """Wraps affmin's public functions and records one span per call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._memory = False
        self.op = None
        self._wrappers = {
            fn: self._wrap(short, name, fn) for short, name, fn in public_functions()
        }

    # -- installation ---------------------------------------------------------

    def install(self, memory: bool = False):
        self._memory = memory
        namespaces = [importlib.import_module("affmin")] + [
            importlib.import_module(f"affmin.{short}") for short in MODULES
        ]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if memory:
            tracemalloc.start()

    def restore(self):
        if self._memory:
            tracemalloc.stop()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, short, name, fn):
        qualified = f"{short}.{name}"
        path_arg = _PATH_ARG.get(qualified)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_start = time.perf_counter()
            span = self._enter(qualified, short)
            if qualified == "geometry.face_volumes":
                span.extra["net"] = _net_fingerprint(_argument(args, kwargs, "surface", 0))
            if path_arg and qualified in GRIDIO_READS:
                span.extra["bytes"] = _file_size(_argument(args, kwargs, *path_arg))
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.extra["raised"] = type(exc).__name__
                self._exit(span, outer_start)
                raise
            span.end = time.perf_counter()
            if path_arg and qualified not in GRIDIO_READS:
                span.extra["bytes"] = _file_size(_argument(args, kwargs, *path_arg))
            if qualified == "compatibility.reconstruct":
                span.extra["rejected"] = not checks.all_finite(result.positions.values)
            elif qualified == "variational.criticality_certificate":
                span.extra["rejected"] = not checks.criticality_ok(result)
            self._exit(span, outer_start)
            return result

        return traced

    def _enter(self, name, module) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, module, self.op, parent[0] if parent else None)
        if self._memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent:
                parent[1].max_seen = max(parent[1].max_seen, peak)
            tracemalloc.reset_peak()
            span.base = span.max_seen = current
        self._stack.append((len(self.spans), span))
        self.spans.append(span)
        return span

    def _exit(self, span: Span, outer_start: float):
        self._stack.pop()
        parent = self._stack[-1][1] if self._stack else None
        if self._memory:
            _, peak = tracemalloc.get_traced_memory()
            absolute = max(span.max_seen, peak)
            span.peak = absolute - span.base
            tracemalloc.reset_peak()
            if parent:
                parent.max_seen = max(parent.max_seen, absolute)
        span.outer = time.perf_counter() - outer_start
        if parent:
            parent.children += span.outer

    def write(self, path):
        with open(path, "w", encoding="ascii") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps(span.as_dict(index)) + "\n")


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def layer_metrics(spans, timed_ops, memory_op, overhead_frac):
    """Per-layer metrics of the traced run.

    Times and calls are per op over ``timed_ops`` (the probe ops are left
    out of them), peaks come from the spans of ``memory_op``, and the two
    ``.fail`` ratios count every traced call, the probe's included, because
    the probe is where the known defect shows.
    """
    n_ops = max(len(timed_ops), 1)
    timed = [s for s in spans if s.op in timed_ops]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    for module in MODULES:
        mine = [s for s in timed if s.module == module]
        put(f"{module}.self_s", sum(s.self_time for s in mine) / n_ops, "s")

    fv = [s for s in timed if s.name == "geometry.face_volumes"]
    distinct = len({(s.op, s.extra["net"]) for s in fv})
    put("geometry.face_volumes.calls", len(fv) / n_ops, "calls/op")
    put("geometry.face_volumes.useful_ratio", distinct / len(fv) if fv else 0.0, "ratio")
    put("grids.diff.calls", sum(s.name in DIFF_OPS for s in timed) / n_ops, "calls/op")
    put("forms.cubic_coefficients.calls",
        sum(s.name == "forms.cubic_coefficients" for s in timed) / n_ops, "calls/op")

    for metric, name in (("compatibility.reconstruct.fail", "compatibility.reconstruct"),
                         ("variational.criticality.fail", "variational.criticality_certificate")):
        calls = [s for s in spans if s.name == name]
        failed = sum(bool(s.extra.get("raised") or s.extra.get("rejected")) for s in calls)
        put(metric, failed / len(calls) if calls else 0.0, "ratio")

    def duration(group):
        return sum(s.end - s.start for s in group)

    tess = [s for s in timed if s.name == "mesh.tessellate"]
    export = [s for s in timed if s.name == "mesh.export_obj"]
    put("mesh.tessellate_s", duration(tess) / n_ops, "s")
    put("mesh.export_obj_s", duration(export) / n_ops, "s")
    put("mesh.obj_mb_per_s", _rate(export, duration(export)), "MB/s")

    # Outermost gridio calls only: write_grid calls write_json calls dumps_json.
    top_io = [s for s in timed if s.module == "gridio"
              and (s.parent is None or spans[s.parent].module != "gridio")]
    writes = [s for s in top_io if s.name in GRIDIO_WRITES]
    reads = [s for s in top_io if s.name in GRIDIO_READS]
    put("gridio.write_s", duration(writes) / n_ops, "s")
    put("gridio.read_s", duration(reads) / n_ops, "s")
    put("gridio.write_mb_per_s", _rate(writes, duration(writes)), "MB/s")
    put("gridio.read_mb_per_s", _rate(reads, duration(reads)), "MB/s")

    for module in MODULES:
        peaks = [s.peak for s in spans if s.module == module and s.op == memory_op]
        put(f"{module}.peak_mb", max(peaks, default=0) / 1e6, "MB")

    put("trace.overhead_frac", overhead_frac, "ratio")
    return metrics


def _rate(group, seconds):
    total = sum(s.extra.get("bytes", 0) for s in group)
    return total / 1e6 / seconds if seconds > 0 else 0.0
