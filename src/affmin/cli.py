"""Command-line pipelines over the affmin library.

Exit codes: 0 on success, 1 when a certificate or data check fails, 2 for
usage and I/O errors.  All artifact files (grid JSON, forms bundles, OBJ
meshes) are byte-deterministic across runs; the pipeline run report is the
one exception, because it records wall time.

Each report section is its certificate's record (``_record``): the report
dataclass's fields without grids, plus any overrides (``saddle_failures``
keeps the first 8).  ``path_independence``, ``area_density_bridge``,
``forms`` and ``compatibility`` are literal dicts.
"""

import argparse
import dataclasses
import functools
import hashlib
import os
import sys
import time

import numpy as np

from . import conormal
from .compatibility import (
    TOL_COMPAT,
    TOL_EQUIV,
    TOL_SEED,
    FundamentalData,
    affine_equivalence,
    canonical_seed,
    compatibility_residuals,
    extract_fundamental_data,
    reconstruct,
)
from .conormal import TOL_HARMONIC, ConormalField, validate
from .errors import AffminError, NotEquivalent
from .forms import (
    TOL_FORMS,
    a2_b1_closed_form,
    cubic_coefficients,
    normal_derivative_residuals,
    structural_residuals,
)
from .geometry import (
    TOL_ASYMPTOTIC,
    TOL_DUAL,
    affine_normal,
    asymptotic_certificate,
    duality_certificate,
    face_volumes,
    planarity_and_saddle,
    recover_conormal,
)
from .gridio import (
    read_forms,
    read_grid,
    read_seed,
    write_forms,
    write_grid,
    write_json,
)
from .grids import TINY, Grid, GridDomain
from .lelieuvre import (
    TOL_INTEGRATE,
    Immersion,
    integrate,
    path_independence_residual,
    verify_lelieuvre,
)
from .mesh import export_surface_obj
from .variational import TOL_CRIT, affine_area, area_gradient, criticality_certificate

# Example name -> (field builder of (box, n), default box).
EXAMPLES = {
    "helicoid": (lambda box, n: conormal.helicoid(n, box[:2], box[2:]), (0, 10, 0, 16)),
    "cubic": (lambda box, n: conormal.minimal_cubic(GridDomain(*box)), (1, 11, 1, 11)),
    "paraboloid": (lambda box, n: conormal.hyperbolic_paraboloid(GridDomain(*box)),
                   (0, 10, 0, 10)),
    "sphere": (lambda box, n: conormal.improper_sphere(GridDomain(*box)), (1, 11, -10, 0)),
}

# Tolerance name -> (default, help); the flag is --tol-<name>.
_TOLERANCES = {
    "harmonic": (TOL_HARMONIC, "harmonicity tolerance"),
    "integrate": (TOL_INTEGRATE, "edge-equation tolerance"),
    "asymptotic": (TOL_ASYMPTOTIC, "asymptotic-certificate tolerance"),
    "dual": (TOL_DUAL, "duality/recovery tolerance"),
    "forms": (TOL_FORMS, "cubic-form tolerance"),
    "compat": (TOL_COMPAT, "compatibility tolerance"),
    "seed": (TOL_SEED, "seed determinant tolerance"),
    "equiv": (TOL_EQUIV, "affine-equivalence tolerance"),
    "crit": (TOL_CRIT, "criticality tolerance"),
}


def _load_surface(path) -> Immersion:
    grid = read_grid(path, expected_kind="vertex")
    if grid.components != 3:
        raise ValueError(f"{path}: surface grids must hold 3-vectors")
    return Immersion(grid)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _record(report, **extra) -> dict:
    """The dataclass fields of ``report`` except grids, then ``extra``; an
    ``extra`` key naming a field replaces that field's value in place."""
    record = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
              if not isinstance(getattr(report, f.name), Grid)}
    record.update(extra)
    return record


def _surface_checks(surface: Immersion, field: ConormalField | None, tols) -> dict:
    """Run the geometry (and, with a field, the Lelieuvre) certificates."""
    vols = face_volumes(surface)
    normals = affine_normal(surface, vols.areas)
    recovery = recover_conormal(surface)
    nu = recovery.vectors if field is None else field.vectors
    extra = {}
    if field is not None:
        # Raises DomainMismatch before the bridge divides grids of other shapes.
        extra["lelieuvre"] = _record(verify_lelieuvre(surface, field, tols["integrate"]))
        closure = path_independence_residual(field)
        closure_scale = max(float(np.abs(nu.values).max()) ** 2, 1.0)
        extra["path_independence"] = {"residual": closure,
                                      "passed": closure <= tols["integrate"] * closure_scale}
        bridge = float(np.abs(field.areas.values / vols.areas.values - 1.0).max())
        extra["area_density_bridge"] = {"max_relative_gap": bridge,
                                        "passed": bridge <= tols["dual"]}
    planar = planarity_and_saddle(surface, nu, tols["dual"])
    report = {
        "asymptotic": _record(asymptotic_certificate(surface, tols["asymptotic"])),
        "conormal_recovery": _record(recovery,
                                     passed=recovery.max_deviation <= tols["dual"]),
        "planar_saddle": _record(planar, saddle_failures=planar.saddle_failures[:8]),
        "duality": _record(duality_certificate(nu, normals, vols.areas, tols["dual"])),
        **extra,
    }
    report["passed"] = all(section["passed"] for section in report.values())
    return report


def _tols(args) -> dict:
    return {name: getattr(args, f"tol_{name}", default)
            for name, (default, _) in _TOLERANCES.items()}


def _cmd_generate(args) -> int:
    field = EXAMPLES[args.example][0](args.box, args.n)
    write_grid(field.vectors, args.out)
    print(f"wrote co-normal grid {args.out} (min F = {field.min_area:.6g})")
    return 0


def _cmd_integrate(args) -> int:
    field = validate(read_grid(args.conormal, "vertex"), _tols(args)["harmonic"])
    base = {}
    if args.base is not None:
        u, v = args.base[:2]
        if not (u.is_integer() and v.is_integer() and field.domain.contains_vertex(u, v)):
            raise ValueError(f"--base vertex ({u:g}, {v:g}) is not an integer vertex of the box "
                             f"{field.domain.as_tuple()}")
        base = {"base_vertex": (int(u), int(v)), "base_value": args.base[2:]}
    surface = integrate(field, **base)
    write_grid(surface.positions, args.out)
    print(f"wrote surface grid {args.out} (domain {surface.domain.as_tuple()})")
    return 0


def _cmd_check(args) -> int:
    surface = _load_surface(args.surface)
    tols = _tols(args)
    conormal_grid = read_grid(args.conormal, "vertex") if args.conormal else None
    try:
        field = None if conormal_grid is None else validate(conormal_grid, tols["harmonic"])
        report = _surface_checks(surface, field, tols)
    except AffminError as exc:
        # Data so broken the certificates cannot even be evaluated (e.g. a
        # co-normal that is not harmonic, or a non-positive face volume)
        # still produces a report naming it.
        report = {"error": f"{type(exc).__name__}: {exc}", "passed": False}
    report["tolerances"] = tols
    write_json(report, args.report)
    status = "pass" if report["passed"] else "FAIL"
    print(f"check: {status} (report in {args.report})")
    if not report["passed"]:
        for name, section in report.items():
            if isinstance(section, dict) and not section.get("passed", True):
                print(f"  failing certificate: {name}")
    return 0 if report["passed"] else 1


def _cmd_forms(args) -> int:
    surface = _load_surface(args.surface)
    data = extract_fundamental_data(surface, args.tol_forms)
    write_forms(data, args.out)
    print(f"wrote fundamental data {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    data = read_forms(args.forms)
    seed = read_seed(args.seed) if args.seed else None
    tols = _tols(args)
    surface = reconstruct(data, seed, tols["seed"], tols["compat"])
    write_grid(surface.positions, args.out)
    print(f"wrote reconstructed surface {args.out}")
    return 0


def _cmd_compare(args) -> int:
    qa = _load_surface(args.a)
    qb = _load_surface(args.b)
    tols = _tols(args)
    try:
        mapping = affine_equivalence(qa, qb, tols["equiv"])
    except NotEquivalent as exc:
        write_json({
            "equivalent": False,
            "worst_vertex": list(exc.vertex),
            "gap": exc.gap,
            "tolerance": tols["equiv"],
        }, args.report)
        print(f"compare: NOT equivalent (gap {exc.gap:.3e} at {exc.vertex})")
        return 1
    except AffminError as exc:
        # Surfaces that cannot be compared (other boxes, a flat corner) still get a report.
        write_json({"equivalent": False, "error": f"{type(exc).__name__}: {exc}",
                    "tolerance": tols["equiv"]}, args.report)
        raise
    write_json({"equivalent": True, **_record(
        mapping, det=mapping.det, unimodular=abs(abs(mapping.det) - 1.0) <= tols["equiv"],
        tolerance=tols["equiv"])}, args.report)
    print(f"compare: equivalent, det = {mapping.det:.12g}")
    return 0


def _cmd_area(args) -> int:
    print(f"{affine_area(_load_surface(args.surface)):.17g}")
    return 0


def _cmd_gradient(args) -> int:
    g = area_gradient(_load_surface(args.surface))
    write_grid(g, args.out)
    print(f"wrote area gradient {args.out} (interior domain {g.domain.as_tuple()})")
    return 0


def _cmd_critical(args) -> int:
    tol = _tols(args)["crit"]
    report = criticality_certificate(_load_surface(args.surface), tol)
    if report.vacuous:
        print("critical: vacuous pass (no interior vertex)")
        return 0
    ratio = report.max_gradient / max(report.mean_area, TINY)
    status = "pass" if report.passed else "FAIL"
    print(f"critical: {status} (|grad|_inf / mean F = {ratio:.3e}, tol {tol:g})")
    return 0 if report.passed else 1


def _cmd_export(args) -> int:
    counts = export_surface_obj(_load_surface(args.surface), args.resolution, args.out)
    print(f"wrote {args.out} ({counts.vertices} vertices, {counts.triangles} triangles)")
    return 0


def _cmd_pipeline(args) -> int:
    started = time.perf_counter()
    tols = _tols(args)
    os.makedirs(args.outdir, exist_ok=True)
    build, default_box = EXAMPLES[args.example]
    box = tuple(args.box) if args.box else default_box
    path = functools.partial(os.path.join, args.outdir)
    report = {
        "command": "pipeline",
        "example": args.example,
        "box": list(box),
        "n": args.n,
        "tolerances": tols,
    }
    try:
        report.update(_pipeline_stages(build(box, args.n), tols, args.resolutions, path))
    except AffminError as exc:
        # A stage that raises (a field that is not convex, an ill-defined
        # form) still leaves a report naming the error.
        write_json({**report, "error": f"{type(exc).__name__}: {exc}", "passed": False},
                   path("pipeline_report.json"))
        raise
    report["wall_time_s"] = time.perf_counter() - started
    write_json(report, path("pipeline_report.json"))
    print(f"pipeline {args.example}: {'pass' if report['passed'] else 'FAIL'} "
          f"(artifacts in {args.outdir})")
    return 0 if report["passed"] else 1


def _pipeline_stages(field: ConormalField, tols, resolutions, path) -> dict:
    """Write every artifact but the run report; return the report's later sections."""
    write_grid(field.vectors, path("conormal.json"))
    surface = integrate(field)
    write_grid(surface.positions, path("surface.json"))

    checks = _surface_checks(surface, field, tols)
    write_json(checks, path("check_report.json"))

    vols = face_volumes(surface)
    normals = affine_normal(surface, vols.areas)
    form = cubic_coefficients(surface, normals, tols["forms"])
    structural = structural_residuals(surface, vols.areas, form, tols["forms"])
    derivs, closed = a2_b1_closed_form(surface, normals, vols.areas, form)
    normal_derivs = normal_derivative_residuals(surface, normals, vols.areas,
                                                derivs, tols["forms"])
    data = FundamentalData(vols.areas, form.u_coeff, form.v_coeff)
    write_forms(data, path("forms.json"))
    forms_report = {
        "max_face_choice_spread": max(form.max_spread_u, form.max_spread_v),
        "structural_max_residual": structural.max_residual,
        "closed_form_relative_gap": closed.relative_gap,
        "normal_derivative_max_residual": normal_derivs.max_residual,
        "passed": bool(
            structural.passed and normal_derivs.passed
            and closed.relative_gap <= tols["forms"]
        ),
    }

    residuals = compatibility_residuals(data)
    p = surface.positions.values
    own_seed = np.stack([p[0, 0], p[1, 0], p[0, 1], p[1, 1]])
    roundtrip = reconstruct(data, own_seed, tols["seed"], tols["compat"])
    scale = max(float(np.abs(p - p[0, 0]).max()), TINY)
    roundtrip_gap = float(np.abs(roundtrip.positions.values - p).max()) / scale
    canonical = reconstruct(data, canonical_seed(float(data.areas.values[0, 0])),
                            tols["seed"], tols["compat"])
    write_grid(canonical.positions, path("reconstructed.json"))
    mapping = affine_equivalence(canonical, surface, tols["equiv"])
    compat_report = {
        "residuals": list(residuals),
        "roundtrip_relative_gap": roundtrip_gap,
        "canonical_equivalence_det": mapping.det,
        "passed": bool(
            residuals.max <= tols["compat"]
            and roundtrip_gap <= tols["compat"]
            and abs(mapping.det - 1.0) <= tols["equiv"]
        ),
    }

    crit = criticality_certificate(surface, tols["crit"])

    meshes = {}
    for res in resolutions:
        name = f"mesh_res{res}.obj"
        meshes[name] = export_surface_obj(surface, res, path(name))._asdict()

    digests = {name: _sha256(path(name)) for name in (
        "conormal.json", "surface.json", "forms.json", "reconstructed.json", *meshes)}

    return {
        "input_digests": digests,
        "certificates": checks,
        "forms": forms_report,
        "compatibility": compat_report,
        "criticality": _record(crit, affine_area=affine_area(surface)),
        "meshes": meshes,
        "passed": bool(checks["passed"] and forms_report["passed"]
                       and compat_report["passed"] and crit.passed),
    }


def _command(sub, func, help_text, *options, tols=()):
    """Add the subcommand that ``func`` (``_cmd_<name>``) runs.

    An option is a flag of a required value, or a tuple of flags ending in
    ``add_argument``'s keywords; the ``--tol-<name>`` flags of ``tols`` come last.
    """
    p = sub.add_parser(func.__name__.removeprefix("_cmd_"), help=help_text,
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    for option in options:
        *flags, kwargs = (option, {"required": True}) if isinstance(option, str) else option
        p.add_argument(*flags, **kwargs)
    for name in tols:
        default, tol_help = _TOLERANCES[name]
        p.add_argument(f"--tol-{name}", type=float, default=default, help=tol_help)
    p.set_defaults(func=func)


def _resolution(text: str) -> int:
    """An OBJ export resolution, at least 1: checked before any file is written."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"resolution must be an integer >= 1, got {text}")
    return int(text)


def _example_options(box_required: bool, box_help: str):
    """``--example``, ``--box`` and ``--n`` of ``generate`` and ``pipeline``."""
    return (("--example", {"choices": EXAMPLES, "required": True}),
            ("--box", {"type": int, "nargs": 4, "metavar": ("U0", "U1", "V0", "V1"),
                       "required": box_required, "help": box_help}),
            ("--n", {"type": int, "default": 16, "help": "helicoid samples per turn"}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affmin",
        description="Construct, verify, reconstruct and export discrete "
                    "affine minimal surfaces with indefinite metric.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, _cmd_generate, "write an example co-normal field",
             *_example_options(True, "inclusive vertex bounds"), "--out")
    _command(sub, _cmd_integrate, "integrate a co-normal field", "--conormal", "--out",
             ("--base", {"type": float, "nargs": 5, "metavar": ("U", "V", "X", "Y", "Z"),
                         "help": "base vertex and its position"}),
             tols=["harmonic"])
    _command(sub, _cmd_check, "run the certificate suite on a surface", "--surface",
             ("--conormal", {"help": "optional generating co-normal grid"}), "--report",
             tols=["harmonic", "integrate", "asymptotic", "dual"])
    _command(sub, _cmd_forms, "extract fundamental data (F, A, B)", "--surface", "--out",
             tols=["forms"])
    _command(sub, _cmd_reconstruct, "rebuild a surface from (F, A, B)", "--forms",
             ("--seed", "--seed-file", {"dest": "seed",
                                        "help": "JSON file with the four corner points"}),
             "--out", tols=["seed", "compat"])
    _command(sub, _cmd_compare, "solve and verify an affine equivalence", "--a", "--b",
             "--report", tols=["equiv"])
    _command(sub, _cmd_area, "print the affine area of a surface", "--surface")
    _command(sub, _cmd_gradient, "write the interior area gradient", "--surface", "--out")
    _command(sub, _cmd_critical, "criticality certificate", "--surface", tols=["crit"])
    _command(sub, _cmd_export, "tessellate and write an OBJ mesh", "--surface",
             ("--resolution", {"type": _resolution, "required": True}), "--out")
    # pipeline never validates a supplied co-normal, so it takes no --tol-harmonic.
    _command(sub, _cmd_pipeline,
             "generate/integrate/check/forms/reconstruct/critical/export end to end",
             *_example_options(False, "inclusive vertex bounds (per-example default)"),
             "--outdir",
             ("--resolutions", {"type": _resolution, "nargs": 2, "default": (1, 8),
                                "metavar": ("R1", "R2"),
                                "help": "the two mesh export resolutions"}),
             tols=[name for name in _TOLERANCES if name != "harmonic"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AffminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
