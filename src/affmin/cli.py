"""Command-line pipelines over the affmin library.

Exit codes: 0 on success, 1 when a certificate or data check fails, 2 for
usage and I/O errors and for a job too large: a ``MemoryError``, or an OBJ
export of more than 2^32 - 1 vertices.  All artifact files (grid JSON, forms
bundles, their ``.npy`` sidecars, OBJ meshes) are byte-deterministic across
runs; the pipeline run report is the one exception, because it records wall
time.
Each step reads the grids a previous step wrote from their sidecars.

Each report section is its certificate's record (``_record``): the report
dataclass's fields without grids, plus any extra keys.  ``forms`` and
``compatibility`` are literal dicts that join library verdicts: those of
``structural_residuals``, ``a2_b1_closed_form`` and ``normal_derivative_residuals``,
and ``CompatibilityResiduals.passed`` and ``AffineMap.closes_round_trip``.
"""

import argparse
import dataclasses
import functools
import os
import sys
import time

from . import conormal
from .compatibility import (
    TOL_COMPAT,
    TOL_EQUIV,
    TOL_SEED,
    affine_equivalence,
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
    area_density_bridge,
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
    path_independence,
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

# Each certificate's fixed tolerance, under the name and in the order that every
# report records it.
_TOLERANCES = {
    "harmonic": TOL_HARMONIC,
    "integrate": TOL_INTEGRATE,
    "asymptotic": TOL_ASYMPTOTIC,
    "dual": TOL_DUAL,
    "forms": TOL_FORMS,
    "compat": TOL_COMPAT,
    "seed": TOL_SEED,
    "equiv": TOL_EQUIV,
    "crit": TOL_CRIT,
}


def _load_surface(path) -> Immersion:
    grid = read_grid(path, expected_kind="vertex")
    if grid.components != 3:
        raise ValueError(f"{path}: surface grids must hold 3-vectors")
    return Immersion(grid)


def _record(report, **extra) -> dict:
    """The dataclass fields of ``report`` except grids, then ``extra``."""
    record = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)
              if not isinstance(getattr(report, f.name), Grid)}
    record.update(extra)
    return record


def _surface_checks(surface: Immersion, field: ConormalField | None) -> dict:
    """Run the geometry (and, with a field, the Lelieuvre) certificates.

    With a field, the recovered co-normals feed only their own section, so
    they are dropped once it is recorded; the affine normals are derived
    only for ``duality``.
    """
    vols = face_volumes(surface)
    recovery = recover_conormal(surface)
    recovered = _record(recovery)
    nu = recovery.vectors if field is None else field.vectors
    del recovery
    extra = {}
    if field is not None:
        extra["lelieuvre"] = _record(verify_lelieuvre(surface, field))
        extra["path_independence"] = _record(path_independence(field))
        extra["area_density_bridge"] = _record(area_density_bridge(surface, field.areas))
    report = {
        "asymptotic": _record(asymptotic_certificate(surface)),
        "conormal_recovery": recovered,
        "planar_saddle": _record(planarity_and_saddle(surface, nu)),
        "duality": _record(duality_certificate(nu, affine_normal(surface, vols.areas),
                                               vols.areas)),
        **extra,
    }
    report["passed"] = all(section["passed"] for section in report.values())
    return report


def _write_check_report(report: dict, path) -> None:
    """The report of ``check``, and of ``pipeline``'s check stage: ``report``, then
    the tolerances its verdicts used."""
    write_json({**report, "tolerances": _TOLERANCES}, path)


def _cmd_generate(args) -> int:
    field = EXAMPLES[args.example][0](args.box, args.n)
    write_grid(field.vectors, args.out)
    print(f"wrote co-normal grid {args.out} (min F = {field.min_area:.6g})")
    return 0


def _cmd_integrate(args) -> int:
    surface = integrate(validate(read_grid(args.conormal, "vertex")))
    write_grid(surface.positions, args.out)
    print(f"wrote surface grid {args.out} (domain {surface.domain.as_tuple()})")
    return 0


def _cmd_check(args) -> int:
    surface = _load_surface(args.surface)
    conormal_grid = read_grid(args.conormal, "vertex") if args.conormal else None
    try:
        field = None if conormal_grid is None else validate(conormal_grid)
        report = _surface_checks(surface, field)
    except AffminError as exc:
        # Data so broken the certificates cannot even be evaluated (e.g. a
        # co-normal that is not harmonic, or a non-positive face volume)
        # still produces a report naming it, and says so on stderr.
        report = {"error": f"{type(exc).__name__}: {exc}", "passed": False}
        print(f"error: {report['error']}", file=sys.stderr)
    _write_check_report(report, args.report)
    status = "pass" if report["passed"] else "FAIL"
    print(f"check: {status} (report in {args.report})")
    if not report["passed"]:
        for name, section in report.items():
            if isinstance(section, dict) and not section.get("passed", True):
                print(f"  failing certificate: {name}")
    return 0 if report["passed"] else 1


def _cmd_forms(args) -> int:
    surface = _load_surface(args.surface)
    data = extract_fundamental_data(surface)
    write_forms(data, args.out)
    print(f"wrote fundamental data {args.out}")
    return 0


def _cmd_reconstruct(args) -> int:
    data = read_forms(args.forms)
    seed = read_seed(args.seed) if args.seed else None
    surface = reconstruct(data, seed)
    write_grid(surface.positions, args.out)
    print(f"wrote reconstructed surface {args.out}")
    return 0


def _cmd_compare(args) -> int:
    qa = _load_surface(args.a)
    qb = _load_surface(args.b)
    try:
        mapping = affine_equivalence(qa, qb)
    except NotEquivalent as exc:
        write_json({
            "equivalent": False,
            "worst_vertex": list(exc.vertex),
            "gap": exc.gap,
            "tolerance": TOL_EQUIV,
        }, args.report)
        print(f"compare: NOT equivalent (gap {exc.gap:.3e} at {exc.vertex})")
        return 1
    except AffminError as exc:
        # Surfaces that cannot be compared (other boxes, a flat corner) still get a report.
        write_json({"equivalent": False, "error": f"{type(exc).__name__}: {exc}",
                    "tolerance": TOL_EQUIV}, args.report)
        raise
    write_json({"equivalent": True, **_record(
        mapping, det=mapping.det, unimodular=mapping.unimodular, tolerance=TOL_EQUIV)},
        args.report)
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
    report = criticality_certificate(_load_surface(args.surface))
    if report.vacuous:
        print("critical: vacuous pass (no interior vertex)")
        return 0
    ratio = report.max_gradient / max(report.mean_area, TINY)
    status = "pass" if report.passed else "FAIL"
    print(f"critical: {status} (|grad|_inf / mean F = {ratio:.3e}, tol {TOL_CRIT:g})")
    return 0 if report.passed else 1


def _cmd_export(args) -> int:
    counts = export_surface_obj(_load_surface(args.surface), args.resolution, args.out)
    print(f"wrote {args.out} ({counts.vertices} vertices, {counts.triangles} triangles)")
    return 0


def _cmd_pipeline(args) -> int:
    started = time.perf_counter()
    os.makedirs(args.outdir, exist_ok=True)
    build, default_box = EXAMPLES[args.example]
    box = tuple(args.box) if args.box else default_box
    path = functools.partial(os.path.join, args.outdir)
    report = {
        "command": "pipeline",
        "example": args.example,
        "box": list(box),
        "n": args.n,
        "tolerances": _TOLERANCES,
    }
    try:
        report.update(_pipeline_stages(build(box, args.n), path))
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


def _pipeline_stages(field: ConormalField, path) -> dict:
    """Write every artifact but the run report; return the report's later sections."""
    digests = {"conormal.json": write_grid(field.vectors, path("conormal.json"))}
    surface = integrate(field)
    digests["surface.json"] = write_grid(surface.positions, path("surface.json"))

    checks = _surface_checks(surface, field)
    _write_check_report(checks, path("check_report.json"))

    vols = face_volumes(surface)
    normals = affine_normal(surface, vols.areas)
    form = cubic_coefficients(surface, normals)
    structural = structural_residuals(surface, vols.areas, form)
    derivs, closed = a2_b1_closed_form(surface, normals, vols.areas, form)
    normal_derivs = normal_derivative_residuals(surface, normals, vols.areas, derivs)
    digests["forms.json"] = write_forms(form, path("forms.json"))
    forms_report = {
        "max_face_choice_spread": max(form.max_spread_u, form.max_spread_v),
        "structural_max_residual": structural.max_residual,
        "closed_form_relative_gap": closed.relative_gap,
        "normal_derivative_max_residual": normal_derivs.max_residual,
        "passed": structural.passed and closed.passed and normal_derivs.passed,
    }

    residuals = compatibility_residuals(form)
    canonical = reconstruct(form)
    digests["reconstructed.json"] = write_grid(canonical.positions, path("reconstructed.json"))
    # Fitted on the corner quadrangle, the surface's own seed: its gap is that round trip's.
    mapping = affine_equivalence(canonical, surface)
    compat_report = {
        "residuals": list(residuals),
        "roundtrip_relative_gap": mapping.relative_gap,
        "canonical_equivalence_det": mapping.det,
        "passed": residuals.passed and mapping.closes_round_trip,
    }

    crit = criticality_certificate(surface)

    meshes = {}
    for res in (1, 8):
        name = f"mesh_res{res}.obj"
        vertices, triangles, digests[name] = export_surface_obj(surface, res, path(name))
        meshes[name] = {"vertices": vertices, "triangles": triangles}

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


def _command(sub, func, help_text, *options):
    """Add the subcommand that ``func`` (``_cmd_<name>``) runs.

    An option is a flag of a required value, or a tuple of flags ending in
    ``add_argument``'s keywords.
    """
    p = sub.add_parser(func.__name__.removeprefix("_cmd_"), help=help_text,
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    for option in options:
        *flags, kwargs = (option, {"required": True}) if isinstance(option, str) else option
        p.add_argument(*flags, **kwargs)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: each
    ``add_argument`` looks up gettext and probes the terminal size."""
    parser = argparse.ArgumentParser(
        prog="affmin",
        description="Construct, verify, reconstruct and export discrete "
                    "affine minimal surfaces with indefinite metric.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, _cmd_generate, "write an example co-normal field",
             *_example_options(True, "inclusive vertex bounds"), "--out")
    _command(sub, _cmd_integrate, "integrate a co-normal field", "--conormal", "--out")
    _command(sub, _cmd_check, "run the certificate suite on a surface", "--surface",
             ("--conormal", {"help": "optional generating co-normal grid"}), "--report")
    _command(sub, _cmd_forms, "extract fundamental data (F, A, B)", "--surface", "--out")
    _command(sub, _cmd_reconstruct, "rebuild a surface from (F, A, B)", "--forms",
             ("--seed", {"help": "JSON file with the four corner points"}), "--out")
    _command(sub, _cmd_compare, "solve and verify an affine equivalence", "--a", "--b",
             "--report")
    _command(sub, _cmd_area, "print the affine area of a surface", "--surface")
    _command(sub, _cmd_gradient, "write the interior area gradient", "--surface", "--out")
    _command(sub, _cmd_critical, "criticality certificate", "--surface")
    _command(sub, _cmd_export, "tessellate and write an OBJ mesh", "--surface",
             ("--resolution", {"type": _resolution, "required": True}), "--out")
    _command(sub, _cmd_pipeline,
             "generate/integrate/check/forms/reconstruct/critical/export end to end",
             *_example_options(False, "inclusive vertex bounds (per-example default)"),
             "--outdir")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AffminError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
