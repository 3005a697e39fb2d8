"""The three workloads: seeded op lists and the op that each one runs.

An op is one net taken through the workload's whole workflow.  Each round
of a workload runs one op of every size class below, in a seeded order,
with a seeded box: the position in the parameter plane and a jitter of up
to 1 % per side.  Fixing the classes and seeding the boxes keeps the size
mix, and so the per-op time percentiles, the same from seed to seed, while
the inputs still change with the seed.

The program sees only the generated inputs, through its public API
(``certify-large``) or its CLI (``pipeline-mesh``, ``cli-roundtrip``).
"""

import contextlib
import functools
import io
import json
import os
import random
import shutil
import time

import numpy as np

import affmin as am
import affmin.cli

import checks
from checks import CheckFailed

HELICOID_N = 64

WHY = {
    "certify-large": (
        "Library calls on 150^2-600^2 nets, both sides of a 4 MB L2: numeric modules do "
        "all the work, mesh and gridio none; target of compute-once kernels."
    ),
    "pipeline-mesh": (
        "The default `pipeline` command on 24^2-64^2 boxes, res 1 and 8: OBJ export "
        "takes over 90 % of an op, so writers and peak memory show here."
    ),
    "cli-roundtrip": (
        "generate -> ... -> gradient through the CLI on 24^2-250^2 nets: the only "
        "workload that reads files back, so gridio reading shows here."
    ),
}

# (family, nominal vertices per side), one op of each per round.  The middle
# class sets op_p50_s at any number of rounds.  Sizes are chosen so that a
# run holds at least 20 ops, which leaves 10 samples beyond the median.
CLASSES = {
    "certify-large": [("cubic", 600), ("sphere", 424), ("paraboloid", 300),
                      ("cubic", 212), ("sphere", 150)],
    "pipeline-mesh": [("helicoid", 24), ("cubic", 36), ("sphere", 44),
                      ("paraboloid", 52), ("cubic", 64)],
    "cli-roundtrip": [("helicoid", 24), ("cubic", 100), ("sphere", 140),
                      ("paraboloid", 180), ("cubic", 250)],
}
SMOKE_CLASSES = {
    "certify-large": [("cubic", 16), ("sphere", 14), ("paraboloid", 12),
                      ("cubic", 10), ("helicoid", 8)],
    "pipeline-mesh": [("helicoid", 8), ("cubic", 8), ("sphere", 10),
                      ("paraboloid", 6), ("cubic", 12)],
    "cli-roundtrip": [("helicoid", 8), ("cubic", 10), ("sphere", 12),
                      ("paraboloid", 14), ("cubic", 16)],
}

# Wall time of one round at the seed commit (2 vCPU, Python 3.11, numpy 2.4).
# A run does seconds // ROUND_SECONDS rounds, at least one: a fixed amount
# of work per run, so every run of a workload measures the same size mix.
ROUND_SECONDS = {"certify-large": 7.5, "pipeline-mesh": 6.8, "cli-roundtrip": 4.5}

# Valid nets that the seed commit rejects: `reconstruct` fails on helicoid
# boxes beyond about 24 x 24 and on cubic boxes that do not start at (1, 1),
# and `criticality_certificate` on the wide helicoid.  They run in every
# run, outside the timed ops, so the known defect stays visible without
# deciding the run's pass/fail count.
DEFECT_PROBE = {
    "certify-large": [("helicoid", (-75, 74, 0, 149)), ("helicoid", (-300, 300, 0, 40)),
                      ("cubic", (1, 212, 3, 214))],
    "pipeline-mesh": [],
    "cli-roundtrip": [("helicoid", (-75, 74, 0, 149)), ("cubic", (1, 212, 3, 214))],
}


def _box(rng: random.Random, family: str, size: int):
    n_u = max(4, round(size * (1.0 + rng.uniform(-0.01, 0.01)))) if size > 24 else size
    n_v = max(4, round(size * (1.0 + rng.uniform(-0.01, 0.01)))) if size > 24 else size
    if family == "cubic":
        u0 = v0 = 1   # the family's own corner; other corners hit the known defect
    elif family == "paraboloid":
        u0, v0 = rng.randint(-n_u, 0), rng.randint(-n_v, 0)
    elif family == "sphere":
        v0 = rng.randint(-n_v - 40, -n_v)
        u0 = v0 + n_v - 1 + rng.randint(1, 20)   # u_min > v_max keeps F > 0
    else:
        u0, v0 = rng.randint(-14, -10), rng.randint(0, 63)
    return (u0, u0 + n_u - 1, v0, v0 + n_v - 1)


def build_ops(workload: str, seed: int, rounds: int, smoke: bool = False) -> list:
    """The run's op list: ``rounds`` rounds, each one op per size class."""
    classes = (SMOKE_CLASSES if smoke else CLASSES)[workload]
    ops = []
    for r in range(rounds):
        rng = random.Random(f"{workload}:{seed}:{r}")
        order = list(classes)
        rng.shuffle(order)
        for family, size in order:
            ops.append({"id": len(ops), "round": r, "family": family,
                        "box": _box(rng, family, size)})
    return ops


def probe_ops(workload: str) -> list:
    return [{"id": f"probe{k}", "round": None, "family": family, "box": box}
            for k, (family, box) in enumerate(DEFECT_PROBE[workload])]


def faces(box) -> int:
    return (box[1] - box[0]) * (box[3] - box[2])


class Outcome:
    """What one op did: wall time of the program, failures, digests."""

    def __init__(self, workload: str, spec: dict):
        self.workload = workload
        self.spec = spec
        self.wall_s = 0.0
        self.failures = []
        self.digests = {}

    def fail(self, stage: str, error: str):
        self.failures.append({
            "workload": self.workload, "op": self.spec["id"],
            "family": self.spec["family"], "box": list(self.spec["box"]),
            "stage": stage, "error": error,
        })

    def stage(self, name: str, fn, *needs):
        """Run one program stage; a stage whose input failed is skipped."""
        if any(x is None for x in needs):
            return None
        try:
            return fn()
        except Exception as exc:  # recorded and attributed; the op goes on
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None

    def check(self, stage: str, fn, *needs):
        """Run one benchmark check; skipped if the program stage failed."""
        if any(x is None for x in needs):
            return
        try:
            fn()
        except CheckFailed as exc:
            self.fail(exc.stage, exc.detail)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            self.fail(stage, f"unreadable output: {type(exc).__name__}: {exc}")

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self) -> dict:
        return {**self.spec, "box": list(self.spec["box"]), "faces": faces(self.spec["box"]),
                "wall_s": self.wall_s, "passed": self.passed,
                "failures": self.failures, "digests": self.digests}


def make_field(family: str, box):
    u0, u1, v0, v1 = box
    if family == "helicoid":
        return am.helicoid(HELICOID_N, (u0, u1), (v0, v1))
    generator = {"cubic": am.minimal_cubic, "paraboloid": am.hyperbolic_paraboloid,
                 "sphere": am.improper_sphere}[family]
    return generator(am.GridDomain(u0, u1, v0, v1))


# -- certify-large -------------------------------------------------------------

def run_certify(out: Outcome, workdir):
    """Library calls only: every certificate, form check, round trip and
    criticality, each stage run even after an earlier one failed."""
    st = out.stage
    started = time.perf_counter()
    field = st("conormal.generate", lambda: make_field(out.spec["family"], out.spec["box"]))
    surface = st("lelieuvre.integrate", lambda: am.integrate(field), field)
    lel = st("lelieuvre.verify_lelieuvre", lambda: am.verify_lelieuvre(surface, field),
             surface)
    closure = st("lelieuvre.path_independence_residual",
                 lambda: am.path_independence_residual(field), field)
    vols = st("geometry.face_volumes", lambda: am.face_volumes(surface), surface)
    xi = st("geometry.affine_normal", lambda: am.affine_normal(surface, vols.areas), vols)
    asym = st("geometry.asymptotic_certificate",
              lambda: am.asymptotic_certificate(surface), surface)
    recovery = st("geometry.recover_conormal", lambda: am.recover_conormal(surface), surface)
    planar = st("geometry.planarity_and_saddle",
                lambda: am.planarity_and_saddle(surface, field.vectors), surface)
    dual = st("geometry.duality_certificate",
              lambda: am.duality_certificate(field.vectors, xi, vols.areas), xi)
    form = st("forms.cubic_coefficients", lambda: am.cubic_coefficients(surface, xi), xi)
    structural = st("forms.structural_residuals",
                    lambda: am.structural_residuals(surface, vols.areas, form), form)
    closed = st("forms.a2_b1_closed_form",
                lambda: am.a2_b1_closed_form(surface, xi, vols.areas, form), form)
    normal = st("forms.normal_derivative_residuals",
                lambda: am.normal_derivative_residuals(surface, xi, vols.areas, closed[0]),
                closed)
    data = st("compatibility.extract_fundamental_data",
              lambda: am.extract_fundamental_data(surface), surface)
    residuals = st("compatibility.compatibility_residuals",
                   lambda: am.compatibility_residuals(data), data)
    p = surface.positions.values if surface is not None else None
    own = st("compatibility.reconstruct[own seed]",
             lambda: am.reconstruct(data, np.stack([p[0, 0], p[1, 0], p[0, 1], p[1, 1]])),
             data)
    canonical = st("compatibility.reconstruct[canonical seed]",
                   lambda: am.reconstruct(data), data)
    st("compatibility.affine_equivalence",
       lambda: am.affine_equivalence(canonical, surface), canonical)
    crit = st("variational.criticality_certificate",
              lambda: am.criticality_certificate(surface), surface)
    area = st("variational.affine_area", lambda: am.affine_area(surface), surface)
    out.wall_s = time.perf_counter() - started

    ck = out.check
    r = checks.require
    ck("lelieuvre.integrate", lambda: r("lelieuvre.integrate", "edge gap",
                                        checks.lelieuvre_gap(field.vectors.values, p),
                                        checks.TOL_INTEGRATE), surface)
    ck("lelieuvre.verify_lelieuvre", lambda: r(
        "lelieuvre.verify_lelieuvre", "max residual", lel.max_residual,
        checks.TOL_INTEGRATE * max(lel.edge_scale, 1e-300)), lel)
    ck("lelieuvre.path_independence_residual", lambda: r(
        "lelieuvre.path_independence_residual", "closure", closure,
        checks.TOL_INTEGRATE * max(float(np.abs(field.vectors.values).max()) ** 2, 1.0)),
       closure)
    ck("geometry.face_volumes", lambda: r(
        "geometry.face_volumes", "area density bridge",
        float(np.abs(field.areas.values / vols.areas.values - 1.0).max()), checks.TOL_DUAL),
       vols)
    ck("geometry.asymptotic_certificate", lambda: (
        r("geometry.asymptotic_certificate", "zero residual", asym.max_zero_residual,
          checks.TOL_ASYMPTOTIC),
        r("geometry.asymptotic_certificate", "mixed residual", asym.max_mixed_residual,
          checks.TOL_ASYMPTOTIC)), asym)
    ck("geometry.recover_conormal", lambda: r(
        "geometry.recover_conormal", "max deviation", recovery.max_deviation,
        checks.TOL_DUAL), recovery)
    ck("geometry.planarity_and_saddle", lambda: _planar_ok(planar), planar)
    ck("geometry.duality_certificate", lambda: (
        r("geometry.duality_certificate", "pairing", dual.max_pairing_residual,
          checks.TOL_DUAL),
        r("geometry.duality_certificate", "cross", dual.max_cross_residual,
          checks.TOL_DUAL)), dual)
    ck("forms.cubic_coefficients", lambda: r(
        "forms.cubic_coefficients", "face-choice spread",
        max(form.max_spread_u, form.max_spread_v), checks.TOL_FORMS), form)
    ck("forms.structural_residuals", lambda: r(
        "forms.structural_residuals", "max residual", structural.max_residual,
        checks.TOL_FORMS), structural)
    ck("forms.a2_b1_closed_form", lambda: r(
        "forms.a2_b1_closed_form", "relative gap", closed[1].relative_gap,
        checks.TOL_FORMS), closed)
    ck("forms.normal_derivative_residuals", lambda: r(
        "forms.normal_derivative_residuals", "max residual", normal.max_residual,
        checks.TOL_FORMS), normal)
    ck("compatibility.compatibility_residuals", lambda: [
        r("compatibility.compatibility_residuals", f"r{k}", value, checks.TOL_COMPAT)
        for k, value in enumerate(residuals)], residuals)
    ck("compatibility.reconstruct[own seed]", lambda: checks.require_roundtrip(
        "compatibility.reconstruct[own seed]", own.positions.values, p), own)
    ck("compatibility.reconstruct[canonical seed]", lambda: checks.require_equivalent(
        "compatibility.reconstruct[canonical seed]", canonical.positions.values, p),
       canonical)
    ck("variational.criticality_certificate", lambda: _criticality_ok(crit), crit)
    ck("variational.affine_area", lambda: r(
        "variational.affine_area", "gap to the co-normal area",
        abs(area / float(field.areas.values.sum()) - 1.0), checks.TOL_DUAL), area)

    arrays = [x.positions.values for x in (surface, own, canonical) if x is not None]
    scalars = [x for x in (closure, area) if x is not None] + list(residuals or ())
    out.digests["result"] = checks.digest_arrays(*arrays, np.array(scalars, dtype=float))


def _planar_ok(planar):
    checks.require("geometry.planarity_and_saddle", "orthogonality",
                   planar.max_orthogonality_residual, checks.TOL_DUAL)
    if planar.saddle_failures:
        raise CheckFailed("geometry.planarity_and_saddle",
                          f"saddle sign fails at {planar.saddle_failures[:3]}")


def _criticality_ok(report):
    if not checks.criticality_ok(report):
        raise CheckFailed("variational.criticality_certificate",
                          f"|grad|_inf = {report.max_gradient!r} is not <= "
                          f"{checks.TOL_CRIT!r} * mean F = {report.mean_area!r}")


# -- CLI workloads --------------------------------------------------------------

def call_cli(argv) -> tuple[int, str]:
    """affmin.cli.main in-process, with its output captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        try:
            code = affmin.cli.main([str(a) for a in argv])
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue().strip()


def load_vertex_grid(path) -> np.ndarray:
    """Values of a vertex grid file, read with json and reshaped here."""
    with open(path, "r", encoding="ascii") as handle:
        obj = json.load(handle)
    u0, u1, v0, v1 = obj["domain"]
    shape = (u1 - u0 + 1, v1 - v0 + 1) + ((3,) if obj["components"] == 3 else ())
    return np.array(obj["values"], dtype=float).reshape(shape)


def load_json(path):
    with open(path, "r", encoding="ascii") as handle:
        return json.load(handle)


def _digest_files(out: Outcome, path, names):
    """SHA-256 of every artifact the op wrote."""
    for name in names:
        if os.path.exists(path(name)):
            out.digests[name] = checks.sha256_file(path(name))


def run_pipeline(out: Outcome, workdir):
    """``affmin pipeline`` with the default resolutions 1 8 into a fresh dir."""
    family, box = out.spec["family"], out.spec["box"]
    outdir = os.path.join(workdir, f"op{out.spec['id']}")
    argv = ["pipeline", "--example", family, "--box", *box, "--n", HELICOID_N,
            "--outdir", outdir]
    started = time.perf_counter()
    code, text = call_cli(argv)
    out.wall_s = time.perf_counter() - started
    if code != 0:
        out.fail("cli.pipeline", f"exit {code}: {text.splitlines()[-1] if text else ''}")

    path = lambda name: os.path.join(outdir, name)  # noqa: E731
    grid = functools.cache(lambda name: load_vertex_grid(path(name)))
    n_u, n_v = box[1] - box[0] + 1, box[3] - box[2] + 1
    ck = out.check
    r = checks.require
    ck("cli.pipeline[report]", lambda: _pipeline_report_ok(load_json(path(
        "pipeline_report.json")), grid("conormal.json")))
    ck("cli.pipeline[surface]", lambda: r(
        "cli.pipeline[surface]", "edge gap",
        checks.lelieuvre_gap(grid("conormal.json"), grid("surface.json")),
        checks.TOL_INTEGRATE))
    ck("cli.pipeline[reconstructed]", lambda: checks.require_equivalent(
        "cli.pipeline[reconstructed]", grid("reconstructed.json"), grid("surface.json")))
    _digest_files(out, path, ("conormal.json", "surface.json", "check_report.json",
                              "forms.json", "reconstructed.json"))
    for res in (1, 8):
        name = f"mesh_res{res}.obj"

        def mesh_ok(name=name, res=res):
            stats = checks.obj_stats(path(name))
            out.digests[name] = stats["sha256"]
            checks.require_obj(f"mesh.export_obj[res {res}]", stats, n_u, n_v, res)
        ck(f"mesh.export_obj[res {res}]", mesh_ok)
    ck("mesh.export_obj[res 1]", lambda: _same_vertices(
        checks.obj_vertices(path("mesh_res1.obj")), grid("surface.json")))
    ck("cli.pipeline[input_digests]", lambda: _digests_agree(
        load_json(path("pipeline_report.json"))["input_digests"], out.digests))
    shutil.rmtree(outdir, ignore_errors=True)


def _pipeline_report_ok(report, nu):
    stage = "cli.pipeline[report]"
    r = checks.require
    checks.require_check_report(stage, report["certificates"], nu)
    forms = report["forms"]
    for key in ("max_face_choice_spread", "structural_max_residual",
                "closed_form_relative_gap", "normal_derivative_max_residual"):
        r(stage, key, forms[key], checks.TOL_FORMS)
    compat = report["compatibility"]
    for k, value in enumerate(compat["residuals"]):
        r(stage, f"compatibility r{k}", value, checks.TOL_COMPAT)
    r(stage, "round-trip gap", compat["roundtrip_relative_gap"], checks.TOL_COMPAT)
    crit = report["criticality"]
    r(stage, "criticality", crit["max_gradient"], checks.TOL_CRIT * crit["mean_area"])


def _same_vertices(obj_positions, surface):
    if obj_positions.shape != (surface.shape[0] * surface.shape[1], 3) \
            or not np.array_equal(obj_positions, surface.reshape(-1, 3)):
        raise CheckFailed("mesh.export_obj[res 1]",
                          "resolution-1 vertices differ from the surface positions")


def _digests_agree(reported, ours):
    differ = sorted(k for k in reported if k in ours and reported[k] != ours[k])
    if differ:
        raise CheckFailed("cli.pipeline[input_digests]", f"digest mismatch: {differ}")


CHAIN = ("generate", "integrate", "check", "forms", "reconstruct", "compare",
         "critical", "gradient")


def run_roundtrip(out: Outcome, workdir):
    """generate -> integrate -> check -> forms -> reconstruct -> compare ->
    critical -> gradient, each step reading what the previous one wrote."""
    family, box = out.spec["family"], out.spec["box"]
    d = os.path.join(workdir, f"op{out.spec['id']}")
    os.makedirs(d, exist_ok=True)
    path = lambda name: os.path.join(d, name)  # noqa: E731
    steps = {
        "generate": ["--example", family, "--box", *box, "--n", HELICOID_N,
                     "--out", path("conormal.json")],
        "integrate": ["--conormal", path("conormal.json"), "--out", path("surface.json")],
        "check": ["--surface", path("surface.json"), "--conormal", path("conormal.json"),
                  "--report", path("check_report.json")],
        "forms": ["--surface", path("surface.json"), "--out", path("forms.json")],
        "reconstruct": ["--forms", path("forms.json"), "--out", path("reconstructed.json")],
        "compare": ["--a", path("reconstructed.json"), "--b", path("surface.json"),
                    "--report", path("equivalence.json")],
        "critical": ["--surface", path("surface.json")],
        "gradient": ["--surface", path("surface.json"), "--out", path("gradient.json")],
    }
    for name in CHAIN:
        started = time.perf_counter()
        code, text = call_cli([name, *steps[name]])
        out.wall_s += time.perf_counter() - started
        if code != 0:
            out.fail(f"cli.{name}", f"exit {code}: {text.splitlines()[-1] if text else ''}")

    grid = functools.cache(lambda name: load_vertex_grid(path(name)))
    forms = functools.cache(lambda: load_json(path("forms.json")))
    ck = out.check
    r = checks.require
    ck("cli.generate", lambda: checks.require_harmonic("cli.generate", grid("conormal.json")))
    ck("cli.integrate", lambda: r(
        "cli.integrate", "edge gap",
        checks.lelieuvre_gap(grid("conormal.json"), grid("surface.json")),
        checks.TOL_INTEGRATE))
    ck("cli.check", lambda: checks.require_check_report(
        "cli.check", load_json(path("check_report.json")), grid("conormal.json")))
    ck("cli.forms", lambda: _forms_ok(forms()))
    ck("cli.reconstruct", lambda: _compare_ok(
        grid("reconstructed.json"), grid("surface.json"), load_json(path("equivalence.json"))))
    ck("cli.gradient", lambda: _gradient_ok(grid("gradient.json"), forms()))
    _digest_files(out, path, ("conormal.json", "surface.json", "check_report.json",
                              "forms.json", "reconstructed.json", "equivalence.json",
                              "gradient.json"))
    shutil.rmtree(d, ignore_errors=True)


def _forms_ok(bundle):
    f = np.array(bundle["F"]["values"], dtype=float)
    if not (checks.all_finite(f) and f.min() > 0.0):
        raise CheckFailed("cli.forms", "F is not finite and positive")
    for key in ("A", "B"):
        values = np.array([np.nan if x is None else x for x in bundle[key]["values"]])
        if np.isinf(values).any() or np.isnan(values).all():
            raise CheckFailed("cli.forms", f"{key} holds no finite coefficients")


def _compare_ok(rebuilt, surface, report):
    det = checks.require_equivalent("cli.reconstruct", rebuilt, surface)
    checks.require("cli.compare", "reported det vs refit det",
                   abs(float(report.get("det", float("nan"))) - det), checks.TOL_EQUIV)


def _gradient_ok(gradient, bundle):
    mean_f = float(np.mean(np.array(bundle["F"]["values"], dtype=float)))
    checks.require("cli.gradient", "|grad|_inf", float(np.abs(gradient).max()),
                   checks.TOL_CRIT * mean_f)


RUNNERS = {"certify-large": run_certify, "pipeline-mesh": run_pipeline,
           "cli-roundtrip": run_roundtrip}


def run_op(workload: str, spec: dict, workdir) -> Outcome:
    out = Outcome(workload, spec)
    with np.errstate(all="ignore"):   # the probe's overflowing march is expected
        RUNNERS[workload](out, workdir)
    return out
