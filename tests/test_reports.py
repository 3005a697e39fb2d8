"""Report records: each section is its certificate's report, and the reports
meet the contract the benchmark's checker (``perfbench/checks.py``) reads."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import affmin as am
from affmin.cli import EXAMPLES, main
from affmin.geometry import (
    AreaDensityBridge,
    AsymptoticReport,
    ConormalRecovery,
    DualityReport,
    PlanarSaddleReport,
    affine_normal,
    area_density_bridge,
    duality_certificate,
    face_volumes,
    planarity_and_saddle,
    recover_conormal,
)
from affmin.gridio import read_grid, write_grid
from affmin.lelieuvre import LelieuvreReport, PathIndependenceReport, path_independence
from affmin.variational import CriticalityReport

CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    """The benchmark's output checker, imported from its file (not changed)."""
    spec = importlib.util.spec_from_file_location("benchmark_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(*argv):
    return main([str(a) for a in argv])


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert run("pipeline", "--example", "helicoid", "--box", 0, 6, 0, 8,
               "--outdir", out) == 0
    return out


def test_check_report_meets_the_benchmark_contract(checks, pipeline_dir, tmp_path):
    report = tmp_path / "check_report.json"
    assert run("check", "--surface", pipeline_dir / "surface.json",
               "--conormal", pipeline_dir / "conormal.json", "--report", report) == 0
    nu = read_grid(pipeline_dir / "conormal.json").values
    checks.require_check_report("check", json.loads(report.read_text()), nu)


def test_pipeline_report_meets_the_benchmark_contract(checks, pipeline_dir):
    report = json.loads((pipeline_dir / "pipeline_report.json").read_text())
    nu = read_grid(pipeline_dir / "conormal.json").values
    checks.require_check_report("pipeline", report["certificates"], nu)
    # check_report.json is the check stage's record and the tolerances it used.
    assert {**report["certificates"], "tolerances": report["tolerances"]} == json.loads(
        (pipeline_dir / "check_report.json").read_text())
    # The flat keys the benchmark's pipeline check reads.
    for key in ("max_face_choice_spread", "structural_max_residual",
                "closed_form_relative_gap", "normal_derivative_max_residual"):
        assert checks.within(report["forms"][key], checks.TOL_FORMS), key
    assert len(report["compatibility"]["residuals"]) == 3
    assert checks.within(report["compatibility"]["roundtrip_relative_gap"],
                         checks.TOL_COMPAT)
    crit = report["criticality"]
    assert checks.within(crit["max_gradient"], checks.TOL_CRIT * crit["mean_area"])
    assert list(crit) == field_names(CriticalityReport) + ["affine_area"]
    assert set(report["input_digests"]) == {
        "conormal.json", "surface.json", "forms.json", "reconstructed.json",
        "mesh_res1.obj", "mesh_res8.obj"}
    for name, digest in report["input_digests"].items():
        assert checks.sha256_file(pipeline_dir / name) == digest, name


def test_sections_are_report_records(pipeline_dir):
    report = json.loads((pipeline_dir / "check_report.json").read_text())
    assert list(report["asymptotic"]) == field_names(AsymptoticReport)
    # The recovered grid is left out.
    assert list(report["conormal_recovery"]) == [
        name for name in field_names(ConormalRecovery) if name != "vectors"]
    assert list(report["planar_saddle"]) == field_names(PlanarSaddleReport)
    assert list(report["duality"]) == field_names(DualityReport)
    assert list(report["lelieuvre"]) == field_names(LelieuvreReport)
    assert list(report["path_independence"]) == field_names(PathIndependenceReport)
    assert list(report["area_density_bridge"]) == field_names(AreaDensityBridge)
    assert report["lelieuvre"]["max_residual"] == max(
        report["lelieuvre"]["max_residual_u"], report["lelieuvre"]["max_residual_v"])


def test_failing_net_caps_saddle_failures_and_names_worst_faces(checks, tmp_path):
    # Separable noise in z keeps every face volume (its mixed difference is
    # 0), so every certificate evaluates, but it bends 13 interior vertices
    # out of the saddle shape and breaks the duality cross products.
    field = am.hyperbolic_paraboloid(am.GridDomain(0, 6, 0, 6))
    p = np.array(am.integrate(field).positions.values)
    rng = np.random.default_rng(7)
    p[..., 2] += 2.0 * (rng.standard_normal((7, 1)) + rng.standard_normal((1, 7)))
    noisy = am.VertexGrid(field.domain, p)
    write_grid(noisy, tmp_path / "noisy.json")
    report_path = tmp_path / "report.json"
    assert run("check", "--surface", tmp_path / "noisy.json", "--report", report_path) == 1
    report = json.loads(report_path.read_text())
    assert report["passed"] is False

    surface = am.Immersion(noisy)
    nu = recover_conormal(surface).vectors
    planar = planarity_and_saddle(surface, nu)
    assert planar.saddle_count == report["planar_saddle"]["saddle_count"] == 13
    assert len(planar.saddle_failures) == 8
    assert report["planar_saddle"]["saddle_failures"] == [
        list(vertex) for vertex in planar.saddle_failures]
    assert report["planar_saddle"]["saddle_ok"] is False

    areas = face_volumes(surface).areas
    dual = duality_certificate(nu, affine_normal(surface, areas), areas)
    assert report["duality"]["passed"] is False
    assert report["duality"]["worst_pairing_face"] == list(dual.worst_pairing_face)
    assert report["duality"]["worst_cross_face"] == list(dual.worst_cross_face)
    assert report["duality"]["max_cross_residual"] == dual.max_cross_residual

    with pytest.raises(checks.CheckFailed):
        checks.require_check_report("check", report, nu.values)


def moved(surface, eps):
    """``surface`` with the vertex at grid index [5, 5] moved by ``eps`` of its
    largest |coordinate| along (1, 1, 1)."""
    values = surface.positions.values.copy()
    values[5, 5] += eps * np.abs(values).max()
    return am.Immersion(surface.positions.with_values(values))


def recovery_passed(field, surface, bad):
    return recover_conormal(moved(surface, 1e-6) if bad else surface).passed


def closed_form_passed(field, surface, bad):
    areas = face_volumes(surface).areas
    xi = affine_normal(surface, areas)
    form = am.cubic_coefficients(surface, xi)
    if bad:   # one A off by 1e-6 of the largest F: d2(A) leaves the closed-form A_2
        a = form.u_coeff.values.copy()
        a[3, 4] += 1e-6 * areas.values.max()
        form = dataclasses.replace(form, u_coeff=form.u_coeff.with_values(a))
    return am.a2_b1_closed_form(surface, xi, areas, form)[1].passed


def compatibility_passed(field, surface, bad):
    data = am.extract_fundamental_data(surface)
    if bad:   # one F off by 1e-6 of itself: r0 of the vertices around it breaks
        f = data.areas.values.copy()
        f[3, 4] *= 1.0 + 1e-6
        data = am.FundamentalData(data.areas.with_values(f), data.u_coeff, data.v_coeff)
    return am.compatibility_residuals(data).passed


def canonical_map(surface, target):
    return am.affine_equivalence(am.reconstruct(am.extract_fundamental_data(surface)), target)


def round_trip_passed(field, surface, bad):
    # A vertex off by 3e-7 of the extent: affine_equivalence still maps onto it
    # (TOL_EQUIV = 1e-6), but the round trip is held to TOL_COMPAT = 1e-7.
    return canonical_map(surface, moved(surface, 3e-7) if bad else surface).closes_round_trip


def unimodular(field, surface, bad):
    scaled = am.Immersion(surface.positions.with_values(2.0 * surface.positions.values))
    return canonical_map(surface, scaled if bad else surface).unimodular


def path_independence_passed(field, surface, bad):
    # Every field that validate or a generator returns is harmonic, so its
    # obstruction is rounding and no corruption of a ConormalField reaches this
    # verdict; a raw co-normal grid with one vertex moved does.
    vectors = field.vectors
    if bad:
        values = vectors.values.copy()
        values[5, 5] += 1e-6 * np.abs(values).max()
        vectors = vectors.with_values(values)
    return path_independence(vectors).passed


def bridge_passed(field, surface, bad):
    return area_density_bridge(moved(surface, 1e-6) if bad else surface, field.areas).passed


@pytest.mark.parametrize("verdict", [
    recovery_passed, closed_form_passed, compatibility_passed, round_trip_passed, unimodular,
    path_independence_passed, bridge_passed], ids=lambda verdict: verdict.__name__)
@pytest.mark.parametrize("example", ["cubic", "helicoid", "paraboloid", "sphere"])
def test_library_verdicts_pass_on_a_family_net_and_fail_on_its_corruption(example, verdict):
    build, box = EXAMPLES[example]
    field = build(box, 16)
    surface = am.integrate(field)
    assert verdict(field, surface, bad=False) is True
    assert verdict(field, surface, bad=True) is False


@pytest.mark.parametrize("example", ["cubic", "helicoid", "paraboloid", "sphere"])
def test_a_round_trip_keeps_orientation(example):
    # closes_round_trip holds ||det| - 1| to TOL_EQUIV, as compare's unimodular
    # does; the two verdicts of |det - 1| and ||det| - 1| differ only for det < 0.
    # The canonical corner quadrangle spans F^2 > 0, and pipeline maps it onto a
    # surface whose every M is > 0, so det > 0; a mirror image has every M < 0,
    # and face_volumes refuses it before.
    build, box = EXAMPLES[example]
    surface = am.integrate(build(box, 16))
    assert canonical_map(surface, surface).det > 0.0
    mirror = am.Immersion(surface.positions.with_values(-surface.positions.values))
    with pytest.raises(am.NonPositiveVolume):
        face_volumes(mirror)
