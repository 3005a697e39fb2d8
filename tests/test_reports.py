"""Report records: each section is its certificate's report, and the reports
meet the contract the benchmark's checker (``perfbench/checks.py``) reads."""

import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import affmin as am
from affmin.cli import main
from affmin.geometry import (
    AsymptoticReport,
    ConormalRecovery,
    DualityReport,
    PlanarSaddleReport,
    affine_normal,
    duality_certificate,
    face_volumes,
    planarity_and_saddle,
    recover_conormal,
)
from affmin.gridio import read_grid, write_grid
from affmin.lelieuvre import LelieuvreReport
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
    assert report["certificates"] == json.loads(
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
    # The recovered grid is left out; ``passed`` is added.
    assert list(report["conormal_recovery"]) == [
        name for name in field_names(ConormalRecovery) if name != "vectors"] + ["passed"]
    assert list(report["planar_saddle"]) == field_names(PlanarSaddleReport)
    assert list(report["duality"]) == field_names(DualityReport)
    assert list(report["lelieuvre"]) == field_names(LelieuvreReport)
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
    assert len(planar.saddle_failures) == 13
    assert report["planar_saddle"]["saddle_failures"] == [
        list(vertex) for vertex in planar.saddle_failures[:8]]
    assert report["planar_saddle"]["saddle_ok"] is False

    areas = face_volumes(surface).areas
    dual = duality_certificate(nu, affine_normal(surface, areas), areas)
    assert report["duality"]["passed"] is False
    assert report["duality"]["worst_pairing_face"] == list(dual.worst_pairing_face)
    assert report["duality"]["worst_cross_face"] == list(dual.worst_cross_face)
    assert report["duality"]["max_cross_residual"] == dual.max_cross_residual

    with pytest.raises(checks.CheckFailed):
        checks.require_check_report("check", report, nu.values)
