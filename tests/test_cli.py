"""Command-line interface: subcommands, exit codes, determinism."""

import argparse
import hashlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from affmin.cli import build_parser, main
from affmin.compatibility import TOL_COMPAT, TOL_EQUIV, TOL_SEED, extract_fundamental_data
from affmin.conormal import TOL_HARMONIC
from affmin.forms import TOL_FORMS
from affmin.geometry import TOL_ASYMPTOTIC, TOL_DUAL
from affmin.gridio import read_grid, write_grid
from affmin.grids import VALUE_BOUND, GridDomain
from affmin.lelieuvre import TOL_INTEGRATE
from affmin.variational import TOL_CRIT


def run(*argv):
    return main([str(a) for a in argv])


# Artifacts of `pipeline --example paraboloid --box 0 6 0 6` (resolutions 1 8).
# Its arithmetic is integer or dyadic (F = 1, every residual exactly 0), so
# these bytes depend neither on the platform nor on summation order.
GOLDEN_PARABOLOID = {
    "conormal.json": "f36fa3e1446fb537d2441895e905b7d0737e3b7d4784ad767fed19d624082e30",
    "surface.json": "b4e411109b64b5297464313d49d2c771a82cc0b472546af65a37a76d92bf587c",
    "reconstructed.json": "b4e411109b64b5297464313d49d2c771a82cc0b472546af65a37a76d92bf587c",
    "check_report.json": "b667a8a02cb542da8f849050240d7b7efa06d3f930b9bc186e74a553dd38206f",
    "forms.json": "33931ae688abc62598c87d530c07150078ea37d5baf090467ad9fee996be6970",
    "mesh_res1.obj": "9c4431c22a37c475282c05e900b47d9be183de200ec68bfde709c06f01de0669",
    "mesh_res8.obj": "796b9674b9940cec261f3f291eae84545fdfa8d8bfe6662166a161d52dc87192",
}

# Artifacts of two pipelines whose data is not dyadic, so nearly every
# operation rounds: these bytes pin the summation order of every kernel and
# the memory layout it runs on, on this platform.
GOLDEN_ROUNDED = {
    ("helicoid", (-10, 10, 0, 20), 32): {
        "conormal.json": "cb823ba05ffa6ac5e8f99c0b7a02169543dd7b41cd75646d8006c891181d5cde",
        "surface.json": "fcdb072a0f11cfee397ee43902f7447ef6ebfb3975c992aa6632833d99eb7914",
        "reconstructed.json": "5aaf44698fa68642f643fea06371914168d2903df7358d58a11062b5d91366a6",
        "check_report.json": "94fda5efa964848037394b10f569746a4a6e7ff2f22a929061cfb9dfbd9d6cd2",
        "forms.json": "77c6bbc9e5321fb75348ce9f6550b08d807252b9ebc7ab13598931821f1ffe69",
        "mesh_res1.obj": "0b72fce14b0cbfd949fcc83f7cf24ad4b435c7b3aca9bd8bf2ff67a16a134d08",
        "mesh_res8.obj": "3eb0922f7aeb7aca6f7c0132b179367882bbf677fb028713448f63ece2d1f12f",
    },
    ("cubic", (1, 40, 1, 36), 16): {
        "conormal.json": "01a7fb98fc7800a782bb07cc896685a4afb657c1c8fa5f76a6b69b8bb8b162d4",
        "surface.json": "bf393794d17baad5ed1db5620a97bf84c4172b71dc76c46b31a076ebbec210e2",
        "reconstructed.json": "3c1c1439ffb256a6226a50514e3af8b651cfa607fd68c5dc60d8240f02fb8f39",
        "check_report.json": "6eb64ae0420faa510c902fdb93948bcc28151144b6632d06282b7505ffd1f3e2",
        "forms.json": "e6c6f70a380898798c4897c060bbdb48881d092c310f767886cca9fb5db9989a",
        "mesh_res1.obj": "9689f7dd6d0d3bb848b130b72001d25d5f73367516fc3d41952de52d9b132ae7",
        "mesh_res8.obj": "3e26a3bc5cb1779e1d48f297bcddbf35388c88d1309cb74f693473ab77ae372b",
    },
}


@pytest.fixture()
def paraboloid_files(tmp_path):
    conormal = tmp_path / "conormal.json"
    surface = tmp_path / "surface.json"
    assert run("generate", "--example", "paraboloid", "--box", 0, 5, 0, 5,
               "--out", conormal) == 0
    assert run("integrate", "--conormal", conormal, "--out", surface) == 0
    return conormal, surface


class TestGenerate:
    def test_writes_vertex_grid(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("generate", "--example", "helicoid", "--box", 0, 4, 0, 8,
                   "--n", 8, "--out", out) == 0
        grid = read_grid(out, expected_kind="vertex")
        assert grid.components == 3
        assert grid.domain.as_tuple() == (0, 4, 0, 8)

    def test_invalid_box_is_data_error(self, tmp_path):
        # the cubic field degenerates on a box containing the origin
        code = run("generate", "--example", "cubic", "--box", 0, 3, 0, 3,
                   "--out", tmp_path / "c.json")
        assert code == 1

    def test_unknown_example_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("generate", "--example", "torus", "--box", 0, 3, 0, 3,
                "--out", tmp_path / "c.json")
        assert err.value.code == 2


class TestIntegrateAndCheck:
    def test_integrate_with_base(self, tmp_path, paraboloid_files):
        conormal, _ = paraboloid_files
        out = tmp_path / "shifted.json"
        assert run("integrate", "--conormal", conormal, "--out", out,
                   "--base", 0, 0, 1, 2, 3) == 0
        grid = read_grid(out)
        np.testing.assert_array_equal(grid.values[0, 0], (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("text, value", [("-1e5", -1e5), ("-2.5E-3", -2.5e-3), ("-1.", -1.0)])
    def test_integrate_reads_a_negative_base_position_in_any_float_spelling(
            self, tmp_path, paraboloid_files, text, value):
        conormal, _ = paraboloid_files
        out = tmp_path / "shifted.json"
        assert run("integrate", "--conormal", conormal, "--out", out,
                   "--base", 2, 3, 1, 0, text) == 0
        np.testing.assert_array_equal(read_grid(out).vertex_at(2, 3), (1.0, 0.0, value))

    @pytest.mark.parametrize("u, v, shown", [(99, 99, "(99, 99)"), (1.7, 1, "(1.7, 1)"),
                                              (-1, 0, "(-1, 0)")])
    def test_integrate_rejects_a_base_that_is_no_vertex(self, tmp_path, capsys, paraboloid_files,
                                                        u, v, shown):
        conormal, _ = paraboloid_files
        out = tmp_path / "shifted.json"
        capsys.readouterr()
        assert run("integrate", "--conormal", conormal, "--out", out,
                   "--base", u, v, 0, 0, 0) == 2
        err = capsys.readouterr().err
        assert err == (f"error: --base vertex {shown} is not an integer vertex "
                       "of the box (0, 5, 0, 5)\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "nan"])
    def test_integrate_names_an_unbounded_base_position(self, tmp_path, capsys,
                                                         paraboloid_files, value):
        conormal, _ = paraboloid_files
        out = tmp_path / "shifted.json"
        capsys.readouterr()
        assert run("integrate", "--conormal", conormal, "--out", out,
                   "--base", 1, 1, 0, value, 0) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --base position at grid index (1, 1), component 1: ")
        assert str(out) not in err
        assert not out.exists()

    def test_integrate_names_the_worst_face_of_a_non_harmonic_file_first(self, tmp_path, capsys,
                                                                          paraboloid_files):
        conormal, _ = paraboloid_files
        body = json.loads(conormal.read_text())
        body["values"][(1 * 6 + 1) * 3 + 2] += 0.5   # vertex (1, 1)
        body["values"][(4 * 6 + 4) * 3 + 2] += 2.0   # vertex (4, 4)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        capsys.readouterr()
        assert run("integrate", "--conormal", bad, "--out", tmp_path / "s.json") == 1
        assert capsys.readouterr().err == (
            "error: NotHarmonic: co-normal field is not harmonic: max residual 2.000e+00 "
            "on 8 face(s), worst first: [(3, 3), (0, 0), (0, 1), (1, 0)]\n")

    def test_check_passes(self, tmp_path, paraboloid_files):
        conormal, surface = paraboloid_files
        report = tmp_path / "report.json"
        assert run("check", "--surface", surface, "--conormal", conormal,
                   "--report", report) == 0
        body = json.loads(report.read_text())
        assert body["passed"] is True
        assert body["asymptotic"]["passed"] is True
        assert body["lelieuvre"]["passed"] is True
        assert body["path_independence"]["passed"] is True
        assert body["area_density_bridge"]["passed"] is True

    def test_check_fails_on_corrupted_surface(self, tmp_path, paraboloid_files):
        _, surface = paraboloid_files
        body = json.loads(surface.read_text())
        body["values"][3 * 6 * 3 + 3 * 3 + 2] += 0.05   # bend one z value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        report = tmp_path / "report.json"
        assert run("check", "--surface", bad, "--report", report) == 1
        parsed = json.loads(report.read_text())
        assert parsed["passed"] is False
        assert not parsed["asymptotic"]["passed"]

    def test_check_writes_report_even_for_degenerate_surface(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({
            "kind": "vertex", "domain": [0, 2, 0, 2], "components": 3,
            "values": [float(x) for uv in range(9)
                       for x in (uv // 3, uv % 3, 0.0)],
        }))
        report = tmp_path / "report.json"
        assert run("check", "--surface", flat, "--report", report) == 1
        body = json.loads(report.read_text())
        assert body["passed"] is False
        assert "NonPositiveVolume" in body["error"]

    @pytest.mark.parametrize("damage, error", [("bump", "NotHarmonic: co-normal field is not "
                                                         "harmonic: max residual 5.000e-01"),
                                                ("negate", "NonConvexFace: non-positive area "
                                                           "density F=-1 at face (0, 0)")])
    def test_check_reports_a_conormal_that_fails_validation(self, tmp_path, paraboloid_files,
                                                            damage, error):
        conormal, surface = paraboloid_files
        body = json.loads(conormal.read_text())
        if damage == "bump":
            body["values"][(1 * 6 + 1) * 3 + 2] += 0.5   # vertex (1, 1)
        else:   # F is cubic in nu, so -nu has F = -1 on every face
            body["values"] = [-x for x in body["values"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        report = tmp_path / "report.json"
        assert run("check", "--surface", surface, "--conormal", bad, "--report", report) == 1
        parsed = json.loads(report.read_text())
        assert parsed["passed"] is False
        assert parsed["error"].startswith(error)
        assert parsed["tolerances"]["harmonic"] == 1e-9

    @pytest.mark.parametrize("box", [(0, 6, 0, 6), (1, 6, 1, 6)])
    def test_check_names_a_conormal_on_another_box(self, tmp_path, paraboloid_files, box):
        # The surface lives on (0, 5, 0, 5): a co-normal box of another shape
        # must not reach the area-density bridge, which divides grid by grid.
        _, surface = paraboloid_files
        other = tmp_path / "other.json"
        assert run("generate", "--example", "paraboloid", "--box", *box, "--out", other) == 0
        report = tmp_path / "report.json"
        assert run("check", "--surface", surface, "--conormal", other,
                   "--report", report) == 1
        body = json.loads(report.read_text())
        assert body["passed"] is False
        assert body["error"] == (f"DomainMismatch: field domain {GridDomain(*box)} is not "
                                 f"{GridDomain(0, 5, 0, 5)}")

    def test_grid_with_a_bool_value_is_usage_error(self, tmp_path, capsys, paraboloid_files):
        _, surface = paraboloid_files
        body = json.loads(surface.read_text())
        body["values"][4] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        assert run("check", "--surface", bad, "--report", tmp_path / "r.json") == 2
        assert "entry 4 is true, not a number" in capsys.readouterr().err

    def test_check_names_a_scalar_surface_file(self, tmp_path, capsys):
        scalar = tmp_path / "scalar.json"
        scalar.write_text(json.dumps({"kind": "vertex", "domain": [0, 2, 0, 2],
                                      "components": 1, "values": [0.0] * 9}))
        capsys.readouterr()
        assert run("check", "--surface", scalar, "--report", tmp_path / "r.json") == 2
        assert capsys.readouterr().err == f"error: {scalar}: surface grids must hold 3-vectors\n"
        assert not (tmp_path / "r.json").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("check", "--surface", tmp_path / "nope.json",
                   "--report", tmp_path / "r.json") == 2


class TestFormsReconstructCompare:
    def test_round_trip(self, tmp_path, paraboloid_files):
        _, surface = paraboloid_files
        forms = tmp_path / "forms.json"
        rebuilt = tmp_path / "rebuilt.json"
        report = tmp_path / "equiv.json"
        assert run("forms", "--surface", surface, "--out", forms) == 0
        assert run("reconstruct", "--forms", forms, "--out", rebuilt) == 0
        assert run("compare", "--a", rebuilt, "--b", surface,
                   "--report", report) == 0
        body = json.loads(report.read_text())
        assert body["equivalent"] is True
        assert body["det"] == pytest.approx(1.0, abs=1e-9)
        assert body["unimodular"] is True
        assert len(body["linear"]) == 3 and len(body["translation"]) == 3

    def test_compare_detects_difference(self, tmp_path, paraboloid_files):
        _, surface = paraboloid_files
        other = tmp_path / "other.json"
        assert run("generate", "--example", "helicoid", "--box", 0, 5, 0, 5,
                   "--out", tmp_path / "h.json") == 0
        assert run("integrate", "--conormal", tmp_path / "h.json",
                   "--out", other) == 0
        report = tmp_path / "equiv.json"
        assert run("compare", "--a", surface, "--b", other,
                   "--report", report) == 1
        assert json.loads(report.read_text())["equivalent"] is False

    @pytest.mark.parametrize("b, error", [
        ("box", "DomainMismatch: qb domain GridDomain(u_min=1, u_max=9, v_min=1, v_max=8) "
                "is not GridDomain(u_min=1, u_max=8, v_min=1, v_max=8)"),
        ("flat", "DegenerateQuadrangle: corner quadrangle at (1, 1) spans no volume")],
        ids=["box", "flat"])
    def test_compare_reports_surfaces_it_cannot_compare(self, tmp_path, capsys, b, error):
        surfaces = {}
        for name, box in (("a", (1, 8, 1, 8)), ("box", (1, 9, 1, 8))):
            surfaces[name] = tmp_path / f"{name}.json"
            assert run("generate", "--example", "cubic", "--box", *box,
                       "--out", tmp_path / "c.json") == 0
            assert run("integrate", "--conormal", tmp_path / "c.json",
                       "--out", surfaces[name]) == 0
        surfaces["flat"] = tmp_path / "flat.json"
        surfaces["flat"].write_text(json.dumps({
            "kind": "vertex", "domain": [1, 8, 1, 8], "components": 3,
            "values": [float(x) for uv in range(64) for x in (uv // 8, uv % 8, 0.0)]}))
        report = tmp_path / "equiv.json"
        capsys.readouterr()
        assert run("compare", "--a", surfaces["a"], "--b", surfaces[b],
                   "--report", report) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert json.loads(report.read_text()) == {"equivalent": False, "error": error,
                                                  "tolerance": TOL_EQUIV}

    def test_compare_recovers_unimodular_image(self, tmp_path, paraboloid_files):
        _, surface = paraboloid_files
        body = json.loads(surface.read_text())
        linear = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])
        shift = np.array([5.0, -3.0, 2.0])
        points = np.asarray(body["values"]).reshape(-1, 3) @ linear.T + shift
        body["values"] = points.reshape(-1).tolist()
        image = tmp_path / "image.json"
        image.write_text(json.dumps(body))
        report = tmp_path / "equiv.json"
        assert run("compare", "--a", surface, "--b", image,
                   "--report", report) == 0
        parsed = json.loads(report.read_text())
        assert parsed["det"] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(parsed["linear"], linear, atol=1e-9)

    def test_forms_tolerance_flag_takes_effect(self, tmp_path):
        conormal = tmp_path / "c.json"
        surface = tmp_path / "s.json"
        forms = tmp_path / "forms.json"
        assert run("generate", "--example", "cubic", "--box", 1, 8, 1, 8,
                   "--out", conormal) == 0
        assert run("integrate", "--conormal", conormal, "--out", surface) == 0
        body = json.loads(surface.read_text())
        values = np.asarray(body["values"], dtype=float).reshape(8, 8, 3)
        values[4, 4, 2] += 1e-6  # face-choice spread 2.1e-7, above the default 1e-8
        body["values"] = values.reshape(-1).tolist()
        surface.write_text(json.dumps(body))
        assert run("forms", "--surface", surface, "--out", forms) == 1
        assert not forms.exists()
        # The CLI holds the spread to TOL_FORMS; the library takes a looser one.
        form = extract_fundamental_data(read_grid(surface), tol=1e-2)
        assert 1e-8 < max(form.max_spread_u, form.max_spread_v) <= 1e-2

    @pytest.mark.parametrize("which", ["seed", "forms", "A"])
    def test_reconstruct_rejects_json_that_is_not_an_object(self, tmp_path, capsys,
                                                            paraboloid_files, which):
        _, surface = paraboloid_files
        forms = tmp_path / "forms.json"
        assert run("forms", "--surface", surface, "--out", forms) == 0
        bad = tmp_path / "bad.json"
        if which == "A":
            obj = json.loads(forms.read_text())
            obj["A"] = [1, 2]
            bad.write_text(json.dumps(obj))
        else:
            bad.write_text("[1, 2]")
        args = ["--forms", forms, "--seed", bad] if which == "seed" else ["--forms", bad]
        capsys.readouterr()
        assert run("reconstruct", *args, "--out", tmp_path / "rebuilt.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_reconstruct_with_seed_file(self, tmp_path, paraboloid_files):
        _, surface = paraboloid_files
        forms = tmp_path / "forms.json"
        seed = tmp_path / "seed.json"
        rebuilt = tmp_path / "rebuilt.json"
        assert run("forms", "--surface", surface, "--out", forms) == 0
        seed.write_text(json.dumps({"points": [
            [0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1],
        ]}))
        assert run("reconstruct", "--forms", forms, "--seed", seed,
                   "--out", rebuilt) == 0

    def test_reconstruct_rejects_a_seed_of_bools(self, tmp_path, capsys, paraboloid_files):
        _, surface = paraboloid_files
        forms, seed = tmp_path / "forms.json", tmp_path / "seed.json"
        assert run("forms", "--surface", surface, "--out", forms) == 0
        seed.write_text(json.dumps({"points": [
            [0, 0, 0], [True, 0, 0], [0, 1, 0], [1, 1, 1],
        ]}))
        capsys.readouterr()
        assert run("reconstruct", "--forms", forms, "--seed", seed,
                   "--out", tmp_path / "rebuilt.json") == 2
        assert "point 1: entry 0 is true, not a number" in capsys.readouterr().err


class TestScalarCommands:
    def test_area_prints_value(self, capsys, paraboloid_files):
        _, surface = paraboloid_files
        assert run("area", "--surface", surface) == 0
        last_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(last_line) == 25.0

    def test_gradient_writes_interior_grid(self, tmp_path, paraboloid_files):
        _, surface = paraboloid_files
        out = tmp_path / "grad.json"
        assert run("gradient", "--surface", surface, "--out", out) == 0
        grid = read_grid(out, expected_kind="vertex")
        assert grid.domain.as_tuple() == (1, 4, 1, 4)
        np.testing.assert_array_equal(grid.values, 0.0)

    def test_gradient_on_a_box_without_interior_names_it(self, tmp_path, capsys):
        conormal, surface = tmp_path / "c.json", tmp_path / "s.json"
        assert run("generate", "--example", "cubic", "--box", 1, 6, 1, 2, "--out", conormal) == 0
        assert run("integrate", "--conormal", conormal, "--out", surface) == 0
        assert run("gradient", "--surface", surface, "--out", tmp_path / "g.json") == 1
        err = capsys.readouterr().err
        assert "the area gradient needs at least 3 vertices along u and v, got 6 x 2" in err
        assert "GridDomain(u_min=1, u_max=6, v_min=1, v_max=2)" in err

    def test_critical_on_a_box_without_interior_passes_vacuously(self, tmp_path, capsys):
        conormal, surface = tmp_path / "c.json", tmp_path / "s.json"
        assert run("generate", "--example", "cubic", "--box", 1, 2, 1, 6, "--out", conormal) == 0
        assert run("integrate", "--conormal", conormal, "--out", surface) == 0
        capsys.readouterr()
        assert run("critical", "--surface", surface) == 0
        assert capsys.readouterr().out == "critical: vacuous pass (no interior vertex)\n"

    def test_critical_pass_and_fail(self, tmp_path, paraboloid_files):
        _, surface = paraboloid_files
        assert run("critical", "--surface", surface) == 0
        body = json.loads(surface.read_text())
        body["values"][3 * 6 * 3 + 3 * 3 + 2] += 0.05
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        assert run("critical", "--surface", bad) == 1

    def test_export(self, tmp_path, paraboloid_files):
        _, surface = paraboloid_files
        out = tmp_path / "mesh.obj"
        assert run("export", "--surface", surface, "--resolution", 2,
                   "--out", out) == 0
        assert out.read_text().startswith("v ")


def _input_files(tmp_path, paraboloid_files):
    """Co-normal, surface, forms and own-seed files of the paraboloid on (0, 5, 0, 5)."""
    conormal, surface = paraboloid_files
    forms, seed = tmp_path / "forms.json", tmp_path / "seed.json"
    assert run("forms", "--surface", surface, "--out", forms) == 0
    p = read_grid(surface).values
    seed.write_text(json.dumps({"points": [p[0, 0].tolist(), p[1, 0].tolist(),
                                           p[0, 1].tolist(), p[1, 1].tolist()]}))
    return {"conormal": conormal, "surface": surface, "forms": forms, "seed": seed}


# File kind -> (the command reading it, of the files and an output path; the
# path of a value list in the file's JSON).
READERS = {
    "surface": (lambda f, out: ["check", "--surface", f["surface"], "--report", out],
                ("values",)),
    "conormal": (lambda f, out: ["integrate", "--conormal", f["conormal"], "--out", out],
                 ("values",)),
    "forms-F": (lambda f, out: ["reconstruct", "--forms", f["forms"], "--out", out],
                ("F", "values")),
    "forms-A": (lambda f, out: ["reconstruct", "--forms", f["forms"], "--out", out],
                ("A", "values")),
    "seed": (lambda f, out: ["reconstruct", "--forms", f["forms"], "--seed", f["seed"],
                             "--out", out], ("points", 2)),
}


class TestInputContract:
    """Every value a file hands in is finite and within VALUE_BOUND, or the
    command exits 2 naming the file and the entry, writing nothing."""

    @staticmethod
    def _run_with(tmp_path, capsys, paraboloid_files, kind, entry, text):
        """Run the command reading ``kind`` with ``text`` as the JSON of one entry
        of its value list, warnings as errors; its exit code, the path and stderr."""
        files = _input_files(tmp_path, paraboloid_files)
        argv, keys = READERS[kind]
        path = files[kind.split("-")[0]]
        obj = json.loads(path.read_text())
        target = obj
        for key in keys:
            target = target[key]
        target[entry] = 123456789012345678   # a spelling json.dumps keeps as it is
        path.write_text(json.dumps(obj).replace("123456789012345678", text))
        out = tmp_path / "out.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(*argv(files, out))
        assert not out.exists()
        return code, path, capsys.readouterr().err

    @pytest.mark.parametrize("kind, entry", [
        ("surface", 0), ("conormal", 4), ("forms-F", 3), ("forms-A", 8), ("seed", 1)])
    def test_a_400_digit_integer_exits_two_naming_the_file_and_entry(
            self, tmp_path, capsys, paraboloid_files, kind, entry):
        code, path, err = self._run_with(tmp_path, capsys, paraboloid_files, kind, entry,
                                         "1" + "0" * 400)
        assert code == 2
        assert str(path) in err
        assert f"entry {entry} is an integer beyond the float range" in err

    @pytest.mark.parametrize("kind, entry, value, where", [
        ("surface", 3 * 7 + 1, "1e308", "grid index (1, 1), component 1: 1e+308"),
        ("seed", 1, "-1e308", "grid index (0, 1), component 1: -1e+308"),
        ("forms-F", 5, "1e308", "grid index (1, 0): 1e+308"),
    ], ids=["position", "seed", "area-density"])
    def test_a_value_beyond_the_bound_exits_two_without_a_warning(
            self, tmp_path, capsys, paraboloid_files, kind, entry, value, where):
        # Each warned "overflow encountered" (in multiply, in subtract) before it
        # was refused: a position in check, a seed or F in reconstruct.
        code, path, err = self._run_with(tmp_path, capsys, paraboloid_files, kind, entry, value)
        assert code == 2
        assert str(path) in err
        assert f"at {where} is not finite or over 1.41e+102 in size" in err

    def test_forms_of_a_net_at_the_bound_exit_two_naming_the_face(self, tmp_path, capsys):
        # max |q| = VALUE_BOUND: F reaches 2e151, a forms file reconstruct could not read.
        _, surface = _surface_files(tmp_path, "helicoid", (0, 10, 0, 16))
        grid = read_grid(surface)
        scaled = grid.values * (VALUE_BOUND / np.abs(grid.values).max())
        assert np.abs(scaled).max() <= VALUE_BOUND
        write_grid(grid.with_values(scaled), surface)
        out = tmp_path / "forms.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("forms", "--surface", surface, "--out", out) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {out}: F: face grid at grid index (0, 0): 2.028")
        assert not out.exists()


    @pytest.mark.parametrize("entry, code, message", [
        (0, 2, "error: F at face (1, 1) is 1e-300: its square, the seed determinant, underflows"),
        (1, 1, "the co-normal misses it by inf at (1, 4)"),
    ], ids=["first-face", "column-strip"])
    def test_a_tiny_f_on_a_boundary_strip_is_refused_without_a_warning(
            self, tmp_path, capsys, entry, code, message):
        # F^2 of entry 0 underflowed to 0 and passed the seed check; dividing by
        # either made numpy warn "overflow" and "invalid value" before the gap was nan.
        _, surface = _surface_files(tmp_path, "cubic", (1, 4, 1, 5))
        forms, out = tmp_path / "forms.json", tmp_path / "rebuilt.json"
        assert run("forms", "--surface", surface, "--out", forms) == 0
        obj = json.loads(forms.read_text())
        obj["F"]["values"][entry] = 1e-300
        forms.write_text(json.dumps(obj))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("reconstruct", "--forms", forms, "--out", out) == code
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPipeline:
    def test_end_to_end_and_determinism(self, tmp_path):
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        args = ["pipeline", "--example", "sphere", "--box", 1, 7, -6, 0,
                "--outdir"]
        assert run(*args, out1) == 0
        assert run(*args, out2) == 0
        report = json.loads((out1 / "pipeline_report.json").read_text())
        assert report["passed"] is True
        assert report["certificates"]["passed"] is True
        assert report["compatibility"]["passed"] is True
        for name in ("conormal.json", "surface.json", "forms.json",
                     "reconstructed.json", "mesh_res1.obj", "mesh_res8.obj",
                     "check_report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_golden_artifact_digests(self, tmp_path):
        assert run("pipeline", "--example", "paraboloid", "--box", 0, 6, 0, 6,
                   "--outdir", tmp_path) == 0
        for name, digest in GOLDEN_PARABOLOID.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("example, box, n", list(GOLDEN_ROUNDED))
    def test_golden_digests_on_rounded_data(self, tmp_path, example, box, n):
        assert run("pipeline", "--example", example, "--box", *box, "--n", n,
                   "--outdir", tmp_path) == 0
        for name, digest in GOLDEN_ROUNDED[example, box, n].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_golden_mesh_with_six_digit_face_indices(self, tmp_path):
        # 255,025 vertices: the res-8 face lines spell indices of 1 to 6 digits.
        assert run("pipeline", "--example", "cubic", "--box", 1, 64, 1, 64,
                   "--outdir", tmp_path) == 0
        digest = hashlib.sha256((tmp_path / "mesh_res8.obj").read_bytes()).hexdigest()
        assert digest == "89b3b1bd49be3f7caf7874500d29b6b2df9521329f7e9fe787efa3dbc1b49e6c"

    def test_thin_box_names_the_size_requirement(self, tmp_path, capsys):
        # Two vertices along u: the cubic form has no u-interior vertex.
        assert run("pipeline", "--example", "paraboloid", "--box", 0, 1, 0, 5,
                   "--outdir", tmp_path) == 1
        err = capsys.readouterr().err
        assert "the cubic form needs at least 3 vertices along u and v" in err
        assert "got 2 x 6" in err

    # pipeline always exports at resolutions 1 and 8 and takes no resolution option.
    @pytest.mark.parametrize("command, message", [
        (["pipeline", "--example", "cubic", "--box", 1, 6, 1, 6, "--outdir", "D",
          "--resolutions", 0, 8], "unrecognized arguments: --resolutions 0 8"),
        (["export", "--surface", "s.json", "--out", "D/mesh.obj", "--resolution", -1],
         "resolution must be an integer >= 1, got -1"),
    ], ids=["pipeline", "export"])
    def test_a_resolution_below_one_is_a_usage_error_before_any_file(
            self, tmp_path, monkeypatch, capsys, command, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            run(*command)
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_default_boxes_per_example(self, tmp_path):
        # the sphere default box must respect u > v
        assert run("pipeline", "--example", "sphere",
                   "--outdir", tmp_path / "s") == 0


# Each subcommand's options, in order: (flags, default, choices, nargs, required).
OPTIONS = {
    "generate": [(("--example",), None, ("helicoid", "cubic", "paraboloid", "sphere"), None, True),
                 (("--box",), None, None, 4, True),
                 (("--n",), 16, None, None, False),
                 (("--out",), None, None, None, True)],
    "integrate": [(("--conormal",), None, None, None, True),
                  (("--out",), None, None, None, True),
                  (("--base",), None, None, 5, False)],
    "check": [(("--surface",), None, None, None, True),
              (("--conormal",), None, None, None, False),
              (("--report",), None, None, None, True)],
    "forms": [(("--surface",), None, None, None, True),
              (("--out",), None, None, None, True)],
    "reconstruct": [(("--forms",), None, None, None, True),
                    (("--seed",), None, None, None, False),
                    (("--out",), None, None, None, True)],
    "compare": [(("--a",), None, None, None, True),
                (("--b",), None, None, None, True),
                (("--report",), None, None, None, True)],
    "area": [(("--surface",), None, None, None, True)],
    "gradient": [(("--surface",), None, None, None, True), (("--out",), None, None, None, True)],
    "critical": [(("--surface",), None, None, None, True)],
    "export": [(("--surface",), None, None, None, True),
               (("--resolution",), None, None, None, True),
               (("--out",), None, None, None, True)],
    "pipeline": [(("--example",), None, ("helicoid", "cubic", "paraboloid", "sphere"), None, True),
                 (("--box",), None, None, 4, False),
                 (("--n",), 16, None, None, False),
                 (("--outdir",), None, None, None, True)],
}


def test_every_subcommand_option_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    table = {name: [(tuple(a.option_strings), a.default,
                     None if a.choices is None else tuple(a.choices), a.nargs, a.required)
                    for a in p._actions if not isinstance(a, argparse._HelpAction)]
             for name, p in sub.choices.items()}
    assert list(table.items()) == list(OPTIONS.items())


def test_pipeline_records_the_harmonic_default_it_takes_no_flag_for(tmp_path, capsys):
    assert run("pipeline", "--example", "paraboloid", "--box", 0, 3, 0, 3,
               "--outdir", tmp_path) == 0
    report = json.loads((tmp_path / "pipeline_report.json").read_text())
    assert report["tolerances"]["harmonic"] == 1e-9
    with pytest.raises(SystemExit) as err:
        run("pipeline", "--example", "paraboloid", "--outdir", tmp_path, "--tol-harmonic", 1)
    assert err.value.code == 2


def test_reports_record_the_library_tolerances(tmp_path):
    expected = [("harmonic", TOL_HARMONIC), ("integrate", TOL_INTEGRATE),
                ("asymptotic", TOL_ASYMPTOTIC), ("dual", TOL_DUAL), ("forms", TOL_FORMS),
                ("compat", TOL_COMPAT), ("seed", TOL_SEED), ("equiv", TOL_EQUIV),
                ("crit", TOL_CRIT)]
    assert run("pipeline", "--example", "paraboloid", "--box", 0, 3, 0, 3,
               "--outdir", tmp_path) == 0
    assert run("check", "--surface", tmp_path / "surface.json", "--conormal",
               tmp_path / "conormal.json", "--report", tmp_path / "check.json") == 0
    for name in ("check.json", "pipeline_report.json"):
        report = json.loads((tmp_path / name).read_text())
        assert list(report["tolerances"].items()) == expected, name


@pytest.mark.parametrize("option", ["--tol-dual", "--resolutions", "--seed-file"])
def test_a_removed_option_is_a_usage_error_before_any_file(tmp_path, capsys, option):
    conormal, surface = _surface_files(tmp_path, "paraboloid", (0, 3, 0, 3))
    forms, seed, out = tmp_path / "forms.json", tmp_path / "seed.json", tmp_path / "out"
    assert run("forms", "--surface", surface, "--out", forms) == 0
    seed.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]]}))
    out.mkdir()
    # Each run ends with the removed option and its values, and exits 0 without them.
    argv = {
        "--tol-dual": ["check", "--surface", surface, "--conormal", conormal,
                       "--report", out / "r.json", "--tol-dual", 1],
        "--resolutions": ["pipeline", "--example", "paraboloid", "--box", 0, 3, 0, 3,
                          "--outdir", out, "--resolutions", 1, 8],
        "--seed-file": ["reconstruct", "--forms", forms, "--out", out / "q.json",
                        "--seed-file", seed],
    }[option]
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        run(*argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert run(*argv[:argv.index(option)]) == 0


def _surface_files(tmp_path, example, box):
    """Co-normal and surface files of ``example`` on ``box``, named after the box."""
    stem = "_".join(map(str, box))
    conormal, surface = tmp_path / f"c{stem}.json", tmp_path / f"s{stem}.json"
    assert run("generate", "--example", example, "--box", *box, "--out", conormal) == 0
    assert run("integrate", "--conormal", conormal, "--out", surface) == 0
    return conormal, surface


def _check_a_non_harmonic_conormal(tmp_path):
    conormal, surface = _surface_files(tmp_path, "paraboloid", (0, 5, 0, 5))
    body = json.loads(conormal.read_text())
    body["values"][(1 * 6 + 1) * 3 + 2] += 0.5   # vertex (1, 1)
    conormal.write_text(json.dumps(body))
    report = tmp_path / "report.json"
    return ["check", "--surface", surface, "--conormal", conormal, "--report", report], report


def _compare_two_boxes(tmp_path):
    (_, a), (_, b) = (_surface_files(tmp_path, "cubic", box) for box in ((1, 8, 1, 8),
                                                                        (1, 9, 1, 8)))
    report = tmp_path / "report.json"
    return ["compare", "--a", a, "--b", b, "--report", report], report


def _pipeline(*argv):
    return lambda tmp_path: (["pipeline", *argv, "--outdir", tmp_path],
                             tmp_path / "pipeline_report.json")


# Case -> (the arguments of a run that exits 1 and its report path, of
# tmp_path; the error type that report names).
EXIT_ONE = {
    "check-non-harmonic": (_check_a_non_harmonic_conormal, "NotHarmonic"),
    "compare-two-boxes": (_compare_two_boxes, "DomainMismatch"),
    "pipeline-sphere-box": (_pipeline("--example", "sphere", "--box", 1, 11, -10, 5),
                            "NonConvexFace"),
}


@pytest.mark.parametrize("case", EXIT_ONE)
def test_every_exit_one_leaves_a_report_naming_the_error(tmp_path, capsys, case):
    build, error = EXIT_ONE[case]
    argv, path = build(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
    report = json.loads(path.read_text())
    assert report["error"].startswith(f"{error}: ")
    assert report.get("passed", report.get("equivalent")) is False
    if argv[0] == "pipeline":
        assert list(report) == ["command", "example", "box", "n", "tolerances", "error", "passed"]
        assert report["box"] == argv[4:8]


def test_reconstruct_names_the_type_of_incompatible_data_on_stderr(tmp_path, capsys):
    # reconstruct writes no report, so the type is on stderr alone.
    _, surface = _surface_files(tmp_path, "cubic", (1, 6, 1, 6))
    forms, out = tmp_path / "forms.json", tmp_path / "rebuilt.json"
    assert run("forms", "--surface", surface, "--out", forms) == 0
    obj = json.loads(forms.read_text())
    obj["A"]["values"][5] *= 1.5   # A at vertex (2, 6): -6 becomes -9
    forms.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("reconstruct", "--forms", forms, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: IncompatibleData: incompatible fundamental data: ")
    assert err.endswith(" at (2, 6)\n") and err.count("\n") == 1
    assert not out.exists()


def test_a_check_that_stops_names_its_error_on_stderr(tmp_path, capsys):
    argv, path = _check_a_non_harmonic_conormal(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 1
    out, err = capsys.readouterr()
    assert out == f"check: FAIL (report in {path})\n"
    assert err.startswith("error: NotHarmonic: ")
    assert err == f"error: {json.loads(path.read_text())['error']}\n"


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "affmin.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "pipeline" in result.stdout


def test_unknown_flag_exits_two():
    result = subprocess.run(
        [sys.executable, "-m", "affmin.cli", "area", "--bogus", "x"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()
