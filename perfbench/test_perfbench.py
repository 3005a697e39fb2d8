"""Tests of the benchmark itself: its checks, its records and a smoke run of
every workload, traced and untraced.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import affmin as am  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))


def test_within_fails_nan_and_inf():
    assert checks.within(0.5, 1.0)
    assert checks.within(1.0, 1.0)
    assert not checks.within(float("nan"), 1.0)
    assert not checks.within(float("inf"), 1.0)
    assert not checks.within(None, 1.0)
    with pytest.raises(CheckFailed):
        checks.require("stage", "residual", float("nan"), 1e-9)


def test_equivalence_check_rejects_non_finite_positions():
    field = am.hyperbolic_paraboloid(am.GridDomain(0, 6, 0, 6))
    q = am.integrate(field).positions.values
    assert abs(checks.require_equivalent("ok", q + 1.0, q) - 1.0) < 1e-12
    broken = q.copy()
    broken[3, 3, 0] = np.nan
    with pytest.raises(CheckFailed):
        checks.require_equivalent("nan", broken, q)
    with pytest.raises(CheckFailed):
        checks.require_roundtrip("nan", broken, q)


def test_checker_rejects_the_silent_nan_reconstruction():
    """On this helicoid the march overflows to NaN without raising, and the
    library's own equivalence test (``gap > tol``) lets NaN through."""
    surface = am.integrate(am.helicoid(64, (-300, 300), (0, 600)))
    data = am.extract_fundamental_data(surface)
    with np.errstate(all="ignore"):
        try:
            rebuilt = am.reconstruct(data)
        except am.IncompatibleData:
            pytest.skip("reconstruct rejects this box outright")
        mapping = am.affine_equivalence(rebuilt, surface)
    rebuilt_q, q = rebuilt.positions.values, surface.positions.values
    if checks.all_finite(rebuilt_q):
        checks.require_equivalent("reconstruct", rebuilt_q, q)
        return
    assert abs(mapping.det - 1.0) <= checks.TOL_EQUIV
    with pytest.raises(CheckFailed):
        checks.require_equivalent("reconstruct", rebuilt_q, q)


def test_obj_check_counts_lattice_and_rejects_nan(tmp_path):
    surface = am.integrate(am.minimal_cubic(am.GridDomain(1, 5, 1, 4)))
    path = tmp_path / "mesh.obj"
    am.export_surface_obj(surface, 3, path)
    stats = checks.obj_stats(path)
    checks.require_obj("mesh", stats, 5, 4, 3)
    with pytest.raises(CheckFailed):
        checks.require_obj("mesh", stats, 5, 4, 2)
    path.write_text(path.read_text().replace("v ", "v nan ", 1))
    with pytest.raises(CheckFailed):
        checks.require_obj("mesh", checks.obj_stats(path), 5, 4, 3)


def test_op_lists_follow_the_seed():
    a = workloads.build_ops("certify-large", 7, 2)
    assert a == workloads.build_ops("certify-large", 7, 2)
    assert a != workloads.build_ops("certify-large", 8, 2)
    classes = sorted(workloads.CLASSES["certify-large"])
    for r in range(2):
        assert sorted((op["family"], None) for op in a if op["round"] == r) == \
            sorted((family, None) for family, _ in classes)


def test_failures_are_attributed(tmp_path):
    spec = workloads.probe_ops("certify-large")[0]
    out = workloads.run_op("certify-large", spec, tmp_path)
    assert out.failures
    for failure in out.failures:
        assert set(failure) == {"workload", "op", "family", "box", "stage", "error"}
        assert failure["workload"] == "certify-large"
        assert failure["family"] == "helicoid"
    assert any(f["stage"].startswith("compatibility.reconstruct") for f in out.failures)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_workloads_in_one_command():
    command = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "5",
               "--seconds", "1", "--trace", "0", "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert result["correct"] is True
    assert set(result["metrics"]) == {f"{w['name']}.{m['name']}"
                                      for w in BENCHMARK["workloads"]
                                      for m in BENCHMARK["end_to_end"]}


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    command = BENCHMARK["command"] + ["--workload", "certify-large", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"]
    done = subprocess.run([sys.executable] + command[1:], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
