"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  The four
reference surfaces live on 20x20-face boxes chosen so every face has
positive area density: the helicoid additionally uses 32 samples per turn
on u in [-10, 10], which keeps the reconstruction march well conditioned.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

import affmin as am
from affmin.cli import main as cli_main
from affmin.compatibility import (
    FundamentalData,
    affine_equivalence,
    compatibility_residuals,
    extract_fundamental_data,
    reconstruct,
)
from affmin.errors import IncompatibleData
from affmin.forms import (
    a2_b1_closed_form,
    cubic_coefficients,
    normal_derivative_residuals,
    structural_residuals,
)
from affmin.geometry import (
    affine_normal,
    asymptotic_certificate,
    duality_certificate,
    face_volumes,
    planarity_and_saddle,
    recover_conormal,
)
from affmin.grids import GridDomain, VertexGrid
from affmin.lelieuvre import Immersion, integrate
from affmin.mesh import export_surface_obj, patch_area_check
from affmin.variational import area_gradient, criticality_certificate, fd_gradient_check


def reference_fields():
    return {
        "helicoid": am.helicoid(32, (-10, 10), (0, 20)),
        "cubic": am.minimal_cubic(GridDomain(1, 21, 1, 21)),
        "paraboloid": am.hyperbolic_paraboloid(GridDomain(0, 20, 0, 20)),
        "sphere": am.improper_sphere(GridDomain(1, 21, -20, 0)),
    }


@pytest.fixture(scope="module")
def surfaces():
    return {name: (field, integrate(field))
            for name, field in reference_fields().items()}


def verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_paraboloid_exactness():
    started = time.perf_counter()
    field = am.hyperbolic_paraboloid(GridDomain(0, 10, 0, 10))
    surf = integrate(field)
    u, v = np.meshgrid(np.arange(11), np.arange(11), indexing="ij")
    exact = np.stack([u, v, u * v], axis=-1).astype(float)
    position_err = np.abs(surf.positions.values - exact).max()

    vols = face_volumes(surf)
    f_err = np.abs(vols.areas.values - 1.0).max()
    xi = affine_normal(surf, vols.areas)
    xi_err = np.abs(xi.values - (0.0, 0.0, 1.0)).max()
    form = cubic_coefficients(surf, xi)
    ab_err = max(np.abs(form.u_coeff.values).max(),
                 np.abs(form.v_coeff.values).max())
    elapsed = time.perf_counter() - started

    ok = (position_err <= 1e-12 and f_err <= 1e-12 and xi_err <= 1e-12
          and ab_err <= 1e-12 and elapsed < 0.1)
    verdict(1, ok, f"max errors q={position_err:.1e} F={f_err:.1e} "
                   f"xi={xi_err:.1e} AB={ab_err:.1e} in {elapsed * 1e3:.0f} ms")


def test_criterion_2_asymptotic_certificates(surfaces):
    worst = {}
    ok = True
    for name, (field, surf) in surfaces.items():
        started = time.perf_counter()
        asym = asymptotic_certificate(surf)
        recovery = recover_conormal(surf)
        planar = planarity_and_saddle(surf, field.vectors)
        elapsed = time.perf_counter() - started
        good = (asym.max_zero_residual <= 1e-9
                and asym.max_mixed_residual <= 1e-9
                and recovery.max_deviation <= 1e-9
                and planar.passed and elapsed < 1.0)
        ok &= good
        worst[name] = max(asym.max_zero_residual, asym.max_mixed_residual,
                          recovery.max_deviation)
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    verdict(2, ok, f"worst residuals {detail}")


def test_criterion_3_duality(surfaces):
    residuals = {}
    ok = True
    for name, (field, surf) in surfaces.items():
        vols = face_volumes(surf)
        xi = affine_normal(surf, vols.areas)
        report = duality_certificate(field.vectors, xi, vols.areas)
        residuals[name] = max(report.max_pairing_residual,
                              report.max_cross_residual)
        ok &= residuals[name] <= 1e-9
    detail = ", ".join(f"{k}={v:.1e}" for k, v in residuals.items())
    verdict(3, ok, f"duality residuals {detail}")


def test_criterion_4_criticality_and_first_variation(surfaces):
    ok = True
    details = []
    for name, (field, surf) in surfaces.items():
        crit = criticality_certificate(surf, tol=1e-9)
        ok &= crit.passed

        dom = surf.domain
        center = ((dom.u_min + dom.u_max) // 2, (dom.v_min + dom.v_max) // 2)
        values = np.array(surf.positions.values)
        values[center[0] - dom.u_min, center[1] - dom.v_min] += (0, 0, 1e-3)
        bumped = Immersion(VertexGrid(dom, values))
        gradient = area_gradient(bumped).vertex_at(*center)
        direction = gradient / np.linalg.norm(gradient)
        coarse = fd_gradient_check(bumped, center, direction, 1e-5)
        fine = fd_gradient_check(bumped, center, direction, 5e-6)
        rel_gap = coarse.gap / abs(coarse.numeric)
        ratio = coarse.gap / max(fine.gap, 1e-300)
        ok &= rel_gap <= 1e-6 and 3.0 <= ratio <= 5.0
        details.append(f"{name}: |g|/F={crit.max_gradient / crit.mean_area:.1e} "
                       f"fd_gap={rel_gap:.1e} ratio={ratio:.2f}")
    verdict(4, ok, "; ".join(details))


def test_criterion_5_structural_identities(surfaces):
    ok = True
    details = []
    for name, (field, surf) in surfaces.items():
        vols = face_volumes(surf)
        xi = affine_normal(surf, vols.areas)
        form = cubic_coefficients(surf, xi)
        structural = structural_residuals(surf, vols.areas, form)
        derivs, closed = a2_b1_closed_form(surf, xi, vols.areas, form)
        normal_derivs = normal_derivative_residuals(surf, xi, vols.areas, derivs)
        worst = max(structural.max_residual, closed.relative_gap,
                    normal_derivs.max_residual)
        ok &= worst <= 1e-8
        details.append(f"{name}={worst:.1e}")

        xi_spread = np.abs(xi.values - xi.values[0, 0]).max()
        a2 = np.abs(np.diff(form.u_coeff.values, axis=1)).max()
        b1 = np.abs(np.diff(form.v_coeff.values, axis=0)).max()
        if name == "sphere":
            ok &= xi_spread <= 1e-10 and a2 <= 1e-10 and b1 <= 1e-10
            details.append(f"sphere const-xi spread={xi_spread:.1e} "
                           f"dA={a2:.1e} dB={b1:.1e}")
        if name == "helicoid":
            ok &= xi_spread > 1e-10   # genuinely non-constant normal
    verdict(5, ok, "; ".join(details))


def test_criterion_6_compatibility_and_reconstruction(surfaces):
    ok = True
    details = []
    for name, (field, surf) in surfaces.items():
        data = extract_fundamental_data(surf)
        residuals = compatibility_residuals(data)
        ok &= residuals.max <= 1e-8

        p = surf.positions.values
        seed = np.stack([p[0, 0], p[1, 0], p[0, 1], p[1, 1]])
        rebuilt = reconstruct(data, seed)
        scale = np.abs(p - p[0, 0]).max()
        gap = np.abs(rebuilt.positions.values - p).max() / scale
        ok &= gap <= 1e-8

        canonical = reconstruct(data)
        mapping = affine_equivalence(canonical, surf)
        ok &= abs(mapping.det - 1.0) <= 1e-6
        details.append(f"{name}: compat={residuals.max:.1e} "
                       f"roundtrip={gap:.1e} det={mapping.det:.9f}")

    # corrupting one cubic coefficient must break reconstruction
    data = extract_fundamental_data(surfaces["cubic"][1])
    bumped = np.array(data.u_coeff.values)
    bumped[4, 5] += 1.0
    corrupt = FundamentalData(data.areas, data.u_coeff.with_values(bumped),
                              data.v_coeff)
    p = surfaces["cubic"][1].positions.values
    seed = np.stack([p[0, 0], p[1, 0], p[0, 1], p[1, 1]])
    try:
        reconstruct(corrupt, seed)
        detected = False
    except IncompatibleData:
        detected = True
    ok &= detected
    details.append(f"corruption detected={detected}")
    verdict(6, ok, "; ".join(details))


def test_criterion_7_patch_area_constancy(surfaces, tmp_path):
    rng = np.random.default_rng(7)
    names = sorted(surfaces)
    worst = 0.0
    for _ in range(100):
        name = names[int(rng.integers(len(names)))]
        _, surf = surfaces[name]
        dom = surf.domain
        u = int(rng.integers(dom.u_min, dom.u_max))
        v = int(rng.integers(dom.v_min, dom.v_max))
        result = patch_area_check(surf, (u, v), 4)
        worst = max(worst, result.gap / result.face_area)
    ok = worst <= 1e-10

    _, paraboloid = surfaces["paraboloid"]
    path = tmp_path / "paraboloid.obj"
    export_surface_obj(paraboloid, 8, path)
    verts = np.array([
        [float(t) for t in line.split()[1:]]
        for line in path.read_text().splitlines() if line.startswith("v ")
    ])
    obj_gap = np.abs(verts[:, 2] - verts[:, 0] * verts[:, 1]).max()
    ok &= obj_gap <= 1e-12
    verdict(7, ok, f"element spread={worst:.1e}, OBJ |z - xy|={obj_gap:.1e}")


def _edge_counts(path):
    verts = 0
    tris = []
    for line in open(path, encoding="ascii"):
        if line.startswith("v "):
            verts += 1
        elif line.startswith("f "):
            tris.append([int(t) for t in line.split()[1:]])
    counts = Counter()
    for a, b, c in tris:
        for lo, hi in ((a, b), (b, c), (c, a)):
            counts[(min(lo, hi), max(lo, hi))] += 1
    return verts, tris, Counter(counts.values())


def test_criterion_8_figure_meshes(tmp_path):
    boxes = {
        "helicoid": (0, 10, 0, 16),
        "cubic": (1, 11, 1, 11),
        "paraboloid": (0, 10, 0, 10),
        "sphere": (1, 11, -10, 0),
    }
    ok = True
    details = []
    for example, box in boxes.items():
        args = ["pipeline", "--example", example,
                "--box", *[str(b) for b in box]]
        out1 = tmp_path / f"{example}1"
        out2 = tmp_path / f"{example}2"
        code1 = cli_main(args + ["--outdir", str(out1)])
        code2 = cli_main(args + ["--outdir", str(out2)])
        ok &= code1 == 0 and code2 == 0

        report = json.loads((out1 / "pipeline_report.json").read_text())
        ok &= report["certificates"]["planar_saddle"]["saddle_ok"] is True

        for res in (1, 8):
            name = f"mesh_res{res}.obj"
            ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
            _, tris, histogram = _edge_counts(out1 / name)
            # watertight: every edge belongs to 1 (boundary) or 2 triangles
            ok &= set(histogram) == {1, 2}
        details.append(f"{example}: exit={code1}")
    verdict(8, ok, "; ".join(details))
