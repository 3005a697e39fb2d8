"""Bilinear patches, tessellation, and OBJ export."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import affmin as am
from affmin import mesh as mesh_module
from affmin.geometry import affine_normal, face_volumes
from affmin.mesh import (
    TriangleMesh,
    export_obj,
    export_surface_obj,
    patch_area_check,
    patch_point,
    tessellate,
)
from affmin.variational import affine_area


def edge_histogram(mesh):
    counts = Counter()
    for a, b, c in mesh.triangles:
        for lo, hi in ((a, b), (b, c), (c, a)):
            counts[(min(lo, hi), max(lo, hi))] += 1
    return Counter(counts.values())


class TestPatchPoint:
    def test_corners(self, helicoid):
        _, surf = helicoid
        q = surf.positions
        np.testing.assert_array_equal(patch_point(surf, (2, 3), 0.0, 0.0),
                                      q.vertex_at(2, 3))
        np.testing.assert_array_equal(patch_point(surf, (2, 3), 1.0, 1.0),
                                      q.vertex_at(3, 4))

    def test_midpoint_averages_corners(self, cubic):
        _, surf = cubic
        q = surf.positions
        mid = patch_point(surf, (2, 2), 0.5, 0.5)
        corners = np.stack([q.vertex_at(2, 2), q.vertex_at(3, 2),
                            q.vertex_at(2, 3), q.vertex_at(3, 3)])
        np.testing.assert_allclose(mid, corners.mean(axis=0), rtol=1e-15)

    def test_paraboloid_point(self, paraboloid):
        _, surf = paraboloid
        np.testing.assert_array_equal(patch_point(surf, (0, 0), 0.5, 0.25),
                                      (0.5, 0.25, 0.125))

    def test_parameters_out_of_range(self, paraboloid):
        _, surf = paraboloid
        with pytest.raises(ValueError):
            patch_point(surf, (0, 0), 1.5, 0.0)
        with pytest.raises(IndexError):
            patch_point(surf, (99, 0), 0.5, 0.5)

    def test_shared_edge_samples_bitwise_equal(self, helicoid):
        # A sample on the edge between two faces depends only on that edge's
        # corners, so both patches produce the identical doubles.
        _, surf = helicoid
        for t in np.linspace(0.0, 1.0, 9):
            left = patch_point(surf, (1, 2), 1.0, t)
            right = patch_point(surf, (2, 2), 0.0, t)
            np.testing.assert_array_equal(left, right)


class TestPatchArea:
    def test_element_constant_on_examples(self, all_examples, rng):
        for name, (_, surf) in all_examples.items():
            dom = surf.domain
            for _ in range(25):
                u = int(rng.integers(dom.u_min, dom.u_max))
                v = int(rng.integers(dom.v_min, dom.v_max))
                result = patch_area_check(surf, (u, v), 4)
                assert result.gap <= 1e-10 * result.face_area, name
                assert result.area == pytest.approx(result.face_area, rel=1e-12)

    def test_paraboloid_element_is_one(self, paraboloid):
        _, surf = paraboloid
        result = patch_area_check(surf, (2, 4), 5)
        assert result.face_area == 1.0
        assert result.gap == 0.0

    def test_gap_independent_of_quadrature(self, cubic):
        _, surf = cubic
        gaps = [patch_area_check(surf, (3, 3), n).gap for n in (2, 4, 8, 16)]
        f = patch_area_check(surf, (3, 3), 2).face_area
        assert max(gaps) <= 1e-10 * f

    def test_quadrature_order_validated(self, cubic):
        _, surf = cubic
        with pytest.raises(ValueError):
            patch_area_check(surf, (3, 3), 1)

    def test_patch_normal_equals_affine_normal(self, all_examples):
        # r_st / element is the patch's constant affine normal.
        for name, (_, surf) in all_examples.items():
            q = surf.positions.values
            vols = face_volumes(surf)
            xi = affine_normal(surf, vols.areas)
            w = q[1:, 1:] + q[:-1, :-1] - q[1:, :-1] - q[:-1, 1:]
            patch_normal = w / vols.areas.values[:, :, None]
            gap = np.abs(patch_normal - xi.values).max()
            assert gap <= 1e-10 * max(np.abs(xi.values).max(), 1.0), name

    def test_patch_areas_sum_to_functional(self, sphere):
        _, surf = sphere
        dom = surf.domain
        total = sum(
            patch_area_check(surf, (u, v), 2).face_area
            for u in range(dom.u_min, dom.u_max)
            for v in range(dom.v_min, dom.v_max)
        )
        assert total == pytest.approx(affine_area(surf), rel=1e-14)


class TestTessellate:
    def test_resolution_one_uses_quad_corners(self, paraboloid):
        _, surf = paraboloid
        mesh = tessellate(surf, 1)
        dom = surf.domain
        assert len(mesh.positions) == dom.n_u * dom.n_v
        assert len(mesh.triangles) == 2 * (dom.n_u - 1) * (dom.n_v - 1)
        np.testing.assert_array_equal(
            mesh.positions.reshape(dom.n_u, dom.n_v, 3), surf.positions.values)

    def test_paraboloid_lies_on_z_equals_xy(self, paraboloid):
        _, surf = paraboloid
        mesh = tessellate(surf, 8)
        gap = np.abs(mesh.positions[:, 2]
                     - mesh.positions[:, 0] * mesh.positions[:, 1]).max()
        assert gap <= 1e-12

    def test_watertight(self, helicoid):
        _, surf = helicoid
        res = 4
        mesh = tessellate(surf, res)
        dom = surf.domain
        hist = edge_histogram(mesh)
        boundary = 2 * ((dom.n_u - 1) + (dom.n_v - 1)) * res
        assert set(hist) == {1, 2}
        assert hist[1] == boundary

    def test_two_resolutions(self, helicoid):
        _, surf = helicoid
        coarse = tessellate(surf, 1)
        fine = tessellate(surf, 8)
        assert len(fine.triangles) == 64 * len(coarse.triangles)
        # corner samples agree exactly across resolutions
        np.testing.assert_array_equal(coarse.positions[0], fine.positions[0])

    def test_resolution_validated(self, helicoid):
        _, surf = helicoid
        with pytest.raises(ValueError):
            tessellate(surf, 0)


class TestExportObj:
    def test_line_counts(self, tmp_path):
        mesh = TriangleMesh(
            positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
            triangles=np.array([[0, 1, 3], [0, 3, 2]]),
        )
        path = tmp_path / "two.obj"
        export_obj(mesh, path)
        lines = path.read_text().splitlines()
        assert sum(1 for x in lines if x.startswith("v ")) == 4
        assert sum(1 for x in lines if x.startswith("f ")) == 2
        assert lines[-1] == "f 1 4 3"

    def test_deterministic_bytes(self, cubic, tmp_path):
        _, surf = cubic
        a = tmp_path / "a.obj"
        b = tmp_path / "b.obj"
        export_surface_obj(surf, 3, a)
        export_surface_obj(surf, 3, b)
        assert a.read_bytes() == b.read_bytes()

    def test_paraboloid_obj_vertices_on_surface(self, paraboloid, tmp_path):
        _, surf = paraboloid
        path = tmp_path / "p.obj"
        export_surface_obj(surf, 6, path)
        verts = np.array([
            [float(t) for t in line.split()[1:]]
            for line in path.read_text().splitlines() if line.startswith("v ")
        ])
        assert len(verts) > 0
        assert np.abs(verts[:, 2] - verts[:, 0] * verts[:, 1]).max() <= 1e-12

    def test_unwritable_path(self, paraboloid):
        _, surf = paraboloid
        with pytest.raises(OSError) as err:
            export_surface_obj(surf, 1, "/nonexistent-dir/mesh.obj")
        assert "mesh.obj" in str(err.value)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            TriangleMesh(positions=np.zeros((2, 3)),
                         triangles=np.array([[0, 1, 2]]))

    def test_non_finite_vertex_rejected(self):
        positions = np.zeros((4, 3))
        positions[2, 1] = np.nan
        positions[3, 0] = np.inf
        with pytest.raises(ValueError, match="mesh vertex 2 has a non-finite coordinate 1"):
            TriangleMesh(positions, np.array([[0, 1, 2]]))


class TestStreamingExport:
    def test_non_finite_vertex_in_a_later_band(self, helicoid, tmp_path, monkeypatch):
        _, surf = helicoid
        values = np.array(surf.positions.values)
        values[8, 3, 1] = np.nan
        grid = surf.positions.with_values(values)
        with pytest.raises(ValueError) as whole:
            tessellate(grid, 23)
        vertex = int(str(whole.value).split()[2])
        monkeypatch.setattr(mesh_module, "_BLOCK_ROWS", 1000)
        assert vertex >= 1000   # not in the first band
        path = tmp_path / "nan.obj"
        with pytest.raises(ValueError) as streamed:
            export_surface_obj(grid, 23, path)
        assert str(streamed.value) == str(whole.value)
        assert not path.exists()

    def test_returns_counts(self, cubic, tmp_path):
        _, surf = cubic
        counts = export_surface_obj(surf, 3, tmp_path / "c.obj")
        assert counts == (22 * 22, 2 * 21 * 21)
        assert (counts.vertices, counts.triangles) == tuple(counts)

    def test_peak_memory_is_bounded_by_a_band(self, tmp_path):
        # The mesh is 255,025 vertices and 508,032 triangles (25 MB of OBJ);
        # holding it whole peaked at 57 MB.
        surf = am.integrate(am.minimal_cubic(am.GridDomain(1, 64, 1, 64)))
        tracemalloc.start()
        try:
            export_surface_obj(surf, 8, tmp_path / "cubic.obj")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
