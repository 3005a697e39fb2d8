"""Bilinear patches, tessellation, and OBJ export.

The tessellation is read back from the OBJ files that ``export_surface_obj``
writes; 17 significant digits round-trip every coordinate exactly.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

import affmin as am
from affmin import mesh as mesh_module
from affmin.geometry import affine_normal, face_volumes
from affmin.mesh import _write_obj, export_surface_obj, patch_area_check, patch_point
from affmin.variational import affine_area


def read_obj(path):
    """Vertices (n, 3) and 0-based triangles (m, 3) of an OBJ file."""
    vertices, triangles = [], []
    for line in path.read_text().splitlines():
        tag, *fields = line.split()
        if tag == "v":
            vertices.append([float(x) for x in fields])
        else:
            triangles.append([int(x) - 1 for x in fields])
    return np.array(vertices).reshape(-1, 3), np.array(triangles, dtype=int).reshape(-1, 3)


def tessellation(surface, resolution, tmp_path):
    path = tmp_path / f"res{resolution}.obj"
    export_surface_obj(surface, resolution, path)
    return read_obj(path)


def edge_histogram(triangles):
    counts = Counter()
    for a, b, c in triangles:
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
    def test_resolution_one_uses_quad_corners(self, paraboloid, tmp_path):
        _, surf = paraboloid
        positions, triangles = tessellation(surf, 1, tmp_path)
        dom = surf.domain
        assert len(positions) == dom.n_u * dom.n_v
        assert len(triangles) == 2 * (dom.n_u - 1) * (dom.n_v - 1)
        np.testing.assert_array_equal(
            positions.reshape(dom.n_u, dom.n_v, 3), surf.positions.values)

    def test_paraboloid_lies_on_z_equals_xy(self, paraboloid, tmp_path):
        _, surf = paraboloid
        positions, _ = tessellation(surf, 8, tmp_path)
        gap = np.abs(positions[:, 2] - positions[:, 0] * positions[:, 1]).max()
        assert gap <= 1e-12

    def test_watertight(self, helicoid, tmp_path):
        _, surf = helicoid
        res = 4
        _, triangles = tessellation(surf, res, tmp_path)
        dom = surf.domain
        hist = edge_histogram(triangles)
        boundary = 2 * ((dom.n_u - 1) + (dom.n_v - 1)) * res
        assert set(hist) == {1, 2}
        assert hist[1] == boundary

    def test_two_resolutions(self, helicoid, tmp_path):
        _, surf = helicoid
        coarse_positions, coarse_triangles = tessellation(surf, 1, tmp_path)
        fine_positions, fine_triangles = tessellation(surf, 8, tmp_path)
        assert len(fine_triangles) == 64 * len(coarse_triangles)
        # corner samples agree exactly across resolutions
        np.testing.assert_array_equal(coarse_positions[0], fine_positions[0])

    def test_resolution_validated(self, helicoid, tmp_path):
        _, surf = helicoid
        path = tmp_path / "res0.obj"
        with pytest.raises(ValueError):
            export_surface_obj(surf, 0, path)
        assert not path.exists()

    def test_non_integral_resolution_rejected(self, helicoid, tmp_path):
        # 2.5 used to write the resolution-2 mesh and return its counts.
        _, surf = helicoid
        path = tmp_path / "res2.5.obj"
        with pytest.raises(ValueError, match="2.5"):
            export_surface_obj(surf, 2.5, path)
        assert not path.exists()
        assert export_surface_obj(surf, np.int64(2), path) == export_surface_obj(surf, 2, path)


class TestExportObj:
    def test_line_counts(self, tmp_path):
        positions = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
        triangles = np.array([[0, 1, 3], [0, 3, 2]])
        path = tmp_path / "two.obj"
        _write_obj(path, [positions], [triangles])
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
        verts, _ = tessellation(surf, 6, tmp_path)
        assert len(verts) > 0
        assert np.abs(verts[:, 2] - verts[:, 0] * verts[:, 1]).max() <= 1e-12

    def test_unwritable_path(self, paraboloid):
        _, surf = paraboloid
        with pytest.raises(OSError) as err:
            export_surface_obj(surf, 1, "/nonexistent-dir/mesh.obj")
        assert "mesh.obj" in str(err.value)

    def test_non_finite_vertex_rejected(self, paraboloid, tmp_path):
        # A non-finite corner spoils every lattice point of the four faces
        # around it (0 * NaN is NaN).  At resolution 1 on the 7 x 7 box, the
        # first of them in row-major order is corner (1, 2): vertex 1 * 7 + 2.
        _, surf = paraboloid
        values = np.array(surf.positions.values)
        values[2, 3, 1] = np.inf
        values[4, 4, 0] = np.nan
        path = tmp_path / "inf.obj"
        with pytest.raises(ValueError, match="mesh vertex 9 has a non-finite coordinate 1"):
            export_surface_obj(surf.positions.with_values(values), 1, path)
        assert not path.exists()

    def test_non_finite_vertex_named_when_numpy_raises(self, paraboloid, tmp_path):
        # 0 * inf must not escape as FloatingPointError before the vertex is named.
        _, surf = paraboloid
        values = np.array(surf.positions.values)
        values[2, 3, 1] = np.inf
        path = tmp_path / "inf.obj"
        with pytest.raises(ValueError, match="mesh vertex 9 has a non-finite coordinate 1"), \
                np.errstate(all="raise"):
            export_surface_obj(surf.positions.with_values(values), 1, path)
        assert not path.exists()


class TestStreamingExport:
    def test_non_finite_vertex_in_a_later_band(self, helicoid, tmp_path, monkeypatch):
        _, surf = helicoid
        values = np.array(surf.positions.values)
        values[8, 3, 1] = np.nan
        grid = surf.positions.with_values(values)
        # Corner (8, 3) lies on faces (7, 2) and (7, 3) of the last face row,
        # so the first spoiled lattice point is the lower-left corner of face
        # (7, 2): lattice row 7 * 23, column 2 * 23, on rows of 8 * 23 + 1.
        res, nj = 23, 8 * 23 + 1
        vertex = 7 * res * nj + 2 * res
        monkeypatch.setattr(mesh_module, "_BLOCK_ROWS", 1000)
        assert vertex >= 1000   # not in the first band
        path = tmp_path / "nan.obj"
        with pytest.raises(ValueError) as streamed:
            export_surface_obj(grid, res, path)
        assert str(streamed.value) == f"mesh vertex {vertex} has a non-finite coordinate 1"
        assert not path.exists()

    def test_returns_counts(self, cubic, tmp_path):
        _, surf = cubic
        counts = export_surface_obj(surf, 3, tmp_path / "c.obj")
        assert (counts.vertices, counts.triangles) == (22 * 22, 2 * 21 * 21)
        assert (counts.vertices, counts.triangles, counts.sha256) == tuple(counts)

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
