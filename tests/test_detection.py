"""What ``affmin check`` catches: corruptions of the positions of a valid net.

Each corruption moves positions by ε in units of the median edge h (c is the
centroid of the net and e = max |q - c|):

* noise: seeded Gaussian noise of ε h on every coordinate;
* bump: vertex (n_u // 2, n_v // 2) moves by ε h (0.6, -0.48, 0.64);
* bend: z += ε (x - c_x)^2 / h, a non-affine bend;
* projective: q -> c + (q - c) / (1 + ε (q - c) . (0.3, 0.5, 0.8) / e).

At ε = 1e-8 every corruption fails ``check`` on every example family, with
and without the generating co-normal.  At ε = 1e-12 the data is
rounding-level and every certificate should pass.  The helicoid does for
every corruption, the paraboloid and the sphere for all but noise, and the
cubic for none (its asymptotic certificate fails): the asymptotic zero
residual and the recovery spread are not dimensionless (ROADMAP item 2).
An affine image with det != 1 is a valid net again; it passes ``check`` on
every family but the cubic (asymptotic and recovery), for the same reason.
"""

import numpy as np
import pytest

from affmin.cli import main
from affmin.gridio import read_grid, write_grid

BOXES = {"helicoid": (-8, 8, 0, 16), "cubic": (1, 20, 1, 20), "paraboloid": (-8, 8, -8, 8),
         "sphere": (1, 9, -8, 0)}

ITEM_2 = pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the asymptotic zero residual "
                           "and the recovery spread fail rounding-level data")


def _noise(p, eps, h):
    return p + eps * h * np.random.default_rng(0).standard_normal(p.shape)


def _bump(p, eps, h):
    q = np.array(p)
    q[p.shape[0] // 2, p.shape[1] // 2] += eps * h * np.array([0.6, -0.48, 0.64])
    return q


def _bend(p, eps, h):
    q = np.array(p)
    q[..., 2] += eps * (p[..., 0] - p[..., 0].mean()) ** 2 / h
    return q


def _projective(p, eps, h):
    c = p.reshape(-1, 3).mean(axis=0)
    extent = np.linalg.norm(p - c, axis=-1).max()
    return c + (p - c) / (1.0 + eps * ((p - c) @ [0.3, 0.5, 0.8]) / extent)[..., None]


def _affine_image(p, eps, h):
    linear = np.array([[2.0, 0.3, 0.0], [0.1, 1.5, 0.2], [0.0, -0.4, 0.7]])   # det 2.239
    return p @ linear.T + [1.0, -2.0, 3.0]


CORRUPTIONS = {"noise": _noise, "bump": _bump, "bend": _bend, "projective": _projective}


def check_corrupted(tmp_path, example, corrupt, eps, with_conormal):
    """Exit code of ``check`` on the net of ``example`` with its positions
    replaced by ``corrupt(positions, eps, median edge)``."""
    conormal, surface = tmp_path / "conormal.json", tmp_path / "surface.json"
    assert main(["generate", "--example", example, "--box", *map(str, BOXES[example]),
                 "--out", str(conormal)]) == 0
    assert main(["integrate", "--conormal", str(conormal), "--out", str(surface)]) == 0
    grid = read_grid(surface)
    p = grid.values
    edges = np.concatenate([np.linalg.norm(np.diff(p, axis=k), axis=-1).ravel() for k in (0, 1)])
    write_grid(grid.with_values(corrupt(p, eps, np.median(edges))), surface)
    extra = ["--conormal", str(conormal)] if with_conormal else []
    return main(["check", "--surface", str(surface), *extra,
                 "--report", str(tmp_path / "report.json")])


WITH_CONORMAL = pytest.mark.parametrize("with_conormal", [False, True],
                                        ids=["surface", "with-conormal"])
DEFORMATIONS = ["bump", "bend", "projective"]


@WITH_CONORMAL
@pytest.mark.parametrize("example", list(BOXES))
def test_noise_of_1e_8_edges_fails_check(tmp_path, example, with_conormal):
    assert check_corrupted(tmp_path, example, _noise, 1e-8, with_conormal) == 1


@WITH_CONORMAL
@pytest.mark.parametrize("example", [
    "helicoid",
    pytest.param("cubic", marks=ITEM_2),
    pytest.param("paraboloid", marks=ITEM_2),
    pytest.param("sphere", marks=ITEM_2),
])
def test_noise_of_1e_12_edges_passes_check(tmp_path, example, with_conormal):
    assert check_corrupted(tmp_path, example, _noise, 1e-12, with_conormal) == 0


@WITH_CONORMAL
@pytest.mark.parametrize("example", list(BOXES))
@pytest.mark.parametrize("deformation", DEFORMATIONS)
def test_deformation_of_1e_8_edges_fails_check(tmp_path, deformation, example, with_conormal):
    assert check_corrupted(tmp_path, example, CORRUPTIONS[deformation], 1e-8,
                           with_conormal) == 1


@WITH_CONORMAL
@pytest.mark.parametrize("example", [
    "helicoid",
    pytest.param("cubic", marks=ITEM_2),
    "paraboloid",
    "sphere",
])
@pytest.mark.parametrize("deformation", DEFORMATIONS)
def test_deformation_of_1e_12_edges_passes_check(tmp_path, deformation, example,
                                                 with_conormal):
    assert check_corrupted(tmp_path, example, CORRUPTIONS[deformation], 1e-12,
                           with_conormal) == 0


@pytest.mark.parametrize("example", [
    "helicoid",
    pytest.param("cubic", marks=ITEM_2),
    "paraboloid",
    "sphere",
])
def test_affine_image_passes_check(tmp_path, example):
    assert check_corrupted(tmp_path, example, _affine_image, 0.0, False) == 0
