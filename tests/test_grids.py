import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quermass.grids import (
    build_grid,
    monomial_sphere_integral,
    quadrature,
    sphere_area,
    tangent_frames,
)


@pytest.fixture(scope="module")
def grid3():
    return build_grid(3, 32)


@pytest.fixture(scope="module")
def grid4():
    return build_grid(4, 16)


def test_total_weight_s2(grid3):
    assert abs(grid3.weights.sum() - 4 * math.pi) < 1e-12


def test_total_weight_s3(grid4):
    assert abs(grid4.weights.sum() - 2 * math.pi**2) < 1e-10


def test_nodes_unit_norm(grid3, grid4):
    for g in (grid3, grid4):
        assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) < 1e-14


def test_weights_positive(grid3, grid4):
    for g in (grid3, grid4):
        assert np.all(g.weights > 0)


def test_coordinate_square(grid3):
    # symmetry: integral of x_i^2 is |S^2|/3
    val = quadrature(grid3.nodes[:, 0] ** 2, grid3)
    assert abs(val - 4 * math.pi / 3) < 1e-10


@pytest.mark.parametrize("n,res", [(2, 8), (3, 8), (4, 6), (5, 5)])
def test_monomial_exactness(n, res):
    g = build_grid(n, res)
    rng = np.random.default_rng(20240801 + n)
    for _ in range(12):
        deg = rng.integers(0, min(g.exact_degree, 8) + 1)
        expo = rng.multinomial(deg, np.full(n, 1.0 / n))
        val = quadrature(np.prod(g.nodes**expo, axis=1), g)
        ref = monomial_sphere_integral(expo)
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


def test_refinement_stability():
    # doubling resolution moves the integral of a fixed smooth field by < 1e-9
    f = lambda x: np.exp(x[:, 0]) * (1.0 + 0.3 * x[:, 1] ** 2)
    g1, g2 = build_grid(3, 24), build_grid(3, 48)
    v1 = quadrature(f(g1.nodes), g1)
    v2 = quadrature(f(g2.nodes), g2)
    assert abs(v1 - v2) < 1e-9 * abs(v2)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_grid(1, 16)
    with pytest.raises(ValueError):
        build_grid(3, 3)


@pytest.mark.parametrize("n,res", [(2, 8), (3, 10), (4, 6), (5, 5)])
def test_frames_orthonormal_tangent(n, res):
    g = build_grid(n, res)
    fr = tangent_frames(g)
    assert fr.shape == (g.num_nodes, n - 1, n)
    # tangency: frame rows orthogonal to the node vector
    dots = np.einsum("ikj,ij->ik", fr, g.nodes)
    assert np.max(np.abs(dots)) < 1e-12
    # orthonormality among rows
    gram = np.einsum("ikj,ilj->ikl", fr, fr)
    eye = np.eye(n - 1)
    assert np.max(np.abs(gram - eye)) < 1e-12


def test_exact_degree_declared(grid3):
    assert grid3.exact_degree == 63
    assert grid3.max_degree == 31


def _mesh_grid_oracle(n, res):
    """Nodes, weights and tangent frames built from full angle meshes, the
    construction build_grid and tangent_frames used before they switched
    to per-axis factors."""
    from quermass.grids import jacobi_rule
    t_axes = [jacobi_rule(res, (n - 2 - k) / 2.0)[0] for k in range(1, n - 1)]
    w_axes = [jacobi_rule(res, (n - 2 - k) / 2.0)[1] for k in range(1, n - 1)]
    phi = 2.0 * math.pi * np.arange(2 * res) / (2 * res)
    mesh = np.meshgrid(*[np.arccos(t) for t in t_axes], phi, indexing="ij")
    sin_prod = np.ones_like(mesh[0])
    coords = []
    for j in range(n - 1):
        coords.append(sin_prod * np.cos(mesh[j]))
        sin_prod = sin_prod * np.sin(mesh[j])
    coords.append(sin_prod)
    nodes = np.stack([c.ravel() for c in coords], axis=1)
    wmesh = np.meshgrid(*w_axes, np.full(2 * res, 2.0 * math.pi / (2 * res)), indexing="ij")
    weights = np.ones_like(wmesh[0])
    for w in wmesh:
        weights = weights * w
    shape = mesh[0].shape
    x = nodes.reshape(shape + (n,))
    frames = np.zeros(shape + (n - 1, n))
    sin_prod = np.ones(shape)
    for k in range(n - 2):
        c, s = np.cos(mesh[k]), np.sin(mesh[k])
        frames[..., k, k] = -s
        ratio = c / (s * sin_prod)
        for j in range(k + 1, n):
            frames[..., k, j] = x[..., j] * ratio
        sin_prod = sin_prod * s
    frames[..., n - 2, n - 2] = -np.sin(mesh[n - 2])
    frames[..., n - 2, n - 1] = np.cos(mesh[n - 2])
    return nodes, weights.ravel(), frames.reshape(-1, n - 1, n)


@pytest.mark.parametrize("n, res", [(3, 4), (3, 37), (3, 160), (4, 12), (5, 7)])
def test_grid_is_bit_identical_to_the_mesh_construction(n, res):
    nodes, weights, frames = _mesh_grid_oracle(n, res)
    g = build_grid(n, res)
    assert g.nodes.tobytes() == nodes.tobytes()
    assert g.weights.tobytes() == weights.tobytes()
    assert tangent_frames(g).tobytes() == frames.tobytes()
