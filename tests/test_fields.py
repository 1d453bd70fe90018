import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quermass import fields, harmonics
from quermass.grids import build_grid, quadrature, tangent_frames


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 32)


def unit_coeffs(L, l, m_index):
    c = np.zeros(harmonics.coeff_count(L))
    c[harmonics.flat_index(l, m_index)] = 1.0
    return c


def test_constant_mode_is_normalized(grid):
    f = fields.synthesize(unit_coeffs(0, 0, 0), grid)
    assert_allclose(f.values, 1.0 / math.sqrt(4 * math.pi), rtol=0, atol=1e-14)


def test_orthonormality(grid):
    L = 16
    K = harmonics.coeff_count(L)
    basis = np.empty((K, grid.num_nodes))
    for a in range(K):
        c = np.zeros(K)
        c[a] = 1.0
        basis[a] = harmonics.sh_synthesize(grid, c)
    gram = basis @ (grid.weights[:, None] * basis.T)
    assert np.max(np.abs(gram - np.eye(K))) < 1e-10


def test_roundtrip_identity(grid):
    rng = np.random.default_rng(7)
    L = 12
    c = rng.standard_normal(harmonics.coeff_count(L))
    f = fields.synthesize(c, grid)
    c2 = fields.analyze(f, L).coeffs
    assert np.max(np.abs(c2 - c)) < 1e-10


def test_parseval(grid):
    rng = np.random.default_rng(8)
    L = 10
    c = rng.standard_normal(harmonics.coeff_count(L))
    f = fields.synthesize(c, grid)
    assert_allclose(quadrature(f.values**2, grid), np.sum(c**2), rtol=1e-9)


def test_coordinate_function_is_degree_one(grid):
    f = fields.analyze(fields.ScalarField(grid, grid.nodes[:, 0]), L=6)
    c = f.coeffs
    nonzero = np.flatnonzero(np.abs(c) > 1e-10)
    assert list(nonzero) == [harmonics.flat_index(1, 0)]
    # x1 = cos(theta) = sqrt(4 pi / 3) Y_{1,0}
    assert_allclose(c[1], math.sqrt(4 * math.pi / 3), rtol=1e-12)


def test_eigenfunction_laplacian(grid):
    for l, m_index in [(0, 0), (1, 2), (2, 3), (5, 7), (9, 0)]:
        f = fields.synthesize(unit_coeffs(9, l, m_index), grid)
        lap = fields.laplacian(f)
        assert np.max(np.abs(lap.values + l * (l + 1) * f.values)) < 1e-8


def test_gradient_tangency_and_norm(grid):
    f = fields.analyze(fields.ScalarField(grid, grid.nodes[:, 0]), L=4)
    g = fields.gradient(f)
    assert np.max(np.abs(np.einsum("ij,ij->i", g, grid.nodes))) < 1e-10
    val = quadrature(np.einsum("ij,ij->i", g, g), grid)
    assert_allclose(val, 8 * math.pi / 3, rtol=1e-9)


def test_constant_has_zero_derivatives(grid):
    f = fields.analyze(fields.constant_field(grid, 3.7), L=4)
    assert np.max(np.abs(fields.gradient(f))) < 1e-12
    assert np.max(np.abs(fields.hessian_frame(f))) < 1e-12


def test_hessian_trace_is_laplacian(grid):
    rng = np.random.default_rng(9)
    f = fields.random_band_limited(grid, 10, rng)
    h = fields.hessian_frame(f)
    lap = fields.laplacian(f)
    assert np.max(np.abs(np.trace(h, axis1=1, axis2=2) - lap.values)) < 1e-8


def test_hessian_of_degree_one_field(grid):
    # covariant Hessian of x1 restricted to the sphere is -x1 * metric
    f = fields.analyze(fields.ScalarField(grid, grid.nodes[:, 0]), L=4)
    h = fields.hessian_frame(f)
    x1 = grid.nodes[:, 0]
    assert np.max(np.abs(h[:, 0, 0] + x1)) < 1e-9
    assert np.max(np.abs(h[:, 1, 1] + x1)) < 1e-9
    assert np.max(np.abs(h[:, 0, 1])) < 1e-9


def test_integration_by_parts(grid):
    rng = np.random.default_rng(10)
    f = fields.random_band_limited(grid, 8, rng)
    g = fields.random_band_limited(grid, 8, rng)
    lhs = quadrature(f.values * fields.laplacian(g).values, grid)
    rhs = quadrature(np.einsum("ij,ij->i", fields.gradient(f), fields.gradient(g)), grid)
    assert abs(lhs + rhs) < 1e-8


def test_split_frequencies(grid):
    L = 6
    c = np.zeros(harmonics.coeff_count(L))
    c[harmonics.flat_index(1, 1)] = 0.5
    c[harmonics.flat_index(2, 0)] = 1.0
    c[harmonics.flat_index(5, 3)] = 0.25
    f = fields.synthesize(c, grid)
    lo, hi = fields.split_frequencies(f, lam=7.0)  # 2n+1 for n=3
    assert np.max(np.abs(lo.values + hi.values - f.values)) < 1e-10
    # the high part carries exactly the l=5 piece
    num = quadrature(np.einsum("ij,ij->i", fields.gradient(hi), fields.gradient(hi)), grid)
    den = quadrature(hi.values**2, grid)
    assert_allclose(num / den, 30.0, rtol=1e-8)


def test_split_degenerate_cases(grid):
    f = fields.analyze(fields.ScalarField(grid, grid.nodes[:, 0]), L=4)
    lo, hi = fields.split_frequencies(f, lam=3.0)  # n = 3: eigenvalue 2 < 3
    assert np.max(np.abs(hi.values)) < 1e-12
    lo, hi = fields.split_frequencies(f, lam=0.5)
    assert np.max(np.abs(lo.values)) < 1e-12
    with pytest.raises(ValueError):
        fields.split_frequencies(f, lam=-1.0)


def test_quadrature_matches_monte_carlo(grid):
    L = 4
    c = np.zeros(harmonics.coeff_count(L))
    c[harmonics.flat_index(2, 0)] = 0.1
    f = fields.synthesize(c, grid)
    val = quadrature((1.0 + f.values) ** 3, grid)

    rng = np.random.default_rng(20240811)
    pts = rng.standard_normal((1_000_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    y20 = math.sqrt(5.0 / (16 * math.pi)) * (3 * pts[:, 0] ** 2 - 1)
    samples = (1.0 + 0.1 * y20) ** 3
    area = 4 * math.pi
    mc = samples.mean() * area
    sigma = samples.std(ddof=1) / math.sqrt(len(samples)) * area
    assert abs(val - mc) < 3 * sigma


def test_analysis_rejects_excessive_truncation(grid):
    f = fields.constant_field(grid, 1.0)
    with pytest.raises(ValueError):
        fields.analyze(f, L=grid.max_degree + 1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("derivative", [fields.grad_frame, fields.hessian_frame,
                                        fields.laplacian])
def test_a_field_with_values_only_has_no_derivatives(n, derivative):
    g = build_grid(n, 16)
    f = fields.ScalarField(g, g.nodes[:, 0])
    with pytest.raises(ValueError, match="fields.analyze"):
        derivative(f)
    derivative(fields.analyze(f))


def test_values_at_points_match_grid(grid):
    rng = np.random.default_rng(12)
    f = fields.random_band_limited(grid, 8, rng)
    vals = harmonics.sh_values_at_points(f.coeffs, grid.nodes)
    assert np.max(np.abs(vals - f.values)) < 1e-10


def test_circle_roundtrip_and_laplacian():
    g = build_grid(2, 16)
    rng = np.random.default_rng(13)
    c = rng.standard_normal(2 * 5 + 1)
    f = fields.synthesize(c, g)
    c2 = fields.analyze(f, L=5).coeffs
    assert np.max(np.abs(c2 - c)) < 1e-12
    lap = fields.laplacian(f)
    # mode k has eigenvalue k^2 on the circle
    f1 = fields.synthesize(np.array([0.0, 1.0, 0.0]), g)
    lap1 = fields.laplacian(f1)
    assert np.max(np.abs(lap1.values + f1.values)) < 1e-12
