import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import nnls

from quermass import deficits, fields, geometry, harmonics, stardomain
from quermass.fields import ScalarField
from quermass.grids import build_grid, quadrature
from quermass.stardomain import StarDomain, fields_affine


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 32)


def ball(grid, c=0.0):
    f = fields.analyze(fields.constant_field(grid, c), L=4)
    return StarDomain(f)


def translated_ball_profile(grid, t):
    """Radial profile of the unit ball centered at t*e1, or at t for a vector t."""
    if np.ndim(t) == 0:
        x1 = grid.nodes[:, 0]
        vals = t * x1 + np.sqrt(1.0 - t * t + t * t * x1**2) - 1.0
    else:
        x = grid.nodes @ t
        vals = x + np.sqrt(1.0 - t @ t + x**2) - 1.0
    return fields.analyze(ScalarField(grid, vals))


def band_limited_domain(grid, seed, amp=0.05, L=8):
    rng = np.random.default_rng(seed)
    f = fields.random_band_limited(grid, L, rng)
    f = fields_affine(f, amp / np.max(np.abs(f.values)), 0.0)
    return StarDomain(f)


def test_unit_ball_functionals(grid):
    K = ball(grid)
    assert_allclose(K.volume(), 4 * math.pi / 3, rtol=1e-12)
    assert_allclose(K.perimeter(), 4 * math.pi, rtol=1e-12)
    F = K.curvature_integrals()
    assert_allclose(F.int_H, 8 * math.pi, rtol=1e-10)
    assert_allclose(F.int_nuclear, 8 * math.pi, rtol=1e-10)
    assert_allclose(F.int_sigma[1], 4 * math.pi, rtol=1e-10)
    b = K.curvatures()
    assert np.max(np.abs(b.H - 2.0)) < 1e-10
    assert np.max(np.abs(b.II_eigenvalues - 1.0)) < 1e-10
    assert K.eps_size()[0] <= 1e-14


def test_round_sphere_scaling(grid):
    c = 0.3
    K = ball(grid, c)
    assert_allclose(K.volume(), (1 + c) ** 3 * 4 * math.pi / 3, rtol=1e-12)
    assert_allclose(K.perimeter(), (1 + c) ** 2 * 4 * math.pi, rtol=1e-12)
    b = K.curvatures()
    assert np.max(np.abs(b.H - 2.0 / (1 + c))) < 1e-10
    nu = K.normal_field()
    assert np.max(np.linalg.norm(nu - grid.nodes, axis=1)) < 1e-10


def test_normal_is_unit(grid):
    K = band_limited_domain(grid, 4)
    nu = K.normal_field()
    assert np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0)) < 1e-12


def test_translated_ball_curvatures(grid):
    t = 0.1
    K = StarDomain(translated_ball_profile(grid, t))
    bundle = K.curvatures()
    # every principal curvature of a translated unit sphere is 1
    assert np.max(np.abs(bundle.II_eigenvalues - 1.0)) < 1e-9
    assert np.max(np.abs(bundle.H - 2.0)) < 1e-9
    assert_allclose(K.volume(), 4 * math.pi / 3, rtol=1e-11)
    assert_allclose(K.barycenter(), [t, 0, 0], atol=1e-10)
    eps, center = K.eps_size()
    assert eps < 1e-6
    assert_allclose(center, [t, 0, 0], atol=1e-5)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([0.05, 0.1, 0.3]),
       s=st.floats(0.5, 2.0))
def test_eps_size_is_scale_invariant(grid, seed, eps, s):
    K = deficits.random_domain(3, eps, seed=seed, grid=grid)
    value, center = K.eps_size()
    scaled_value, scaled_center = K.scaled(s).eps_size()
    assert abs(scaled_value - value) <= 1e-12 * value
    assert np.max(np.abs(scaled_center - s * center)) <= 1e-9 * s


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), length=st.floats(0.0, 0.15))
def test_translated_ball_eps_size_finds_the_center(grid, seed, length):
    direction = np.random.default_rng(seed).standard_normal(3)
    t = length * direction / np.linalg.norm(direction)
    eps, center = StarDomain(translated_ball_profile(grid, t)).eps_size()
    assert eps <= 1e-6
    assert np.max(np.abs(center - t)) <= 1e-5


def test_mean_curvature_routes_agree():
    # the divergence route needs the grid to resolve the profile's
    # nonlinearity: degree cap 6 at amplitude 0.2 wants resolution ~ 64
    grid = build_grid(3, 64)
    K = band_limited_domain(grid, 7, amp=0.2, L=6)
    b = K.curvatures()
    assert b.max_route_disagreement < 1e-7


def test_route_disagreement_decays_with_resolution():
    vals = []
    for res in (24, 48):
        grid = build_grid(3, res)
        K = band_limited_domain(grid, 7, amp=0.25, L=6)
        import warnings as _w
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            vals.append(K.curvatures().max_route_disagreement)
    assert vals[1] < vals[0] / 50


def test_trace_of_shape_operator_is_H(grid):
    K = band_limited_domain(grid, 11, amp=0.25)
    b = K.curvatures(check_routes=False)
    tr = np.trace(b.second_fundamental, axis1=1, axis2=2)
    assert np.max(np.abs(tr - b.H)) < 1e-12


def test_volume_against_monte_carlo(grid):
    c = np.zeros(harmonics.coeff_count(4))
    c[harmonics.flat_index(2, 0)] = 0.05
    K = StarDomain(fields.synthesize(c, grid))
    val = K.volume()

    rng = np.random.default_rng(404)
    pts = rng.standard_normal((1_000_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    y20 = math.sqrt(5 / (16 * math.pi)) * (3 * pts[:, 0] ** 2 - 1)
    radii = (1 + 0.05 * y20) ** 3
    mc = radii.mean() * 4 * math.pi / 3
    sigma = radii.std(ddof=1) / math.sqrt(len(radii)) * 4 * math.pi / 3
    assert abs(val - mc) < 3 * sigma


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from(["grid", 3, 4, 5]), seed=st.integers(0, 2**32 - 1),
       s=st.floats(0.5, 2.0))
def test_scaling_covariance(grid, dim, seed, s):
    # "grid": a StarDomain on the n = 3 grid; 3-5: an AxialDomain in that n
    K = (band_limited_domain(grid, seed, amp=0.1) if dim == "grid"
         else deficits.random_domain(dim, 0.1, seed=seed, zonal=True))
    n = K.n
    F = K.curvature_integrals()
    Fs = K.scaled(s).curvature_integrals()
    assert_allclose(Fs.volume, s**n * F.volume, rtol=1e-8)
    assert_allclose(Fs.perimeter, s ** (n - 1) * F.perimeter, rtol=1e-8)
    assert_allclose(Fs.int_H, s ** (n - 2) * F.int_H, rtol=1e-8)
    # int sigma_k scales as s^(n-1-k); the Gauss-Kronecker one is invariant
    k = np.arange(1, n)
    assert_allclose(Fs.int_sigma, s ** (n - 1.0 - k) * F.int_sigma, rtol=1e-8)


def test_gradient_frame_is_computed_once_per_domain(grid, monkeypatch):
    K = band_limited_domain(grid, 7, amp=0.1)
    normals = geometry.outward_normal(grid.nodes, K.profile.values,
                                      fields.gradient(K.profile))
    calls, grad_frame = [], fields.grad_frame
    monkeypatch.setattr(fields, "grad_frame", lambda f: calls.append(f) or grad_frame(f))
    K.perimeter()
    K.curvatures(check_routes=False)
    K.profile_quadratics()
    K.deviation_mean_square(np.zeros(3))
    K.gradient_normal_report()
    assert np.array_equal(K.normal_field(), normals)
    assert sum(f is K.profile for f in calls) == 1


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rotation_invariance(grid, seed):
    R, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    if np.linalg.det(R) < 0:
        R[:, 0] *= -1

    K = band_limited_domain(grid, 31, amp=0.1)
    KR = K.rotated(R)
    F = K.curvature_integrals()
    FR = KR.curvature_integrals()
    assert_allclose(FR.volume, F.volume, rtol=1e-9)
    assert_allclose(FR.perimeter, F.perimeter, rtol=1e-9)
    assert_allclose(FR.int_H, F.int_H, rtol=1e-8)
    assert_allclose(FR.int_sigma[1], F.int_sigma[1], rtol=1e-8)
    # |.|-type integrands have kinks where a principal curvature crosses
    # zero; a rotation moves the kink relative to the nodes, so these are
    # grid-exact only when the sign is uniform (3.5e-6 the largest seen
    # over 300 random rotations)
    assert_allclose(FR.int_nuclear, F.int_nuclear, rtol=1e-5)

    Kc = band_limited_domain(grid, 31, amp=0.02)
    KcR = Kc.rotated(R)
    Fc = Kc.curvature_integrals()
    FcR = KcR.curvature_integrals()
    assert Fc.is_convex
    assert_allclose(FcR.int_nuclear, Fc.int_nuclear, rtol=1e-8)
    assert_allclose(FcR.int_H_plus, Fc.int_H_plus, rtol=1e-8)


def test_nuclear_dominates_mean_curvature(grid):
    K = band_limited_domain(grid, 41, amp=0.3)
    b = K.curvatures(check_routes=False)
    assert np.all(b.nuclear >= np.abs(b.H) - 1e-12)
    F = K.curvature_integrals()
    assert F.int_nuclear >= abs(F.int_H)
    # convex domain: nuclear norm integral equals mean curvature integral
    Kc = band_limited_domain(grid, 43, amp=0.01)
    Fc = Kc.curvature_integrals()
    assert Fc.is_convex
    assert_allclose(Fc.int_nuclear, Fc.int_H, rtol=1e-9)


def test_gradient_normal_report(grid):
    K = ball(grid)
    rep = K.gradient_normal_report()
    assert rep["within_bound"]
    assert rep["pointwise_grad_over_dev"] == 0.0

    x3 = fields.analyze(ScalarField(grid, 0.05 * grid.nodes[:, 2]))
    K2 = StarDomain(x3)
    rep2 = K2.gradient_normal_report()
    assert rep2["within_bound"]
    assert 0 < rep2["pointwise_grad_over_dev"] < 2.0
    assert 0 < rep2["mean_square_dev_over_grad"] < 2.0


def test_gradient_normal_randomized_suite(grid):
    for seed in range(20):
        K = band_limited_domain(grid, 100 + seed, amp=0.08)
        assert K.gradient_normal_report()["within_bound"]


def test_translated_recenters(grid):
    K = StarDomain(translated_ball_profile(grid, 0.07))
    K0 = K.translated(K.barycenter())
    assert np.linalg.norm(K0.barycenter()) < 1e-9
    assert np.max(np.abs(K0.profile.values)) < 1e-9  # back to the unit ball


def test_rejects_non_star_shaped(grid):
    vals = np.full(grid.num_nodes, -1.5)
    with pytest.raises(ValueError):
        StarDomain(ScalarField(grid, vals))


def test_deviation_mean_square_is_the_jacobian_weighted_mean(grid):
    f = translated_ball_profile(grid, 0.1)
    K = StarDomain(f)
    for center in (np.zeros(3), np.array([0.1, 0.0, 0.0]), np.array([0.0, 0.02, -0.03])):
        dev = K.deviation_values(center)
        g = fields.grad_frame(f)
        J = geometry.area_jacobian(f.values, np.einsum("ik,ik->i", g, g), 3)
        assert K.deviation_mean_square(center) == (quadrature(dev**2 * J, grid)
                                                   / quadrature(J, grid))
    assert K.deviation_mean_square(np.array([0.1, 0.0, 0.0])) < 1e-12


def _nnls_problem(seed):
    """A seeded NNLS problem of at most 6 rows: full rank, rank-deficient,
    with repeated columns, or with a zero residual (kind = seed % 4)."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(2, 7)), int(rng.integers(1, 40))
    kind = seed % 4
    if kind == 1:
        r = int(rng.integers(1, m))
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, k))
    else:
        a = rng.standard_normal((m, k))
    if kind == 2:
        a = np.hstack([a, a[:, : k // 2 + 1]])
    b = rng.standard_normal(m)
    if kind == 3:
        b = a @ np.abs(rng.standard_normal(a.shape[1]))
    return a, b


@pytest.mark.parametrize("seed", range(120))
def test_nnls_matches_scipy(seed):
    # the residual norm is unique where the solution need not be; a zero
    # residual comes out at rounding level on both sides
    a, b = _nnls_problem(seed)
    want = nnls(a, b)[1]
    rng = np.random.default_rng(seed + 1000)
    for passive in ([], [j for j in range(a.shape[1]) if rng.random() < 0.2]):
        x, kept = stardomain._nnls(a, b, passive)
        assert np.min(x) >= 0.0 and np.all(x[kept] > 0.0)
        assert np.count_nonzero(x) == len(kept) <= len(a)
        got = float(np.linalg.norm(a @ x - b))
        assert abs(got - want) <= 1e-12 * want + 1e-14 * np.max(np.abs(b))


def test_ball_centers_raise_no_warning(grid):
    # the active rows' gradients of a ball and a translated ball are at
    # rounding level: their certificates come out with no 0/0 warning,
    # and gradients that are all 0 take uniform weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for K in (ball(grid), ball(grid, 0.2),
                  StarDomain(translated_ball_profile(grid, 0.05))):
            assert K.eps_size()[0] <= 1e-6
            assert K.center_certificate().residual <= 1e-10
        assert stardomain._hull_point(np.zeros((3, 3))) == (0.0, pytest.approx([1 / 3] * 3))
