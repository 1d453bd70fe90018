import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar
from scipy.special import roots_jacobi

from quermass import axisym, fields, geometry
from quermass.analytic import zonal_field
from quermass.axisym import AxialDomain, AxialProfile
from quermass.conjecture import ZonalBackend
from quermass.counterexample import make_bump
from quermass.grids import build_grid, jacobi_rule, sphere_area
from quermass.harmonics import ZonalBasis
from quermass.stardomain import StarDomain


def const_profile(n, c, resolution=256):
    coeffs = np.array([c * math.sqrt(sphere_area(n))])
    return AxialProfile.from_zonal_coeffs(n, coeffs, resolution=resolution)


def random_zonal(n, seed, amp=0.05, L=10, resolution=256):
    rng = np.random.default_rng(seed)
    c = np.zeros(L + 1)
    for l in range(1, L + 1):
        c[l] = rng.standard_normal() * l**-2.0
    prof = AxialProfile.from_zonal_coeffs(n, c, resolution=resolution)
    scale = amp / prof.c1_norm()
    return AxialProfile.from_zonal_coeffs(n, scale * c, resolution=resolution)


def test_coarea_closed_forms():
    assert_allclose(axisym.coarea_integral(lambda th: np.ones_like(th), 3),
                    4 * math.pi, rtol=1e-12)
    assert abs(axisym.coarea_integral(np.cos, 4)) < 1e-12
    assert_allclose(axisym.coarea_integral(lambda th: np.cos(th) ** 2, 3),
                    4 * math.pi / 3, rtol=1e-12)


def test_zonal_basis_orthonormal():
    for n in (3, 4, 5):
        basis = ZonalBasis(n, 12)
        prof = AxialProfile.from_zonal_coeffs(n, np.zeros(13), resolution=64)
        Z = basis.values(prof.t)
        gram = sphere_area(n - 1) * (Z * prof.w) @ Z.T
        assert np.max(np.abs(gram - np.eye(13))) < 1e-10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_round_sphere(n):
    prof = const_profile(n, 0.0)
    rec = axisym.axial_curvature(prof)
    assert np.max(np.abs(rec["H"] - (n - 1.0))) < 1e-10
    F = axisym.axial_functionals(prof)
    assert_allclose(F.volume, sphere_area(n) / n, rtol=1e-11)
    assert_allclose(F.perimeter, sphere_area(n), rtol=1e-11)
    assert_allclose(F.int_H, (n - 1) * sphere_area(n), rtol=1e-11)


def test_s3_mean_curvature_integral():
    F = axisym.axial_functionals(const_profile(4, 0.0))
    assert_allclose(F.int_H, 6 * math.pi**2, rtol=1e-11)


@pytest.mark.parametrize("n", [3, 5])
def test_round_sphere_radius(n):
    c = 0.2
    rec = axisym.axial_curvature(const_profile(n, c))
    assert np.max(np.abs(rec["H"] - (n - 1.0) / (1 + c))) < 1e-10


def test_degree_one_zonal_matches_2d_grid():
    # V = eps * cos(theta) lifted to the full 2-D pipeline
    eps = 0.05
    basis = ZonalBasis(3, 1)
    c = np.zeros(2)
    c[1] = eps / basis.values(np.array([1.0]))[1, 0]  # so V(0) = eps
    prof = AxialProfile.from_zonal_coeffs(3, c)
    grid = build_grid(3, 32)
    K = StarDomain(axisym.lift_to_sphere(prof, grid))
    b = K.curvatures(check_routes=False)
    theta = np.arccos(np.clip(grid.nodes[:, 0], -1, 1))
    H_1d = axisym.axial_curvature(prof, theta)["H"]
    assert np.max(np.abs(b.H - H_1d)) < 1e-6

    F2 = K.curvature_integrals(check_routes=False)
    F1 = axisym.axial_functionals(prof)
    assert_allclose(F1.volume, F2.volume, rtol=1e-10)
    assert_allclose(F1.perimeter, F2.perimeter, rtol=1e-10)
    assert_allclose(F1.int_H, F2.int_H, rtol=1e-10)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_zonal_matches_2d_grid(seed):
    prof = random_zonal(3, seed, amp=0.15, L=8)
    grid = build_grid(3, 32)
    K = StarDomain(axisym.lift_to_sphere(prof, grid))
    F2 = K.curvature_integrals(check_routes=False)
    F1 = axisym.axial_functionals(prof)
    for name in ("volume", "perimeter", "int_H", "int_H_plus", "int_nuclear"):
        assert_allclose(getattr(F1, name), getattr(F2, name), rtol=1e-6)


def test_reflection_symmetry():
    prof = random_zonal(4, 9, amp=0.1, L=9)
    flipped = prof.coeffs * np.where(np.arange(len(prof.coeffs)) % 2 == 1, -1.0, 1.0)
    prof_r = AxialProfile.from_zonal_coeffs(4, flipped, resolution=prof.resolution)
    F, FR = axisym.axial_functionals(prof), axisym.axial_functionals(prof_r)
    for name in ("volume", "perimeter", "int_H", "int_H_plus", "int_nuclear"):
        assert_allclose(getattr(F, name), getattr(FR, name), rtol=1e-10)


def test_pole_slope_vanishes():
    prof = random_zonal(3, 21, amp=0.2, L=12)
    assert abs(prof.slope(np.array([0.0]))[0]) < 1e-10
    assert abs(prof.slope(np.array([math.pi]))[0]) < 1e-10


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 4, 5]),
       raw=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                    min_size=2, max_size=13))
def test_zonal_laplacian_at_and_near_the_poles(n, raw):
    # Gauss nodes avoid the poles, so this is the only check of the pole
    # limit: V' cot(theta) -> V'' gives lap V = (n-1) V'' there
    basis = ZonalBasis(n, len(raw) - 1)
    peak = np.abs(basis.values(np.array([1.0]))[:, 0])   # max over t of |Z_l|
    c = np.array(raw)
    assume(np.sum(np.abs(c[1:]) * peak[1:]) > 1e-3)
    c *= 0.5 / np.sum(np.abs(c) * peak)                  # |V| <= 1/2
    prof = AxialProfile.from_zonal_coeffs(n, c, resolution=64)
    theta = np.array([0.0, 1e-13, 1e-7, 1.0, math.pi - 1e-7, math.pi])
    oracle = -(c * basis.eigenvalues) @ basis.values(np.cos(theta))
    tol = 1e-13 * np.sum(np.abs(c) * basis.eigenvalues * peak)

    lap = axisym.axial_curvature(prof, theta)["laplacian"]
    assert np.max(np.abs(lap - oracle)) <= tol

    ends = [0, 3, 5]
    points = np.zeros((3, n))
    points[:, 0], points[:, 1] = np.cos(theta[ends]), np.sin(theta[ends])
    field = zonal_field(prof.value, prof.slope, prof.curvature_slope, n=n)
    lap = field.scalar_invariants(points, n)[2]
    assert np.max(np.abs(lap - oracle[ends])) <= tol


def test_pole_gradient_bound_sphere_and_mean_convex():
    rep = axisym.pole_gradient_bound(const_profile(3, 0.0), theta0=0.3)
    assert rep["constants"][3.0]["north_margin"] >= 0
    assert rep["constants"][3.0]["south_margin"] >= 0

    prof = random_zonal(3, 33, amp=0.02, L=6)
    F = axisym.axial_functionals(prof)
    assert F.min_principal_curvature > 0  # mean-convex, in fact convex
    rep = axisym.pole_gradient_bound(prof)
    assert rep["constants"][3.0]["north_margin"] >= 0
    assert rep["constants"][3.0]["south_margin"] >= 0


def test_circle_cubic_identity():
    rng = np.random.default_rng(44)
    m = 256
    phi = 2 * math.pi * np.arange(m) / m
    vals = sum(rng.standard_normal() * np.cos(k * phi + rng.uniform(0, 2 * math.pi))
               for k in range(1, 9))
    assert abs(axisym.periodic_cubic_integral(vals)) < 1e-10


def test_axial_domain_scaling_and_recentering():
    prof = random_zonal(4, 55, amp=0.05, L=8)
    K = AxialDomain(prof)
    F = K.functionals()
    Ks = K.scaled(2.0)
    Fs = Ks.functionals()
    assert_allclose(Fs.volume, 2.0**4 * F.volume, rtol=1e-9)
    assert_allclose(Fs.perimeter, 2.0**3 * F.perimeter, rtol=1e-9)
    assert_allclose(Fs.int_H, 2.0**2 * F.int_H, rtol=1e-9)

    b = K.barycenter()
    K0 = K.translated(b)
    assert abs(K0.barycenter()[0]) < 1e-8


def test_axial_eps_size_of_offset_ball():
    # profile of a ball centered at 0.05 e1: eps-size should optimize to ~0
    t = 0.05

    def f(th):
        return t * np.cos(th) + np.sqrt(1 - t**2 + t**2 * np.cos(th) ** 2) - 1.0

    def fd(th):
        c, s = np.cos(th), np.sin(th)
        return -t * s - t**2 * c * s / np.sqrt(1 - t**2 + t**2 * c**2)

    def fdd(th):
        h = 1e-6
        th = np.asarray(th)
        return (fd(th + h) - fd(th - h)) / (2 * h)

    prof = AxialProfile.from_callables(3, f, fd, fdd)
    K = AxialDomain(prof)
    eps, center = K.eps_size()
    assert eps < 1e-6
    assert abs(center[0] - t) < 1e-4


def test_from_values_roundtrip():
    prof = random_zonal(5, 77, amp=0.1, L=10)
    theta = np.linspace(0.05, math.pi - 0.05, 200)
    vals = prof.value(theta)
    prof2 = AxialProfile.from_values(5, theta, vals, degree=10)
    assert np.max(np.abs(prof2.value(theta) - vals)) < 1e-9
    assert np.max(np.abs(prof2.slope(theta) - prof.slope(theta))) < 1e-8


def test_zonal_eigenfunction_relation():
    # a single zonal mode satisfies lap(u) = -l(l+n-2) u pointwise
    for n, l in ((3, 4), (4, 3), (5, 2)):
        c = np.zeros(l + 1)
        c[l] = 0.01
        prof = AxialProfile.from_zonal_coeffs(n, c, resolution=128)
        rec = axisym.axial_curvature(prof)
        lam = l * (l + n - 2.0)
        resid = rec["laplacian"] + lam * rec["V"]
        assert np.max(np.abs(resid)) < 1e-8 * lam * np.max(np.abs(rec["V"]))


# -- exactness oracles for the zonal center optimizer ------------------------------


def old_deviation(offset, theta, V, Vd):
    """The deviation as first written: all geometry recomputed per offset."""
    opu = 1.0 + V
    v = Vd / opu
    s = np.sqrt(1.0 + v * v)
    nu1 = (np.cos(theta) + v * np.sin(theta)) / s
    nu2 = (np.sin(theta) - v * np.cos(theta)) / s
    p1 = opu * np.cos(theta) - offset
    p2 = opu * np.sin(theta)
    norm = np.hypot(p1, p2)
    return np.hypot(nu1 - p1 / norm, nu2 - p2 / norm)


def old_eps_size(K, optimize_center):
    theta = np.linspace(0.0, math.pi, 4096)
    V, Vd = K.profile.value(theta), K.profile.slope(theta)

    def objective(b):
        return float(np.max(old_deviation(b, theta, V, Vd)))

    seed = K.barycenter()[0]
    if optimize_center:
        res = minimize_scalar(objective, bounds=(seed - 0.3, seed + 0.3),
                              method="bounded", options={"xatol": 1e-11})
        best_b = res.x if res.fun < objective(seed) else seed
    else:
        best_b = seed
    return objective(best_b), best_b


def old_deviation_mean_square(K, offset):
    theta, w = K.profile.quadrature_rule()
    V, Vd = K.profile.value(theta), K.profile.slope(theta)
    dev = old_deviation(offset, theta, V, Vd)
    J = geometry.area_jacobian(V, Vd * Vd, K.n)
    return float(np.sum(w * J * dev**2) / np.sum(w * J))


def assert_matches_oracle(K):
    for optimize in (True, False):
        eps, center = K.eps_size(optimize)
        eps_old, b_old = old_eps_size(K, optimize)
        assert eps == eps_old
        assert center[0] == b_old and not np.any(center[1:])
        for offset in (center[0], center[0] + 0.01):
            assert (K.deviation_mean_square([offset] + [0.0] * (K.n - 1))
                    == old_deviation_mean_square(K, offset))


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), seed=st.integers(0, 2**32 - 1),
       amp=st.floats(0.01, 0.2))
def test_zonal_eps_size_is_bit_identical_to_the_oracle(n, seed, amp):
    assert_matches_oracle(AxialDomain(random_zonal(n, seed, amp=amp, L=8)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dent_eps_size_is_bit_identical_to_the_oracle(n):
    bump = make_bump(20.0, 0.3)
    K = AxialDomain(bump.axial_profile(n))
    assert_matches_oracle(K)
    assert_matches_oracle(K.scaled(1.1))


@pytest.mark.parametrize("resolution, alpha", [(16, 0.0), (64, 0.5), (256, 1.0),
                                               (512, 0.5), (7, 1.5)])
def test_jacobi_rule_is_the_cached_read_only_gauss_jacobi_rule(resolution, alpha):
    t, w = jacobi_rule(resolution, alpha)
    t_ref, w_ref = roots_jacobi(resolution, alpha, alpha)
    assert np.array_equal(t, t_ref) and np.array_equal(w, w_ref)
    again = jacobi_rule(resolution, alpha)
    assert again[0] is t and again[1] is w
    for arr in (t, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_every_zonal_rule_comes_from_jacobi_rule():
    t, w = jacobi_rule(256, 0.5)
    prof = random_zonal(4, 3)
    assert prof.t is t and prof.w is w
    backend = ZonalBackend(4, 12, resolution=256)
    assert backend.t is t and backend.w is w
    grid = build_grid(4, 16)
    assert grid.axis_nodes[0] is jacobi_rule(16, 0.5)[0]
    assert grid.axis_weights[1] is jacobi_rule(16, 0.0)[1]
