import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar
from scipy.special import roots_jacobi

from quermass import axisym, deficits, fields, geometry, stardomain, suites
from quermass.analytic import zonal_field
from quermass.axisym import AxialDomain, AxialProfile
from quermass.conjecture import ZonalBackend
from quermass.counterexample import make_bump
from quermass.grids import build_grid, jacobi_rule, panel_rule, sphere_area
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

    F2 = K.curvature_integrals()
    F1 = axisym.axial_functionals(prof)
    assert_allclose(F1.volume, F2.volume, rtol=1e-10)
    assert_allclose(F1.perimeter, F2.perimeter, rtol=1e-10)
    assert_allclose(F1.int_H, F2.int_H, rtol=1e-10)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_zonal_matches_2d_grid(seed):
    prof = random_zonal(3, seed, amp=0.15, L=8)
    grid = build_grid(3, 32)
    K = StarDomain(axisym.lift_to_sphere(prof, grid))
    F2 = K.curvature_integrals()
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


def test_pole_bound_suite_rows_carry_the_drawn_dimension():
    # n = 3 draws its random profiles in n = 4, and says so
    rows = suites.pole_bound_suite(count=1)["rows"]
    assert [(r["lemma"], r["n"]) for r in rows] == [
        ("pole_bound_sphere", 3), ("pole_bound_random", 4), ("pole_bound_dent", 3)]
    assert {r["n"] for r in suites.pole_bound_suite(n=5, count=1)["rows"]} == {5}


def test_axial_domain_scaling_and_recentering():
    prof = random_zonal(4, 55, amp=0.05, L=8)
    K = AxialDomain(prof)
    F = K.curvature_integrals()
    Ks = K.scaled(2.0)
    Fs = Ks.curvature_integrals()
    assert_allclose(Fs.volume, 2.0**4 * F.volume, rtol=1e-9)
    assert_allclose(Fs.perimeter, 2.0**3 * F.perimeter, rtol=1e-9)
    assert_allclose(Fs.int_H, 2.0**2 * F.int_H, rtol=1e-9)

    b = K.barycenter()
    K0 = K.translated(b)
    assert abs(K0.barycenter()[0]) < 1e-8


def test_translated_refuses_a_callable_profile():
    # the zonal refit at degree <= 256 would smooth the dent: at kappa = 20
    # a shift of 1e-3 moved its int H^- by 14%
    K = AxialDomain(make_bump(20.0, 0.3).axial_profile(4))
    with pytest.raises(ValueError, match="compactly supported"):
        K.translated([1e-3, 0.0, 0.0, 0.0])


def test_translated_refuses_a_shift_off_the_axis():
    K = deficits.random_domain(4, 0.1, seed=1)
    with pytest.raises(ValueError, match="off-axis"):
        K.translated([0.0, 0.1, 0.0, 0.0])
    with pytest.raises(ValueError, match="off-axis"):
        K.translated([0.01, 0.0, 0.0, -1e-12])
    assert K.translated([0.01, 0.0, 0.0, 0.0]).barycenter()[0] != K.barycenter()[0]


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


# -- oracles for the zonal center optimizer ---------------------------------------

# eps_size sits within two ulps of 1 of the first-written deviation's max;
# per node, where a deviation can reach 2, each form is within about two
# ulps of 1 of the exact value, so the two differ by at most four
TWO_ULPS = 2.0 * np.finfo(float).eps
FOUR_ULPS = 2.0 * TWO_ULPS


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


def kernel_deviation(offset, theta, V, Vd):
    """The shipped deviation: geometry.normal_deviation of the section's rows."""
    y, nu = axisym._section_rows(theta, V, Vd)
    return geometry.normal_deviation(y, nu, np.array([offset, 0.0]))


def old_eps_size(K, optimize_center):
    """eps_size by a bounded Brent search over the axial offset."""
    theta = np.linspace(0.0, math.pi, 4096)
    V, Vd = K.profile.value(theta), K.profile.slope(theta)

    def objective(b):
        return float(np.max(kernel_deviation(b, theta, V, Vd)))

    seed = K.barycenter()[0]
    if optimize_center:
        res = minimize_scalar(objective, bounds=(seed - 0.3, seed + 0.3),
                              method="bounded", options={"xatol": 1e-11})
        best_b = res.x if res.fun < objective(seed) else seed
    else:
        best_b = seed
    return objective(best_b), best_b


def mean_square_oracle(K, offset, deviation):
    theta, w = K.profile.quadrature_rule()
    V, Vd = K.profile.value(theta), K.profile.slope(theta)
    dev = deviation(offset, theta, V, Vd)
    J = geometry.area_jacobian(V, Vd * Vd, K.n)
    return float(np.sum(w * (dev**2 * J))) / float(np.sum(w * J)), float(np.max(dev))


def assert_kernel_matches_the_hypot_oracle(prof, offsets):
    theta = axisym._DEVIATION_THETA
    V, Vd = prof.value(theta), prof.slope(theta)
    for b in offsets:
        kernel = kernel_deviation(b, theta, V, Vd)
        assert np.max(np.abs(kernel - old_deviation(b, theta, V, Vd))) <= FOUR_ULPS


def assert_certified_against_the_oracle(K):
    # the optimized value is the kernel's max at its center, within two
    # ulps of the hypot form's, and no worse than Brent's
    eps, center = K.eps_size()
    brent, _ = old_eps_size(K, True)
    theta = axisym._DEVIATION_THETA
    V, Vd = K.profile.value(theta), K.profile.slope(theta)
    assert eps == float(np.max(kernel_deviation(center[0], theta, V, Vd)))
    assert abs(eps - float(np.max(old_deviation(center[0], theta, V, Vd)))) <= TWO_ULPS
    assert eps <= brent
    assert not np.any(center[1:])
    eps_b, bary = old_eps_size(K, False)
    cert = K.center_certificate()
    assert 1 <= cert.full_passes < stardomain._MAX_PASSES and cert.active_rows >= 1
    if eps_b > stardomain._FLAT_DEVIATION and abs(center[0] - bary) < stardomain._CENTER_BOX:
        assert cert.residual == 0.0
    for offset in (center[0], center[0] + 0.01):
        ms = K.deviation_mean_square([offset] + [0.0] * (K.n - 1))
        assert ms == mean_square_oracle(K, offset, kernel_deviation)[0]
        hypot_ms, top = mean_square_oracle(K, offset, old_deviation)
        assert abs(ms - hypot_ms) <= 2.0 * TWO_ULPS * (top + TWO_ULPS) + 1e-14 * hypot_ms


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), seed=st.integers(0, 2**32 - 1),
       amp=st.floats(0.01, 0.2))
def test_zonal_eps_size_is_certified_against_the_oracle(n, seed, amp):
    assert_certified_against_the_oracle(AxialDomain(random_zonal(n, seed, amp=amp, L=8)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dent_eps_size_is_certified_against_the_oracle(n):
    bump = make_bump(20.0, 0.3)
    K = AxialDomain(bump.axial_profile(n))
    assert_certified_against_the_oracle(K)
    assert_certified_against_the_oracle(K.scaled(1.1))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 6), L=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       amp=st.floats(1e-6, 0.3), s=st.floats(0.5, 2.0))
def test_axial_eps_size_is_scale_invariant(n, L, seed, amp, s):
    # the center is the exact crossing of two nodes, so scaling moves it
    # and the value by rounding only (Brent's tolerance left ~1e-4 relative)
    K = AxialDomain(random_zonal(n, seed, amp=amp, L=L))
    Ks = K.scaled(s)
    eps, center = K.eps_size()
    eps_s, center_s = Ks.eps_size()
    for D, c in ((K, center), (Ks, center_s)):
        assume(abs(c[0] - D.barycenter()[0]) < 0.99 * stardomain._CENTER_BOX)
    assert abs(eps_s - eps) <= 1e-15
    assert np.max(np.abs(center_s - s * center)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 6), L=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       amp=st.floats(1e-6, 0.3), u=st.lists(st.floats(-1.0, 1.0), min_size=1,
                                            max_size=6))
def test_kernel_matches_the_hypot_oracle(n, L, seed, amp, u):
    # offsets across the search bracket of eps_size: the barycenter +- 0.3
    K = AxialDomain(random_zonal(n, seed, amp=amp, L=L))
    b0 = K.barycenter()[0]
    assert_kernel_matches_the_hypot_oracle(K.profile, [b0] + [b0 + 0.3 * x for x in u])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 6), L=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       amp=st.floats(1e-6, 0.3), pole=st.sampled_from([0, -1]),
       gaps=st.lists(st.floats(-9.0, -1.0), min_size=1, max_size=6))
def test_kernel_matches_the_hypot_oracle_near_the_boundary(n, L, seed, amp, pole, gaps):
    # a center 10^gap from the boundary point on the axis, where |y - center|
    # is small at the nodes near the pole
    prof = random_zonal(n, seed, amp=amp, L=L)
    theta = axisym._DEVIATION_THETA
    end = (1.0 + prof.value(theta)[pole]) * math.cos(theta[pole])
    assert_kernel_matches_the_hypot_oracle(
        prof, [end - math.copysign(10.0**g, end) for g in gaps])


@pytest.mark.parametrize("kappa", [5.0, 20.0, 80.0, 320.0])
def test_kernel_matches_the_hypot_oracle_on_dents(kappa):
    prof = make_bump(kappa, 0.3).axial_profile(4)
    assert_kernel_matches_the_hypot_oracle(prof, np.linspace(-0.3, 0.3, 13))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_screen_keeps_every_node_at_the_ball(n, monkeypatch):
    # every deviation of the ball about its center is rounding noise, so
    # the crossing search stops after its first pass, which runs the one
    # kernel on all 4096 angles and returns their max
    prof, theta = const_profile(n, 0.0), axisym._DEVIATION_THETA
    y, nu = axisym._section_rows(theta, prof.value(theta), prof.slope(theta))
    full = geometry.normal_deviation(y, nu, np.zeros(2))
    assert np.max(full) < 1e-15
    pass_sizes = []
    exact = geometry.normal_deviation

    def spy(y, nu, center):
        out = exact(y, nu, center)
        pass_sizes.append(out.size)
        return out
    monkeypatch.setattr(geometry, "normal_deviation", spy)
    offset, value, certificate = axisym._crossing_search(y, nu, 0.0)
    assert (offset, value) == (0.0, float(np.max(full)))
    assert pass_sizes == [4096]
    assert certificate.full_passes == 1


def _pair_gap(y, nu, r, f, x):
    """d_r - d_f at the offset x, or -1 left of the stretch where r rises
    and f falls and +1 right of it: the side the crossing lies on."""
    cols = [r, f]
    p1, p2 = y[0, cols] - x, y[1, cols]
    slopes = p2 * (nu[0, cols] * p2 - nu[1, cols] * p1)
    if slopes[0] <= 0.0:
        return -1.0
    if slopes[1] >= 0.0:
        return 1.0
    d_r, d_f = geometry.normal_deviation(y[:, cols], nu[:, cols], np.array([x, 0.0]))
    return float(d_r - d_f)


def _bisected_crossing(y, nu, r, f, lo, hi):
    """The crossing by bisection on _pair_gap: lo or hi when it lies beyond
    that end, else the end of the last bracket with the smaller |gap|."""
    if _pair_gap(y, nu, r, f, lo) >= 0.0:
        return lo
    if _pair_gap(y, nu, r, f, hi) <= 0.0:
        return hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _pair_gap(y, nu, r, f, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return min((lo, hi), key=lambda x: abs(_pair_gap(y, nu, r, f, x)))


def assert_crossing_matches_bisection(y, nu, r, f, lo, hi):
    x = axisym._crossing(y, nu, r, f, lo, hi)
    oracle = _bisected_crossing(y, nu, r, f, lo, hi)
    if oracle in (lo, hi):
        assert x == oracle
    else:
        assert lo <= x <= hi
        # d_r - d_f carries up to four ulps of 1 at each of the two offsets
        gap = abs(_pair_gap(y, nu, r, f, x))
        assert gap <= abs(_pair_gap(y, nu, r, f, oracle)) + 2.0 * FOUR_ULPS
    return x


def _crossing_pair(x0, t, phi_r, phi_f, rho_r, rho_f, tilt=None):
    """Section rows (y, nu) of two nodes that cross at the offset x0: seen
    from (x0, 0) they lie at angles phi_r and phi_f, and their normals are
    turned from there by -t and +t.  A tilt instead takes nu_f as the
    mirror image -conj(nu_r) of nu_r turned by tilt (and places y_f to
    match): the x^2 coefficient of the crossing is 0 at tilt 0, and
    about tilt when it is small."""
    nu_r = np.exp(1j * (phi_r - t))
    if tilt is None:
        nu_f = np.exp(1j * (phi_f + t))
    else:
        nu_f = -np.conj(nu_r) * np.exp(1j * tilt)
        phi_f = np.angle(nu_f) - t
    y = x0 + np.array([rho_r * np.exp(1j * phi_r), rho_f * np.exp(1j * phi_f)])
    return (np.array([y.real, y.imag]), np.array([[nu_r.real, nu_f.real],
                                                    [nu_r.imag, nu_f.imag]]))


@settings(max_examples=200, deadline=None)
@given(x0=st.floats(-0.5, 0.5), t=st.floats(1e-6, 1.0),
       phi_r=st.floats(0.05, math.pi - 0.05), phi_f=st.floats(0.05, math.pi - 0.05),
       rho_r=st.floats(0.5, 1.5), rho_f=st.floats(0.5, 1.5),
       left=st.floats(1e-3, 0.3), right=st.floats(1e-3, 0.3),
       tilt=st.sampled_from([None, 0.0, 1e-10, -1e-8]))
def test_crossing_matches_bisection_on_random_pairs(x0, t, phi_r, phi_f, rho_r, rho_f,
                                                   left, right, tilt):
    y, nu = _crossing_pair(x0, t, phi_r, phi_f, rho_r, rho_f, tilt)
    assume(np.all(y[1] > 0.0))
    if tilt == 0.0:
        # the x^2 coefficient Im(conj(nu_r) conj(nu_f)) is exactly 0
        assert nu[0, 0] * nu[1, 1] + nu[1, 0] * nu[0, 1] == 0.0
    x = assert_crossing_matches_bisection(y, nu, 0, 1, x0 - left, x0 + right)
    assert abs(x - x0) <= 1e-12
    # brackets wholly right and left of the crossing: the end nearer to it
    for lo, hi, end in ((x0 + left, x0 + left + right, x0 + left),
                        (x0 - left - right, x0 - left, x0 - left)):
        assert axisym._crossing(y, nu, 0, 1, lo, hi) == end
        assert _bisected_crossing(y, nu, 0, 1, lo, hi) == end


@pytest.mark.parametrize("kappa", [5.0, 20.0, 80.0, 320.0])
@pytest.mark.parametrize("n", [3, 5])
def test_crossing_matches_bisection_on_dent_sections(n, kappa, monkeypatch):
    # every crossing the search of a dent's eps_size asks for, at the pairs
    # and brackets of its passes
    calls = []
    exact = axisym._crossing

    def spy(*args):
        calls.append(args)
        return exact(*args)
    monkeypatch.setattr(axisym, "_crossing", spy)
    K = AxialDomain(make_bump(kappa, 0.3).axial_profile(n))
    for D in (K, K.scaled(1.1), K.scaled(0.7)):
        D.eps_size()
    monkeypatch.undo()
    assert len(calls) >= 3
    for args in calls:
        assert_crossing_matches_bisection(*args)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([3, 4, 6]), radius=st.floats(0.1, 10.0))
def test_ball_deviations_are_rounding_level_for_both_kinds(n, radius):
    # every deviation of a ball about its center is rounding noise, on the
    # axial section and, for n = 3, on the grid; eps_size is taken about the
    # barycenter, itself a rounded center
    coeffs = np.array([(radius - 1.0) * math.sqrt(sphere_area(n))])
    domains = [AxialDomain(AxialProfile.from_zonal_coeffs(n, coeffs, resolution=64))]
    if n == 3:
        domains.append(StarDomain(fields.synthesize(coeffs, build_grid(3, 16))))
    for K in domains:
        center = np.zeros(n)
        assert np.max(K.deviation_values(center)) <= TWO_ULPS
        assert K.eps_size()[0] <= FOUR_ULPS
        assert K.deviation_mean_square(center) <= TWO_ULPS**2


def test_axial_deviation_refuses_an_off_axis_center():
    K = AxialDomain(random_zonal(4, 5, amp=0.1, L=6))
    with pytest.raises(ValueError, match="axis"):
        K.deviation_mean_square([0.0, 0.1, 0.0, 0.0])
    with pytest.raises(ValueError, match="axis"):
        K.deviation_values([0.01, 0.0, 0.0, -1e-12])
    assert K.deviation_mean_square([0.01, 0.0, 0.0, 0.0]) > 0.0


@pytest.mark.parametrize("resolution", [16, 33])
def test_axial_and_grid_deviations_agree_per_polar_node(resolution):
    # the lifted profile's grid shares the axial rule's polar nodes
    # (jacobi_rule(resolution, 0)), so about a common axial center every
    # azimuth of a polar node deviates as the section does there
    prof = random_zonal(3, 17, amp=0.2, L=8, resolution=resolution)
    grid = build_grid(3, resolution)
    KA = AxialDomain(prof)
    KS = StarDomain(axisym.lift_to_sphere(prof, grid))
    assert np.array_equal(grid.angles[0], KA._theta)
    for offset in (0.0, 0.04, -0.1):
        center = np.array([offset, 0.0, 0.0])
        axial = KA.deviation_values(center)
        star = KS.deviation_values(center).reshape(grid.shape)
        assert np.max(np.abs(star - axial[:, None])) <= 1e-13


# -- the zonal table cache ---------------------------------------------------------


@pytest.fixture
def cold_tables():
    axisym._zonal_table.cache_clear()
    yield axisym._zonal_table
    axisym._zonal_table.cache_clear()


def test_cached_tables_are_fresh_zonal_basis_tables_and_read_only(cold_tables):
    prof = random_zonal(5, 11, L=9)
    basis = ZonalBasis(5, 9)
    for theta, nodes in ((prof.theta, 256), (axisym._DEVIATION_THETA, "deviation"),
                         (axisym._C1_THETA, "c1")):
        for d in (0, 1, 2):
            table = prof._table(theta, d)
            assert table is cold_tables(5, 9, d, nodes)
            fresh = basis.values(np.cos(theta), derivative=d)
            assert table.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                table[0, 0] = 1.0
    assert cold_tables.cache_info().currsize == 9


def test_profiles_of_one_degree_share_their_tables(cold_tables):
    p, q = random_zonal(4, 1, L=8), random_zonal(4, 2, L=8)
    for theta_p, theta_q in ((p.theta, q.theta), (axisym._DEVIATION_THETA,) * 2,
                             (axisym._C1_THETA,) * 2):
        for d in (0, 1, 2):
            assert p._table(theta_p, d) is q._table(theta_q, d)
    assert random_zonal(4, 1, L=7)._table(p.theta, 0) is not p._table(p.theta, 0)


def test_random_domains_build_each_table_once(cold_tables):
    for seed in range(20):
        deficits.random_domain(4, 0.05, seed=seed)
    # value and slope on the deviation and c1 sets, value on the
    # Gauss-Jacobi nodes (star-shapedness and barycenter)
    info = cold_tables.cache_info()
    assert info.misses == info.currsize == 5


def test_caller_supplied_angles_add_no_tables(cold_tables):
    prof = random_zonal(4, 5, L=8)
    K = AxialDomain(prof)
    K.eps_size()
    K.curvature_integrals()
    prof.c1_norm()
    misses = cold_tables.cache_info().misses
    axisym.pole_gradient_bound(prof)
    AxialProfile.from_values(4, np.linspace(0.0, math.pi, 50), prof.value(
        np.linspace(0.0, math.pi, 50)), degree=8)
    prof.value(np.linspace(0.0, 1.0, 4096))
    assert cold_tables.cache_info().misses == misses
    # the Newton iterates of translated bypass the cache; only the
    # re-fitted profile's own Gauss-Jacobi table is added
    moved = K.translated([0.01, 0.0, 0.0, 0.0])
    assert cold_tables.cache_info().misses == misses + 1
    L = moved.profile.coeffs.size - 1
    assert moved.profile._table(moved.profile.theta, 0) is cold_tables(4, L, 0, 256)
    assert cold_tables.cache_info().misses == misses + 1


def test_tables_over_the_size_limit_are_built_afresh(cold_tables):
    # L = 40: 41 x 4096 deviation angles is over the limit, 41 x 256
    # Gauss-Jacobi nodes is under it
    prof = random_zonal(4, 3, L=40)
    theta = axisym._DEVIATION_THETA
    assert 41 * theta.size > axisym._CACHED_TABLE_DOUBLES >= 41 * prof.theta.size
    entries = cold_tables.cache_info().currsize
    fresh = ZonalBasis(4, 40).values(np.cos(theta))
    assert prof.value(theta).tobytes() == (prof.coeffs @ fresh).tobytes()
    assert cold_tables.cache_info().currsize == entries
    prof.value(prof.theta)
    assert cold_tables.cache_info().currsize == entries + 1


def _beta_moments(resolution, alpha):
    """int t^{2j} (1-t^2)^alpha dt over [-1, 1] for j < resolution.

    B(j+1/2, alpha+1): the mass times exact rational ratios, for an alpha
    with a short binary fraction.
    """
    mass = 2.0 ** (2 * alpha + 1) * math.gamma(alpha + 1) ** 2 / math.gamma(2 * alpha + 2)
    a, ratio, out = Fraction(alpha), Fraction(1), []
    for j in range(resolution):
        if j:
            ratio *= Fraction(2 * j - 1, 2) / (j + a + Fraction(1, 2))
        out.append(mass * float(ratio))
    return np.array(out)


def _assert_gauss_jacobi(t, w, resolution, alpha):
    t_ref, _ = roots_jacobi(resolution, alpha, alpha)
    assert np.max(np.abs(t - t_ref)) <= 4e-16
    assert np.array_equal(t[::-1], -t) and np.all(np.diff(t) > 0) and np.all(w > 0)
    if resolution % 2:
        assert math.copysign(1.0, t[resolution // 2]) == 1.0 and t[resolution // 2] == 0.0
    # every even moment the rule integrates exactly; a node one rounding
    # unit off moves t^{2j} by 2j units, which the bound adds to 1e-14
    j = np.arange(resolution)
    moments = np.array([np.sum(w * t ** (2 * k)) for k in j])
    exact = _beta_moments(resolution, alpha)
    assert np.all(np.abs(moments - exact) <= (1e-14 + 2 * j * 2.0**-52) * exact)


@pytest.mark.parametrize("resolution, alpha", [(16, 0.0), (64, 0.5), (256, 1.0),
                                               (512, 0.5), (7, 1.5)])
def test_jacobi_rule_is_the_cached_read_only_gauss_jacobi_rule(resolution, alpha):
    t, w = jacobi_rule(resolution, alpha)
    _assert_gauss_jacobi(t, w, resolution, alpha)
    again = jacobi_rule(resolution, alpha)
    assert again[0] is t and again[1] is w
    for arr in (t, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@settings(max_examples=40, deadline=None)
@given(resolution=st.integers(1, 600), alpha=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]))
def test_jacobi_rule_is_a_gauss_rule_at_every_resolution(resolution, alpha):
    # the builder behind the cache, so that the examples leave it as it was
    t, w = jacobi_rule.__wrapped__(resolution, alpha)
    _assert_gauss_jacobi(t, w, resolution, alpha)


@pytest.mark.parametrize("resolution", [0, -3])
def test_jacobi_rule_refuses_a_resolution_below_one(resolution):
    with pytest.raises(ValueError, match=f"resolution >= 1, got {resolution}$"):
        jacobi_rule(resolution, 0.5)


@pytest.mark.parametrize("alpha", [-1.0, -2.5, float("nan")])
def test_jacobi_rule_refuses_a_weight_exponent_at_or_below_minus_one(alpha):
    with pytest.raises(ValueError, match=f"alpha > -1, got {alpha}$"):
        jacobi_rule(16, alpha)


def test_every_zonal_rule_comes_from_jacobi_rule():
    t, w = jacobi_rule(256, 0.5)
    prof = random_zonal(4, 3)
    assert prof.t is t and prof.w is w
    backend = ZonalBackend(4, 12, resolution=256)
    assert backend.t is t and backend.w is w
    grid = build_grid(4, 16)
    assert grid.axis_nodes[0] is jacobi_rule(16, 0.5)[0]
    assert grid.axis_weights[1] is jacobi_rule(16, 0.0)[1]


# -- integrands kinked where they change sign ----------------------------------------


def _kinked(F):
    return np.array([F.int_nuclear, F.int_H_plus, F.int_H_minus, *F.int_sigma_abs])


def test_kinked_integrals_do_not_depend_on_the_resolution():
    # a draw whose principal curvatures and H change sign (min kappa
    # -0.286): on the rule alone its nuclear integral moved by 2.8e-8
    # relative between resolutions 256 and 512
    coeffs = deficits.random_domain(4, 0.09375, seed=2931).profile.coeffs
    F = [axisym.axial_functionals(AxialProfile(4, coeffs=coeffs, resolution=r))
         for r in (256, 512, 4096)]
    assert F[0].int_H_minus > 1e-4 and F[0].min_principal_curvature < -0.28
    for G in F[1:]:
        assert_allclose(_kinked(G), _kinked(F[0]), rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4])
def test_dent_negative_mean_curvature_against_fine_panels(n):
    # the kappa = 20, eps = 0.3 dent of verify pole; 2000 Gauss-Legendre
    # panels of 48 points on the dent take |H| with an error of 2e-11
    # relative (the rule alone was 1.0e-5 off at n = 3, 2.7e-5 at n = 4),
    # and the round sphere beyond it is smooth
    bump = make_bump(20.0, 0.3)
    prof = bump.axial_profile(n)
    dent, sphere = (panel_rule((0.0, *bump.breakpoints), 48, 2000),
                    panel_rule((bump.radius, math.pi), 48, 8))
    t, w = np.concatenate([dent[0], sphere[0]]), np.concatenate([dent[1], sphere[1]])
    V, Vd, *_, H = axisym._pointwise_curvature(prof, t)
    weight = w * np.sin(t) ** (n - 2) * sphere_area(n - 1) * geometry.area_jacobian(
        V, Vd * Vd, n)
    F = axisym.axial_functionals(prof)
    assert_allclose(F.int_H_minus, float(np.sum(weight * np.maximum(-H, 0.0))), rtol=1e-10)
    assert_allclose(F.int_H_plus - F.int_H_minus, F.int_H, rtol=1e-15)
    S = geometry.shape_operator_frame(*axisym.zonal_frames(prof, t)[:3])
    kappa = np.abs(S[:, 0, 0]) + (n - 2) * np.abs(S[:, 1, 1])
    assert_allclose(F.int_nuclear, float(np.sum(weight * kappa)), rtol=1e-10)
