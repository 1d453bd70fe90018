import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from quermass import deficits, fields, harmonics, suites
from quermass.axisym import AxialDomain, AxialProfile, axial_minkowski_deficit, lift_to_sphere
from quermass.config import NORMALIZE_CENTER, NORMALIZE_SCALE_REL
from quermass.fields import ScalarField
from quermass.grids import ball_volume, build_grid, sphere_area
from quermass.reporting import DEFICIT_COLUMNS
from quermass.stardomain import StarDomain, fields_affine


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 32)


def ball(grid, c=0.0):
    return StarDomain(fields.analyze(fields.constant_field(grid, c), L=4))


def translated_ball(grid, t):
    x1 = grid.nodes[:, 0]
    vals = t * x1 + np.sqrt(1 - t * t + t * t * x1**2) - 1.0
    return StarDomain(fields.analyze(ScalarField(grid, vals)))


def test_ball_equality_cases(grid):
    for c in (0.0, 0.4):
        K = ball(grid, c)
        for op in (deficits.minkowski_deficit,
                   deficits.volumetric_minkowski_deficit,
                   deficits.nuclear_minkowski_deficit):
            rep = op(K)
            assert abs(rep.margin) < 1e-11, (op.__name__, c)


def test_barycenter_cases(grid):
    assert np.linalg.norm(ball(grid).barycenter()) < 1e-13
    t = 0.05
    assert_allclose(translated_ball(grid, t).barycenter(), [t, 0, 0], atol=1e-6)
    # centrally symmetric profile: barycenter vanishes by symmetry
    c = np.zeros(harmonics.coeff_count(4))
    c[harmonics.flat_index(2, 1)] = 0.08
    c[harmonics.flat_index(4, 3)] = 0.05
    K = StarDomain(fields.synthesize(c, grid))
    assert np.linalg.norm(K.barycenter()) < 1e-10


def test_barycenter_monte_carlo_oracle(grid):
    t = 0.05
    K = translated_ball(grid, t)
    b = K.barycenter()
    rng = np.random.default_rng(99)
    pts = rng.standard_normal((1_000_000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    radii = rng.uniform(size=len(pts)) ** (1 / 3)
    samples = radii[:, None] * pts + [t, 0, 0]
    mc = samples.mean(axis=0)
    sigma = samples.std(axis=0, ddof=1) / math.sqrt(len(pts))
    assert np.all(np.abs(b - mc) < 4 * sigma)


def test_normalize_constant_and_translated(grid):
    K = deficits.normalize(ball(grid, 0.3), "volume")
    assert np.max(np.abs(K.profile.values)) < 1e-10
    Kt = deficits.normalize(translated_ball(grid, 0.05), "volume")
    assert np.max(np.abs(Kt.profile.values)) < 1e-8
    assert np.linalg.norm(Kt.barycenter()) < 1e-8


def test_normalize_idempotent(grid):
    K = deficits.random_domain(3, 0.08, seed=5, grid=grid)
    K1 = deficits.normalize(K, "perimeter")
    K2 = deficits.normalize(K1, "perimeter")
    assert abs(K1.perimeter() - K2.perimeter()) < 1e-10 * K1.perimeter()
    assert np.max(np.abs(K1.profile.values - K2.profile.values)) < 1e-8


def test_perimeter_constraint_residual(grid):
    K = deficits.random_domain(3, 0.1, seed=11, grid=grid)
    Kn = deficits.normalize(K, "perimeter")
    rep = deficits.perimeter_constraint_residual(Kn)
    scale = rep["quadratic_scale"]
    assert abs(rep["residual"]) <= 10.0 * scale**1.5


def test_volume_constraint_residual(grid):
    K = deficits.random_domain(3, 0.1, seed=13, grid=grid)
    Kn = deficits.normalize(K, "volume")
    rep = deficits.volume_constraint_residual(Kn)
    assert abs(rep["residual"]) <= 10.0 * rep["quadratic_scale"] ** 1.5


@settings(max_examples=15, deadline=None)
@given(dim=st.sampled_from(["grid", 3, 4, 5]), seed=st.integers(0, 2**32 - 1),
       s=st.floats(0.5, 2.0))
def test_deficits_scale_invariant(grid, dim, seed, s):
    # "grid": a StarDomain on the n = 3 grid; 3-5: an AxialDomain in that n
    K = (deficits.random_domain(3, 0.05, seed=seed, grid=grid) if dim == "grid"
         else deficits.random_domain(dim, 0.05, seed=seed, zonal=True))
    Ks = K.scaled(s)
    for op in (deficits.minkowski_deficit, deficits.volumetric_minkowski_deficit,
               deficits.nuclear_minkowski_deficit):
        assert abs(op(Ks).margin - op(K).margin) < 1e-9, op.__name__


def test_nuclear_dominates_minkowski_lhs(grid):
    for seed in range(5):
        K = deficits.random_domain(3, 0.2, seed=100 + seed, grid=grid)
        assert (deficits.nuclear_minkowski_deficit(K).lhs
                >= deficits.minkowski_deficit(K).lhs - 1e-12)


def test_nuclear_margin_nonnegative_small_suite(grid):
    for seed in range(20):
        K = deficits.random_domain(3, 0.05, seed=300 + seed, grid=grid)
        assert deficits.nuclear_minkowski_deficit(K).margin >= -1e-8


def test_almost_sharp_margin(grid):
    K = deficits.random_domain(3, 0.05, seed=23, grid=grid)
    rep = deficits.almost_sharp_margin(K, delta=0.05)
    assert rep.margin >= deficits.minkowski_deficit(K).margin


def test_perimeter_expansion_ball_and_degree_one(grid):
    rep = deficits.perimeter_expansion_deficit(ball(grid))
    assert abs(rep["exact"]) < 1e-12 and abs(rep["model"]) < 1e-12

    eps = 0.02
    K = StarDomain(fields.analyze(ScalarField(grid, eps * grid.nodes[:, 0])))
    rep = deficits.perimeter_expansion_deficit(K)
    # degree-one profiles sit in the kernel of the quadratic model
    assert abs(rep["model"]) < 10 * eps**3


def test_perimeter_expansion_quadratic_mode(grid):
    eps = 0.01
    c = np.zeros(harmonics.coeff_count(4))
    c[harmonics.flat_index(2, 0)] = eps
    K = StarDomain(fields.synthesize(c, grid))
    rep = deficits.perimeter_expansion_deficit(K)
    assert abs(rep["model"] - 2 * eps**2) < 10 * eps**3
    assert abs(rep["residual"]) < 10 * eps**3


def test_quermass_ratio(grid):
    K = ball(grid)
    for k in (1, 2):
        rep = deficits.quermassintegral_ratio(K, k)
        assert abs(rep.margin) < 1e-9
    Ks = ball(grid, 0.25)
    for k in (1, 2):
        assert abs(deficits.quermassintegral_ratio(Ks, k).margin) < 1e-9

    eps = 0.01
    c = np.zeros(harmonics.coeff_count(4))
    c[harmonics.flat_index(2, 0)] = eps
    Kc = StarDomain(fields.synthesize(c, grid))
    rep = deficits.quermassintegral_ratio(Kc, 2)
    assert rep.extra["convex"]
    assert rep.margin >= -1e-8
    with pytest.raises(ValueError):
        deficits.quermassintegral_ratio(K, 3)


def test_stability_ratio_ball_marker():
    prof = AxialProfile.from_zonal_coeffs(4, np.zeros(3))
    assert deficits.stability_ratio(AxialDomain(prof)) == math.inf


def test_stability_ratio_quadratic_scaling():
    vals = {}
    for eps in (0.02, 0.01):
        c = np.zeros(3)
        c[2] = eps
        K = AxialDomain(AxialProfile.from_zonal_coeffs(4, c))
        vals[eps] = deficits.stability_ratio(K)
        assert vals[eps] > 0
    assert abs(vals[0.02] - vals[0.01]) < 0.2 * vals[0.01]


def test_stability_requires_dimension(grid):
    with pytest.raises(ValueError):
        deficits.stability_ratio(ball(grid))


def test_axial_deficit_ball():
    for n in (3, 4, 5):
        prof = AxialProfile.from_zonal_coeffs(n, np.zeros(2))
        rep = axial_minkowski_deficit(AxialDomain(prof))
        assert abs(rep.margin) < 1e-10


def test_axial_deficit_random_suite():
    for n in (3, 4):
        for seed in range(10):
            K = deficits.random_domain(n, 0.05, seed=1000 * n + seed)
            if n == 3:
                rep = deficits.minkowski_deficit(K)
            else:
                rep = axial_minkowski_deficit(K)
            assert rep.margin >= -1e-8, (n, seed)


def test_random_domain_targets_eps(grid):
    # targeting uses the barycenter-centered proxy, which dominates the
    # optimized size, so the final size sits at or just below the target
    for n, seed in ((3, 7), (4, 8), (5, 9)):
        K = deficits.random_domain(n, 0.05, seed=seed,
                                   grid=grid if n == 3 else None)
        eps, _ = K.eps_size()
        assert eps <= 0.05 * 1.02
        assert eps >= 0.02


def test_random_domain_rejects_negative_target_and_gives_the_ball_at_zero(grid):
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="target_eps"):
            deficits.random_domain(4, bad, seed=1)
    assert not np.any(deficits.random_domain(3, 0.0, seed=1, grid=grid).profile.values)
    K = deficits.random_domain(4, 0.0, seed=1)
    assert not np.any(K.profile.coeffs) and K.eps_size()[0] < 1e-15


@pytest.mark.parametrize("n, seed", [(4, 28), (5, 28), (4, 44)])
def test_random_domain_damps_a_step_out_of_the_star_shaped_class(n, seed):
    # one rescale of each of these draws (by 4.35, 3.69 and 2.63) would
    # leave 1 + V > 0
    K = deficits.random_domain(n, 0.3, seed=seed)
    assert isinstance(K, AxialDomain)
    assert abs(K.eps_size()[0] - 0.3) <= 0.02 * 0.3


def test_zonal_suites_report_their_worst_target_miss():
    # the n = 3 draw of seed 29 ends 63% off its target of 0.3; the
    # summary reports the worst miss, and the rows keep their CSV columns
    def miss(n, seed):
        K = deficits.random_domain(n, 0.3, seed=seed, zonal=True)
        return abs(K.eps_size()[0] - 0.3) / 0.3

    out = suites.axial_deficit_suite(count=6, eps=0.3, seed=28)
    assert all(list(r) == DEFICIT_COLUMNS for r in out["rows"])
    assert out["summary"]["worst_target_miss"] == max(
        miss(n, s) for n in (3, 4, 5) for s in (28, 29)) > 0.6
    # pole and stability draw at n = 4
    assert suites.pole_bound_suite(count=2, eps=0.3, seed=28)[
        "summary"]["worst_target_miss"] == max(miss(4, 28), miss(4, 29)) > 0.3
    assert suites.stability_suite(count=2, eps=0.3, seed=29)[
        "summary"]["worst_target_miss"] == max(miss(4, 29), miss(4, 30))
    # only the zonal draws (n >= 4) have a target miss to report
    assert suites.nuclear_deficit_suite(count=1, ns=(3,), resolution=16)[
        "summary"]["worst_target_miss"] is None


def test_zonal_suites_report_their_worst_center_residual():
    # every axial center here is an exact crossing inside the box, so each
    # certificate residual is 0; the rows keep their CSV columns
    for out in (suites.axial_deficit_suite(count=3, eps=0.05, seed=7501),
                suites.stability_suite(count=2, eps=0.05, seed=8001),
                suites.pole_bound_suite(count=2, eps=0.05, seed=6001)):
        assert all(list(r) == out["columns"] for r in out["rows"])
        assert out["summary"]["worst_center_residual"] == 0.0


def test_nuclear_suite_reports_its_worst_center_residual():
    # one n = 3 grid center and one axial center; the summary gains the
    # key, the rows keep their CSV columns
    out = suites.nuclear_deficit_suite(count=2, eps=0.05, seed=7001)
    assert all(list(r) == out["columns"] for r in out["rows"])
    K = deficits.random_domain(3, 0.05, seed=7001, grid=build_grid(3, 32))
    worst = out["summary"]["worst_center_residual"]
    assert worst == K.center_certificate().residual <= 1e-15


def _undamped_zonal_draw(n, target_eps, seed, L=8):
    """Coefficients of random_domain's zonal draw with every step target/eps."""
    rng = np.random.default_rng(seed)
    c = np.zeros(L + 1)
    for l in range(1, L + 1):
        c[l] = rng.standard_normal() * l**-2.0
    prof = AxialProfile.from_zonal_coeffs(n, c, resolution=256)
    c = c * (min(0.3, 2.0 * target_eps) / prof.c1_norm())
    for _ in range(5):
        eps, _ = AxialDomain(AxialProfile.from_zonal_coeffs(n, c, resolution=256)).eps_size()
        if abs(eps - target_eps) <= 0.02 * target_eps:
            break
        c = c * (target_eps / eps)
    return c


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_random_domain_keeps_the_bits_of_draws_that_stay_in_the_class(n, eps):
    for seed in range(10):
        K = deficits.random_domain(n, eps, seed=seed, zonal=True)
        assert np.array_equal(K.profile.coeffs, _undamped_zonal_draw(n, eps, seed)), seed


# -- the surface both domain kinds share --------------------------------------------


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([3, 4, 5]), seed=st.integers(0, 2**16), eps=st.floats(0.01, 0.1),
       shift=st.lists(st.floats(-0.05, 0.05), min_size=3, max_size=3))
@example(n=4, seed=2931, eps=0.09375, shift=[0.03125, 0.0, 0.0])
def test_translation_keeps_volume_perimeter_and_curvature_integrals(grid, n, seed, eps,
                                                                    shift):
    # |shift| <= 0.05, along the axis for the zonal kind; largest relative
    # errors measured over 60 draws: 2.9e-6 on the n = 3 grid (resolution
    # 32, L = 8: truncation of the moved profile), 8.1e-15 zonal (n = 4, 5).
    # The example's principal curvatures change sign (min -0.286): summing
    # |kappa_i| on the rule alone left its nuclear integral 7.4e-8 off
    K = deficits.random_domain(n, eps, seed=seed, grid=grid if n == 3 else None)
    s = np.array(shift) * min(1.0, 0.05 / max(np.linalg.norm(shift), 1e-300))
    if n > 3:
        s = np.r_[s[0], np.zeros(n - 1)]
    Kt = K.translated(s)
    F, G = K.curvature_integrals(), Kt.curvature_integrals()
    assert_allclose([Kt.volume(), Kt.perimeter(), G.int_H, G.int_nuclear],
                    [K.volume(), K.perimeter(), F.int_H, F.int_nuclear],
                    rtol=1e-5 if n == 3 else 1e-13)


def _one_domain_of_both_kinds(n):
    """(StarDomain, AxialDomain) of one axisymmetric domain.

    n = 3 lifts a zonal coefficient profile onto the m = 0 harmonics,
    exactly; n = 4 lifts a closed-form profile through its analytic
    provider onto build_grid(4, 24).
    """
    if n == 3:
        c = np.zeros(7)
        c[1:] = np.random.default_rng(3).standard_normal(6) * np.arange(1, 7) ** -2.0
        c *= 0.05 / AxialProfile.from_zonal_coeffs(3, c).c1_norm()
        prof = AxialProfile.from_zonal_coeffs(3, c)
    else:
        a = 0.04
        prof = AxialProfile.from_jet(4, lambda t: (
            a * np.cos(t) ** 2 + 0.5 * a * np.cos(t) ** 3,
            -a * np.sin(t) * (2.0 * np.cos(t) + 1.5 * np.cos(t) ** 2),
            -2.0 * a * np.cos(2.0 * t)
            + 1.5 * a * np.cos(t) * (2.0 * np.sin(t) ** 2 - np.cos(t) ** 2)))
    return StarDomain(lift_to_sphere(prof, build_grid(n, 32 if n == 3 else 24))), AxialDomain(prof)


@pytest.mark.parametrize("n", [3, 4])
def test_every_deficit_and_the_stability_ratio_run_on_both_kinds(n):
    # the two kinds give one domain's deficits to rounding (6e-15 measured);
    # eps_size differs by its sampling (5e-4: grid nodes against 4096 angles)
    star, axial = _one_domain_of_both_kinds(n)
    ops = [deficits.minkowski_deficit, deficits.volumetric_minkowski_deficit,
           deficits.nuclear_minkowski_deficit, axial_minkowski_deficit,
           lambda K: deficits.almost_sharp_margin(K, 0.01)]
    ops += [lambda K, k=k: deficits.quermassintegral_ratio(K, k) for k in range(1, n)]
    for op in ops:
        a, b = op(star), op(axial)
        assert (a.which, a.n, a.rhs) == (b.which, b.n, b.rhs)
        assert_allclose(a.lhs, b.lhs, rtol=1e-13)
        assert_allclose(a.eps_size, b.eps_size, rtol=2e-3)
    if n == 3:
        for K in (star, axial):
            with pytest.raises(ValueError, match="n >= 4"):
                deficits.stability_ratio(K)
    else:
        assert_allclose(deficits.stability_ratio(star), deficits.stability_ratio(axial),
                        rtol=2e-3)


@pytest.mark.parametrize("mode", ["volume", "perimeter"])
def test_normalize_runs_on_both_kinds(mode):
    target = ball_volume(3) if mode == "volume" else sphere_area(3)
    normalized = [deficits.normalize(K, mode) for K in _one_domain_of_both_kinds(3)]
    for K, kind in zip(normalized, (StarDomain, AxialDomain)):
        assert type(K) is kind
        size = K.volume() if mode == "volume" else K.perimeter()
        assert abs(size - target) <= NORMALIZE_SCALE_REL * target
        assert np.linalg.norm(K.barycenter()) <= NORMALIZE_CENTER
    # the grid kind's moved profile is truncated again: 1.2e-9 in the
    # measures and 6e-6 in the quadratics measured
    star, axial = normalized
    assert_allclose(star.perimeter(), axial.perimeter(), rtol=1e-8)
    assert_allclose(star.volume(), axial.volume(), rtol=1e-8)
    assert_allclose(star.profile_quadratics(), axial.profile_quadratics(), rtol=5e-5)
