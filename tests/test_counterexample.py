import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.spatial import cKDTree

from quermass import analytic, counterexample as cx, geometry
from quermass.analytic import GeodesicRadialField, zonal_field
from quermass.axisym import AxialDomain, _section_rows, axial_functionals, lift_to_sphere
from quermass.counterexample import (
    FIB_MIN_DIST,
    DentedSphere,
    MemoryBudgetError,
    PackedPoints,
    affine_fit,
    build_counterexample,
    fibonacci_sphere,
    find_negative_mean_curvature,
    make_bump,
    pack_points,
    radial_cubic_identity_check,
    sweep_total_mean_curvature,
    total_mean_curvature,
    total_mean_curvature_grid,
    total_mean_curvature_zonal,
)
from quermass.fields import ScalarField
from quermass.grids import SphericalGrid, build_grid, panel_rule, sphere_area
from quermass.stardomain import StarDomain, fields_affine


# -- reference minimum: the KD-tree nearest neighbour that the offset
# search of pack_points(3, kappa) must reproduce exactly


def _kdtree_min_distance(pts):
    d, _ = cKDTree(pts).query(pts, k=2)
    return float(d[:, 1].min())


def _lattice_count(kappa):
    return max(2, int((FIB_MIN_DIST * kappa / 2.0) ** 2 * 0.999))


def _is_antipodal(packed):
    return (packed.count == 2 and packed.min_distance == 2.0
            and packed.points[0, 0] == 1.0 and packed.points[1, 0] == -1.0)


def _reference_jet(bump, r):
    """(f, f', f'') of the dent, each from its own three piecewise masks:
    the independent definition that BumpProfile.jet reproduces bit for bit."""
    r = np.asarray(r, dtype=float)
    a, R = bump.radius / 8.0, bump.radius
    m1 = (r >= 0) & (r < a)
    m2 = (r >= a) & (r <= 7 * a)
    m3 = (r > 7 * a) & (r < R)
    slope, slope_derivative, cum = np.zeros_like(r), np.zeros_like(r), np.zeros_like(r)
    slope[m1] = 0.5 * bump.eps * cx._smoothstep(r[m1] / a)
    slope[m2] = 0.5 * bump.eps
    slope[m3] = 0.5 * bump.eps * cx._smoothstep((R - r[m3]) / a)
    slope_derivative[m1] = 0.5 * bump.eps * cx._smoothstep_prime(r[m1] / a) / a
    slope_derivative[m3] = -0.5 * bump.eps * cx._smoothstep_prime((R - r[m3]) / a) / a
    # the depth f(r) = -int_r^R slope; its last piece runs on past R
    mass = 0.5 * bump.eps * (7.0 * R / 8.0)
    m3 = r > 7 * a
    cum[m1] = 0.5 * bump.eps * a * cx._smoothstep_antideriv(r[m1] / a)
    cum[m2] = 0.5 * bump.eps * (0.5 * a + (r[m2] - a))
    w = np.clip((R - r[m3]) / a, 0.0, 1.0)
    cum[m3] = 0.5 * bump.eps * (6.5 * a + a * (0.5 - cx._smoothstep_antideriv(w)))
    return cum - mass, slope, slope_derivative


def test_bump_box_constraints():
    bump = make_bump(10.0, 0.2)
    checks = bump.validate()
    assert checks["ok"]
    assert abs(float(bump.jet(np.array([0.05]))[1][0]) - 0.1) < 1e-15  # plateau
    assert float(bump.jet(np.array([0.0]))[0][0]) >= -0.1


@pytest.mark.parametrize("kappa", [math.inf, math.nan, 0.5])
def test_bump_refuses_a_kappa_outside_one_to_infinity(kappa):
    with pytest.raises(ValueError, match="finite and >= 1"):
        make_bump(kappa, 0.3)


def _assert_same_bits(got, want):
    # signed zeros included
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def _assert_jet_is_the_three_profiles(bump, r):
    _assert_same_bits(bump.jet(r), _reference_jet(bump, r))


@pytest.mark.parametrize("kappa, eps", [(1.0, 0.3), (10.0, 0.45), (37.0, 0.0), (640.0, 0.2)])
def test_bump_jet_is_depth_slope_and_slope_derivative(kappa, eps):
    bump = make_bump(kappa, eps)
    R = bump.radius
    edges = [0.0, R / 8.0, 7.0 * R / 8.0, R]
    near = [x for e in edges for x in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))]
    past = [1.5 * R, 2.0 * R, math.pi, np.inf]
    below = [-0.0, -R, -np.inf, np.nan]
    r = np.array(near + past + below + list(np.linspace(0.0, R, 257)))
    _assert_jet_is_the_three_profiles(bump, r)
    _assert_jet_is_the_three_profiles(bump, r[:20].reshape(4, 5))
    _assert_jet_is_the_three_profiles(bump, r[:0])


@settings(max_examples=60, deadline=None)
@given(kappa=st.floats(1.0, 1e4), eps=st.floats(0.0, 0.49),
       fractions=st.lists(st.floats(-0.25, 1.5), min_size=1, max_size=40))
def test_bump_jet_matches_the_profiles_on_drawn_radii(kappa, eps, fractions):
    bump = make_bump(kappa, eps)
    _assert_jet_is_the_three_profiles(bump, np.array(fractions) * bump.radius)


@pytest.mark.parametrize("n", [3, 4])
def test_dent_profile_is_the_jet_inside_its_radius_and_zero_from_it_on(n):
    bump = make_bump(10.0, 0.3)
    prof = bump.axial_profile(n)
    R = bump.radius
    theta = np.array([0.0, 0.5 * R, np.nextafter(R, 0.0), R, np.nextafter(R, np.inf),
                      2.0 * R, math.pi])
    inside = theta < R
    want = [np.where(inside, part, 0.0) for part in bump.jet(theta)]
    got = prof.jet(theta)
    _assert_same_bits(got, want)
    _assert_same_bits(got, (prof.value(theta), prof.slope(theta), prof.curvature_slope(theta)))
    assert got[1][2] > 0.0 and not np.signbit(np.concatenate(got)[~np.tile(inside, 3)]).any()


@pytest.mark.parametrize("s", [0.8, 1.3])
def test_scaled_dent_domain_is_the_three_callable_profile(s):
    # the scaled profile as it was once built, one callable per derivative,
    # each evaluated on the nodes below its support of pi and 0 at pi
    prof = make_bump(10.0, 0.3).axial_profile(4)
    three = (lambda x: s * prof.value(x) + (s - 1.0), lambda x: s * prof.slope(x),
             lambda x: s * prof.curvature_slope(x))
    scaled = AxialDomain(prof).scaled(s).profile
    assert scaled.support == math.pi
    assert scaled.breakpoints == prof.breakpoints + (prof.support,)
    theta, _ = scaled.quadrature_rule()
    want = []
    for fn in three:
        out = np.zeros_like(theta)
        out[theta < math.pi] = fn(theta[theta < math.pi])
        want.append(out)
    _assert_same_bits(scaled.jet(theta), want)


def test_lifted_dent_profile_is_the_reference_dent():
    bump = make_bump(10.0, 0.3)
    grid = build_grid(3, 64)
    lifted = lift_to_sphere(bump.axial_profile(3), grid).values
    reference = zonal_field(lambda th: tuple(np.where(th < bump.radius, part, 0.0)
                                             for part in _reference_jet(bump, th)))
    assert np.any(lifted < 0.0)
    assert lifted.tobytes() == reference.values(grid).tobytes()


def test_bump_integral_against_adaptive_quadrature():
    bump = make_bump(10.0, 0.2)
    n = 3
    val, err = quad(lambda r: bump.jet(np.array([r]))[1][0] ** 2 * r ** (n - 3),
                    0.0, bump.radius, limit=200)
    r, w = panel_rule((0.0, *bump.breakpoints), 24, 8)
    mine = float(np.sum(w * bump.jet(r)[1] ** 2 * r ** (n - 3)))
    assert abs(mine - val) < 1e-10


def test_pack_points_s2():
    packed = pack_points(3, 10.0)
    assert packed.count >= 50
    assert packed.min_distance >= 0.2


def test_pack_points_small_kappa():
    for n in (3, 4):
        packed = pack_points(n, 1.0)
        assert packed.count >= 2
        assert packed.min_distance >= 2.0


@pytest.mark.parametrize("kappa", [1.0, 10.0, 20.0, 40.0, 80.0])
def test_lattice_certificate_matches_kdtree(kappa):
    packed = pack_points(3, kappa)
    if kappa == 1.0:
        assert _is_antipodal(packed)
    else:
        assert packed.count == _lattice_count(kappa)
        assert np.array_equal(packed.points, fibonacci_sphere(packed.count))
        assert packed.min_distance == _kdtree_min_distance(packed.points)


@pytest.mark.parametrize("kappa", [3.3, 10.0, 20.0, 40.0, 80.0])
def test_oversized_lattice_minimum_matches_kdtree(kappa):
    # 20% more points than the lattice holds at spacing 2/kappa, so its
    # minimum is well below the distance bound
    count = int(1.2 * _lattice_count(kappa))
    reach = 1.05 * 2.0 / kappa
    least = math.sqrt(cx._least_d2(count, reach))
    assert least == _kdtree_min_distance(fibonacci_sphere(count))
    assert least < 0.95 * 2.0 / kappa
    assert cx._least_d2(count, 0.5 * least) == math.inf


def _one_shot_fibonacci(count):
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = 2.0 * math.pi * i / cx.GOLDEN
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([z, r * np.cos(phi), r * np.sin(phi)], axis=1)


def test_blockwise_lattice_is_bit_identical_to_the_whole_array():
    count = 3 * cx._LATTICE_BLOCK + 17
    whole = _one_shot_fibonacci(count)
    assert np.array_equal(fibonacci_sphere(count), whole)


@pytest.mark.parametrize("oversize", [1.0, 1.2])
@pytest.mark.parametrize("kappa", [10.0, 80.0])
def test_streamed_certificate_does_not_depend_on_the_block(monkeypatch, kappa, oversize):
    # a prime block cuts the lattice at arbitrary indices, within the
    # reach of the largest offset
    count = int(oversize * _lattice_count(kappa))
    reach = 1.05 * 2.0 / kappa
    monkeypatch.setattr(cx, "_LATTICE_BLOCK", 9_973)
    least = cx._least_d2(count, reach)
    monkeypatch.setattr(cx, "_LATTICE_BLOCK", count)
    assert least == cx._least_d2(count, reach)
    assert (math.sqrt(least) < 2.0 / kappa) == (oversize > 1.0)


def test_lattice_count_reads_no_coordinates():
    # measured 7.5 MB; the coordinates alone would take 376 MB
    tracemalloc.start()
    try:
        packed = pack_points(3, 2560.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert packed.count == 15_649_212 and "points" not in vars(packed)


@pytest.mark.parametrize("oversize", [1.0, 1.2])
def test_lattice_points_peak_is_within_its_estimate(oversize):
    # kappa = 543, the largest whose coordinates are built: 704,064 points
    # in 11 blocks; tracemalloc gives 24 B per output point and at most
    # 65 B per point of one block (kappa 10-2560), 72 B with a 10% margin
    count = int(oversize * _lattice_count(543.0))
    packed = PackedPoints(3, 543.0, None, 2.0 / 543.0, lattice=count)
    tracemalloc.start()
    try:
        points = packed.points
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == packed.count
    assert peak <= 24 * packed.count + 72 * cx._LATTICE_BLOCK


def _brute_force_min_distance(pts):
    best = np.inf
    for i in range(len(pts) - 1):
        d = pts[i + 1:] - pts[i]
        best = min(best, float(np.min(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
                                      + d[:, 2] * d[:, 2])))
    return math.sqrt(best)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=1.0, max_value=60.0))
def test_certified_minimum_is_the_brute_force_minimum(kappa):
    packed = pack_points(3, kappa)
    assert packed.min_distance >= 2.0 / kappa
    assert packed.min_distance == _brute_force_min_distance(packed.points)


def test_shrunk_lattice_is_the_largest_certified_one(monkeypatch):
    # a lattice sized 12% too large must shrink, point by point, to the
    # largest lattice whose minimum is at least 2/kappa
    kappa = 20.0
    monkeypatch.setattr(cx, "FIB_MIN_DIST", 1.06 * FIB_MIN_DIST)
    packed = pack_points(3, kappa)
    assert packed.count < int((cx.FIB_MIN_DIST * kappa / 2.0) ** 2 * 0.999)
    assert packed.min_distance == _brute_force_min_distance(packed.points)
    assert packed.min_distance >= 2.0 / kappa
    assert math.sqrt(cx._least_d2(packed.count + 1, 2.1 / kappa)) < 2.0 / kappa


@pytest.mark.parametrize("kappa, thinned, count", [
    (1.30, 2, 3), (2.51, 13, 14), (3.3, 24, 25), (5.53, 71, 72)])
def test_small_kappa_lattice_keeps_no_fewer_points(kappa, thinned, count):
    # where the lattice sized from FIB_MIN_DIST is too dense, the largest
    # certified lattice holds one point more than thinning it left
    packed = pack_points(3, kappa)
    assert packed.count == count >= thinned
    assert _brute_force_min_distance(packed.points) >= 2.0 / kappa


def test_two_point_lattice_before_the_antipodal_pair():
    # at kappa = 1.13 the three-point lattice is too dense, the two-point
    # one is 1.899 apart, above 2/kappa = 1.770
    packed = pack_points(3, 1.13)
    assert packed.count == 2 and packed.lattice == 2
    assert packed.min_distance == _brute_force_min_distance(packed.points) >= 2.0 / 1.13


def _ring_points(n, kappa):
    """Equally spaced points, as many as fit, on every circle of ring_circles."""
    chunks = []
    for lead, radius in cx.ring_circles(n, kappa):
        k = cx._circle_capacity(radius, kappa)
        owner = np.repeat(np.arange(len(k)), k)
        i = np.arange(len(owner)) - np.repeat(np.cumsum(k) - k, k)
        angle = 2.0 * np.pi * i / k[owner]
        r = radius[owner]
        chunks.append(np.column_stack([lead[owner], r * np.cos(angle), r * np.sin(angle)]))
    return np.concatenate(chunks)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 5]), kappa=st.floats(min_value=1.0, max_value=12.0))
def test_ring_points_are_separated_and_counted(n, kappa):
    pts = _ring_points(n, kappa)
    packed = pack_points(n, kappa)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=0.0, atol=1e-14)
    if len(pts) < 2:
        assert _is_antipodal(packed)
        return
    d, _ = cKDTree(pts).query(pts, k=2)
    assert d[:, 1].min() >= 2.0 / kappa
    assert packed.count == len(pts)
    assert packed.points is None and packed.min_distance == 2.0 / kappa


def test_ring_count_in_four_dimensions():
    # 140 dents at kappa = 4; q / kappa^3 near 2.47 at large kappa
    assert pack_points(4, 4.0).count == 140
    assert 2.46 < pack_points(4, 640.0).packing_constant < 2.47


def test_ring_packing_has_counts_but_no_provider():
    domain = build_counterexample(4, 0.3, 4.0)
    assert domain.centers.points is None
    with pytest.raises(ValueError, match="without coordinates"):
        domain.provider()


def test_ring_count_refused_over_its_work_budget():
    t0 = time.perf_counter()
    with pytest.raises(MemoryBudgetError, match="WORK_LIMIT"):
        pack_points(4, 1e5)
    assert time.perf_counter() - t0 < 1.0


def test_four_dimensional_search_crosses_at_kappa_2560():
    out = find_negative_mean_curvature(4, 0.3, kappa_start=20.0)
    assert out["found"] and out["kappa_star"] == 2560.0
    assert out["int_H"] < -1.0
    assert out["history"][-2]["int_H_zonal"] > 0.0      # kappa = 1280


def test_pack_points_fails_fast_over_budget():
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(MemoryBudgetError, match="budget"):
            pack_points(3, 1e5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 1e6
    with pytest.raises(MemoryBudgetError):
        pack_points(4, 1e5)
    domain = build_counterexample(3, 0.3, 20.0)
    t0 = time.perf_counter()
    with pytest.raises(MemoryBudgetError, match="20,000,000,000 nodes"):
        total_mean_curvature_grid(domain, resolution=100_000)
    assert time.perf_counter() - t0 < 1.0


class _PastBudget(Exception):
    pass


def _raise_past_budget(*args, **kwargs):
    raise _PastBudget


def _report_memory(monkeypatch, memory):
    # the machine reports memory bytes of RAM, in 4 KiB pages
    sysconf = os.sysconf
    pages = {"SC_PHYS_PAGES": memory // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf",
                        lambda name: pages[name] if name in pages else sysconf(name))


def test_coordinates_follow_the_grid_check_work_limit(monkeypatch):
    # the coordinates of a lattice are built exactly where kappa's default
    # dense-grid check is within WORK_LIMIT: kappa = 543 (resolution 7059,
    # 99.7M nodes) is let through to the coordinates, which are stubbed
    # out, and kappa = 640 (138M nodes) is refused before any is built
    monkeypatch.setattr(cx, "fibonacci_sphere", _raise_past_budget)
    with pytest.raises(_PastBudget):
        pack_points(3, 543.0).points
    t0 = time.perf_counter()
    with pytest.raises(MemoryBudgetError,
                       match=r"pack_points\(3, 640\).*138,444,800 nodes.*WORK_LIMIT"):
        pack_points(3, 640.0).points
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("memory", [2**30, 64 * 2**30])
def test_grid_check_follows_the_work_limit(monkeypatch, memory):
    # the kappa = 543 check (resolution 7059, 99.7M nodes) is let through
    # to the grid, which is stubbed out, and the kappa = 640 check
    # (resolution 8320, 138M nodes) is refused fast, whatever the
    # machine's memory, also by total_mean_curvature before it packs;
    # the lattices are given, not packed
    def dented(kappa):
        lattice = PackedPoints(3, kappa, None, 2.0 / kappa, lattice=2)
        return build_counterexample(3, 0.3, kappa, centers=lattice)
    monkeypatch.setattr(cx, "build_grid", _raise_past_budget)
    monkeypatch.setattr(cx, "_least_d2", _raise_past_budget)
    _report_memory(monkeypatch, memory)
    with pytest.raises(_PastBudget):
        total_mean_curvature_grid(dented(543.0))
    t0 = time.perf_counter()
    with pytest.raises(MemoryBudgetError, match="138,444,800 nodes"):
        total_mean_curvature_grid(dented(640.0))
    with pytest.raises(MemoryBudgetError, match="138,444,800 nodes"):
        total_mean_curvature(3, 0.3, 640.0, method="both")
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("memory", [2**30, 64 * 2**30])
def test_lattice_count_follows_the_work_limit(monkeypatch, memory):
    # the kappa = 5120 lattice (62.6M points) is let through to the count,
    # which is stubbed out, and kappa = 10240 (250M points) is refused
    # fast, whatever the machine's memory
    monkeypatch.setattr(cx, "_least_d2", _raise_past_budget)
    _report_memory(monkeypatch, memory)
    with pytest.raises(_PastBudget):
        pack_points(3, 5120.0)
    t0 = time.perf_counter()
    with pytest.raises(MemoryBudgetError, match="250,387,400 lattice points"):
        pack_points(3, 10240.0)
    assert time.perf_counter() - t0 < 1.0


def test_search_stops_at_the_last_kappa_within_budget(monkeypatch):
    # a work limit that admits the kappa = 80 lattice (15282 points) but not 160
    monkeypatch.setattr(cx, "WORK_LIMIT", 20_000)
    out = find_negative_mean_curvature(3, 0.3, kappa_start=20.0)
    assert not out["found"]
    assert [r["kappa"] for r in out["history"]] == [20.0, 40.0, 80.0]
    assert "budget" in out["reason"]


def test_pack_scaling():
    counts = {k: pack_points(3, float(k)).count for k in (10, 20, 40)}
    for k in (10, 20):
        ratio = counts[2 * k] / counts[k]
        assert 2.0 <= ratio <= 8.0


def test_radial_identity_exact_case():
    for n in (3, 4, 5):
        for kappa in (10.0, 40.0):
            for eps in (0.1, 0.3):
                rep = radial_cubic_identity_check(make_bump(kappa, eps), n)
                assert abs(rep["difference"]) < 1e-10, (n, kappa, eps)


def test_radial_identity_with_nonlinearity():
    for n in (3, 4, 5):
        p = n - 3.0
        a_fn = lambda s, t: (1.0 + s) ** p / ((1.0 + s) ** 2 + t)
        for kappa in (10.0, 40.0):
            for eps in (0.1, 0.3):
                rep = radial_cubic_identity_check(make_bump(kappa, eps), n, a_fn)
                assert rep["margin"] >= 0.0, (n, kappa, eps)


def test_degenerate_profile_is_ball():
    rec = total_mean_curvature(3, 0.0, 50.0)
    assert_allclose(rec["int_H_zonal"], 8 * math.pi, rtol=1e-10)
    out = find_negative_mean_curvature(3, 0.0, kappa_start=16.0, kappa_max=64.0)
    assert not out["found"]
    assert out["int_H"] > 0


@pytest.mark.parametrize("kappa", [math.inf, -math.inf, math.nan])
def test_a_kappa_that_is_not_finite_is_refused_by_name(kappa):
    # a ValueError that names kappa, before the grid check's resolution
    # is rounded up (math.ceil of inf overflowed)
    for call in (lambda: cx.check_points(kappa),
                 lambda: cx.total_mean_curvature(3, 0.3, kappa, method="both"),
                 lambda: cx.total_mean_curvature(3, 0.3, kappa)):
        with pytest.raises(ValueError, match="kappa must be finite"):
            call()


def test_kappa_max_nan_is_refused_and_inf_is_no_cap():
    with pytest.raises(ValueError, match="kappa_max is nan"):
        find_negative_mean_curvature(3, 0.3, kappa_max=math.nan)
    out = find_negative_mean_curvature(4, 0.3, kappa_start=640.0, kappa_max=math.inf)
    assert out["found"] and out["kappa_star"] == 2560.0


def test_single_dent_matches_axial_lift():
    kappa, eps, n = 20.0, 0.3, 3
    bump = make_bump(kappa, eps)
    pole = np.array([[1.0, 0.0, 0.0]])
    centers = PackedPoints(n, kappa, pole, 2.0)
    domain = build_counterexample(n, eps, kappa, centers=centers)
    zonal = total_mean_curvature_zonal(domain)

    axial = axial_functionals(bump.axial_profile(n)).int_H
    assert_allclose(zonal, axial, rtol=1e-8)

    grid_val = total_mean_curvature_grid(domain, resolution=320)
    assert abs(grid_val - zonal) / abs(zonal) < 1e-2


def test_c1_norm_within_eps():
    domain = build_counterexample(3, 0.3, 40.0)
    assert domain.c1_norm() <= 0.3


def test_eps_size_of_dented_sphere():
    domain = build_counterexample(3, 0.3, 20.0)
    K = domain.on_grid(build_grid(3, 192))
    eps, _ = K.eps_size()
    assert eps <= 0.3 * 1.05


@pytest.mark.parametrize("kappa", [5.0, 20.0, 80.0])
def test_dent_eps_size_is_the_kernel_max_on_its_cap(kappa):
    # geometry.normal_deviation on the cap's section at center 0, and the
    # closed form |nu - x|^2 = v2/(1+v2) + v2^2/((1+v2)(1+sqrt(1+v2))^2),
    # v = V'/(1+V), to rounding
    bump = make_bump(kappa, 0.3)
    eps = DentedSphere(3, 0.3, kappa, bump, None).eps_size()
    r = np.linspace(0.0, bump.radius, 8001)
    f, fd, _ = bump.jet(r)
    y, nu = _section_rows(r, f, fd)
    assert eps == float(np.max(geometry.normal_deviation(y, nu, np.zeros(2))))
    v2 = (fd / (1.0 + f)) ** 2
    closed = math.sqrt(np.max(v2 / (1.0 + v2)
                              + v2**2 / ((1.0 + v2) * (1.0 + np.sqrt(1.0 + v2)) ** 2)))
    assert abs(eps - closed) <= 1e-15 * closed
    assert eps <= 0.3


def test_overlap_detection():
    close = np.array([[1.0, 0.0, 0.0],
                      [math.cos(0.05), math.sin(0.05), 0.0]])
    centers = PackedPoints(3, 20.0, close, float(np.linalg.norm(close[0] - close[1])))
    with pytest.raises(AssertionError):
        build_counterexample(3, 0.3, 20.0, centers=centers)


def test_two_methods_agree_small_sweep():
    rows = sweep_total_mean_curvature(3, 0.3, (20.0, 40.0), method="both")
    for row in rows:
        assert row["relative_gap"] < 1e-2


def test_mean_curvature_decreases_affinely():
    rows = sweep_total_mean_curvature(3, 0.3, (20.0, 40.0, 80.0), method="zonal")
    fit = affine_fit([r["kappa"] for r in rows], [r["int_H_zonal"] for r in rows])
    assert fit["slope"] < 0
    assert fit["r_squared"] > 0.9


def test_general_dimension_zonal_total():
    rec = total_mean_curvature(4, 0.2, 6.0)
    assert rec["int_H_zonal"] < 3 * sphere_area(4)  # sane magnitude
    assert rec["count"] >= 8


def test_affine_fit_exact_line():
    fit = affine_fit([1, 2, 3, 4], [2, 4, 6, 8])
    assert_allclose(fit["slope"], 2.0, rtol=1e-12)
    assert fit["r_squared"] > 1 - 1e-12


def test_threshold_kappa_monotone_in_eps():
    # a deeper dent profile reaches the negative-curvature threshold at a
    # smaller packing scale
    out_deep = find_negative_mean_curvature(3, 0.35, kappa_start=160.0)
    out_shallow = find_negative_mean_curvature(3, 0.3, kappa_start=160.0)
    assert out_deep["found"] and out_shallow["found"]
    assert out_deep["kappa_star"] <= out_shallow["kappa_star"]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kappa", [10.0, 160.0, 2560.0])
@pytest.mark.parametrize("eps", [0.1, 0.45])
def test_cap_excess_against_adaptive_quadrature(n, kappa, eps):
    # the per-dent excess int_cap (H J - (n-1)) is tiny next to (n-1)|S^{n-1}|
    # (1e-14 relative at n = 5, kappa = 2560), so it must be integrated over
    # the cap alone: a whole-sphere integral minus (n-1)|S^{n-1}| loses it
    bump = make_bump(kappa, eps)

    def excess(th):
        th = np.array([th])
        f, fd, fdd = _reference_jet(bump, th)
        lap = fdd + (n - 2) * fd * np.cos(th) / np.sin(th)
        H = geometry.mean_curvature_from_scalars(f, fd * fd, lap, fdd * fd * fd, n)
        J = geometry.area_jacobian(f, fd * fd, n)
        return float(((H * J - (n - 1)) * np.sin(th) ** (n - 2))[0])

    edges = (0.0, *bump.breakpoints)
    want = sphere_area(n - 1) * sum(
        quad(excess, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:]))
    cap_h, cap_area = cx._cap_contributions(bump, n)
    assert abs(cap_h - (n - 1) * cap_area - want) <= 1e-10 * abs(want)


def test_per_dent_additivity_on_grid():
    # node partition: total = (n-1)*(outside area) + sum of per-dent parts,
    # exactly as computed; the inside part matches q times the 1-D cap value
    kappa, eps, n = 20.0, 0.3, 3
    domain = build_counterexample(n, eps, kappa)
    grid = build_grid(3, 576)
    prov = domain.provider()
    nodes, w = grid.nodes, grid.weights
    u, grad2, lap, cub = prov.scalar_invariants(nodes, n)
    H = geometry.mean_curvature_from_scalars(u, grad2, lap, cub, n)
    J = geometry.area_jacobian(u, grad2, n)
    inside = prov.geodesic_distance(nodes) < domain.bump.radius
    total = float(np.sum(w * H * J))
    outside_part = float(np.sum(w[~inside] * H[~inside] * J[~inside]))
    inside_part = float(np.sum(w[inside] * H[inside] * J[inside]))
    assert abs(total - outside_part - inside_part) < 1e-12 * abs(total)
    # the untouched region is exactly the round sphere
    outside_area = float(np.sum(w[~inside]))
    assert abs(outside_part - (n - 1) * outside_area) < 1e-10 * abs(outside_part)
    # per-dent equality with the 1-D cap integral
    from quermass.counterexample import _cap_contributions
    cap_h, _ = _cap_contributions(domain.bump, n)
    assert abs(inside_part - domain.centers.count * cap_h) < 1e-2 * abs(inside_part)


# -- the dense-grid check against the KD-tree route it replaced


def _kdtree_profile(domain, nodes):
    """(u, |grad u|^2, lap u, cubic, inside) with every node's nearest center
    found by a KD-tree query and the profile evaluated at every node."""
    bump = domain.bump
    centers = domain.centers.points
    _, idx = cKDTree(centers).query(nodes, k=1)
    dots = analytic._row_dots(nodes, centers[idx])
    d = np.arccos(np.clip(dots, -1.0, 1.0))
    inside = d < bump.radius
    dd = np.where(inside, d, 0.0)
    fv, fdv, fddv = (np.where(inside, part, 0.0) for part in _reference_jet(bump, dd))
    _, lap = geometry.zonal_laplacian(fdv, fddv, dd, 3)
    return 0.0 + fv, fdv**2, lap, fddv * fdv**2, inside


def _kdtree_grid_total(domain, resolution=None, block=analytic._GRID_BLOCK):
    """The dense check's sum, every node evaluated: per block of nodes the
    terms w H J of the nodes inside a dent, in node order, then H J of the
    round sphere times the total weight less that of the nodes inside."""
    if resolution is None:
        resolution = max(256, int(math.ceil(13 * domain.kappa)))
    grid = build_grid(3, resolution)
    total = inside_weight = 0.0
    round_sphere = None
    for i0 in range(0, grid.num_nodes, block):
        sl = slice(i0, i0 + block)
        u, grad2, lap, cubic, inside = _kdtree_profile(domain, grid.nodes[sl])
        H = geometry.mean_curvature_from_scalars(u, grad2, lap, cubic, 3)
        J = geometry.area_jacobian(u, grad2, 3)
        w = grid.weights[sl]
        total += float(np.sum(np.where(inside, w * H * J, 0.0)))
        inside_weight += float(np.sum(np.where(inside, w, 0.0)))
        if not inside.all():
            round_sphere = float(H[~inside][0] * J[~inside][0])
    if round_sphere is not None:
        total_weight = 2.0 * math.pi * float(np.sum(grid.axis_weights[0]))
        total += round_sphere * (total_weight - inside_weight)
    return total


@pytest.mark.parametrize("kappa", [1.0, 10.0, 20.0])
@pytest.mark.parametrize("eps", [0.1, 0.45])
@pytest.mark.parametrize("split", [0, 1])
def test_grid_check_is_bit_identical_to_the_kdtree_route(kappa, eps, split, monkeypatch):
    # split = 1: member blocks of a prime node count, whose edges cut
    # through dents
    block = 9_973 if split else analytic._GRID_BLOCK
    monkeypatch.setattr(analytic, "_GRID_BLOCK", block)
    domain = build_counterexample(3, eps, kappa)
    total = total_mean_curvature_grid(domain)
    assert type(total) is float and total == _kdtree_grid_total(domain, block=block)


@pytest.mark.parametrize("resolution", [100, 257])
@pytest.mark.parametrize("kappa", [10.0, 20.0])
def test_grid_check_at_explicit_resolutions(resolution, kappa):
    domain = build_counterexample(3, 0.3, kappa)
    assert (total_mean_curvature_grid(domain, resolution)
            == _kdtree_grid_total(domain, resolution))


def test_dented_profile_on_grid_is_bit_identical():
    # the --mesh export reads these values
    domain = build_counterexample(3, 0.2, 10.0)
    grid = build_grid(3, 128)
    values = domain.on_grid(grid).profile.values
    assert np.array_equal(values, _kdtree_profile(domain, grid.nodes)[0])


def test_dent_grid_check_takes_the_lattice_proof(monkeypatch):
    # build_counterexample has proved the supports disjoint from the
    # lattice's exact min_distance: the provider and its rescaled copy
    # carry that proof, the band route searches no closest pair, and the
    # total is that of a provider checked by the closest-pair search
    searched = []
    search = analytic._closest_pair

    def counted(points):
        searched.append(len(points))
        return search(points)
    monkeypatch.setattr(analytic, "_closest_pair", counted)
    domain = build_counterexample(3, 0.3, 20.0)
    grid = build_grid(3, 260)
    prov = domain.provider()
    assert prov.separation == domain.centers.min_distance
    checked = GeodesicRadialField(prov.centers, prov.jet, prov.support)
    total = prov.integrated_mean_curvature(grid)
    assert total == checked.integrated_mean_curvature(grid)
    assert total == total_mean_curvature_grid(domain, resolution=260)
    assert searched == [len(prov.centers)]
    assert prov._closest is None and checked._closest is not None
    scaled = fields_affine(ScalarField(grid, prov.values(grid), analytic=prov), 0.5, 0.1)
    assert scaled.analytic.separation == prov.separation
    scaled.analytic.values(grid)
    assert searched == [len(prov.centers)] and scaled.analytic._closest is None


def _flat_cap(height, offset, support):
    """u = offset + height on the cap of this radius about e_1, offset elsewhere."""
    def jet(r):
        zero = 0.0 * r
        return height + zero, zero, zero
    return GeodesicRadialField(np.array([[1.0, 0.0, 0.0]]), jet, support, offset=offset)


@pytest.mark.parametrize("height, offset", [(-1.5, 0.0), (1.5, -1.0)])
def test_grid_check_refuses_a_profile_that_is_not_star_shaped(monkeypatch, height, offset):
    # 1 + u <= 0 inside the cap, then only outside it: refused as the
    # StarDomain of the same field refuses it
    grid = build_grid(3, 64)
    prov = _flat_cap(height, offset, 0.3)
    with pytest.raises(ValueError, match=r"1 \+ u > 0"):
        StarDomain(ScalarField(grid, prov.values(grid), analytic=prov))
    with pytest.raises(ValueError, match=r"1 \+ u > 0"):
        prov.integrated_mean_curvature(grid)
    monkeypatch.setattr(cx.DentedSphere, "provider", lambda self: prov)
    with pytest.raises(ValueError, match=r"1 \+ u > 0"):
        total_mean_curvature_grid(build_counterexample(3, 0.3, 10.0), resolution=64)


def test_grid_check_ignores_an_outside_value_no_node_takes():
    # the cap covers the sphere, so u = 0.5 at every node: the sphere of
    # radius 1.5, int H = 2/1.5 * 4 pi 1.5^2
    grid = build_grid(3, 64)
    prov = _flat_cap(2.5, -2.0, np.pi + 1.0)
    assert_allclose(prov.integrated_mean_curvature(grid), 12.0 * math.pi,
                    rtol=1e-13)
    assert StarDomain(ScalarField(grid, prov.values(grid), analytic=prov))


def test_translated_refuses_an_analytic_profile():
    # a spectral refit smooths the dents: at kappa = 4 a shift of 1e-3 moved
    # int H^- from 1.2668 to 1.6419 (and to 1.2059 by finite differences)
    K = build_counterexample(3, 0.3, 4.0).on_grid(build_grid(3, 64))
    with pytest.raises(ValueError, match="compactly supported"):
        K.translated([1e-3, 0.0, 0.0])


@pytest.mark.parametrize("resolution", [520, 1040])
def test_grid_check_peak_does_not_grow_with_the_grid(resolution):
    # kappa = 40 at its default resolution 520 (540,800 nodes) and at 1040
    # (2.16M nodes): the pass builds no node array, so its traced peak is
    # one member block and its terms, about 7 MB at both, where building
    # the grid took 51 and 111 MB
    domain = build_counterexample(3, 0.3, 40.0)
    domain.centers.points
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total_mean_curvature_grid(domain, resolution)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_grid_check_builds_no_node_array(monkeypatch):
    domain = build_counterexample(3, 0.3, 20.0)
    expected = _kdtree_grid_total(domain)

    def refuse(self):
        raise AssertionError("the grid check read a whole node array")
    monkeypatch.setattr(SphericalGrid, "nodes", property(refuse))
    monkeypatch.setattr(SphericalGrid, "weights", property(refuse))
    assert total_mean_curvature_grid(domain) == expected
