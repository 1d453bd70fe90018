import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.spatial import cKDTree

from quermass import counterexample as cx, geometry
from quermass.axisym import axial_functionals
from quermass.counterexample import (
    FIB_MIN_DIST,
    MemoryBudgetError,
    PackedPoints,
    _thinned_fibonacci,
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
from quermass.grids import build_grid, panel_rule, sphere_area


# -- reference packer: the KD-tree thinning that pack_points(3, kappa)
# must reproduce exactly


def _reference_thinning(count, min_d):
    pts = fibonacci_sphere(count)
    for _ in range(8):
        tree = cKDTree(pts)
        bad = tree.query_pairs(r=min_d * (1.0 - 1e-12), output_type="ndarray")
        if len(bad) == 0:
            break
        pts = np.delete(pts, np.unique(bad[:, 1]), axis=0)
    else:
        raise RuntimeError("could not thin the lattice to the distance bound")
    if len(pts) < 2:
        return None
    d, _ = cKDTree(pts).query(pts, k=2, workers=-1)
    return pts, float(d[:, 1].min())


def _lattice_count(kappa):
    return max(2, int((FIB_MIN_DIST * kappa / 2.0) ** 2 * 0.999))


def _is_antipodal(packed):
    return (packed.count == 2 and packed.min_distance == 2.0
            and packed.points[0, 0] == 1.0 and packed.points[1, 0] == -1.0)


def test_bump_box_constraints():
    bump = make_bump(10.0, 0.2)
    checks = bump.validate()
    assert checks["ok"]
    assert abs(float(bump.slope(np.array([0.05]))[0]) - 0.1) < 1e-15  # plateau
    assert float(bump.depth(np.array([0.0]))[0]) >= -0.1


def test_bump_integral_against_adaptive_quadrature():
    bump = make_bump(10.0, 0.2)
    n = 3
    val, err = quad(lambda r: bump.slope(np.array([r]))[0] ** 2 * r ** (n - 3),
                    0.0, bump.radius, limit=200)
    r, w = panel_rule((0.0, *bump.breakpoints), 24, 8)
    mine = float(np.sum(w * bump.slope(r) ** 2 * r ** (n - 3)))
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
    ref = _reference_thinning(_lattice_count(kappa), 2.0 / kappa)
    if ref is None:
        assert _is_antipodal(packed)
    else:
        assert np.array_equal(packed.points, ref[0])
        assert packed.min_distance == ref[1]


@pytest.mark.parametrize("kappa", [3.3, 10.0, 20.0, 40.0, 80.0])
def test_oversized_lattice_loses_the_same_points(kappa):
    # 20% more points than the lattice holds at spacing 2/kappa, so the
    # certificate must find and drop many close pairs
    count = int(1.2 * _lattice_count(kappa))
    ref_pts, ref_min = _reference_thinning(count, 2.0 / kappa)
    pts, d_min = _thinned_fibonacci(count, 2.0 / kappa)
    assert len(pts) < 0.9 * count
    assert np.array_equal(pts, ref_pts)
    assert d_min == ref_min


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
    with pytest.raises(MemoryBudgetError, match="RING_WORK_LIMIT"):
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
    with pytest.raises(MemoryBudgetError, match="nodes"):
        total_mean_curvature_grid(domain, resolution=100_000)


def test_grid_check_peak_per_node_is_within_its_estimate():
    # kappa = 10 runs the smallest grid (resolution 256, one chunk), where
    # the chunk's temporaries weigh most per node
    domain = build_counterexample(3, 0.3, 10.0)
    nodes = 2 * 256 * 256
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        total_mean_curvature_grid(domain)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / nodes <= cx._BYTES_PER_GRID_NODE


class _PastBudget(Exception):
    pass


def _raise_past_budget(*args, **kwargs):
    raise _PastBudget


def test_budget_follows_physical_memory(monkeypatch):
    # on 8 GiB the kappa = 5120 lattice (62.6M points, ~4.7 GiB) and the
    # kappa = 320 grid check (34.6M nodes, ~4.1 GiB) are let through to
    # the allocation, which is stubbed out; on 4 GiB both are refused
    domain = build_counterexample(3, 0.3, 320.0)
    monkeypatch.setattr(cx, "fibonacci_sphere", _raise_past_budget)
    monkeypatch.setattr(cx, "build_grid", _raise_past_budget)
    monkeypatch.setattr(cx, "_physical_memory", lambda: 8 * 2**30)
    assert cx.memory_budget() == 6 * 2**30
    with pytest.raises(_PastBudget):
        pack_points(3, 5120.0)
    with pytest.raises(_PastBudget):
        total_mean_curvature_grid(domain)
    monkeypatch.setattr(cx, "_physical_memory", lambda: 4 * 2**30)
    with pytest.raises(MemoryBudgetError, match="62,596,850 points"):
        pack_points(3, 5120.0)
    with pytest.raises(MemoryBudgetError, match="34,611,200 nodes"):
        total_mean_curvature_grid(domain)


def test_search_stops_at_the_last_kappa_within_budget(monkeypatch):
    # a budget that admits the kappa = 80 lattice (15282 points) but not 160
    monkeypatch.setattr(cx, "_physical_memory",
                        lambda: 20_000 * cx._BYTES_PER_LATTICE_POINT
                        / cx.MEMORY_FRACTION)
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
    eps, _ = K.eps_size(optimize_center=False)
    assert eps <= 0.3 * 1.05


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
    # smaller packing scale; packings are shared across the two searches
    cache = {}
    out_deep = find_negative_mean_curvature(3, 0.35, kappa_start=160.0,
                                            packing_cache=cache)
    out_shallow = find_negative_mean_curvature(3, 0.3, kappa_start=160.0,
                                               packing_cache=cache)
    assert out_deep["found"] and out_shallow["found"]
    assert out_deep["kappa_star"] <= out_shallow["kappa_star"]


def test_packing_cache_is_keyed_by_dimension_and_kappa():
    # one dict shared across dimensions hands every call its own packing,
    # never one cached for another n at the same kappa, and reuses it for
    # another eps
    cache = {}
    for n in (3, 4):
        rec = total_mean_curvature(n, 0.3, 4.0, packing_cache=cache)
        assert rec["count"] == cache[(n, 4.0)].count == pack_points(n, 4.0).count
    assert sorted(cache) == [(3, 4.0), (4, 4.0)]
    assert np.array_equal(cache[(3, 4.0)].points, pack_points(3, 4.0).points)
    assert cache[(4, 4.0)].points is None
    packed = cache[(4, 4.0)]
    total_mean_curvature(4, 0.2, 4.0, packing_cache=cache)
    assert cache[(4, 4.0)] is packed and len(cache) == 2


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
        f, fd, fdd = bump.depth(th), bump.slope(th), bump.slope_derivative(th)
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
    """(u, |grad u|^2, lap u, cubic) with every node's nearest center found
    by a KD-tree query and the profile evaluated at every node."""
    bump = domain.bump
    centers = domain.centers.points
    _, idx = cKDTree(centers).query(nodes, k=1)
    dots = np.einsum("ij,ij->i", nodes, centers[idx])
    d = np.arccos(np.clip(dots, -1.0, 1.0))
    inside = d < bump.radius
    dd = np.where(inside, d, 0.0)
    fv = np.where(inside, bump.depth(dd), 0.0)
    fdv = np.where(inside, bump.slope(dd), 0.0)
    fddv = np.where(inside, bump.slope_derivative(dd), 0.0)
    _, lap = geometry.zonal_laplacian(fdv, fddv, dd, 3)
    return 0.0 + fv, fdv**2, lap, fddv * fdv**2


def _kdtree_grid_total(domain, resolution=None, chunk=400_000):
    if resolution is None:
        resolution = max(256, int(math.ceil(13 * domain.kappa)))
    grid = build_grid(3, resolution)
    total = 0.0
    for i0 in range(0, grid.num_nodes, chunk):
        sl = slice(i0, i0 + chunk)
        u, grad2, lap, cubic = _kdtree_profile(domain, grid.nodes[sl])
        H = geometry.mean_curvature_from_scalars(u, grad2, lap, cubic, 3)
        J = geometry.area_jacobian(u, grad2, 3)
        total += float(np.sum(grid.weights[sl] * H * J))
    return total


@pytest.mark.parametrize("kappa", [1.0, 10.0, 20.0])
@pytest.mark.parametrize("eps", [0.1, 0.45])
@pytest.mark.parametrize("split", [0, 1])
def test_grid_check_is_bit_identical_to_the_kdtree_route(kappa, eps, split):
    # split = 1: chunks of a prime node count, whose edges cut through dents
    chunk = 9_973 if split else 400_000
    domain = build_counterexample(3, eps, kappa)
    assert (total_mean_curvature_grid(domain, chunk=chunk)
            == _kdtree_grid_total(domain, chunk=chunk))


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


def test_grid_check_memory_within_its_budget():
    # kappa = 40: resolution 520, 540,800 nodes
    domain = build_counterexample(3, 0.3, 40.0)
    nodes = 2 * 520 * 520
    tracemalloc.start()
    try:
        total_mean_curvature_grid(domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cx._BYTES_PER_GRID_NODE * nodes
