"""Grid membership of GeodesicRadialField against a KD-tree oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from quermass import analytic
from quermass.analytic import GeodesicRadialField, zonal_field
from quermass.counterexample import make_bump, pack_points
from quermass.grids import build_grid, tangent_frames


def _oracle_members(field, grid):
    """(node, center, d) of the nodes within the support of their nearest
    center, the nearest center found by a KD-tree query over all nodes."""
    nodes = grid.nodes
    if len(field.centers) > 1:
        _, center = cKDTree(field.centers).query(nodes, k=1)
    else:
        center = np.zeros(len(nodes), dtype=np.int64)
    dots = np.einsum("ij,ij->i", nodes, field.centers[center])
    d = np.arccos(np.clip(dots, -1.0, 1.0))
    node = np.flatnonzero(d < field.support)
    return node, center[node], d[node]


def _members(field, grid, block):
    blocks = list(field.grid_members(grid, block))
    starts = [b[0] for b in blocks]
    assert starts == list(range(0, grid.num_nodes, block))
    for start, stop, idx, *_ in blocks:
        assert stop == min(start + block, grid.num_nodes)
        assert np.all((idx >= start) & (idx < stop))
    node, center, dots, d = (np.concatenate([b[k] for b in blocks]) for k in range(2, 6))
    order = np.argsort(node, kind="stable")
    return node[order], center[order], dots[order], d[order]


def _assert_same_members(field, grid, block):
    want_node, want_center, want_d = _oracle_members(field, grid)
    node, center, dots, d = _members(field, grid, block)
    assert np.array_equal(node, want_node)          # same set, no node twice
    assert np.array_equal(center, want_center)
    assert np.array_equal(d, want_d)                # bit-equal distances
    assert np.array_equal(np.arccos(np.clip(dots, -1.0, 1.0)), d)
    return node


@settings(max_examples=40, deadline=None)
@given(kappa=st.floats(min_value=1.0, max_value=60.0),
       seed=st.integers(min_value=0, max_value=5),
       resolution=st.integers(min_value=8, max_value=300),
       block_fraction=st.floats(min_value=0.05, max_value=1.0),
       on_boundary=st.booleans())
def test_band_membership_matches_kdtree(kappa, seed, resolution, block_fraction,
                                        on_boundary):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    centers = pack_points(3, kappa).points @ (q * np.sign(np.diag(r)))
    grid = build_grid(3, resolution)
    support = 1.0 / kappa
    if on_boundary:
        # put one node exactly on the boundary: the support is the next
        # float above its distance, so it is a member by the last bit
        field = GeodesicRadialField(centers, None, None, None, np.pi)
        d = field.geodesic_distance(grid.nodes)
        near = np.flatnonzero((d > 0.5 * support) & (d < support))
        if near.size:
            support = float(np.nextafter(d[near[seed % near.size]], np.inf))
    field = GeodesicRadialField(centers, None, None, None, support)
    block = max(1, int(block_fraction * grid.num_nodes))
    _assert_same_members(field, grid, block)


def test_band_membership_at_the_poles_and_the_seams():
    s2, s3 = math.sqrt(0.5), math.sqrt(3.0) / 2.0
    centers = np.array([
        [1.0, 0.0, 0.0],              # north pole
        [-1.0, 0.0, 0.0],             # south pole
        [0.0, -1.0, 0.0],             # on phi = +pi
        [s2, -s2, -0.0],              # on phi = -pi
        [-0.5, s3, -1e-9],            # just below phi = 0, where the nodes start
    ])
    for resolution in (8, 9, 64, 101, 300):
        grid = build_grid(3, resolution)
        for support in (0.05, 0.3):
            field = GeodesicRadialField(centers, None, None, None, support)
            node = _assert_same_members(field, grid, 1000)
            # caps 0.6 or more apart; the polar ones hold whole rows of nodes
            assert np.all(np.isin(np.flatnonzero(grid.nodes[:, 0] > math.cos(support)),
                                  node))


def test_band_membership_on_the_support_boundary():
    # the support is set, one node at a time, to the next float above that
    # node's distance: the node is a member by its last bit, and the padded
    # rows and windows must still hold it
    grid = build_grid(3, 96)
    m = 2 * 96
    generic = np.array([0.3, 0.6, -0.2]) / np.linalg.norm([0.3, 0.6, -0.2])
    meridian = np.array([math.cos(1.0), math.sin(1.0), 0.0])   # on phi = 0
    for center in (generic, meridian):
        field = GeodesicRadialField(center[None], None, None, None, np.pi)
        d = field.geodesic_distance(grid.nodes)
        near = np.argsort(np.abs(d - 0.25))[:40]
        if center is meridian:
            # the nodes on the center's meridian: each is the extreme node of its row
            near = np.flatnonzero((np.arange(grid.num_nodes) % m == 0) & (d < 0.5))
        for i in near:
            field.support = float(np.nextafter(d[i], np.inf))
            node = _assert_same_members(field, grid, grid.num_nodes)
            assert i in node


def test_global_zonal_field_covers_every_node():
    grid = build_grid(3, 17)
    field = zonal_field(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))
    node = _assert_same_members(field, grid, 100)
    assert np.array_equal(node, np.arange(grid.num_nodes))


def test_overlapping_supports_are_refused():
    # centers pi/6 apart: supports of 0.3 overlap, supports of 0.26 do not
    centers = np.array([[1.0, 0.0, 0.0],
                        [math.cos(math.pi / 6), math.sin(math.pi / 6), 0.0]])
    grid = build_grid(3, 64)
    field = GeodesicRadialField(centers, np.cos, np.sin, np.cos, support=0.3)
    assert np.allclose(field.geodesic_distance(centers), 0.0)   # distances only
    with pytest.raises(ValueError, match="centers 0 and 1 are 0.523599 apart"):
        field.values(grid)
    with pytest.raises(ValueError, match="supports overlap"):
        field.values_at(grid.nodes)
    field = GeodesicRadialField(centers, np.cos, np.sin, np.cos, support=0.26)
    assert np.array_equal(field.values(grid), field.values_at(grid.nodes))


def _far_pair():
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.fixture
def pair_searches(monkeypatch):
    """The calls of analytic._closest_pair made while the test runs."""
    calls = []
    search = analytic._closest_pair

    def counted(points):
        calls.append(len(points))
        return search(points)
    monkeypatch.setattr(analytic, "_closest_pair", counted)
    return calls


def test_closest_pair_is_searched_once_on_first_use(pair_searches):
    grid = build_grid(3, 32)
    field = GeodesicRadialField(_far_pair(), np.cos, np.sin, np.cos, support=0.3)
    field.geodesic_distance(_far_pair())
    assert pair_searches == [] and field._closest is None
    field.values(grid)
    field.values_at(grid.nodes)
    field.grad_frame(grid)
    assert pair_searches == [2]
    assert field._closest[1:] == (0, 1) and abs(field._closest[0] - math.pi / 2) <= 1e-15


def test_proven_separation_replaces_the_pair_search(pair_searches):
    # sqrt(2) apart: a geodesic gap of pi/2 proves supports of 0.3
    # disjoint, so neither the n = 3 band route nor an arbitrary point's
    # nearest center needs the closest-pair search
    grid = build_grid(3, 64)
    proven = GeodesicRadialField(_far_pair(), np.cos, np.sin, np.cos, support=0.3,
                                 separation=math.sqrt(2.0))
    checked = GeodesicRadialField(_far_pair(), np.cos, np.sin, np.cos, support=0.3)
    assert np.array_equal(proven.values(grid), checked.values(grid))
    assert np.array_equal(proven.values_at(grid.nodes), proven.values(grid))
    assert proven._closest is None and checked._closest is not None
    assert pair_searches == [2]


@pytest.mark.parametrize("seed", range(4))
def test_closest_pair_matches_kdtree(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((300, 3 + seed % 2))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    chord, idx = cKDTree(pts).query(pts, k=2)
    i = int(np.argmin(chord[:, 1]))
    want = (chord[i, 1], min(i, idx[i, 1]), max(i, idx[i, 1]))
    got = analytic._closest_pair(pts)
    assert got[1:] == want[1:] and abs(got[0] - want[0]) <= 1e-15


@pytest.mark.parametrize("separation", [None, 1e-3, 0.5])
def test_a_separation_that_proves_nothing_leaves_the_tree_check(separation):
    # centers pi/6 apart (chord 0.5176): no bound below it shows supports
    # of 0.3 disjoint, and the closest-pair search finds the overlap
    centers = np.array([[1.0, 0.0, 0.0],
                        [math.cos(math.pi / 6), math.sin(math.pi / 6), 0.0]])
    field = GeodesicRadialField(centers, np.cos, np.sin, np.cos, support=0.3,
                                separation=separation)
    with pytest.raises(ValueError, match="centers 0 and 1 are 0.523599 apart"):
        field.values(build_grid(3, 32))


@pytest.mark.parametrize("separation", [None, 2.0 * math.sin(math.pi / 12)])
def test_a_support_enlarged_after_use_is_checked_again(separation):
    # centers pi/6 apart: supports of 0.2 are disjoint, from the closest
    # pair or from the exact chord, and supports of 0.3 overlap, so the
    # enlarged field is refused on both routes
    centers = np.array([[1.0, 0.0, 0.0],
                        [math.cos(math.pi / 6), math.sin(math.pi / 6), 0.0]])
    grid = build_grid(3, 64)
    field = GeodesicRadialField(centers, np.cos, np.sin, np.cos, support=0.2,
                                separation=separation)
    assert np.array_equal(field.values(grid), field.values_at(grid.nodes))
    field.support = 0.3
    with pytest.raises(ValueError, match="centers 0 and 1 are 0.523599 apart"):
        field.values(grid)
    with pytest.raises(ValueError, match="supports overlap"):
        field.values_at(grid.nodes)


def test_affine_rescales_the_field_and_keeps_the_separation_proof(pair_searches):
    grid = build_grid(3, 32)
    field = GeodesicRadialField(_far_pair(), np.cos, lambda r: -np.sin(r),
                                lambda r: -np.cos(r), support=0.3, offset=0.1,
                                separation=math.sqrt(2.0))
    moved = field.affine(0.5, -0.2)
    assert (moved.support, moved.separation) == (field.support, field.separation)
    assert np.allclose(moved.values(grid), 0.5 * field.values(grid) - 0.2,
                       rtol=0.0, atol=1e-16)
    assert np.array_equal(moved.grad_frame(grid), 0.5 * field.grad_frame(grid))
    assert pair_searches == []


@pytest.mark.parametrize("n", [3, 4])
def test_per_grid_methods_equal_the_points_api(n):
    # the per-grid methods find members by latitude bands (n = 3) or each
    # node's nearest center (n = 4); both must give the values of the
    # points API
    grid = build_grid(n, 24)
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((3, n))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    while np.min(np.linalg.norm(centers[:, None] - centers[None], axis=2)
                 + 3 * np.eye(3)) < 1.0:
        centers = rng.standard_normal((3, n))
        centers /= np.linalg.norm(centers, axis=1)[:, None]
    bump = make_bump(2.5, 0.3)
    field = GeodesicRadialField(centers, bump.depth, bump.slope,
                                bump.slope_derivative, support=bump.radius,
                                offset=0.01)
    nodes = grid.nodes
    u, grad2, lap, cubic = field.scalar_invariants(nodes, n)
    assert np.array_equal(field.values(grid), field.values_at(nodes))
    assert np.array_equal(field.values(grid), u)
    assert np.array_equal(field.laplacian(grid), lap)
    frames = tangent_frames(grid)
    grad = np.einsum("ikj,ij->ik", frames, field.gradient_at(nodes))
    assert np.array_equal(field.grad_frame(grid), grad)
    assert np.allclose(np.einsum("ik,ik->i", grad, grad), grad2, rtol=1e-12, atol=1e-15)
    hess = np.einsum("iaj,ijk,ibk->iab", frames, field.hessian_ambient(nodes), frames)
    assert np.array_equal(field.hessian_frame(grid), hess)
    inside = field.geodesic_distance(nodes) < field.support
    assert 0 < inside.sum() < grid.num_nodes
    assert np.all(field.phi_gradient_dot_grad(grid)[~inside] == 0.0)
