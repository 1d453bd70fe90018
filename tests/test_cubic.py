import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quermass import cubic, fields
from quermass.axisym import AxialProfile
from quermass.cubic import (
    cubic_term,
    eigenvalue_interpolation_check,
    high_frequency_bound_check,
    integration_by_parts_residual,
    mean_curvature_pair,
    random_c1_field,
    slack_ratio_ladder,
    volumetric_pair,
)
from quermass.grids import build_grid
from quermass.stardomain import fields_affine


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 32)


def test_constant_field_gives_zero(grid):
    f = fields.analyze(fields.constant_field(grid, 0.2), L=4)
    assert abs(cubic_term(f)) < 1e-30
    assert abs(cubic_term(f, mean_curvature_pair(3).f)) < 1e-30


def test_integration_by_parts(grid):
    eps = 0.05
    from quermass.fields import ScalarField
    u = fields.analyze(ScalarField(grid, eps * grid.nodes[:, 0]))
    # int hess[grad,grad] = -1/2 int lap |grad|^2
    assert abs(integration_by_parts_residual(u)) < 1e-8
    rng = np.random.default_rng(3)
    v = fields.random_band_limited(grid, 10, rng)
    v = fields_affine(v, 0.1 / np.max(np.abs(v.values)), 0.0)
    assert abs(integration_by_parts_residual(v)) < 1e-8


def test_integration_by_parts_zonal():
    for n in (4, 5):
        prof = random_c1_field(n, 0.1, seed=12)
        assert abs(integration_by_parts_residual(prof)) < 1e-8


@pytest.mark.parametrize("seed", [0, 7, 41])
def test_random_field_is_scaled_by_the_c1_norm_of_its_field_data(grid, seed):
    # the scale reads only values and gradient, but gives the bits of the
    # C^1 norm of the full field data (values, gradient and Hessian)
    u = random_c1_field(3, 0.1, seed=seed, grid=grid)
    f = fields.random_band_limited(grid, 12, np.random.default_rng(seed))
    want = fields_affine(f, 0.1 / cubic._field_data(f).c1_norm(), 0.0)
    assert np.array_equal(u.values, want.values)
    assert np.array_equal(u.coeffs, want.coeffs)


def test_zonal_eigenvalues_match_1d_formula(grid):
    rng = np.random.default_rng(7)
    c = np.zeros(11)
    c[1:] = rng.standard_normal(10) * np.arange(1, 11.0) ** -2
    prof = AxialProfile.from_zonal_coeffs(3, c)
    prof = AxialProfile.from_zonal_coeffs(3, c * (0.1 / prof.c1_norm()))
    from quermass.axisym import lift_to_sphere
    u2d = lift_to_sphere(prof, grid)
    eigs2d = np.linalg.eigvalsh(fields.hessian_frame(u2d))
    theta = np.arccos(np.clip(grid.nodes[:, 0], -1, 1))
    Vdd = prof.curvature_slope(theta)
    cot = prof.slope(theta) * np.cos(theta) / np.sin(theta)
    ref = np.sort(np.stack([Vdd, cot], axis=1), axis=1)
    assert np.max(np.abs(eigs2d - ref)) < 1e-6


def test_interpolation_bound_degree_one(grid):
    from quermass.fields import ScalarField
    u = fields.analyze(ScalarField(grid, 0.05 * grid.nodes[:, 0]))
    rep = eigenvalue_interpolation_check(u)
    assert rep["margin"] >= -1e-10


@pytest.mark.parametrize("n,count", [(3, 60), (4, 60)])
def test_interpolation_bound_random_suite(n, count):
    grid = build_grid(3, 32) if n == 3 else None
    for i in range(count):
        u = random_c1_field(n, 0.1, seed=1000 * n + i, grid=grid)
        rep = eigenvalue_interpolation_check(u)
        assert rep["margin"] >= -1e-7, (n, i)


def test_presets_normalized():
    for n in (3, 4, 5):
        mean_curvature_pair(n)
        volumetric_pair(n)


def test_high_frequency_bound_pure_high_mode(grid):
    rng = np.random.default_rng(17)
    c = np.zeros((13) ** 2)
    c[12 * 12:(13) ** 2] = rng.standard_normal(25)  # pure degree-12 mix
    u = fields.synthesize(c, grid)
    u = fields_affine(u, 0.02 / max(np.max(np.abs(u.values)), 1.0), 0.0)
    d = cubic._field_data(u)
    u = fields_affine(u, 0.02 / d.c1_norm(), 0.0)
    rep = high_frequency_bound_check(u, mean_curvature_pair(3))
    assert rep["holds"]


def test_high_frequency_bound_rejects_large_fields(grid):
    u = random_c1_field(3, 0.5, seed=2, grid=grid)
    with pytest.raises(ValueError):
        high_frequency_bound_check(u, mean_curvature_pair(3), eps_cap=0.35)


@pytest.mark.parametrize("n", [3, 4])
def test_high_frequency_bound_suite(n):
    grid = build_grid(3, 32) if n == 3 else None
    for preset in (mean_curvature_pair(n), volumetric_pair(n)):
        for i in range(25):
            u = random_c1_field(n, 0.03, seed=4000 + i, grid=grid)
            rep = high_frequency_bound_check(u, preset)
            assert rep["holds"], (n, preset.name, i)


def test_slack_ratio_ladder_small(grid):
    out = slack_ratio_ladder(3, mean_curvature_pair(3),
                             eps_levels=(0.04, 0.02, 0.01), count=25, seed=77)
    assert out["monotone"], out["mean_abs_ratio"]
    m = out["mean_abs_ratio"]
    # the slack is roughly linear in the C1 size
    assert m[0.04] > 1.5 * m[0.02] > 2.0 * m[0.01]


@pytest.mark.parametrize("n", [3, 4])
def test_one_split_per_draw_gives_each_pair_its_own_ladder(n):
    # both pairs checked on one split per (draw, level) give the rows and
    # means of a ladder per pair, bit for bit
    pairs = (mean_curvature_pair(n), volumetric_pair(n))
    shared = cubic.slack_ratio_ladders(n, pairs, count=4, seed=31)
    for pair, out in zip(pairs, shared):
        alone = slack_ratio_ladder(n, pair, count=4, seed=31)
        assert out["rows"] == alone["rows"]
        assert out["mean_abs_ratio"] == alone["mean_abs_ratio"]
        assert out["monotone"] == alone["monotone"]
        for row in out["rows"]:
            u = random_c1_field(n, 1.0, seed=row["seed"],
                                grid=build_grid(3, 32) if n == 3 else None)
            u = (fields_affine(u, row["eps_scale"], 0.0) if n == 3 else
                 AxialProfile.from_zonal_coeffs(n, u.coeffs * row["eps_scale"],
                                                resolution=u.resolution))
            assert high_frequency_bound_check(u, pair)["lhs"] == row["lhs"]


def test_bound_check_refuses_field_data_without_a_split(grid):
    u = random_c1_field(3, 0.03, seed=5, grid=grid)
    with pytest.raises(ValueError, match="no frequency split"):
        high_frequency_bound_check(cubic._field_data(u), mean_curvature_pair(3))
    split = cubic.split_field_data(u)
    assert (high_frequency_bound_check(split, mean_curvature_pair(3))
            == high_frequency_bound_check(u, mean_curvature_pair(3)))
