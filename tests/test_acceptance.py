"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS line on success (run with -s to see
them); tolerances are fixed here, not tuned at runtime.
"""

import math
import time
import warnings

import numpy as np
import pytest

from quermass import counterexample, cubic, deficits, fields, harmonics, suites
from quermass.axisym import AxialProfile, axial_functionals
from quermass.fields import ScalarField
from quermass.grids import build_grid
from quermass.reporting import csv_bytes
from quermass.stardomain import StarDomain

warnings.filterwarnings("ignore")


def _report(num, name, detail=""):
    print(f"CRITERION {num} ({name}): PASS {detail}")


@pytest.fixture(scope="module")
def grid32():
    return build_grid(3, 32)


def test_criterion_1_closed_forms(grid32):
    t0 = time.time()
    K = StarDomain(fields.analyze(fields.constant_field(grid32, 0.0), L=4))
    F = K.curvature_integrals()
    assert abs(F.volume - 4 * math.pi / 3) <= 1e-10 * (4 * math.pi / 3)
    assert abs(F.perimeter - 4 * math.pi) <= 1e-10 * (4 * math.pi)
    assert abs(F.int_H - 8 * math.pi) <= 1e-10 * (8 * math.pi)
    assert abs(F.int_sigma[1] - 4 * math.pi) <= 1e-10 * (4 * math.pi)

    prof = AxialProfile.from_zonal_coeffs(4, np.zeros(2), resolution=128)
    F4 = axial_functionals(prof)
    assert abs(F4.perimeter - 2 * math.pi**2) <= 1e-8 * (2 * math.pi**2)
    assert abs(F4.int_H - 6 * math.pi**2) <= 1e-8 * (6 * math.pi**2)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, "closed forms at the ball", f"[{elapsed:.2f}s]")


def test_criterion_2_curvature_formula_agreement():
    t0 = time.time()
    out = suites.route_agreement_suite(count=100, eps=0.3, seed=2024,
                                       resolution=64, L=6, tolerance=1e-7)
    assert out["passed"], out["summary"]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(2, "mean-curvature formula agreement",
            f"worst {out['summary']['worst_disagreement']:.2e} [{elapsed:.1f}s]")


def _quadratic_mode_domain(grid, eps):
    c = np.zeros(harmonics.coeff_count(4))
    c[harmonics.flat_index(2, 0)] = eps
    return StarDomain(fields.synthesize(c, grid))


def test_criterion_3_perimeter_expansion_halving(grid32):
    t0 = time.time()
    residuals = {}
    for eps in (0.02, 0.01):
        rep = deficits.perimeter_expansion_deficit(_quadratic_mode_domain(grid32, eps))
        residuals[eps] = abs(rep["residual"])
    factor = residuals[0.02] / residuals[0.01]
    assert factor >= 6.0, residuals
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(3, "perimeter expansion residual halving",
            f"factor {factor:.2f} [{elapsed:.1f}s]")


def test_criterion_4_mean_curvature_expansion_halving(grid32):
    t0 = time.time()
    residuals = {}
    pair = cubic.mean_curvature_pair(3)
    for eps in (0.02, 0.01):
        K = _quadratic_mode_domain(grid32, eps)
        F = K.curvature_integrals()
        u = K.profile
        mu, mu2, mg2 = K.profile_quadratics()
        cub = cubic.cubic_term(u, pair.f)
        predicted = 2.0 * mu + 0.0 * mu2 + 1.0 * mg2 + cub
        residuals[eps] = abs(F.int_H - 8 * math.pi - predicted)
    factor = residuals[0.02] / residuals[0.01]
    assert factor >= 6.0, residuals
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(4, "total mean curvature expansion residual halving",
            f"factor {factor:.2f} [{elapsed:.1f}s]")


def test_criterion_5_eigenvalue_interpolation():
    t0 = time.time()
    out = suites.eigen_interpolation_suite(count=1000, ns=(3, 4),
                                           eps_scale=0.1, seed=4001,
                                           tolerance=1e-7)
    assert out["passed"], out["summary"]
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(5, "Hessian eigenvalue interpolation bound",
            f"worst margin {out['summary']['worst_margin']:.2e} [{elapsed:.1f}s]")


def test_criterion_6_frequency_split_slack_shrinks():
    t0 = time.time()
    out = suites.frequency_split_suite(count=300, eps_levels=(0.04, 0.02, 0.01),
                                       seed=5001)
    assert out["passed"], out["summary"]
    for preset, means in out["summary"].items():
        ordered = [means[e] for e in (0.04, 0.02, 0.01)]
        assert ordered[0] > ordered[1] > ordered[2], (preset, means)
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report(6, "high-frequency slack decreases with C1 size",
            f"{ {k: [f'{means[e]:.1e}' for e in (0.04, 0.02, 0.01)] for k, means in out['summary'].items()} } [{elapsed:.1f}s]")


def test_criterion_7_radial_identity():
    t0 = time.time()
    out = suites.radial_identity_suite(ns=(3, 4, 5), kappas=(10.0, 40.0),
                                       eps_values=(0.1, 0.3), tolerance=1e-10)
    assert out["passed"], out["summary"]
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(7, "flat radial cubic identity",
            f"exact-case residual {out['summary']['worst_exact_case_residual']:.1e} [{elapsed:.1f}s]")


def test_criterion_8_dented_sphere():
    t0 = time.time()
    sweep = suites.dent_sweep_suite(eps=0.3, kappas=(20.0, 40.0, 80.0, 160.0),
                                    gap_tolerance=1e-2)
    assert sweep["passed"], sweep["summary"]
    fit = sweep["summary"]["fit"]
    assert fit["slope"] < 0 and fit["r_squared"] >= 0.9

    search = suites.negative_total_curvature_suite(eps=0.3, threshold=-1.0,
                                                   kappa_start=20.0)
    assert search["passed"], search["summary"]
    assert search["summary"]["int_H"] < -1.0
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report(8, "dented sphere reaches negative total curvature",
            f"kappa* {search['summary']['kappa_star']:.0f}, "
            f"int H {search['summary']['int_H']:.2f}, "
            f"slope {fit['slope']:.3e}, worst gap {sweep['summary']['worst_gap']:.2e} "
            f"[{elapsed:.0f}s]")


def test_criterion_9_deficit_nonnegativity():
    t0 = time.time()
    nuclear = suites.nuclear_deficit_suite(count=200, eps=0.05, seed=7001)
    assert nuclear["passed"], nuclear["summary"]
    axial = suites.axial_deficit_suite(count=201, eps=0.05, seed=7501,
                                       ns=(3, 4, 5))
    assert axial["passed"], axial["summary"]
    stability = suites.stability_suite(count=200, eps=0.05, seed=8001, n=4)
    assert stability["passed"], stability["summary"]
    c4 = stability["summary"]["empirical_stability_constant"]
    assert c4 > 0
    elapsed = time.time() - t0
    assert elapsed < 240.0
    _report(9, "deficit nonnegativity suites",
            f"worst margins: nuclear {nuclear['summary']['worst_margin']:.1e}, "
            f"axial {axial['summary']['worst_margin']:.1e}, "
            f"volumetric {stability['summary']['worst_margin']:.1e}; "
            f"empirical stability constant c(4) ~ {c4:.3f} [{elapsed:.0f}s]")


def test_criterion_10_conjecture_harness():
    t0 = time.time()
    out = suites.conjecture_suite(n3_cap=12, n3_restarts=12, seed=9001,
                                  levels=(8, 16, 32, 64))
    assert out["passed"], out["summary"]
    assert abs(out["summary"]["n2_best"]) <= 1e-8
    assert out["summary"]["green_min_ratio"] > 0
    assert out["summary"]["gradient_check_max"] <= 1e-5
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report(10, "gradient-energy conjecture harness",
            f"n=2 best {out['summary']['n2_best']:.1e}, "
            f"n=3 best {out['summary']['n3_best']:.3f}, "
            f"Green min ratio {out['summary']['green_min_ratio']:.3f} [{elapsed:.0f}s]")


def test_criterion_11_determinism():
    t0 = time.time()
    runs = []
    for _ in range(2):
        blobs = []
        out = suites.eigen_interpolation_suite(count=40, seed=4001)
        blobs.append(csv_bytes(out["rows"], out["columns"]))
        out = suites.frequency_split_suite(count=20, seed=5001)
        blobs.append(csv_bytes(out["rows"], out["columns"]))
        out = suites.dent_sweep_suite(eps=0.3, kappas=(20.0, 40.0))
        blobs.append(csv_bytes(out["rows"], out["columns"]))
        out = suites.nuclear_deficit_suite(count=20, eps=0.05, seed=7001)
        blobs.append(csv_bytes(out["rows"], out["columns"]))
        out = suites.axial_deficit_suite(count=21, eps=0.05, seed=7501)
        blobs.append(csv_bytes(out["rows"], out["columns"]))
        out = suites.stability_suite(count=20, eps=0.05, seed=8001)
        blobs.append(csv_bytes(out["rows"], out["columns"]))
        out = suites.conjecture_suite(n3_cap=8, n3_restarts=2, seed=9001,
                                      levels=(8, 16))
        blobs.append(csv_bytes(out["rows"], out["columns"]))
        runs.append(blobs)
    assert all(a == b for a, b in zip(*runs))
    elapsed = time.time() - t0
    _report(11, "identical seeds give byte-identical CSVs",
            f"{len(runs[0])} suites x 2 runs [{elapsed:.0f}s]")
