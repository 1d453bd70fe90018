import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quermass import conjecture, harmonics
from quermass.conjecture import (
    conjectured_bound,
    feasibility,
    green_ladder,
    green_sequence,
    make_backend,
    maximize_ratio,
    ratio,
    ratio_and_parts,
    trivial_bound_margin,
)


@pytest.fixture(scope="module")
def backend3():
    return make_backend(3, 8)


def random_feasible(backend, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(backend.num_coeffs)
    c[backend.eigenvalues < 0.5] = 0.0
    mx = 1.0 - feasibility(backend, c)
    if mx > 0:
        c *= scale / mx
    return c


def test_degree_one_ratio_vanishes(backend3):
    c = np.zeros(backend3.num_coeffs)
    c[harmonics.flat_index(1, 0)] = 0.05
    assert abs(ratio(backend3, c)) < 1e-12


def test_circle_ratio_vanishes():
    backend = make_backend(2, 10)
    rng = np.random.default_rng(9)
    c = rng.standard_normal(backend.num_coeffs) * 0.05
    num, den = ratio_and_parts(backend, c)
    assert abs(num / den) < 1e-10


def test_feasibility_cases(backend3):
    c = np.zeros(backend3.num_coeffs)
    assert feasibility(backend3, c) == 1.0
    c = random_feasible(backend3, 3)
    mx = 1.0 - feasibility(backend3, c)
    c = c / mx  # rescale so max laplacian is exactly 1
    assert abs(feasibility(backend3, c)) < 1e-10


def test_trivial_bound_on_feasible_suite(backend3):
    for seed in range(40):
        c = random_feasible(backend3, 100 + seed, scale=0.99)
        assert trivial_bound_margin(backend3, c) >= -1e-8
        assert ratio(backend3, c) <= 1 + 1e-8


def test_ratio_homogeneity(backend3):
    c = random_feasible(backend3, 17)
    base = ratio(backend3, c)
    for t in (0.5, 0.25):
        assert abs(ratio(backend3, t * c) - t * base) < 1e-8


def test_mean_zero_laplacian(backend3):
    c = random_feasible(backend3, 23)
    assert abs(backend3.integrate(backend3.laplacian_values(c))) < 1e-9


def test_green_sequence_requires_dimension():
    with pytest.raises(ValueError):
        green_sequence(3, 8)


def test_green_sequence_positive_ratio():
    cand = green_sequence(4, 8)
    assert cand.ratio > 0
    assert cand.constraint_margin >= -1e-10
    assert cand.grad_norm_inf < 0.2


def test_green_ladder_gradient_decay():
    out = green_ladder(4, levels=(8, 16, 32))
    assert out["min_ratio"] > 0
    assert out["grad_nonincreasing_within_10pct"]
    assert out["grad_inf"][0] > 1.5 * out["grad_inf"][-1]


def test_maximize_circle_is_null():
    out = maximize_ratio(2, basis_cap=6, restarts=2, seed=3, iterations=80)
    assert abs(out["best"].ratio) <= 1e-8
    assert out["best"].meta["gradient_check_max_rel"] <= 1e-5


def test_maximize_small_search_feasible():
    out = maximize_ratio(3, basis_cap=6, restarts=2, seed=4, iterations=120)
    best = out["best"]
    assert best.constraint_margin >= -1e-8
    assert best.ratio <= 1 + 1e-8
    assert best.ratio > 0
    assert best.meta["gradient_check_max_rel"] <= 1e-5


# -- the lockstep search against the per-restart loop it replaces -------------------


def _serial_objective_and_gradient(backend, c, mu):
    """The objective on one vector, as the per-restart loop computed it."""
    lap, g2, gdg = backend.ascent_fields(c)
    den = backend.integrate(g2)
    num = backend.integrate(lap * g2)
    hinge = np.maximum(lap - 1.0, 0.0)
    pen = backend.integrate(hinge * hinge)
    lam = backend.eigenvalues
    p_g2, p_mixed, p_lap, p_hinge = backend.project(
        np.stack([g2, gdg + lap * lap, lap, hinge]))
    gN = -lam * p_g2 - 2.0 * p_mixed
    gD = -2.0 * p_lap
    gP = -2.0 * lam * p_hinge
    return num / den - mu * pen, (gN * den - num * gD) / den**2 - mu * gP


def _serial_search(n, basis_cap, restarts, seed, iterations):
    """The per-restart loop: (rows, gradient checks, steps taken per restart and weight)."""
    backend = make_backend(n, basis_cap)
    lam = backend.eigenvalues
    h = conjecture._FD_STEP
    rows, checks, steps_taken = [], [], []
    for r in range(restarts):
        c = np.random.default_rng(seed + 7919 * r).standard_normal(backend.num_coeffs)
        c[lam < 0.5] = 0.0
        num, den = ratio_and_parts(backend, c)
        if den > 1e-14 and num < 0:
            c = -c
        mx = 1.0 - feasibility(backend, c)
        if mx > 0.9:
            c *= 0.9 / mx

        _, ga = _serial_objective_and_gradient(backend, c, 1e2)
        gf = np.zeros_like(c)
        for b in range(len(c)):
            cp, cm = c.copy(), c.copy()
            cp[b] += h
            cm[b] -= h
            gf[b] = (_serial_objective_and_gradient(backend, cp, 1e2)[0]
                     - _serial_objective_and_gradient(backend, cm, 1e2)[0]) / (2 * h)
        checks.append(conjecture._relative_error(ga, gf))

        taken = []
        for mu in (1e2, 1e4, 1e6):
            step = 0.05
            val, grad = _serial_objective_and_gradient(backend, c, mu)
            k = 0
            for k in range(iterations):
                gnorm = np.linalg.norm(grad)
                if gnorm < 1e-12:
                    break
                trial = c + step * grad / gnorm
                tval, tgrad = _serial_objective_and_gradient(backend, trial, mu)
                if tval > val:
                    c, val, grad = trial, tval, tgrad
                    step *= 1.25
                else:
                    step *= 0.5
                    if step < 1e-12:
                        break
            taken.append(k)
        steps_taken.append(taken)

        mx = 1.0 - feasibility(backend, c)
        if mx > 1.0:
            c = c / mx
        num, den = ratio_and_parts(backend, c)
        if den <= 1e-14:
            rows.append({"seed": seed + 7919 * r, "ratio": 0.0, "constraint_margin": 1.0,
                         "grad_inf": 0.0, "feasible": True, "degenerate": True})
            continue
        margin = feasibility(backend, c)
        rows.append({"seed": seed + 7919 * r, "ratio": num / den,
                     "constraint_margin": margin, "grad_inf": backend.grad_inf(c),
                     "feasible": margin >= -1e-8, "degenerate": False})
    return rows, checks, steps_taken


def _row_bits(rows):
    return [{k: (np.float64(v).tobytes() if isinstance(v, float) else v)
             for k, v in row.items()} for row in rows]


LOCKSTEP_CASES = [
    # (n, basis_cap, restarts, seed, iterations)
    (2, 6, 3, 3, 40),
    (3, 4, 1, 4, 30),
    (3, 5, 4, 11, 25),
    (4, 8, 6, 2, 60),
    (4, 12, 5, 41, 40),
    (5, 12, 4, 315, 50),
    (5, 10, 2, 8, 250),
    # restarts that leave a weight at different steps, some in the first
    (4, 2, 3, 0, 250),
    (5, 2, 3, 2, 250),
]


@pytest.mark.parametrize("n, cap, restarts, seed, iterations", LOCKSTEP_CASES)
def test_lockstep_search_is_byte_identical_to_the_serial_loop(n, cap, restarts, seed,
                                                              iterations):
    out = maximize_ratio(n, basis_cap=cap, restarts=restarts, seed=seed,
                         iterations=iterations)
    rows, checks, _ = _serial_search(n, cap, restarts, seed, iterations)
    assert _row_bits(out["rows"]) == _row_bits(rows)
    assert out["best"].meta["gradient_check_max_rel"] == max(checks)


@pytest.mark.parametrize("L", [harmonics.DENSE_PHI_ROWS // 2 - 1, harmonics.DENSE_PHI_ROWS // 2])
@pytest.mark.parametrize("rows", [2, 3, 8, 20])
def test_full_sphere_ascent_batch_is_bit_for_bit_the_row_calls(L, rows):
    # one chart pass for the whole stack of pairs, on both sides of the
    # dense/FFT crossover of the phi stage, gives every row as a call on
    # it alone
    backend = make_backend(3, L)
    dense = "phi" in harmonics.sh_tables_for_grid(backend.grid, L)
    assert dense == (2 * (L + 1) <= harmonics.DENSE_PHI_ROWS)
    C = np.random.default_rng(L + rows).standard_normal((rows, backend.num_coeffs))
    batched = backend.ascent_fields(C)
    for r in range(rows):
        for field, alone in zip(batched, backend.ascent_fields(C[r])):
            assert field[r].tobytes() == alone.tobytes()


def _accepting_steps(backend, c, mu, iterations):
    """The per-restart climb of one row at one weight, in place: the steps
    at which it accepted its trial."""
    def objective_and_gradient(c):
        value, parts = conjecture._objective(backend, c[None], mu)
        return value[0], conjecture._gradient(backend, parts, mu)[0]

    val, grad = objective_and_gradient(c)
    step, accepted = 0.05, []
    for k in range(iterations):
        gnorm = np.linalg.norm(grad)
        if min(gnorm, step) < 1e-12:
            break
        trial = c + step * grad / gnorm
        tval, tgrad = objective_and_gradient(trial)
        up = tval > val
        if up:
            c[:], val, grad = trial, tval, tgrad
            accepted.append(k)
        step *= 1.25 if up else 0.5
    return accepted


@pytest.mark.parametrize("n, cap, restarts, seed, iterations",
                         [LOCKSTEP_CASES[2], LOCKSTEP_CASES[-2]])
def test_climb_projects_once_per_weight_and_per_step_some_row_accepts(
        n, cap, restarts, seed, iterations, monkeypatch):
    # each weight projects every row's node fields at its start, then after
    # each step only the rows that accepted their trial, and nothing after
    # a step that every row rejected
    backend = make_backend(n, cap)
    C = np.array([conjecture._start_point(backend, seed + 7919 * r)
                  for r in range(restarts)])
    serial = C.copy()
    projected, passes = [], []
    exact_project, exact_fields = backend.project, backend.ascent_fields

    def project(values):
        if np.ndim(values) == 3:    # not FullSphereBackend's calls per row
            projected.append(len(values))
        return exact_project(values)

    def ascent_fields(c):
        passes.append(len(c))
        return exact_fields(c)
    rejected_by_all = 0
    for mu in conjecture._PENALTIES:
        projected.clear()
        passes.clear()
        with monkeypatch.context() as m:
            m.setattr(backend, "project", project)
            m.setattr(backend, "ascent_fields", ascent_fields)
            conjecture._climb(backend, C, mu, iterations)
        accepted = [_accepting_steps(backend, row, mu, iterations) for row in serial]
        per_step = [sum(k in a for a in accepted) for k in range(iterations)]
        assert projected == [restarts] + [count for count in per_step if count]
        rejected_by_all += len(passes) - len(projected)
    assert C.tobytes() == serial.tobytes()
    assert rejected_by_all > 0


def test_lockstep_cases_include_restarts_that_stop_apart():
    """The serial loop stops these restarts at different steps and weights."""
    taken = [_serial_search(*case)[2] for case in LOCKSTEP_CASES[-2:]]
    last = LOCKSTEP_CASES[-1][-1] - 1
    for per_restart in taken:
        assert any(last in t for t in per_restart)
        assert any(min(t) < last for t in per_restart)
    assert taken[0][0][0] < last        # one restart leaves the first weight early


def test_no_restarts_leaves_a_degenerate_best():
    out = maximize_ratio(4, basis_cap=4, restarts=0)
    assert out["rows"] == []
    assert out["best"].meta["degenerate"]
    assert out["best"].meta["gradient_check_max_rel"] is None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_start_points_lie_inside_the_constraint_set(n):
    backend = make_backend(n, 6)
    for seed in range(12):
        c = conjecture._start_point(backend, seed)
        assert backend.constraint_max(c) <= 0.9 * (1 + 1e-12)
        num, den = ratio_and_parts(backend, c)
        assert num >= -1e-12 * den      # n = 2: the ratio is rounding noise


@pytest.mark.parametrize("seed", [901, 1, 2])
def test_gradient_check_reports_the_n3_error(seed):
    # at n = 3 the differences are about 1e-10 of gradients of norm 25, which
    # an absolute clamp at 1e-8 once reported as 0.0; at n = 2 the gradient
    # vanishes and both sides are rounding noise
    backend = make_backend(3, 12)
    C = np.array([conjecture._start_point(backend, seed + 7919 * r) for r in range(2)])
    checks = conjecture._gradient_check(backend, C, 1e2)
    assert all(0.0 < c <= 1e-5 for c in checks)
    circle = make_backend(2, 12)
    C = np.array([conjecture._start_point(circle, seed + 7919 * r) for r in range(2)])
    assert conjecture._gradient_check(circle, C, 1e2) == [0.0, 0.0]


def test_gradient_check_memory_does_not_grow_like_rows_times_k_squared():
    # n = 3, degree cap 20 (K = 441), two rows: (R, K, K) tensors of the
    # perturbed vectors took a 14.5 MB traced peak; built pass by pass the
    # peak is the objective's own, about 2.2 MB
    backend = make_backend(3, 20)
    C = np.array([conjecture._start_point(backend, 901 + 7919 * r) for r in range(2)])
    conjecture._objective(backend, C, 1e2)
    tracemalloc.start()
    try:
        checks = conjecture._gradient_check(backend, C, 1e2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(0.0 < c <= 1e-5 for c in checks)
    assert peak < 5e6


def test_negative_restarts_are_refused():
    with pytest.raises(ValueError, match="restarts must be at least 0"):
        maximize_ratio(4, basis_cap=4, restarts=-1)


def test_gradient_check_catches_one_component_off_by_1e_4(monkeypatch):
    # the start points of `conjecture --n 5 --degree-cap 16 --restarts 4 --seed 4`,
    # whose check the central difference's truncation once held at 1.06e-5
    backend = make_backend(5, 16)
    C = np.array([conjecture._start_point(backend, 4 + 7919 * r) for r in range(4)])
    assert max(conjecture._gradient_check(backend, C, 1e2)) <= 1e-6
    exact = conjecture._gradient

    def one_component_off(backend, parts, mu):
        grad = exact(backend, parts, mu)
        rows = np.arange(len(grad))
        grad[rows, np.argmax(np.abs(grad), axis=1)] *= 1.0 + 1e-4
        return grad

    monkeypatch.setattr(conjecture, "_gradient", one_component_off)
    assert min(conjecture._gradient_check(backend, C, 1e2)) > 1e-5
