"""The batched n = 3 transforms against the per-order loops they replace.

The oracles below are the earlier implementations: the triple loop that
built the Legendre tables, one synthesis or analysis per order m, the
per-degree scipy Gegenbauer evaluation of the zonal tables, the ascent
step assembled from one transform per field, and the deviation formula
written out with the relative vectors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize
from scipy.special import eval_gegenbauer

from quermass import conjecture, deficits, fields, harmonics
from quermass.grids import build_grid, jacobi_rule, sphere_area
from quermass.harmonics import ZonalBasis

_SQRT2 = math.sqrt(2.0)


# -- oracles -------------------------------------------------------------------


def _oracle_tables(L, t):
    t = np.asarray(t, dtype=float)
    s = np.sqrt(1.0 - t * t)
    nt = t.shape[0]
    Q = np.zeros((L + 1, L + 1, nt))
    Q[0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, L + 1):
        Q[m, m] = Q[m - 1, m - 1] * s * math.sqrt((2 * m + 1) / (2.0 * m))
    for m in range(L):
        Q[m + 1, m] = Q[m, m] * t * math.sqrt(2 * m + 3.0)
        for l in range(m + 2, L + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            a_prev = math.sqrt((4.0 * (l - 1) ** 2 - 1.0) / ((l - 1) ** 2 - m * m))
            Q[l, m] = a * (t * Q[l - 1, m] - Q[l - 2, m] / a_prev)
    dQ = np.zeros_like(Q)
    for m in range(L + 1):
        for l in range(m, L + 1):
            b = math.sqrt((l * l - m * m) * (2.0 * l + 1.0) / (2.0 * l - 1.0)) if l > m else 0.0
            low = Q[l - 1, m] if l > m else 0.0
            dQ[l, m] = (l * t * Q[l, m] - b * low) / s
    d2Q = np.zeros_like(Q)
    cot = t / s
    for m in range(L + 1):
        for l in range(m, L + 1):
            d2Q[l, m] = -cot * dQ[l, m] - (l * (l + 1.0) - m * m / (s * s)) * Q[l, m]
    return Q, dQ, d2Q


def _oracle_slices(L):
    cos_idx, sin_idx = [np.array([l * l for l in range(L + 1)])], [None]
    for m in range(1, L + 1):
        cos_idx.append(np.array([l * l + 2 * m - 1 for l in range(m, L + 1)]))
        sin_idx.append(np.array([l * l + 2 * m for l in range(m, L + 1)]))
    return cos_idx, sin_idx


def _oracle_synthesize(grid, tables, coeffs, dtheta=0, dphi=0):
    L = int(round(math.sqrt(coeffs.shape[0]))) - 1
    Q = tables[dtheta]
    cos_idx, sin_idx = _oracle_slices(L)
    n_theta = len(grid.axis_nodes[0])
    m_phi = len(grid.angles[1])
    F = np.zeros((n_theta, m_phi // 2 + 1), dtype=complex)
    for m in range(L + 1):
        table = Q[m:, m, :]
        pc = coeffs[cos_idx[m]] @ table
        ps = coeffs[sin_idx[m]] @ table if m > 0 else np.zeros(n_theta)
        if m > 0:
            pc, ps = _SQRT2 * pc, _SQRT2 * ps
        if dphi == 1:
            pc, ps = m * ps, -m * pc
        elif dphi == 2:
            pc, ps = -(m * m) * pc, -(m * m) * ps
        if m == 0:
            F[:, 0] = pc * m_phi
        else:
            F[:, m] = (pc - 1j * ps) * (m_phi / 2.0)
    return np.fft.irfft(F, n=m_phi, axis=1).ravel()


def _oracle_analyze(grid, Q, values, L):
    cos_idx, sin_idx = _oracle_slices(L)
    n_theta = len(grid.axis_nodes[0])
    m_phi = len(grid.angles[1])
    w = grid.axis_weights[0]
    A = np.fft.rfft(values.reshape(n_theta, m_phi), axis=1)
    coeffs = np.zeros(harmonics.coeff_count(L))
    for m in range(L + 1):
        table = Q[m:, m, :]
        if m == 0:
            coeffs[cos_idx[0]] = 2.0 * math.pi * (table @ (w * A[:, 0].real / m_phi))
        else:
            am = 2.0 * A[:, m].real / m_phi
            bm = -2.0 * A[:, m].imag / m_phi
            coeffs[cos_idx[m]] = math.pi * _SQRT2 * (table @ (w * am))
            coeffs[sin_idx[m]] = math.pi * _SQRT2 * (table @ (w * bm))
    return coeffs


def _oracle_step_parts(backend, c):
    """(lap, |grad u|^2, grad lap u . grad u, project) one transform per field."""
    lam = backend.eigenvalues
    if isinstance(backend, conjecture.FullSphereBackend):
        grid = backend.grid
        g = fields.grad_frame(fields.synthesize(c, grid))
        gd = fields.grad_frame(fields.synthesize(-lam * c, grid))
        return (harmonics.sh_synthesize(grid, -lam * c),
                np.einsum("ik,ik->i", g, g), np.einsum("ik,ik->i", g, gd),
                lambda v: harmonics.sh_analyze(grid, v, backend.L))
    if isinstance(backend, conjecture.CircleBackend):
        # the Fourier basis written out: 1/sqrt(2 pi), cos(m phi)/sqrt(pi), sin(m phi)/sqrt(pi)
        phi, w = backend.grid.angles[0], backend.grid.weights
        m = np.arange(1, backend.L + 1)[:, None]
        Y = np.concatenate([np.full((1, phi.size), 1.0 / math.sqrt(2.0 * math.pi)),
                            np.stack([np.cos(m * phi), np.sin(m * phi)], axis=1)
                            .reshape(-1, phi.size) / math.sqrt(math.pi)])
        dY = np.concatenate([np.zeros((1, phi.size)),
                             np.stack([-m * np.sin(m * phi), m * np.cos(m * phi)], axis=1)
                             .reshape(-1, phi.size) / math.sqrt(math.pi)])
        g, gd = c @ dY, (-lam * c) @ dY
        return (-lam * c) @ Y, g ** 2, g * gd, lambda v: Y @ (w * v)
    g, gd = c @ backend.Z_theta, (-lam * c) @ backend.Z_theta
    return ((-lam * c) @ backend.Z, g ** 2, g * gd,
            lambda v: backend.area_factor * (backend.Z @ (backend.w * v)))


def _oracle_objective_and_gradient(backend, c, mu):
    lap, g2, gdg, project = _oracle_step_parts(backend, c)
    den = backend.integrate(g2)
    num = backend.integrate(lap * g2)
    hinge = np.maximum(lap - 1.0, 0.0)
    pen = backend.integrate(hinge * hinge)
    lam = backend.eigenvalues
    gN = -lam * project(g2) - 2.0 * project(gdg + lap * lap)
    gD = -2.0 * project(lap)
    gP = -2.0 * lam * project(hinge)
    return num / den - mu * pen, (gN * den - num * gD) / den**2 - mu * gP


def _oracle_deviation(K, center):
    y, nu = K.boundary_points(), K.normal_field()
    rel = y - np.asarray(center, dtype=float)
    rel /= np.sqrt(np.einsum("ij,ij->i", rel, rel))[:, None]
    return np.linalg.norm(nu - rel, axis=1)


# -- tables ---------------------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 20), st.integers(0, 2 ** 32 - 1))
def test_tables_are_bit_identical_to_the_loop_oracle(L, seed):
    t = np.random.default_rng(seed).uniform(-0.999, 0.999, 9)
    got, want = harmonics.legendre_tables(L, t), _oracle_tables(L, t)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.array_equal(_bits(a), _bits(b))   # signed zeros too
    Q, dQ, d2Q = harmonics.legendre_tables(L, t, derivatives=1)
    assert d2Q is None and np.array_equal(_bits(dQ), _bits(want[1]))
    Q, dQ, _ = harmonics.legendre_tables(L, t, derivatives=0)
    assert dQ is None and np.array_equal(_bits(Q), _bits(want[0]))


class _MatmulSpy:
    """numpy, with every matmul's operands recorded."""

    def __init__(self):
        self.operands = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.operands.append((a, b))
        return np.matmul(a, b, **kwargs)


# the last degree whose phi stage is a matmul
_LAST_DENSE = harmonics.DENSE_PHI_ROWS // 2 - 1


def test_tables_are_held_once_per_grid_and_degree(monkeypatch):
    grid = build_grid(3, 64)
    spy = _MatmulSpy()
    monkeypatch.setattr(harmonics, "np", spy)
    for L in [6, 12, _LAST_DENSE, _LAST_DENSE + 1, 63]:
        first = harmonics.sh_tables_for_grid(grid, L)
        assert harmonics.sh_tables_for_grid(grid, L) is first
        for table in first["tables"]:
            assert table.shape == (L + 1, L + 1, 64) and table.flags.c_contiguous
        # the cos/sin table exists exactly on the dense side of the rule
        assert ("phi" in first) == (2 * (L + 1) <= harmonics.DENSE_PHI_ROWS)
        if "phi" in first:
            assert first["phi"].shape == (2 * (L + 1), 128)
        stored = list(first["tables"]) + ([first["phi"]] if "phi" in first else [])
        # every table a transform reads is a view of the one stored copy:
        # transposed copies would raise the peak memory of every process
        spy.operands.clear()
        C = np.random.default_rng(L).standard_normal((2, harmonics.coeff_count(L)))
        harmonics.sh_synthesize(grid, C)
        harmonics.sh_chart_derivatives(grid, C, second=True)
        harmonics.sh_analyze(grid, np.ones((2, grid.num_nodes)), L)
        reads = [[any(np.shares_memory(x, T) for T in stored) for x in pair]
                 for pair in spy.operands]
        assert reads and all(sorted(r) == [False, True] for r in reads), L
        legendre = [any(np.shares_memory(x, T) for T in first["tables"] for x in pair)
                    for pair in spy.operands]
        assert sum(legendre) == 5                   # Q; Q, dQ, d2Q; Q
        assert harmonics.sh_tables_for_grid(grid, L) is first


# -- transforms -----------------------------------------------------------------


def _rel(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


# degrees on both sides of the phi-stage rule
transform_cases = st.tuples(st.integers(0, _LAST_DENSE + 14), st.integers(1, 3),
                            st.integers(0, 6), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=30, deadline=None)
@given(transform_cases)
def test_synthesis_matches_the_per_order_oracle(case):
    L, batch, extra, seed = case
    grid = build_grid(3, max(4, L + 1 + extra))
    tables = _oracle_tables(L, grid.axis_nodes[0])
    C = np.random.default_rng(seed).standard_normal((batch, harmonics.coeff_count(L)))
    chart = harmonics.sh_chart_derivatives(grid, C, second=True)
    got = harmonics.sh_synthesize(grid, C)
    assert got.shape == (batch, grid.num_nodes)
    assert _rel(got, np.array([_oracle_synthesize(grid, tables, c) for c in C])) <= 1e-13
    order = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for k, (dtheta, dphi) in enumerate(order):
        want = np.array([_oracle_synthesize(grid, tables, c, dtheta, dphi) for c in C])
        assert chart[k].shape == (batch, grid.num_nodes)
        assert _rel(chart[k], want) <= 1e-13, (dtheta, dphi)
    first = harmonics.sh_chart_derivatives(grid, C[0], second=False)
    assert first.shape == (3, grid.num_nodes)
    # a batch may block its matmul differently from a single field
    assert _rel(first, chart[:3, 0]) <= 1e-14
    assert _rel(harmonics.sh_synthesize(grid, C[0]), harmonics.sh_synthesize(grid, C)[0]) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(transform_cases)
def test_analysis_matches_the_per_order_oracle(case):
    L, batch, extra, seed = case
    grid = build_grid(3, max(4, L + 1 + extra))
    Q = _oracle_tables(L, grid.axis_nodes[0])[0]
    V = np.random.default_rng(seed).standard_normal((batch, grid.num_nodes))
    want = np.array([_oracle_analyze(grid, Q, v, L) for v in V])
    got = harmonics.sh_analyze(grid, V, L)
    assert got.shape == (batch, harmonics.coeff_count(L))
    assert _rel(got, want) <= 1e-13
    assert _rel(harmonics.sh_analyze(grid, V[0], L), got[0]) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(transform_cases)
def test_analysis_inverts_synthesis(case):
    L, batch, extra, seed = case
    grid = build_grid(3, max(4, L + 1 + extra))
    C = np.random.default_rng(seed).standard_normal((batch, harmonics.coeff_count(L)))
    back = harmonics.sh_analyze(grid, harmonics.sh_synthesize(grid, C), L)
    assert float(np.max(np.abs(back - C))) <= 1e-12 * max(1.0, float(np.max(np.abs(C))))


@pytest.mark.parametrize("L", [_LAST_DENSE, _LAST_DENSE + 1])
@pytest.mark.parametrize("extra", [0, 5])
def test_both_phi_stages_match_the_per_order_oracles_at_the_rule(L, extra):
    # extra = 0 is res = L + 1: L is grid.max_degree, the order next to Nyquist
    grid = build_grid(3, L + 1 + extra)
    assert (L == grid.max_degree) == (extra == 0)
    assert ("phi" in harmonics.sh_tables_for_grid(grid, L)) == (L == _LAST_DENSE)
    tables = _oracle_tables(L, grid.axis_nodes[0])
    C = np.random.default_rng(L + extra).standard_normal((2, harmonics.coeff_count(L)))
    want = [np.array([_oracle_synthesize(grid, tables, c, dtheta, dphi) for c in C])
            for dtheta, dphi in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]]
    assert _rel(harmonics.sh_synthesize(grid, C), want[0]) <= 1e-13
    for second, count in [(False, 3), (True, 6)]:
        chart = harmonics.sh_chart_derivatives(grid, C, second=second)
        assert len(chart) == count
        for got, w in zip(chart, want):
            assert _rel(got, w) <= 1e-13
    V = np.random.default_rng(L - extra).standard_normal((2, grid.num_nodes))
    assert _rel(harmonics.sh_analyze(grid, V, L),
                np.array([_oracle_analyze(grid, tables[0], v, L) for v in V])) <= 1e-13


def test_off_grid_evaluation_matches_synthesis():
    grid = build_grid(3, 24)
    c = np.random.default_rng(5).standard_normal(harmonics.coeff_count(15))
    assert _rel(harmonics.sh_values_at_points(c, grid.nodes),
                harmonics.sh_synthesize(grid, c)) <= 1e-13


# -- zonal tables ----------------------------------------------------------------


def _oracle_zonal(basis, t, derivative):
    """Z_l^(derivative) from one eval_gegenbauer per degree, as built before."""
    a = basis.alpha
    scale = math.prod(2.0 * (a + k) for k in range(derivative))
    out = np.zeros((basis.L + 1, t.size))
    for l in range(derivative, basis.L + 1):
        out[l] = scale * eval_gegenbauer(l - derivative, a + derivative, t) / basis.norms[l]
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_zonal_tables_match_the_per_degree_gegenbauer_oracle(n):
    basis = ZonalBasis(n, 64)
    t, w = jacobi_rule(256, (n - 3) / 2.0)
    points = np.concatenate([np.linspace(-1.0, 1.0, 201), t])
    for derivative in range(3):
        want = _oracle_zonal(basis, points, derivative)
        got = basis.values(points, derivative=derivative)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    Z = basis.values(t)
    gram = sphere_area(n - 1) * (Z * w) @ Z.T
    assert np.max(np.abs(gram - np.eye(basis.L + 1))) <= 1e-12
    with pytest.raises(ValueError, match="derivative order must be 0, 1 or 2"):
        basis.values(t, derivative=3)


# -- the conjecture ascent step ---------------------------------------------------


@pytest.fixture(scope="module", params=[(3, 8), (2, 8), (4, 8)],
                ids=["full", "circle", "zonal"])
def backend(request):
    return conjecture.make_backend(*request.param)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mu=st.sampled_from([1e2, 1e4, 1e6]),
       scale=st.floats(0.05, 3.0))
def test_ascent_step_matches_the_per_field_composition(backend, seed, mu, scale):
    c = scale * np.random.default_rng(seed).standard_normal(backend.num_coeffs)
    c[backend.eigenvalues < 0.5] = 0.0
    value, grad = conjecture._objective_and_gradient(backend, c, mu)
    want_value, want_grad = _oracle_objective_and_gradient(backend, c, mu)
    assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
    assert float(np.max(np.abs(grad - want_grad))) <= 1e-12 * max(
        1.0, float(np.max(np.abs(want_grad))))
    lap, g2, gdg, _ = _oracle_step_parts(backend, c)
    for got, want in zip(backend.ascent_fields(c), (lap, g2, gdg)):
        assert float(np.max(np.abs(got - want))) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


# -- normal deviation -------------------------------------------------------------


@pytest.fixture(scope="module")
def route_domains():
    """The domains of the curvature-routes suite (criterion 2) for its first seeds."""
    grid = build_grid(3, 64)
    return [deficits.random_domain(3, 0.3, seed=2024 + i, L=6, grid=grid) for i in range(6)]


def test_deviation_values_match_the_direct_formula(route_domains):
    rng = np.random.default_rng(11)
    for K in route_domains:
        for center in [np.zeros(3), K.barycenter(), 0.2 * rng.standard_normal(3)]:
            assert float(np.max(np.abs(K.deviation_values(center)
                                       - _oracle_deviation(K, center)))) <= 1e-12


def _nelder_mead_eps(K, start, **options):
    """max deviation after Nelder-Mead from start: the earlier eps_size search."""
    def objective(c):
        return np.max(_oracle_deviation(K, c))
    res = minimize(objective, start, method="Nelder-Mead", options=options)
    return float(min(res.fun, objective(start)))


def test_eps_size_reaches_the_minimum_on_the_route_seeds(route_domains):
    for K in route_domains:
        value, center = K.eps_size()
        oracle = _nelder_mead_eps(K, K.barycenter(),
                                  xatol=1e-8, fatol=1e-10, maxiter=200)
        assert value <= oracle * (1 + 1e-12)
        assert value == float(np.max(K.deviation_values(center)))
        assert K.center_certificate().residual <= 1e-9
        # a tight restart from the returned center finds nothing lower
        restart = _nelder_mead_eps(K, center, xatol=1e-13, fatol=1e-16,
                                   maxiter=400, initial_simplex=center + 1e-6 * np.vstack(
                                       [np.zeros(3), np.eye(3)]))
        assert restart >= value * (1 - 1e-10)


@pytest.mark.parametrize("rows", [1, 2, 5, 33])
def test_batched_backend_calls_equal_the_per_vector_calls(backend, rows):
    C = np.random.default_rng(rows).standard_normal((rows, backend.num_coeffs))
    C[:, backend.eigenvalues < 0.5] = 0.0
    fields_ = backend.ascent_fields(C)
    for name in ("laplacian_values", "grad2_values", "graddelta_dot_grad"):
        got = getattr(backend, name)(C)
        assert all(np.array_equal(_bits(got[r]), _bits(getattr(backend, name)(C[r])))
                   for r in range(rows))
    V = np.stack(fields_, axis=1)
    projected, integrals = backend.project(V), backend.integrate(V)
    values, grads = conjecture._objective_and_gradient(backend, C, 1e4)
    for r in range(rows):
        for got, want in zip(fields_, backend.ascent_fields(C[r])):
            assert np.array_equal(_bits(got[r]), _bits(want))
        assert np.array_equal(_bits(projected[r]), _bits(backend.project(V[r])))
        assert [backend.integrate(v) for v in V[r]] == integrals[r].tolist()
        value, grad = conjecture._objective_and_gradient(backend, C[r], 1e4)
        assert value == values[r]
        assert np.array_equal(_bits(grad), _bits(grads[r]))
