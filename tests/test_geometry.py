"""The closed-form per-node curvature algebra against its matrix oracles."""

import numpy as np
import pytest

from quermass import geometry

EPS = np.finfo(float).eps


def _three_operand_shape_operator(u, grad_fr, hess_fr):
    """S_sym = B^{-1/2} A B^{-1/2} / ((1+u) s) as three-operand products,
    B^{-1/2} = I + (1/s - 1) vhat vhat^T, in np.longdouble: in doubles the
    products lose about 500 ulps of |S| at |v| = 10 to the 2 v v^T in A."""
    u, grad_fr, hess_fr = (np.asarray(a, dtype=np.longdouble) for a in (u, grad_fr, hess_fr))
    N, d = grad_fr.shape
    opu = (1.0 + u)[:, None]
    v = grad_fr / opu
    v2 = np.einsum("ik,ik->i", v, v)
    s = np.sqrt(1.0 + v2)
    eye = np.eye(d, dtype=np.longdouble)[None, :, :]
    vvT = v[:, :, None] * v[:, None, :]
    A = eye - hess_fr / opu[:, :, None] + 2.0 * vvT
    safe = np.where(v2 > 0.0, v2, 1.0)[:, None, None]
    hat = np.where(v2[:, None, None] > 0.0, vvT / safe, 0.0)
    Bih = eye + (1.0 / s - 1.0)[:, None, None] * hat
    S = np.einsum("iab,ibc,icd->iad", Bih, A, Bih)
    return S / ((1.0 + u) * s)[:, None, None]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                    reason="the oracle needs a long double wider than a double")
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_shape_operator_matches_the_three_operand_oracle(d):
    rng = np.random.default_rng(100 + d)
    N = 600
    u = rng.uniform(-0.5, 0.5, N)
    H = rng.standard_normal((N, d, d))
    H = H + H.transpose(0, 2, 1)
    # |v| = 0 on the first rows, then 1e-8 ... 10 on a log scale
    direction = rng.standard_normal((N, d))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    size = np.concatenate([np.zeros(20), np.logspace(-8, 1, N - 20)])
    grad = (size * (1.0 + u))[:, None] * direction
    S = geometry.shape_operator_frame(u, grad, H)
    want = _three_operand_shape_operator(u, grad, H)
    assert np.array_equal(S, S.transpose(0, 2, 1))
    # I - W cancels when W is near I, so the error is measured against |S|
    # plus the size of the Hessian's term W/((1+u) s) in S
    scale = (np.max(np.abs(want), axis=(1, 2)) + np.max(np.abs(H), axis=(1, 2))
             / ((1.0 + u) ** 2 * np.sqrt(1.0 + size * size)))
    err = np.max(np.abs(S - want), axis=(1, 2)) / scale
    assert float(np.max(err)) <= 8 * EPS


def test_shape_operator_of_a_zonal_frame_is_diagonal():
    rng = np.random.default_rng(7)
    N, d = 50, 4
    grad = np.zeros((N, d))
    grad[:, 0] = rng.standard_normal(N)
    H = np.zeros((N, d, d))
    np.einsum("iaa->ia", H)[...] = rng.standard_normal((N, 1))
    H[:, 0, 0] = rng.standard_normal(N)
    S = geometry.shape_operator_frame(rng.uniform(-0.3, 0.3, N), grad, H)
    assert np.all(S[:, ~np.eye(d, dtype=bool)] == 0.0)


def _symmetric_2x2(a, b, c):
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


@pytest.mark.parametrize("case", ["random", "b=0", "a=c", "a=c,b=0", "1e+150", "1e-150"])
def test_two_by_two_eigenvalues_match_eigvalsh(case):
    rng = np.random.default_rng(3)
    a, b, c = rng.standard_normal((3, 400))
    if "b=0" in case:
        b = np.zeros_like(b)
    if "a=c" in case:
        c = a.copy()
    if case.startswith("1e"):
        a, b, c = (x * float(case) for x in (a, b, c))
    S = _symmetric_2x2(a, b, c)
    got = geometry.symmetric_eigenvalues(S)
    want = np.linalg.eigvalsh(S)
    assert np.all(np.isfinite(got))
    assert np.all(got[:, 0] <= got[:, 1])
    scale = np.max(np.abs(S), axis=(1, 2))
    assert float(np.max(np.abs(got - want) / scale[:, None])) <= 4 * EPS


def test_eigenvalues_fall_back_to_eigvalsh_off_two_by_two():
    rng = np.random.default_rng(5)
    for d in (1, 3):
        S = rng.standard_normal((20, d, d))
        S = S + S.transpose(0, 2, 1)
        assert np.array_equal(geometry.symmetric_eigenvalues(S), np.linalg.eigvalsh(S))


@pytest.mark.parametrize("d", [2, 3])
def test_trace_is_the_bits_of_np_trace(d):
    # entries over 16 decades; rows 0-2 with a diagonal of signed zeros
    # only, rows 3-6 with some
    rng = np.random.default_rng(d)
    M = rng.standard_normal((5000, d, d)) * 10.0 ** rng.integers(-8, 8, (5000, d, d))
    M[:7, 0, 0] = -0.0
    M[:3, 1:, 1:] = -0.0
    M[1, -1, -1] = 0.0
    M[3:5, -1, -1] = -0.0
    want = np.trace(M, axis1=1, axis2=2)
    assert geometry.trace(M).tobytes() == want.tobytes()
