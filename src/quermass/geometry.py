"""Pointwise curvature algebra for radial graphs over S^{n-1}.

The boundary is parametrized as T(x) = (1+u(x)) x.  All routines here
are pure per-node algebra on (u, gradient, Hessian), or on boundary
points and normals for the normal deviation; they are shared by the 2-D
grid pipeline and the 1-D axisymmetric pipeline so that the two agree by
construction wherever the derivative inputs agree.
"""

from __future__ import annotations

import numpy as np

# Below this sin(theta) the zonal term V' cot(theta) takes its pole limit V''.
POLE_SIN = 1e-12


def zonal_laplacian(Vd, Vdd, theta, n: int):
    """(V' cot(theta), V'' + (n-2) V' cot(theta)) of a zonal profile V.

    theta is the polar angle (or the geodesic distance to the center) in
    [0, pi].  V' vanishes at a smooth pole, so V' cot(theta) tends to V''
    at theta = 0 and theta = pi; that limit is used where sin(theta) is
    at most POLE_SIN.
    """
    s = np.sin(theta)
    away = s > POLE_SIN
    cot_term = np.where(away, Vd * np.cos(theta) / np.where(away, s, 1.0), Vdd)
    return cot_term, Vdd + (n - 2.0) * cot_term


def radial_slope(u: np.ndarray, grad2: np.ndarray) -> np.ndarray:
    """|v|^2 with v = grad(u)/(1+u), from |grad u|^2."""
    return grad2 / (1.0 + u) ** 2


def area_jacobian(u: np.ndarray, grad2: np.ndarray, n: int) -> np.ndarray:
    """Area element of T relative to the sphere: (1+u)^{n-1} sqrt(1+|v|^2)."""
    v2 = radial_slope(u, grad2)
    return (1.0 + u) ** (n - 1) * np.sqrt(1.0 + v2)


def mean_curvature_from_scalars(u, grad2, lap, cubic, n: int) -> np.ndarray:
    """Mean curvature from the scalar invariants of the profile.

    cubic is the Hessian form grad^2 u[grad u, grad u].
    """
    opu = 1.0 + u
    v2 = grad2 / opu**2
    s = np.sqrt(1.0 + v2)
    return (n - 1.0 - lap / opu + v2 / (1.0 + v2)
            + cubic / (opu**3 * (1.0 + v2))) / (opu * s)


def shape_operator_frame(u: np.ndarray, grad_fr: np.ndarray,
                         hess_fr: np.ndarray) -> np.ndarray:
    """Symmetric matrix of the shape operator in an orthonormal frame.

    Built from the first fundamental form g = (1+u)^2 (I + v v^T) and the
    second fundamental form (1+u)/s (I - W + 2 v v^T) of the radial
    graph, as S_sym = g^{-1/2} II g^{-1/2}; its eigenvalues are the
    principal curvatures and its trace is the mean curvature.
    """
    N, d = grad_fr.shape
    opu = (1.0 + u)[:, None]
    v = grad_fr / opu
    v2 = np.einsum("ik,ik->i", v, v)
    s = np.sqrt(1.0 + v2)
    W = hess_fr / opu[:, :, None]
    eye = np.eye(d)[None, :, :]
    vvT = v[:, :, None] * v[:, None, :]
    A = eye - W + 2.0 * vvT
    # B^{-1/2} for B = I + v v^T: I + (1/s - 1) vhat vhat^T
    with np.errstate(invalid="ignore", divide="ignore"):
        hat = np.where(v2[:, None, None] > 1e-300, vvT / v2[:, None, None], 0.0)
    Bih = eye + (1.0 / s - 1.0)[:, None, None] * hat
    S = np.einsum("iab,ibc,icd->iad", Bih, A, Bih)
    return S / ((1.0 + u) * s)[:, None, None]


def normal_deviation(y: np.ndarray, nu: np.ndarray, center: np.ndarray) -> np.ndarray:
    """|nu - w/rho| per column, w = y - center, rho = |w|, for (m, N) rows y, nu.

    y are boundary points and nu their unit outer normals.  Evaluated as
    |rho nu - w| / rho: the difference is formed before it is squared, so
    a deviation d comes out with an error of a few ulps of 1, not the
    ~1e-8 floor of sqrt(2 - 2 nu.r).
    """
    w = y - center[:, None]
    rho = np.sqrt(np.einsum("ij,ij->j", w, w))
    d = nu * rho
    d -= w
    return np.sqrt(np.einsum("ij,ij->j", d, d)) / rho


def outward_normal(nodes: np.ndarray, u: np.ndarray,
                   grad_ambient: np.ndarray) -> np.ndarray:
    """Unit outer normal of the graph at T(x): (x - v)/sqrt(1+|v|^2)."""
    v = grad_ambient / (1.0 + u)[:, None]
    v2 = np.einsum("ij,ij->i", v, v)
    return (nodes - v) / np.sqrt(1.0 + v2)[:, None]


def divergence_form_mean_curvature(u, grad2, lap, phi_grad_dot, n: int):
    """Mean curvature via the divergence form.

    Uses div(phi grad u) = phi lap(u) + grad(phi) . grad(u) with
    phi = (1+|v|^2)^{-1/2}; the caller supplies grad(phi) . grad(u)
    computed through its own (independent) differentiation route.
    """
    opu = 1.0 + u
    v2 = grad2 / opu**2
    s = np.sqrt(1.0 + v2)
    div_term = lap / s + phi_grad_dot
    return (n - 1.0 + v2) / (opu * s) - div_term / opu**2


def elementary_symmetric(eigs: np.ndarray) -> np.ndarray:
    """Elementary symmetric functions sigma_1..sigma_d of per-node eigenvalues.

    eigs has shape (N, d); the result has shape (N, d) with column k-1
    holding sigma_k.  Computed by accumulating the characteristic
    polynomial coefficients one eigenvalue at a time.
    """
    N, d = eigs.shape
    e = np.zeros((N, d + 1))
    e[:, 0] = 1.0
    for i in range(d):
        lam = eigs[:, i][:, None]
        e[:, 1:i + 2] = e[:, 1:i + 2] + lam * e[:, 0:i + 1]
    return e[:, 1:]
