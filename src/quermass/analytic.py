"""Analytic field providers: geodesically radial profiles on S^{n-1}.

A GeodesicRadialField is u(x) = f(d(x, p_i)) about one or several
centers p_i with pairwise disjoint supports.  Values, gradients and
Hessians come from the closed radial formulas, so fields with very
small support (far beyond any spectral truncation) are differentiated
exactly.  Distances use the nearest center only, which is valid because
supports are disjoint.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from quermass.geometry import POLE_SIN, zonal_laplacian
from quermass.grids import SphericalGrid, tangent_frames


class GeodesicRadialField:
    """Sum of identical radial profiles about centers with disjoint supports.

    f, fd, fdd are callables on [0, pi] (profile and its two derivatives);
    support is the geodesic support radius (pi for a global zonal profile).
    """

    def __init__(self, centers: np.ndarray, f, fd, fdd, support: float,
                 offset: float = 0.0):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.f, self.fd, self.fdd = f, fd, fdd
        self.support = float(support)
        self.offset = float(offset)
        self._tree = cKDTree(self.centers) if len(self.centers) > 1 else None

    # -- distances ----------------------------------------------------------

    def geodesic_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the nearest center."""
        points = np.asarray(points, dtype=float)
        if self._tree is None:
            dots = points @ self.centers[0]
        else:
            _, idx = self._tree.query(points, k=1)
            dots = np.einsum("ij,ij->i", points, self.centers[idx])
        return np.arccos(np.clip(dots, -1.0, 1.0))

    def _nearest(self, points):
        if self._tree is None:
            centers = np.broadcast_to(self.centers[0], points.shape)
        else:
            _, idx = self._tree.query(points, k=1)
            centers = self.centers[idx]
        dots = np.einsum("ij,ij->i", points, centers)
        d = np.arccos(np.clip(dots, -1.0, 1.0))
        return centers, dots, d

    # -- scalar fast path -----------------------------------------------------

    def scalar_invariants(self, points: np.ndarray, n: int):
        """(u, |grad u|^2, lap u, grad^2 u[grad u, grad u]) at points."""
        points = np.asarray(points, dtype=float)
        _, _, d = self._nearest(points)
        inside = d < self.support
        dd = np.where(inside, d, 0.0)
        fv = np.where(inside, self.f(dd), 0.0)
        fdv = np.where(inside, self.fd(dd), 0.0)
        fddv = np.where(inside, self.fdd(dd), 0.0)
        _, lap = zonal_laplacian(fdv, fddv, dd, n)
        return self.offset + fv, fdv**2, lap, fddv * fdv**2

    def phi_gradient_dot_grad(self, points: np.ndarray, n: int) -> np.ndarray:
        """grad(phi) . grad(u) for phi = (1+|v|^2)^{-1/2}, analytically."""
        points = np.asarray(points, dtype=float)
        _, _, d = self._nearest(points)
        inside = d < self.support
        dd = np.where(inside, d, 0.0)
        fv = np.where(inside, self.f(dd), 0.0)
        fdv = np.where(inside, self.fd(dd), 0.0)
        fddv = np.where(inside, self.fdd(dd), 0.0)
        opu = 1.0 + self.offset + fv
        v = fdv / opu
        vprime = (fddv * opu - fdv**2) / opu**2
        phi_prime = -(1.0 + v**2) ** (-1.5) * v * vprime
        return phi_prime * fdv

    # -- full tensor data ------------------------------------------------------

    def _tangent_direction(self, points, centers, dots, d):
        """Unit tangent at x along the great circle away from the center."""
        s = np.sin(d)
        tau = (dots[:, None] * points - centers)
        with np.errstate(invalid="ignore", divide="ignore"):
            tau = np.where(s[:, None] > POLE_SIN,
                           tau / np.where(s > POLE_SIN, s, 1.0)[:, None], 0.0)
        return tau

    def values_at(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        _, _, d = self._nearest(points)
        inside = d < self.support
        return self.offset + np.where(inside, self.f(np.where(inside, d, 0.0)), 0.0)

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """Ambient tangential gradient at arbitrary unit vectors."""
        points = np.asarray(points, dtype=float)
        centers, dots, d = self._nearest(points)
        inside = d < self.support
        fdv = np.where(inside, self.fd(np.where(inside, d, 0.0)), 0.0)
        tau = self._tangent_direction(points, centers, dots, d)
        return fdv[:, None] * tau

    def hessian_ambient(self, points: np.ndarray) -> np.ndarray:
        """Tangential ambient Hessian: fdd tau tau^T + fd cot(d) (P - tau tau^T)."""
        points = np.asarray(points, dtype=float)
        centers, dots, d = self._nearest(points)
        inside = d < self.support
        dd = np.where(inside, d, 0.0)
        fdv = np.where(inside, self.fd(dd), 0.0)
        fddv = np.where(inside, self.fdd(dd), 0.0)
        n = points.shape[1]
        cot_slope, _ = zonal_laplacian(fdv, fddv, dd, n)
        tau = self._tangent_direction(points, centers, dots, d)
        tt = tau[:, :, None] * tau[:, None, :]
        P = np.eye(n)[None] - points[:, :, None] * points[:, None, :]
        return fddv[:, None, None] * tt + cot_slope[:, None, None] * (P - tt)

    # -- ScalarField provider protocol (per-grid) ------------------------------

    def values(self, grid: SphericalGrid) -> np.ndarray:
        return self.values_at(grid.nodes)

    def grad_frame(self, grid: SphericalGrid) -> np.ndarray:
        frames = tangent_frames(grid)
        return np.einsum("ikj,ij->ik", frames, self.gradient_at(grid.nodes))

    def hessian_frame(self, grid: SphericalGrid) -> np.ndarray:
        frames = tangent_frames(grid)
        H = self.hessian_ambient(grid.nodes)
        return np.einsum("iaj,ijk,ibk->iab", frames, H, frames)

    def laplacian(self, grid: SphericalGrid) -> np.ndarray:
        return self.scalar_invariants(grid.nodes, grid.n)[2]


def zonal_field(f, fd, fdd, axis=None, n: int = 3) -> GeodesicRadialField:
    """Global zonal profile V(theta) about the given axis (default e_1)."""
    if axis is None:
        axis = np.zeros(n)
        axis[0] = 1.0
    return GeodesicRadialField(np.asarray(axis, dtype=float)[None, :],
                               f, fd, fdd, support=np.pi + 1.0)
