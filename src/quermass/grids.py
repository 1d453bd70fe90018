"""Quadrature grids on the unit sphere S^{n-1}.

For n = 3 the grid is a Gauss-Legendre (in cos(theta)) x equiangular
(in phi) tensor product.  For n >= 4 it is the recursive tensor product
in hyperspherical angles, with Gauss-Jacobi rules absorbing the coarea
weights sin(theta_k)^{n-1-k}.  For n = 2 the grid is the equiangular
circle.  All grids integrate ambient-coordinate polynomials up to a
declared degree exactly.

Convention: the polar axis is e_1, i.e. x_1 = cos(theta_1).
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy.special import roots_jacobi


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@functools.lru_cache(maxsize=64)
def jacobi_rule(resolution: int, alpha: float) -> tuple:
    """Gauss-Jacobi nodes and weights for the weight (1-t^2)^alpha.

    Equal to roots_jacobi(resolution, alpha, alpha), built once per
    (resolution, alpha) and shared, so both arrays are read-only.
    """
    t, w = roots_jacobi(resolution, alpha, alpha)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def panel_rule(edges, order: int, subdivisions: int) -> tuple:
    """Composite Gauss-Legendre rule on the panels between edges.

    Each interval [edges[i], edges[i+1]] is cut into subdivisions equal
    panels carrying order Gauss-Legendre points each; returns the nodes
    and weights in increasing order.
    """
    gx, gw = np.polynomial.legendre.leggauss(order)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(a, b, subdivisions + 1)
        for aa, bb in zip(cuts[:-1], cuts[1:]):
            xs.append(0.5 * (aa + bb) + 0.5 * (bb - aa) * gx)
            ws.append(0.5 * (bb - aa) * gw)
    return np.concatenate(xs), np.concatenate(ws)


def ball_volume(n: int) -> float:
    """Lebesgue measure of the unit ball in R^n."""
    return sphere_area(n) / n


def monomial_sphere_integral(exponents) -> float:
    """Closed-form integral of x1^a1 * ... * xn^an over S^{n-1}.

    Classic Gamma-function formula; zero whenever any exponent is odd.
    Used as the independent oracle for quadrature exactness.
    """
    a = np.asarray(exponents, dtype=int)
    if np.any(a % 2 == 1):
        return 0.0
    num = 2.0 * np.prod([math.gamma((ai + 1) / 2.0) for ai in a])
    return float(num / math.gamma((a.sum() + len(a)) / 2.0))


@dataclasses.dataclass(frozen=True)
class SphericalGrid:
    """Immutable quadrature grid on S^{n-1}.

    nodes    -- (N, n) unit vectors
    weights  -- (N,) positive, summing to |S^{n-1}|
    exact_degree -- ambient polynomial degree integrated exactly
    angles   -- tuple of 1-D angle arrays (theta_1, ..., theta_{n-2}, phi)
    axis_nodes / axis_weights -- Gauss nodes t_k = cos(theta_k) and weights
    """

    n: int
    resolution: int
    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int
    angles: tuple = ()
    axis_nodes: tuple = ()
    axis_weights: tuple = ()

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False
        object.__setattr__(self, "_cache", {})

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def shape(self) -> tuple:
        """Tensor shape (res, ..., res, n_phi) of the node lattice."""
        return tuple(len(a) for a in self.angles)

    @property
    def max_degree(self) -> int:
        """Largest harmonic degree whose products the grid integrates exactly."""
        return self.exact_degree // 2

    def cache(self, key, builder):
        store = object.__getattribute__(self, "_cache")
        if key not in store:
            store[key] = builder()
        return store[key]


def _circle_grid(resolution: int) -> SphericalGrid:
    m = 2 * resolution
    phi = 2.0 * math.pi * np.arange(m) / m
    nodes = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    weights = np.full(m, 2.0 * math.pi / m)
    return SphericalGrid(
        n=2, resolution=resolution, nodes=nodes, weights=weights,
        exact_degree=m - 1, angles=(phi,),
    )


def build_grid(n: int, resolution: int) -> SphericalGrid:
    """Tensor-product quadrature grid on S^{n-1}.

    resolution is the per-angle Gauss order; the azimuthal circle gets
    2*resolution equispaced nodes.  Polynomials of ambient degree up to
    2*resolution - 1 are integrated exactly.
    """
    if n < 2:
        raise ValueError(f"dimension n must be >= 2, got {n}")
    if resolution < 4:
        raise ValueError(
            f"resolution {resolution} too small to integrate degree-2 polynomials"
        )
    if n == 2:
        return _circle_grid(resolution)

    # theta_k carries coarea weight sin(theta_k)^{n-1-k}; in t = cos(theta)
    # this is the Gauss-Jacobi weight (1-t^2)^{(n-2-k)/2}.
    t_axes, w_axes = [], []
    for k in range(1, n - 1):
        alpha = (n - 2 - k) / 2.0
        t, w = jacobi_rule(resolution, alpha)
        t_axes.append(t)
        w_axes.append(w)
    m_phi = 2 * resolution
    phi = 2.0 * math.pi * np.arange(m_phi) / m_phi

    angles = tuple(np.arccos(t) for t in t_axes) + (phi,)
    mesh = np.meshgrid(*angles, indexing="ij")
    nodes = _embed(mesh, n)

    wmesh = np.meshgrid(*w_axes, np.full(m_phi, 2.0 * math.pi / m_phi),
                        indexing="ij")
    weights = np.ones_like(wmesh[0])
    for w in wmesh:
        weights = weights * w
    weights = weights.ravel()

    return SphericalGrid(
        n=n, resolution=resolution, nodes=nodes, weights=weights,
        exact_degree=2 * resolution - 1,
        angles=angles,
        axis_nodes=tuple(t_axes),
        axis_weights=tuple(w_axes),
    )


def _embed(mesh, n):
    """Node coordinates from hyperspherical angle meshes.

    x_j = sin(a_1)...sin(a_{j-1}) cos(a_j) for j <= n-1,
    x_n = sin(a_1)...sin(a_{n-1}), with a = (theta_1..theta_{n-2}, phi).
    """
    sin_prod = np.ones_like(mesh[0])
    coords = []
    for j in range(n - 1):
        coords.append(sin_prod * np.cos(mesh[j]))
        sin_prod = sin_prod * np.sin(mesh[j])
    coords.append(sin_prod)
    return np.stack([c.ravel() for c in coords], axis=1)


def quadrature(values: np.ndarray, grid: SphericalGrid) -> float:
    """Integral over S^{n-1} of per-node values.

    numpy's pairwise summation keeps the reduction order fixed, so the
    result is reproducible for a given grid.
    """
    values = np.asarray(values)
    if values.shape != (grid.num_nodes,):
        raise ValueError(
            f"field has {values.shape} values for a grid of {grid.num_nodes} nodes"
        )
    return float(np.sum(grid.weights * values))


def tangent_frames(grid: SphericalGrid) -> np.ndarray:
    """Per-node orthonormal tangent frames, shape (N, n-1, n).

    Row k of frame i is the unit chart vector e_{a_k} at node i (a_k the
    k-th hyperspherical angle, the last one being phi).  Gauss nodes
    exclude the poles, so the chart is regular at every node.

    e_k[k] = -sin(a_k); e_k[j] = x_j cos(a_k)/(sin(a_k) S_{k-1}) for j > k,
    where S_{k-1} = sin(a_1)...sin(a_{k-1}).
    """
    def build():
        n = grid.n
        if n == 2:
            phi = grid.angles[0]
            e = np.stack([-np.sin(phi), np.cos(phi)], axis=1)
            return e[:, None, :]
        mesh = np.meshgrid(*grid.angles, indexing="ij")
        shape = mesh[0].shape
        x = _embed(mesh, n).reshape(shape + (n,))
        frames = np.zeros(shape + (n - 1, n))
        sin_prod = np.ones(shape)
        for k in range(n - 2):
            c, s = np.cos(mesh[k]), np.sin(mesh[k])
            frames[..., k, k] = -s
            ratio = c / (s * sin_prod)
            for j in range(k + 1, n):
                frames[..., k, j] = x[..., j] * ratio
            sin_prod = sin_prod * s
        # phi row: e_phi = (0, ..., 0, -sin(phi), cos(phi))
        frames[..., n - 2, n - 2] = -np.sin(mesh[n - 2])
        frames[..., n - 2, n - 1] = np.cos(mesh[n - 2])
        return frames.reshape(-1, n - 1, n)

    return grid.cache("frames", build)
