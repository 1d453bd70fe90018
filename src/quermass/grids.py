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


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@functools.lru_cache(maxsize=64)
def jacobi_rule(resolution: int, alpha: float) -> tuple:
    """Gauss-Jacobi nodes and weights for the weight (1-t^2)^alpha.

    Newton's method in theta (t = cos theta) on the three-term recurrence
    of the orthonormal polynomials, from asymptotic starting angles, finds
    the nonnegative half of the nodes; the other half is its mirror image,
    so t[::-1] == -t and the middle node of an odd rule is 0.0.  A last
    recurrence pass at t = cos(theta) polishes each node by one Newton step
    in t and gives its weight; the weights are scaled to the exact mass
    2^(2 alpha+1) Gamma(alpha+1)^2 / Gamma(2 alpha+2).  Built once per
    (resolution, alpha) and shared, so both arrays are read-only.
    """
    if resolution < 1:
        raise ValueError(f"a Gauss-Jacobi rule needs resolution >= 1, got {resolution}")
    if not alpha > -1.0:
        raise ValueError(f"the Gauss-Jacobi weight needs alpha > -1, got {alpha}")
    N, a = int(resolution), float(alpha)
    # recurrence t p_j = b_{j+1} p_{j+1} + b_j p_{j-1} of the orthonormal
    # polynomials, b_j^2 = j (j+2a) / ((2j+2a)^2 - 1), with b_1 in closed
    # form (0/0 at a = -1/2); (1-t^2) p_N' = c p_{N-1} - N t p_N
    j = np.arange(2.0, N + 1.0)
    b = np.empty(N)
    b[0] = math.sqrt(1.0 / (3.0 + 2.0 * a))
    b[1:] = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
    c = b[-1] * (2.0 * N + 2.0 * a + 1.0)

    theta = _jacobi_start_angles(N, a)
    for _ in range(_NEWTON_PASSES):
        t = np.cos(theta)
        p, q = _orthonormal_pair(t, b)
        step = p * np.sin(theta) / (c * q - N * t * p)
        theta = theta + step
        if np.max(np.abs(step), initial=0.0) <= 1e-9:     # False for a NaN step
            break
    else:
        raise RuntimeError(f"Gauss-Jacobi nodes did not converge for "
                           f"resolution {N}, alpha {a}")

    # nonnegative nodes in increasing order, the middle one exactly 0.0
    t = np.concatenate([np.zeros(N % 2), np.cos(theta[::-1])])
    p, q = _orthonormal_pair(t, b)
    g = c * q - N * t * p
    s2 = (1.0 - t) * (1.0 + t)
    # w ~ (1-t^2) / g^2 at the root t* = t - p s2 / g; to first order in p,
    # 1 - t*^2 = s2 (1 + 2 t p / g) and g(t*) = g - 2 a t p (the Jacobi ODE)
    w = s2 * (1.0 + 2.0 * t * p / g) / (g - 2.0 * a * t * p) ** 2
    t = t - p * s2 / g
    t = np.concatenate([-t[::-1][:N // 2], t])
    w = np.concatenate([w[::-1][:N // 2], w])
    mass = math.exp((2.0 * a + 1.0) * math.log(2.0) + 2.0 * math.lgamma(a + 1.0)
                    - math.lgamma(2.0 * a + 2.0))
    w *= mass / np.sum(w)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


# Newton passes allowed from the starting angles; at most 6 (4 for
# alpha >= -3/4) were needed over resolutions 1-600 and 2080 for alpha
# from -0.99 to 50
_NEWTON_PASSES = 20


def _orthonormal_pair(t: np.ndarray, b: np.ndarray) -> tuple:
    """(p_N(t), p_{N-1}(t)) of the recurrence with coefficients b, p_0 = 1."""
    q, p = np.ones_like(t), t / b[0]
    for k in range(1, len(b)):
        q, p = p, (t * p - b[k - 1] * q) / b[k]
    return p, q


def _jacobi_start_angles(N: int, a: float) -> np.ndarray:
    """Angles near the N//2 zeros of P_N^(a,a)(cos theta) in (0, pi/2).

    sin(theta)^(a+1/2) P_N(cos theta) solves u'' + (rho^2 - mu^2/sin^2) u
    = 0 with rho = N + a + 1/2 and mu^2 = a^2 - 1/4; the WKB phase with
    Langer's mu = max(a, 0), counted from the turning point sin = mu/rho,
    is (k - 1/4 + (a - mu)/2) pi at the k-th zero.  It has a closed form,
    inverted by bisection; the angles are within about 2% of a node
    spacing for a >= 0.
    """
    mu = max(a, 0.0)
    rho = N + a + 0.5
    A = math.sqrt(rho * rho - mu * mu)
    target = (np.arange(1, N // 2 + 1) - 0.25 + 0.5 * (a - mu)) * math.pi
    lo = np.full(target.shape, math.asin(mu / rho))
    hi = np.full(target.shape, 0.5 * math.pi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        cos = np.cos(mid)
        R = np.sqrt(np.maximum((rho * np.sin(mid)) ** 2 - mu * mu, 0.0))
        phase = ((rho - mu) * 0.5 * math.pi
                 - rho * np.arcsin(np.minimum(rho * cos / A, 1.0))
                 + mu * np.arctan2(mu * cos, R))
        below = phase < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple:
    """numpy's Gauss-Legendre nodes and weights on [-1, 1], built once per
    order and shared, so both arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def panel_rule(edges, order: int, subdivisions: int) -> tuple:
    """Composite Gauss-Legendre rule on the panels between edges.

    Each interval [edges[i], edges[i+1]] is cut into subdivisions equal
    panels carrying order Gauss-Legendre points each; returns the nodes
    and weights in increasing order.
    """
    gx, gw = _gauss_legendre(order)
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
    """Immutable quadrature grid on S^{n-1}, the tensor lattice of 1-D angle rules.

    nodes    -- (N, n) unit vectors, built on first read
    weights  -- (N,) positive, summing to |S^{n-1}|, built on first read
    exact_degree -- ambient polynomial degree integrated exactly
    angles   -- tuple of 1-D angle arrays (theta_1, ..., theta_{n-2}, phi)
    axis_nodes / axis_weights -- Gauss nodes t_k = cos(theta_k) and weights

    points(index) and node_weights(index) give the rows of nodes and
    weights at flat node indices, bit for bit, from the per-axis factors
    (factors, axis_weights and phi_weight), so a pass over the grid in
    blocks never builds the whole arrays.
    """

    n: int
    resolution: int
    exact_degree: int
    angles: tuple = ()
    axis_nodes: tuple = ()
    axis_weights: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        d = self.n - 1
        cos, sin = self.factors
        x = _embed([_along(c, k, d) for k, c in enumerate(cos)],
                   [_along(s, k, d) for k, s in enumerate(sin)], self.shape)
        x = x.reshape(-1, self.n)
        x.flags.writeable = False
        return x

    @functools.cached_property
    def weights(self) -> np.ndarray:
        d = self.n - 1
        w = _weight_product([_along(a, k, d) for k, a in enumerate(self.axis_weights)],
                            self.phi_weight, self.shape).ravel()
        w.flags.writeable = False
        return w

    def points(self, index) -> np.ndarray:
        """Rows index of nodes, (len(index), n), without building nodes."""
        cos, sin = self.factors
        axes = self._axis_indices(index)
        return _embed([c[i] for c, i in zip(cos, axes)],
                      [s[i] for s, i in zip(sin, axes)], np.shape(index))

    def node_weights(self, index) -> np.ndarray:
        """Entries index (flat indices) of weights, without building weights."""
        axes = self._axis_indices(index)
        return _weight_product([w[i] for w, i in zip(self.axis_weights, axes)],
                               self.phi_weight, np.shape(index))

    def _axis_indices(self, index) -> list:
        """Per-axis indices of flat node indices in [0, num_nodes), those of
        np.unravel_index, by one floor division and one multiply-subtract
        per axis after the first: half to three quarters of the time of
        np.divmod (numpy 2.4, 40 000 indices)."""
        index = np.asarray(index)
        axes = []
        for size in self.shape[:0:-1]:
            q = index // size
            axes.append(index - q * size)
            index = q
        axes.append(index)
        return axes[::-1]

    @functools.cached_property
    def factors(self) -> tuple:
        """(cos, sin) of every angle axis: the 1-D factors of the coordinates.

        Built once per grid and shared; a node's coordinates are the
        products _embed takes of the factors at its axis indices."""
        return (tuple(np.cos(a) for a in self.angles),
                tuple(np.sin(a) for a in self.angles))

    @property
    def phi_weight(self) -> float:
        """The weight factor 2 pi / (phi count) of every node."""
        return 2.0 * math.pi / len(self.angles[-1])

    @property
    def num_nodes(self) -> int:
        return math.prod(self.shape)

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


def build_grid(n: int, resolution: int) -> SphericalGrid:
    """Tensor-product quadrature grid on S^{n-1}.

    resolution is the per-angle Gauss order; the azimuthal circle gets
    2*resolution equispaced nodes (for n = 2 it is the whole grid).
    Polynomials of ambient degree up to 2*resolution - 1 are integrated
    exactly.
    """
    if n < 2:
        raise ValueError(f"dimension n must be >= 2, got {n}")
    if resolution < 4:
        raise ValueError(
            f"resolution {resolution} too small to integrate degree-2 polynomials"
        )
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

    return SphericalGrid(
        n=n, resolution=resolution,
        exact_degree=2 * resolution - 1,
        angles=tuple(np.arccos(t) for t in t_axes) + (phi,),
        axis_nodes=tuple(t_axes),
        axis_weights=tuple(w_axes),
    )


def _along(a, axis: int, ndim: int) -> np.ndarray:
    """The 1-D array a as an ndim array that varies along axis only."""
    shape = [1] * ndim
    shape[axis] = -1
    return a.reshape(shape)


def _embed(cos, sin, shape) -> np.ndarray:
    """Node coordinates, shape + (n,), from the per-axis factors cos(a_k), sin(a_k).

    x_j = sin(a_1)...sin(a_{j-1}) cos(a_j) for j <= n-1,
    x_n = sin(a_1)...sin(a_{n-1}), with a = (theta_1..theta_{n-2}, phi).
    The factors are arrays broadcasting to shape: the 1-D factors laid
    along their axes for the whole lattice, or gathered at the nodes of
    an index set.  The products are taken in the same order either way,
    so a node has the same bits in both.
    """
    d = len(cos)
    x = np.empty(tuple(shape) + (d + 1,))
    sin_prod = 1.0
    for j in range(d - 1):
        np.multiply(sin_prod, cos[j], out=x[..., j])
        sin_prod = sin_prod * sin[j]
    np.multiply(sin_prod, cos[-1], out=x[..., d - 1])
    np.multiply(sin_prod, sin[-1], out=x[..., d])
    return x


def _weight_product(weights, phi_weight: float, shape) -> np.ndarray:
    """The product of the per-axis weights, in axis order, times the phi weight.

    The weights broadcast to shape, laid along their axes or gathered at
    an index set, as the factors of _embed.
    """
    w_prod = 1.0
    for w in weights:
        w_prod = w_prod * w
    return np.multiply(w_prod, phi_weight, out=np.empty(tuple(shape)))


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
        shape = grid.shape
        d = len(shape)
        x = grid.nodes.reshape(shape + (n,))
        frames = np.zeros(shape + (n - 1, n))
        sin_prod = np.ones((1,) * d)
        for k in range(n - 2):
            a = _along(grid.angles[k], k, d)
            c, s = np.cos(a), np.sin(a)
            frames[..., k, k] = -s
            ratio = c / (s * sin_prod)
            for j in range(k + 1, n):
                frames[..., k, j] = x[..., j] * ratio
            sin_prod = sin_prod * s
        # phi row: e_phi = (0, ..., 0, -sin(phi), cos(phi))
        phi = _along(grid.angles[n - 2], n - 2, d)
        frames[..., n - 2, n - 2] = -np.sin(phi)
        frames[..., n - 2, n - 1] = np.cos(phi)
        return frames.reshape(-1, n - 1, n)

    return grid.cache("frames", build)
