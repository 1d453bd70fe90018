"""Verification of the two estimates controlling the cubic Hessian term.

The dangerous term in the mean-curvature expansion is
int f(u, |grad u|^2) grad^2 u[grad u, grad u].  The first estimate
bounds it from below through the high-frequency component u_2 and a
pseudo-Laplacian div(g grad u); the second is an unconditional
interpolation bound through the ordered Hessian eigenvalues.

Operations accept either a full-grid ScalarField (n = 2, 3) or a zonal
AxialProfile (any n >= 3).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from quermass import fields, geometry
from quermass.config import CUBIC_SLACK, default_frequency_cutoff
from quermass.fields import ScalarField


@dataclasses.dataclass(frozen=True)
class NonlinearityPair:
    """Positive C^1 nonlinearities (f, g) with f(0,0) = g(0,0) = 1."""

    f: callable
    g: callable
    g_s: callable
    g_t: callable
    name: str = "custom"

    def __post_init__(self):
        for fn, label in ((self.f, "f"), (self.g, "g")):
            v = float(fn(np.array([0.0]), np.array([0.0]))[0])
            if abs(v - 1.0) > 1e-12:
                raise ValueError(f"{label}(0,0) = {v}, expected 1")
        s = np.linspace(-0.4, 0.4, 9)
        t = np.linspace(0.0, 0.16, 9)
        S, T = np.meshgrid(s, t)
        if np.min(self.f(S, T)) <= 0 or np.min(self.g(S, T)) <= 0:
            raise ValueError("nonlinearities must stay positive on the box")


def mean_curvature_pair(n: int) -> NonlinearityPair:
    """The pair behind the perimeter-normalized estimate: g is trivial."""
    p = n - 3.0

    def f(s, t):
        return (1.0 + s) ** p / ((1.0 + s) ** 2 + t)

    one = lambda s, t: np.ones_like(np.asarray(s, dtype=float))
    zero = lambda s, t: np.zeros_like(np.asarray(s, dtype=float))
    return NonlinearityPair(f, one, zero, zero, name="unit_g")


def volumetric_pair(n: int) -> NonlinearityPair:
    """The pair behind the volume-normalized estimate: g absorbs the slope."""
    base = mean_curvature_pair(n)

    def g(s, t):
        return (1.0 + t / (1.0 + s) ** 2) ** -0.5

    def g_s(s, t):
        return t * (1.0 + t / (1.0 + s) ** 2) ** -1.5 / (1.0 + s) ** 3

    def g_t(s, t):
        return -0.5 * (1.0 + t / (1.0 + s) ** 2) ** -1.5 / (1.0 + s) ** 2

    return NonlinearityPair(base.f, g, g_s, g_t, name="slope_g")


# -- uniform access to per-node derivative data --------------------------------


@dataclasses.dataclass
class FieldData:
    """Per-node derivative data of a field in orthonormal frames.

    grad2 and lap are formed on each read; cubic_form, the Hessian form
    hess[grad, grad], is formed once per instance as two two-operand
    contractions, hess.grad and then its dot with grad.
    """

    n: int
    u: np.ndarray
    grad: np.ndarray      # (N, n-1) frame components
    hess: np.ndarray      # (N, n-1, n-1)
    weights: np.ndarray
    high_grad2: np.ndarray | None = None   # |grad u_2|^2 when a split was made

    @property
    def grad2(self):
        return np.einsum("ik,ik->i", self.grad, self.grad)

    @property
    def lap(self):
        return geometry.trace(self.hess)

    @functools.cached_property
    def cubic_form(self):
        return np.einsum("ia,ia->i", self.grad,
                         np.einsum("iab,ib->ia", self.hess, self.grad))

    def c1_norm(self):
        return _c1_norm(self.u, self.grad)


def _c1_norm(u: np.ndarray, grad: np.ndarray) -> float:
    """max(|u|, |grad u|) over the nodes, from values and frame gradients."""
    return float(max(np.max(np.abs(u)),
                     np.max(np.sqrt(np.einsum("ik,ik->i", grad, grad)))))


def _field_data(u, lam: float | None = None) -> FieldData:
    from quermass.axisym import AxialProfile, zonal_frames
    if isinstance(u, ScalarField):
        data = FieldData(
            n=u.grid.n,
            u=u.values,
            grad=fields.grad_frame(u),
            hess=fields.hessian_frame(u),
            weights=u.grid.weights,
        )
        if lam is not None:
            f = u if u.coeffs is not None else fields.analyze(u)
            _, hi = fields.split_frequencies(f, lam)
            g2 = fields.grad_frame(hi)
            data.high_grad2 = np.einsum("ik,ik->i", g2, g2)
        return data
    if isinstance(u, AxialProfile):
        n = u.n
        theta, w = u.quadrature_rule()
        V, grad, hess, _ = zonal_frames(u, theta)
        data = FieldData(n=n, u=V, grad=grad, hess=hess, weights=w)
        if lam is not None:
            if u.coeffs is None:
                raise ValueError("frequency split needs a coefficient profile")
            ev = np.arange(len(u.coeffs)) * (np.arange(len(u.coeffs)) + n - 2.0)
            hi = AxialProfile.from_zonal_coeffs(
                n, np.where(ev >= lam, u.coeffs, 0.0), resolution=u.resolution)
            data.high_grad2 = hi.slope(theta) ** 2
        return data
    raise TypeError(f"unsupported field type {type(u)}")


# -- operations -------------------------------------------------------------------


def cubic_term(u, f=None) -> float:
    """Integral of f(u, |grad u|^2) grad^2 u[grad u, grad u]."""
    d = _field_data(u)
    if f is None:
        fv = 1.0
    else:
        fv = f(d.u, d.grad2)
    return float(np.sum(d.weights * fv * d.cubic_form))


def high_frequency_bound_check(u, pair: NonlinearityPair,
                               lam: float | None = None,
                               eps_cap: float = 0.35) -> dict:
    """Check the frequency-split lower bound for the cubic term.

    lhs >= rhs_main - CUBIC_SLACK * eps * slack_scale, where
    rhs_main = -1/2 int div(g grad u) |grad u_2|^2 and
    slack_scale = int ([div(g grad u)]^+ + 1) |grad u|^2.
    Reports the empirical slack ratio (lhs - rhs_main)/slack_scale.
    """
    n = u.n
    d = _field_data(u, lam=lam if lam is not None else default_frequency_cutoff(n))
    eps = d.c1_norm()
    if eps > eps_cap:
        raise ValueError(f"C1 size {eps:.3f} exceeds the cap {eps_cap}")
    grad2 = d.grad2
    fv = pair.f(d.u, grad2)
    lhs = float(np.sum(d.weights * fv * d.cubic_form))

    gv = pair.g(d.u, grad2)
    gs = pair.g_s(d.u, grad2)
    gt = pair.g_t(d.u, grad2)
    # div(g grad u) = g lap u + (g_s grad u + 2 g_t hess.grad u) . grad u
    divg = gv * d.lap + gs * grad2 + 2.0 * gt * d.cubic_form

    rhs_main = -0.5 * float(np.sum(d.weights * divg * d.high_grad2))
    slack_scale = float(np.sum(d.weights * (np.maximum(divg, 0.0) + 1.0) * grad2))
    margin = lhs - (rhs_main - CUBIC_SLACK * eps * slack_scale)
    ratio = (lhs - rhs_main) / slack_scale if slack_scale > 0 else 0.0
    return {
        "lhs": lhs, "rhs_main": rhs_main, "slack_scale": slack_scale,
        "margin": margin, "ratio": ratio, "eps": eps,
        "holds": margin >= -1e-12 * max(1.0, abs(lhs)),
    }


def eigenvalue_interpolation_check(u) -> dict:
    """Check int grad^2 u[grad u, grad u] >= -1/3 int (sum of the upper
    n-2 Hessian eigenvalues) |grad u|^2; no smallness slack enters."""
    d = _field_data(u)
    lhs = float(np.sum(d.weights * d.cubic_form))
    eigs = geometry.symmetric_eigenvalues(d.hess)
    upper_sum = eigs[:, 1:].sum(axis=1)
    rhs = -(1.0 / 3.0) * float(np.sum(d.weights * upper_sum * d.grad2))
    scale = float(np.sum(d.weights * d.grad2)) * max(1.0, float(np.max(np.abs(eigs))))
    return {"lhs": lhs, "rhs": rhs, "margin": lhs - rhs, "scale": scale}


def integration_by_parts_residual(u) -> float:
    """int grad^2 u[grad u, grad u] + 1/2 int lap u |grad u|^2."""
    d = _field_data(u)
    return float(np.sum(d.weights * d.cubic_form)
                 + 0.5 * np.sum(d.weights * d.lap * d.grad2))


# -- randomized suites ---------------------------------------------------------------


def random_c1_field(n: int, eps_scale: float, seed: int, L: int = 12, grid=None):
    """Seeded random field of degrees 1..L with C1 norm eps_scale: full basis
    for n = 3 (on grid, default build_grid(3, 32)), zonal for n >= 4."""
    rng = np.random.default_rng(seed)
    if n == 3:
        from quermass.grids import build_grid
        from quermass.stardomain import fields_affine
        f = fields.random_band_limited(build_grid(3, 32) if grid is None else grid, L, rng)
        return fields_affine(f, eps_scale / _c1_norm(f.values, fields.grad_frame(f)), 0.0)
    from quermass.axisym import AxialProfile
    c = fields.random_zonal_coeffs(L, rng)
    prof = AxialProfile.from_zonal_coeffs(n, c, resolution=256)
    return AxialProfile.from_zonal_coeffs(n, c * (eps_scale / prof.c1_norm()),
                                          resolution=prof.resolution)


def slack_ratio_ladder(n: int, pair: NonlinearityPair,
                       eps_levels=(0.04, 0.02, 0.01), count: int = 300,
                       seed: int = 0, lam: float | None = None,
                       L: int = 12, resolution: int = 32) -> dict:
    """Mean |slack ratio| per C1 level, same field shapes rescaled.

    The estimate's unquantified small factor should shrink with the C1
    size; rescaling the same draws isolates exactly that dependence.
    """
    from quermass.grids import build_grid
    grid = build_grid(n, resolution) if n == 3 else None
    ratios = {lev: [] for lev in eps_levels}
    rows = []
    for i in range(count):
        base = random_c1_field(n, 1.0, seed=seed + i, L=L, grid=grid)
        for lev in eps_levels:
            if n == 3:
                from quermass.stardomain import fields_affine
                u = fields_affine(base, lev, 0.0)
            else:
                from quermass.axisym import AxialProfile
                u = AxialProfile.from_zonal_coeffs(n, base.coeffs * lev,
                                                   resolution=base.resolution)
            rep = high_frequency_bound_check(u, pair, lam=lam)
            ratios[lev].append(abs(rep["ratio"]))
            rows.append({"lemma": "freq_split", "n": n, "seed": seed + i,
                         "eps_scale": lev, "lhs": rep["lhs"],
                         "rhs": rep["rhs_main"], "slack_scale": rep["slack_scale"],
                         "margin": rep["margin"], "ratio": rep["ratio"]})
    means = {lev: float(np.mean(ratios[lev])) for lev in eps_levels}
    ordered = [means[lev] for lev in sorted(eps_levels, reverse=True)]
    return {"mean_abs_ratio": means, "monotone": all(
        a > b for a, b in zip(ordered[:-1], ordered[1:])), "rows": rows}
