"""Search harness for the open gradient-energy inequality.

The quantity of interest is R(u) = int lap(u) |grad u|^2 / int |grad u|^2
over smooth u with lap(u) <= 1 pointwise.  The conjectured bound is
(n-2)/(n-1); only the trivial bound R <= 1 is asserted.  The harness
maximizes R by penalized gradient ascent on spectral coefficients and
reproduces the smoothed zonal Green-kernel sequence that keeps the
ratio bounded away from zero for n >= 4.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.special import gammaln

from quermass import fields, harmonics
from quermass.grids import build_grid, jacobi_rule, sphere_area
from quermass.harmonics import ZonalBasis, multiplicity


def conjectured_bound(n: int) -> float:
    return (n - 2.0) / (n - 1.0)


@dataclasses.dataclass
class ConjectureCandidate:
    n: int
    coeffs: np.ndarray
    ratio: float
    constraint_margin: float
    grad_norm_inf: float
    backend: str
    meta: dict = dataclasses.field(default_factory=dict)


# -- spectral backends -------------------------------------------------------------


class _Backend:
    """Shared interface: coefficient vectors <-> node data on a quadrature set.

    A backend supplies ascent_fields, the three node fields of one
    ascent step from a single pass over the stacked pair [c, -lam c];
    the single-field accessors read from it.  resolution is the grid
    resolution the backend was built at, its default resolved.
    """

    def ascent_fields(self, c):
        """(lap u, |grad u|^2, grad(lap u) . grad u) at the nodes."""
        raise NotImplementedError

    def laplacian_values(self, c):
        return self.ascent_fields(c)[0]

    def grad2_values(self, c):
        return self.ascent_fields(c)[1]

    def graddelta_dot_grad(self, c):
        return self.ascent_fields(c)[2]

    def constraint_max(self, c):
        """max lap(u) over the constraint's evaluation set."""
        return float(np.max(self.laplacian_values(c)))

    def project(self, values):
        """<values, basis_b> for every b (discrete analysis); values (..., N)."""
        raise NotImplementedError

    def integrate(self, values):
        return float(np.sum(self.weights * values))

    def grad_inf(self, c):
        raise NotImplementedError


class FullSphereBackend(_Backend):
    """n = 3 full harmonic basis on a Gauss x equiangular grid."""

    name = "full"

    def __init__(self, L: int, resolution: int | None = None):
        if resolution is None:
            resolution = max(32, (3 * L + 4) // 2)
        if 3 * L + 2 > 2 * resolution - 1:
            raise ValueError("grid cannot integrate the cubic products exactly")
        self.n = 3
        self.L = L
        self.resolution = resolution
        self.grid = build_grid(3, resolution)
        self.weights = self.grid.weights
        self.sin_theta, _ = fields.node_angles(self.grid)
        self.eigenvalues = harmonics.degree_of_index(L) * (
            harmonics.degree_of_index(L) + 1.0)
        self.num_coeffs = harmonics.coeff_count(L)

    def ascent_fields(self, c):
        u, u_t, u_p = harmonics.sh_chart_derivatives(
            self.grid, np.stack([c, -self.eigenvalues * c]), second=False)
        g_p = u_p / self.sin_theta
        return u[1], u_t[0] * u_t[0] + g_p[0] * g_p[0], u_t[0] * u_t[1] + g_p[0] * g_p[1]

    def project(self, values):
        return harmonics.sh_analyze(self.grid, values, self.L)

    def grad_inf(self, c):
        return float(np.max(np.sqrt(self.grad2_values(c))))


class CircleBackend(_Backend):
    """n = 2 Fourier basis; the ratio vanishes identically here."""

    name = "circle"

    def __init__(self, L: int, resolution: int | None = None):
        if resolution is None:
            resolution = max(16, 2 * L)
        self.n = 2
        self.L = L
        self.resolution = resolution
        self.grid = build_grid(2, resolution)
        self.weights = self.grid.weights
        m = np.arange(2 * L + 1)
        l = (m + 1) // 2
        self.eigenvalues = (l * l).astype(float)
        self.num_coeffs = 2 * L + 1

    def ascent_fields(self, c):
        pair = np.stack([c, -self.eigenvalues * c])
        g = fields.fourier_synthesize(self.grid, pair, dphi=1)
        lap = fields.fourier_synthesize(self.grid, pair[1])
        return lap, g[0] * g[0], g[0] * g[1]

    def project(self, values):
        return fields.fourier_analyze(self.grid, values, self.L)

    def grad_inf(self, c):
        return float(np.max(np.abs(fields.fourier_synthesize(self.grid, c, dphi=1))))


class ZonalBackend(_Backend):
    """Zonal basis for any n >= 3 on the Gauss-Jacobi polar rule."""

    name = "zonal"

    def __init__(self, n: int, L: int, resolution: int | None = None):
        if resolution is None:
            resolution = max(256, 2 * L + 32)
        self.n = n
        self.L = L
        self.resolution = resolution
        self.basis = ZonalBasis(n, L)
        t, w = jacobi_rule(resolution, (n - 3) / 2.0)
        self.t, self.w = t, w
        self.area_factor = sphere_area(n - 1)
        self.theta = np.arccos(t)
        self.sin_t = np.sin(self.theta)
        self.Z = self.basis.values(t)
        Zp = self.basis.values(t, derivative=1)
        self.Z_theta = -self.sin_t[None, :] * Zp
        self.eigenvalues = self.basis.eigenvalues.astype(float)
        self.num_coeffs = L + 1
        # dense evaluation set for sup norms, poles included
        td = np.cos(np.linspace(0.0, math.pi, 4 * resolution + 1))
        self.t_dense = td
        self.Z_dense = self.basis.values(td)
        self.Z_theta_dense = -np.sqrt(np.maximum(0.0, 1 - td * td))[None, :] \
            * self.basis.values(td, derivative=1)

    def ascent_fields(self, c):
        pair = np.stack([c, -self.eigenvalues * c])
        g = pair @ self.Z_theta
        return pair[1] @ self.Z, g[0] * g[0], g[0] * g[1]

    def laplacian_values(self, c, dense: bool = False):
        Z = self.Z_dense if dense else self.Z
        return (-self.eigenvalues * c) @ Z

    def project(self, values):
        return self.area_factor * ((self.w * values) @ self.Z.T)

    def integrate(self, values):
        return self.area_factor * float(np.sum(self.w * values))

    def grad_inf(self, c):
        return float(np.max(np.abs(c @ self.Z_theta_dense)))

    def constraint_max(self, c):
        return float(np.max(self.laplacian_values(c, dense=True)))


def make_backend(n: int, L: int, resolution: int | None = None) -> _Backend:
    if n == 2:
        return CircleBackend(L, resolution)
    if n == 3:
        return FullSphereBackend(L, resolution)
    return ZonalBackend(n, L, resolution)


# -- elementary operations -----------------------------------------------------------


def ratio_and_parts(backend: _Backend, c: np.ndarray):
    """(int lap(u) |grad u|^2, int |grad u|^2) from one ascent_fields pass."""
    lap, g2, _ = backend.ascent_fields(c)
    den = backend.integrate(g2)
    num = backend.integrate(lap * g2)
    return num, den


def ratio(backend: _Backend, c: np.ndarray) -> float:
    num, den = ratio_and_parts(backend, c)
    if den <= 1e-14:
        raise ValueError("gradient energy is numerically zero")
    return num / den


def feasibility(backend: _Backend, c: np.ndarray) -> float:
    """1 - max lap(u); nonnegative for admissible candidates."""
    return 1.0 - backend.constraint_max(c)


def trivial_bound_margin(backend: _Backend, c: np.ndarray) -> float:
    """int |grad u|^2 - int lap(u) |grad u|^2, nonnegative when lap(u) <= 1."""
    num, den = ratio_and_parts(backend, c)
    return den - num


def reject_constant_laplacian(target: float):
    """A constant nonzero Laplacian is impossible on a closed manifold."""
    if abs(target) > 0:
        raise ValueError(
            f"lap(u) = {target} everywhere is infeasible: the Laplacian "
            "integrates to zero on the sphere"
        )


def mean_laplacian(backend: _Backend, c: np.ndarray) -> float:
    return backend.integrate(backend.laplacian_values(c))


# -- penalized ascent -----------------------------------------------------------------


def _objective_and_gradient(backend: _Backend, c: np.ndarray, mu: float):
    lap, g2, gdg = backend.ascent_fields(c)
    den = backend.integrate(g2)
    num = backend.integrate(lap * g2)
    hinge = np.maximum(lap - 1.0, 0.0)
    pen = backend.integrate(hinge * hinge)
    value = num / den - mu * pen

    lam = backend.eigenvalues
    # dN/dc_b = -lam_b <Y_b, |grad u|^2> - 2 <Y_b, grad(lap u).grad u + lap(u)^2>
    p_g2, p_mixed, p_lap, p_hinge = backend.project(
        np.stack([g2, gdg + lap * lap, lap, hinge]))
    gN = -lam * p_g2 - 2.0 * p_mixed
    gD = -2.0 * p_lap
    gP = -2.0 * lam * p_hinge
    grad = (gN * den - num * gD) / den**2 - mu * gP
    return value, grad


def _fd_gradient(backend, c, mu, h=1e-6):
    g = np.zeros_like(c)
    for b in range(len(c)):
        cp, cm = c.copy(), c.copy()
        cp[b] += h
        cm[b] -= h
        fp, _ = _objective_and_gradient(backend, cp, mu)
        fm, _ = _objective_and_gradient(backend, cm, mu)
        g[b] = (fp - fm) / (2 * h)
    return g


def maximize_ratio(n: int, basis_cap: int = 12, restarts: int = 20,
                   seed: int = 0, amplitude_cap: float | None = None,
                   iterations: int = 250) -> dict:
    """Penalized gradient ascent on R(u) under lap(u) <= 1.

    Each restart climbs at the penalty weights 1e2, 1e4 and 1e6 in turn
    on the backend's default grid.  Deterministic under the seed; the
    analytic coefficient gradient is validated against central finite
    differences at each restart's start point.  Returns the best
    feasible candidate and all rows.
    basis_cap below 1 leaves no nonconstant mode and raises ValueError.
    """
    if basis_cap < 1:
        raise ValueError(f"basis_cap {basis_cap} leaves no nonconstant mode; "
                         "it must be at least 1")
    backend = make_backend(n, basis_cap)
    lam = backend.eigenvalues
    rows = []
    best = None
    grad_checks = []
    for r in range(restarts):
        rng = np.random.default_rng(seed + 7919 * r)
        c = rng.standard_normal(backend.num_coeffs)
        c[lam < 0.5] = 0.0          # remove the constant mode
        # start inside the constraint set, oriented toward positive ratio
        # (the ratio is odd under c -> -c)
        mx = 1.0 - feasibility(backend, c)
        if mx > 0.9:
            c *= 0.9 / mx
        num, den = ratio_and_parts(backend, c)
        if den > 1e-14 and num < 0:
            c = -c

        _, ga = _objective_and_gradient(backend, c, 1e2)
        gf = _fd_gradient(backend, c, 1e2)
        diff = float(np.linalg.norm(ga - gf))
        # both sides at rounding level: the gradient vanishes identically
        # (n = 2) and the relative test is ill-posed
        grad_checks.append(0.0 if diff <= 1e-8 else diff / float(np.linalg.norm(gf)))

        for mu in (1e2, 1e4, 1e6):
            step = 0.05
            val, grad = _objective_and_gradient(backend, c, mu)
            for _ in range(iterations):
                gnorm = np.linalg.norm(grad)
                if gnorm < 1e-12:
                    break
                trial = c + step * grad / gnorm
                tval, tgrad = _objective_and_gradient(backend, trial, mu)
                if tval > val:
                    c, val, grad = trial, tval, tgrad
                    step *= 1.25
                else:
                    step *= 0.5
                    if step < 1e-12:
                        break

        # exact feasibility by homogeneity: lap(t c) = t lap(c)
        mx = 1.0 - feasibility(backend, c)
        if mx > 1.0:
            c = c / mx
        if amplitude_cap is not None:
            gi = backend.grad_inf(c)
            if gi > amplitude_cap:
                c = c * (amplitude_cap / gi)
        num, den = ratio_and_parts(backend, c)
        if den <= 1e-14:
            rows.append({"seed": seed + 7919 * r, "ratio": 0.0,
                         "constraint_margin": 1.0, "grad_inf": 0.0,
                         "feasible": True, "degenerate": True})
            continue
        cand = ConjectureCandidate(
            n=n, coeffs=c, ratio=num / den,
            constraint_margin=feasibility(backend, c),
            grad_norm_inf=backend.grad_inf(c),
            backend=backend.name,
        )
        feasible = cand.constraint_margin >= -1e-8
        rows.append({"seed": seed + 7919 * r, "ratio": cand.ratio,
                     "constraint_margin": cand.constraint_margin,
                     "grad_inf": cand.grad_norm_inf, "feasible": feasible,
                     "degenerate": False})
        if feasible and (best is None or cand.ratio > best.ratio):
            best = cand

    if best is None:
        best = ConjectureCandidate(n=n, coeffs=np.zeros(backend.num_coeffs),
                                   ratio=0.0, constraint_margin=1.0,
                                   grad_norm_inf=0.0, backend=backend.name,
                                   meta={"degenerate": True})
    best.meta["gradient_check_max_rel"] = max(grad_checks) if grad_checks else None
    best.meta["conjectured_bound"] = conjectured_bound(n)
    out = {"best": best, "rows": rows, "backend": backend}
    if best.ratio > conjectured_bound(n) and n >= 3:
        out["high_resolution_recheck"] = _recheck(backend, best)
    return out


def _recheck(backend, cand):
    """Re-verify a bound-threatening candidate at doubled grid resolution."""
    fine = make_backend(backend.n, backend.L, 2 * backend.resolution)
    num, den = ratio_and_parts(fine, cand.coeffs)
    return {"ratio": num / den, "constraint_margin": feasibility(fine, cand.coeffs),
            "resolution": fine.resolution}


# -- smoothed Green-kernel sequence ---------------------------------------------------


def green_sequence(n: int, level: int) -> ConjectureCandidate:
    """Zonal truncation of the Green kernel of -lap, rescaled to max lap = 1.

    The degree-level truncation of sum_l multiplicity/(eigenvalue |S^{n-1}|)
    P_l(t) keeps the ratio bounded below while its gradient sup norm
    decays; the construction needs n >= 4.
    """
    if n < 4:
        raise ValueError("the Green-kernel sequence requires n >= 4")
    backend = make_backend(n, level)
    area = sphere_area(n)
    alpha = (n - 2.0) / 2.0
    # u = -(truncated kernel): its Laplacian is the mollified point mass
    # (positive, concentrated at the pole) minus the constant 1/area, so
    # after rescaling the constraint max lap(u) = 1 is pinned at the pole
    # where the gradient energy concentrates.
    c = np.zeros(level + 1)
    for l in range(1, level + 1):
        lam = l * (l + n - 2.0)
        # C_l^~(1) and the basis normalization, via log-Gamma for stability
        log_c1 = gammaln(l + 2 * alpha) - gammaln(2 * alpha) - gammaln(l + 1.0)
        c[l] = -(multiplicity(l, n) / (lam * area)
                 * backend.basis.norms[l] / math.exp(log_c1))
    mx = float(np.max(backend.laplacian_values(c, dense=True)))
    if mx <= 0:
        raise RuntimeError("unexpected sign of the truncated kernel Laplacian")
    c = c / mx
    num, den = ratio_and_parts(backend, c)
    return ConjectureCandidate(
        n=n, coeffs=c, ratio=num / den,
        constraint_margin=feasibility(backend, c),
        grad_norm_inf=backend.grad_inf(c), backend="zonal",
        meta={"level": level},
    )


def green_ladder(n: int, levels=(8, 16, 32, 64)) -> dict:
    cands = [green_sequence(n, k) for k in levels]
    grads = [c.grad_norm_inf for c in cands]
    ratios = [c.ratio for c in cands]
    noninc = all(g2 <= 1.1 * g1 for g1, g2 in zip(grads[:-1], grads[1:]))
    return {"levels": list(levels), "ratios": ratios, "grad_inf": grads,
            "candidates": cands, "min_ratio": min(ratios),
            "grad_nonincreasing_within_10pct": noninc}
