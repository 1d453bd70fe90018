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
import functools
import math

import numpy as np

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
    the single-field accessors read from it.  The node-data methods
    take a leading batch axis, (R, K) coefficients -> (R, N) values and
    (..., N) values -> (..., K) or (...,); the sup norms take one vector.
    ascent_fields gives every row bit for bit as a call on that row
    alone, and so does project on an (R, F, N) stack of F fields per
    row (FullSphereBackend through a per-row loop); one (F, N) stack
    projected at once may round its fields otherwise than F calls.
    resolution is the grid resolution the backend was built at, its
    default resolved.
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
        """Quadrature of (..., N) node values: a float for one field."""
        return _float_if_scalar(np.sum(self.weights * values, axis=-1))

    def grad_inf(self, c):
        raise NotImplementedError

    def pair(self, c):
        """The stacked (..., 2, K) pair [c, -lam c] of one ascent pass."""
        return c[..., None, :] * self._pair_scale

    @functools.cached_property
    def _pair_scale(self):
        return np.stack([np.ones_like(self.eigenvalues), -self.eigenvalues])


def _float_if_scalar(total):
    return float(total) if np.ndim(total) == 0 else total


class FullSphereBackend(_Backend):
    """n = 3 full harmonic basis on a Gauss x equiangular grid.

    ascent_fields synthesizes the whole stack of pairs in one
    sh_chart_derivatives call, each row bit for bit as a call on it
    alone with OpenBLAS 0.3.31 (Haswell kernels), which a test pins on
    both sides of harmonics.DENSE_PHI_ROWS.  project keeps one analysis
    per row: there a batched call rounds the rows of a multi-field
    stack otherwise than per-row calls do.
    """

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
        u, u_t, u_p = harmonics.sh_chart_derivatives(self.grid, self.pair(c), second=False)
        g_p = u_p / self.sin_theta
        t0, t1, p0, p1 = u_t[..., 0, :], u_t[..., 1, :], g_p[..., 0, :], g_p[..., 1, :]
        return u[..., 1, :], t0 * t0 + p0 * p0, t0 * t1 + p0 * p1

    def project(self, values):
        """values (N,) or (F, N) -> one analysis; (R, F, N) -> one per row."""
        if np.ndim(values) > 2:
            return np.stack([self.project(v) for v in values])
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
        pair = self.pair(c)
        g = fields.fourier_synthesize(self.grid, pair, dphi=1)
        lap = fields.fourier_synthesize(self.grid, pair[..., 1, :])
        g0 = g[..., 0, :]
        return lap, g0 * g0, g0 * g[..., 1, :]

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
        self.Z_dense = self.basis.values(td)
        self.Z_theta_dense = -np.sqrt(np.maximum(0.0, 1 - td * td))[None, :] \
            * self.basis.values(td, derivative=1)

    def ascent_fields(self, c):
        # one (2, K) @ (K, N) product per row, and the Laplacian as a
        # (1, K) row times Z: a single (R, K) @ (K, N) product would sum
        # in another order than the row alone
        pair = self.pair(c)
        g = pair @ self.Z_theta
        g0 = g[..., 0, :]
        return (pair[..., 1:2, :] @ self.Z)[..., 0, :], g0 * g0, g0 * g[..., 1, :]

    def laplacian_values(self, c, dense: bool = False):
        Z = self.Z_dense if dense else self.Z
        return ((-self.eigenvalues * c)[..., None, :] @ Z)[..., 0, :]

    def project(self, values):
        return self.area_factor * ((self.w * values) @ self.Z.T)

    def integrate(self, values):
        return _float_if_scalar(self.area_factor * np.sum(self.w * values, axis=-1))

    def grad_inf(self, c):
        return float(np.max(np.abs(c @ self.Z_theta_dense)))

    def constraint_max(self, c):
        return float(np.max(self.laplacian_values(c, dense=True)))


def make_backend(n: int, L: int, resolution: int | None = None) -> _Backend:
    if n < 2:
        raise ValueError(f"the gradient-energy ratio is defined for n >= 2, got n = {n}")
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


# -- penalized ascent -----------------------------------------------------------------


_PENALTIES = (1e2, 1e4, 1e6)    # the penalty weights every restart climbs in turn
# central-difference step of the gradient check; the difference's
# truncation error is quadratic in it (1.06e-5 relative at 1e-6 and
# 1.06e-7 at 1e-7 on the start points of --n 5 --degree-cap 16 --seed 4)
_FD_STEP = 1e-7
# gradient norm below which both sides of the check are rounding noise:
# at n = 2, where the gradient vanishes, the difference quotient's norm
# is 3e-10 to 1.2e-9 (caps 6-24) and the analytic one about 1e-14; the
# n >= 3 gradients have norms of 5 and more at the start points
_ROUNDING_NORM = 1e-8
# perturbed vectors per batched pass of the check: at n = 3 a wider pass
# leaves the caches (2 cores, BLAS on one thread: about 95 us per vector
# at 8, 190-210 us at 32), and zonal passes gain little beyond 8
_CHECK_CHUNK = 8


def _objective(backend: _Backend, C: np.ndarray, mu: float):
    """Per row of C, R(u) - mu int max(lap u - 1, 0)^2, and the node
    fields and integrals its gradient reads."""
    lap, g2, gdg = backend.ascent_fields(C)
    hinge = np.maximum(lap - 1.0, 0.0)
    den, num, pen = backend.integrate(
        np.stack([g2, lap * g2, hinge * hinge], axis=1)).T
    return num / den - mu * pen, (lap, g2, gdg, hinge, den, num)


def _gradient(backend: _Backend, parts: tuple, mu: float) -> np.ndarray:
    """(R, K) coefficient gradients of the objective from the (R, ...) node
    fields and integrals that _objective returned for those rows, each row
    as it would come alone: one projection of the rows' (R, 4, N) stack,
    which every backend's project keeps row by row."""
    lap, g2, gdg, hinge, den, num = parts
    lam = backend.eigenvalues
    # dN/dc_b = -lam_b <Y_b, |grad u|^2> - 2 <Y_b, grad(lap u).grad u + lap(u)^2>
    p_g2, p_mixed, p_lap, p_hinge = backend.project(
        np.stack([g2, gdg + lap * lap, lap, hinge], axis=1)).transpose(1, 0, 2)
    gN = -lam * p_g2 - 2.0 * p_mixed
    gD = -2.0 * p_lap
    gP = -2.0 * lam * p_hinge
    # Python's float power: it rounds den**2 otherwise than den * den does
    den2 = np.array([d ** 2 for d in den.tolist()])[:, None]
    return (gN * den[:, None] - num[:, None] * gD) / den2 - mu * gP


def _gradient_check(backend: _Backend, C: np.ndarray, mu: float) -> list:
    """Per row of C, the relative error of the analytic gradient.

    The reference is the central difference with step _FD_STEP; the
    2K perturbed vectors of every row go through the objective in
    batched passes of at most _CHECK_CHUNK vectors, each pass built from
    the (row, sign, component) of its vectors, so memory is O(R K).
    """
    R, K = C.shape
    h = _FD_STEP
    grad = _gradient(backend, _objective(backend, C, mu)[1], mu)
    # vector v is row v // 2K with component v % K moved by +h, or by -h
    # where v // K is odd
    v = np.arange(2 * R * K)
    rows, components, steps = v // (2 * K), v % K, np.where((v // K) % 2, -h, h)
    lanes = np.arange(_CHECK_CHUNK)
    values = np.empty(len(v))
    for start in range(0, len(v), _CHECK_CHUNK):
        part = slice(start, start + _CHECK_CHUNK)
        vectors = C[rows[part]]
        vectors[lanes[:len(vectors)], components[part]] += steps[part]
        values[part] = _objective(backend, vectors, mu)[0]
    fp, fm = values.reshape(R, 2, K).transpose(1, 0, 2)
    return [_relative_error(ga, gf) for ga, gf in zip(grad, (fp - fm) / (2 * h))]


def _relative_error(analytic: np.ndarray, differenced: np.ndarray) -> float:
    """|analytic - differenced| / |differenced|, or 0.0 when both are at
    rounding level (|.| <= _ROUNDING_NORM): the gradient vanishes
    identically (n = 2) and the relative test is ill-posed.  An analytic
    gradient above that level against a vanishing difference is an error
    of at least (|analytic| - _ROUNDING_NORM) / _ROUNDING_NORM.
    """
    fd = float(np.linalg.norm(differenced))
    if max(fd, float(np.linalg.norm(analytic))) <= _ROUNDING_NORM:
        return 0.0
    return float(np.linalg.norm(analytic - differenced)) / max(fd, _ROUNDING_NORM)


def _climb(backend: _Backend, C: np.ndarray, mu: float, iterations: int) -> None:
    """Normalized-gradient ascent of every row of C at one penalty weight, in place.

    All rows step in lockstep, one batched objective call per step for
    the rows still climbing.  A row's step grows by 1.25 on an accepted
    trial and halves on a rejected one; the row stops when its gradient
    norm or its step falls below 1e-12.  Gradients are taken only where
    they are used: once for every row at the start, then after each
    step for the rows that accepted their trial, from the node fields
    of its objective call (one projection when some row accepts, none
    when all reject).
    """
    val, parts = _objective(backend, C, mu)
    grad = _gradient(backend, parts, mu)
    step = np.full(len(C), 0.05)
    rows, c = np.arange(len(C)), C.copy()     # the climbing rows and their state
    for _ in range(iterations):
        # the 1-D norm per row: norm(axis=1) sums in another order
        gnorm = np.array([np.linalg.norm(g) for g in grad])
        climbing = np.minimum(gnorm, step) >= 1e-12
        if not climbing.all():
            C[rows] = c
            rows, c, val, grad, step, gnorm = (
                a[climbing] for a in (rows, c, val, grad, step, gnorm))
            if rows.size == 0:
                return
        trial = c + step[:, None] * grad / gnorm[:, None]
        tval, tparts = _objective(backend, trial, mu)
        up = tval > val
        if up.any():
            c[up], val[up] = trial[up], tval[up]
            grad[up] = _gradient(backend, tuple(p[up] for p in tparts), mu)
        step *= np.where(up, 1.25, 0.5)
    C[rows] = c


def _start_point(backend: _Backend, seed: int) -> np.ndarray:
    """A seeded random vector without the constant mode, oriented toward
    positive ratio and then scaled to max lap(u) <= 0.9, inside the
    constraint set (flipping after the scaling would turn max lap(u)
    into -min lap(u), which can lie far above 1)."""
    c = np.random.default_rng(seed).standard_normal(backend.num_coeffs)
    c[backend.eigenvalues < 0.5] = 0.0
    num, den = ratio_and_parts(backend, c)
    if den > 1e-14 and num < 0:
        c = -c      # the ratio is odd under c -> -c
    mx = 1.0 - feasibility(backend, c)
    if mx > 0.9:
        c *= 0.9 / mx
    return c


def maximize_ratio(n: int, basis_cap: int = 12, restarts: int = 20,
                   seed: int = 0, iterations: int = 250) -> dict:
    """Penalized gradient ascent on R(u) under lap(u) <= 1.

    Restart r starts from a random vector drawn with seed + 7919 r,
    oriented toward positive ratio and scaled into the constraint set
    (max lap(u) <= 0.9).  All restarts climb in lockstep as one
    (restarts, K) block on the backend's default grid, at the penalty
    weights 1e2, 1e4 and 1e6 in turn, at most `iterations` steps each;
    a restart leaves a weight when its gradient or its step vanishes,
    and ends bit for bit where it would end climbing alone.  A step
    takes the gradient only of the restarts that accepted their trial
    (_climb), so a rejected trial costs one objective pass and no
    projection.  Before the climb, each restart's analytic gradient is
    checked against central differences with step 1e-7 at its start
    point; the largest relative error is meta["gradient_check_max_rel"].
    Each end point is rescaled onto the constraint set.  Deterministic
    under the seed.  Returns the best feasible candidate and one row per
    restart.  basis_cap below 1 leaves no nonconstant mode and raises
    ValueError, as do restarts below 0.
    """
    if basis_cap < 1:
        raise ValueError(f"basis_cap {basis_cap} leaves no nonconstant mode; "
                         "it must be at least 1")
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    backend = make_backend(n, basis_cap)
    seeds = [seed + 7919 * r for r in range(restarts)]
    C = np.array([_start_point(backend, s) for s in seeds])
    grad_checks = []
    if seeds:
        grad_checks = _gradient_check(backend, C, _PENALTIES[0])
        for mu in _PENALTIES:
            _climb(backend, C, mu, iterations)

    rows = []
    best = None
    for s, c in zip(seeds, C):
        # exact feasibility by homogeneity: lap(t c) = t lap(c)
        mx = 1.0 - feasibility(backend, c)
        if mx > 1.0:
            c = c / mx
        num, den = ratio_and_parts(backend, c)
        if den <= 1e-14:
            rows.append({"seed": s, "ratio": 0.0,
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
        rows.append({"seed": s, "ratio": cand.ratio,
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
        log_c1 = math.lgamma(l + 2 * alpha) - math.lgamma(2 * alpha) - math.lgamma(l + 1.0)
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
