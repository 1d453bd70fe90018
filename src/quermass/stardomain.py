"""Star-shaped domains and their boundary curvature functionals.

A domain K is encoded by a profile u on S^{n-1} with 1+u > 0; its
boundary is the radial graph T(x) = (1+u(x)) x.  This module evaluates
volume, perimeter, normals, the full curvature bundle (shape operator,
principal curvatures, mean curvature by two independent routes), the
curvature integrals, and the normal-deviation size of the domain.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
from scipy.optimize import minimize, nnls

from quermass import fields, geometry
from quermass.config import DEVIATION_RATIO_BOUND, MEAN_CURVATURE_AGREE
from quermass.fields import ScalarField
from quermass.grids import quadrature, sphere_area, tangent_frames


class ResolutionWarning(UserWarning):
    """The two mean-curvature routes disagree: grid likely under-resolved."""


@dataclasses.dataclass(frozen=True)
class CurvatureBundle:
    """Per-node curvature data of the boundary graph."""

    second_fundamental: np.ndarray   # (N, n-1, n-1), symmetric
    H: np.ndarray                    # trace route
    H_plus: np.ndarray
    H_minus: np.ndarray
    II_eigenvalues: np.ndarray       # (N, n-1), ascending
    jacobian: np.ndarray
    H_divergence: np.ndarray         # independent divergence-form route
    max_route_disagreement: float

    @property
    def nuclear(self) -> np.ndarray:
        return np.abs(self.II_eigenvalues).sum(axis=1)


@dataclasses.dataclass(frozen=True)
class Functionals:
    """Scalar functionals of a domain, the common currency of the deficits."""

    n: int
    volume: float
    perimeter: float
    int_H: float
    int_H_plus: float
    int_H_minus: float
    int_nuclear: float
    int_sigma: np.ndarray        # signed integrals, k = 1..n-1
    int_sigma_abs: np.ndarray
    min_principal_curvature: float

    @property
    def is_convex(self) -> bool:
        return self.min_principal_curvature >= -1e-12


class StarDomain:
    """Immutable star-shaped domain given by a profile field."""

    def __init__(self, profile: ScalarField, center=None):
        if np.min(1.0 + profile.values) <= 0.0:
            raise ValueError("profile violates 1 + u > 0: not star-shaped")
        self.profile = profile
        self.n = profile.grid.n
        self.grid = profile.grid
        self.center = np.zeros(self.n) if center is None else np.asarray(center, float)
        self._bundle = {}
        self._eps = {}
        self._eps_certificate = None
        self._grad = None
        self._normals = None
        self._points = None

    # -- basic functionals -----------------------------------------------------

    def volume(self) -> float:
        u = self.profile.values
        return quadrature((1.0 + u) ** self.n / self.n, self.grid)

    def _gradient(self) -> tuple:
        """(grad u in the chart frame, |grad u|^2) per node, fixed for the domain."""
        if self._grad is None:
            grad_fr = fields.grad_frame(self.profile)
            self._grad = (grad_fr, np.einsum("ik,ik->i", grad_fr, grad_fr))
        return self._grad

    def perimeter(self) -> float:
        u = self.profile.values
        _, grad2 = self._gradient()
        return quadrature(geometry.area_jacobian(u, grad2, self.n), self.grid)

    def boundary_points(self) -> np.ndarray:
        if self._points is None:
            self._points = (1.0 + self.profile.values)[:, None] * self.grid.nodes
        return self._points

    def normal_field(self) -> np.ndarray:
        if self._normals is None:
            g = np.einsum("ik,ikj->ij", self._gradient()[0], tangent_frames(self.grid))
            self._normals = geometry.outward_normal(
                self.grid.nodes, self.profile.values, g)
        return self._normals

    def barycenter(self) -> np.ndarray:
        u = self.profile.values
        w = self.grid.weights * (1.0 + u) ** (self.n + 1)
        return (w @ self.grid.nodes) / ((self.n + 1) * self.volume())

    # -- curvature ---------------------------------------------------------------

    def curvatures(self, check_routes: bool = True) -> CurvatureBundle:
        """Curvature bundle of the boundary.

        check_routes also evaluates the divergence-form mean curvature,
        whose disagreement with the trace route measures how much of the
        profile's nonlinearity the grid resolution fails to capture.
        """
        if check_routes in self._bundle:
            return self._bundle[check_routes]
        if (not check_routes) and True in self._bundle:
            return self._bundle[True]
        u = self.profile.values
        grad_fr, grad2 = self._gradient()
        hess_fr = fields.hessian_frame(self.profile)

        S = geometry.shape_operator_frame(u, grad_fr, hess_fr)
        eigs = np.linalg.eigvalsh(S)
        H = np.trace(S, axis1=1, axis2=2)
        J = geometry.area_jacobian(u, grad2, self.n)

        if check_routes:
            H_div = self._divergence_route(u, grad_fr, grad2)
            disagree = float(np.max(np.abs(H - H_div)))
            if disagree > MEAN_CURVATURE_AGREE:
                warnings.warn(
                    f"mean-curvature routes disagree by {disagree:.3e} "
                    f"(tolerance {MEAN_CURVATURE_AGREE:.1e}); "
                    "grid resolution is likely insufficient",
                    ResolutionWarning,
                )
        else:
            H_div, disagree = H, 0.0
        bundle = CurvatureBundle(
            second_fundamental=S,
            H=H,
            H_plus=np.maximum(H, 0.0),
            H_minus=np.maximum(-H, 0.0),
            II_eigenvalues=eigs,
            jacobian=J,
            H_divergence=H_div,
            max_route_disagreement=disagree,
        )
        self._bundle[check_routes] = bundle
        return bundle

    def _divergence_route(self, u, grad_fr, grad2):
        """H via div(grad u / sqrt(1+|v|^2)), differentiating phi independently."""
        prof = self.profile
        v2 = geometry.radial_slope(u, grad2)
        if prof.analytic is not None:
            dot = prof.analytic.phi_gradient_dot_grad(self.grid)
            lap = prof.analytic.laplacian(self.grid)
        else:
            phi = ScalarField(self.grid, (1.0 + v2) ** -0.5)
            if prof.coeffs is not None:
                phi = fields.analyze(phi)
            grad_phi = fields.grad_frame(phi)
            dot = np.einsum("ik,ik->i", grad_phi, grad_fr)
            lap = fields.laplacian(prof).values
        return geometry.divergence_form_mean_curvature(u, grad2, lap, dot, self.n)

    def curvature_integrals(self, check_routes: bool = True) -> Functionals:
        b = self.curvatures(check_routes=check_routes)
        w = self.grid.weights * b.jacobian
        sigma = geometry.elementary_symmetric(b.II_eigenvalues)
        return Functionals(
            n=self.n,
            volume=self.volume(),
            perimeter=float(np.sum(w)),
            int_H=float(np.sum(w * b.H)),
            int_H_plus=float(np.sum(w * b.H_plus)),
            int_H_minus=float(np.sum(w * b.H_minus)),
            int_nuclear=float(np.sum(w * b.nuclear)),
            int_sigma=w @ sigma,
            int_sigma_abs=w @ np.abs(sigma),
            min_principal_curvature=float(np.min(b.II_eigenvalues)),
        )

    def integrated_mean_curvature(self, chunk: int = 200_000) -> float:
        """Integral of H over the boundary using the scalar fast path.

        For analytic profiles the evaluation is streamed over node
        chunks, which keeps memory flat on very fine diagnostic grids.
        The curvature is evaluated only at the nodes inside the
        provider's supports; every other node gets that of the round
        sphere u = offset.  Each chunk is summed in node order, so the
        result does not depend on how the members were found.
        """
        prof = self.profile
        if prof.analytic is None:
            f = self.curvature_integrals()
            return f.int_H
        n, weights = self.n, self.grid.weights

        def integrand(u, grad2, lap, cubic):
            H = geometry.mean_curvature_from_scalars(u, grad2, lap, cubic, n)
            return H, geometry.area_jacobian(u, grad2, n)

        H0, J0 = integrand(*(np.array([v]) for v in prof.analytic.outside_invariants()))
        total = 0.0
        for start, stop, idx, inv in prof.analytic.grid_scalar_invariants(self.grid, chunk):
            H = np.full(stop - start, H0[0])
            J = np.full(stop - start, J0[0])
            H[idx], J[idx] = integrand(*inv)
            total += float(np.sum(weights[start:stop] * H * J))
        return total

    # -- normal-deviation size ----------------------------------------------------

    def _coordinate_rows(self) -> tuple:
        """(y, nu) as contiguous (n, N) rows: boundary points and outward normals."""
        return (np.ascontiguousarray(self.boundary_points().T),
                np.ascontiguousarray(self.normal_field().T))

    def deviation_values(self, center) -> np.ndarray:
        """|nu(y) - (y - center)/|y - center|| per node.

        Evaluated as |rho nu - w| / rho with w = y - center and rho = |w|:
        the difference is formed before it is squared, so a deviation d
        comes out with an error of a few ulps of 1, not the ~1e-8 floor
        of sqrt(2 - 2 nu.r).
        """
        return _deviations(*self._coordinate_rows(), np.asarray(center, dtype=float))

    def profile_quadratics(self) -> tuple[float, float, float]:
        """(int u, int u^2, int |grad u|^2) over the sphere."""
        prof = self.profile
        _, grad2 = self._gradient()
        return (quadrature(prof.values, self.grid),
                quadrature(prof.values**2, self.grid),
                quadrature(grad2, self.grid))

    def deviation_mean_square(self, center) -> float:
        """Average square normal deviation over the boundary."""
        dev = self.deviation_values(center)
        _, grad2 = self._gradient()
        J = geometry.area_jacobian(self.profile.values, grad2, self.n)
        return quadrature(dev**2 * J, self.grid) / quadrature(J, self.grid)

    def eps_size(self, optimize_center: bool = True):
        """Smallest sup-norm normal deviation over choices of the center.

        Returns (value, center) with value = max(deviation_values(center)),
        cached per optimize_center; without it the center is the barycenter.
        With it the center solves the epigraph problem: minimize t over
        (c, t) subject to g_i(c) <= t, g_i = |nu_i - r_i(c)|^2 the squared
        deviation.  An active-set loop starts from the barycenter with its
        largest rows and the tops of its other peaks; SLSQP solves the
        problem on the active rows, with c in the barycenter +- 0.3, and one
        full pass over all nodes adds the rows that beat the active max,
        until the full max is the active max.  Newton steps on the KKT
        system of the rows that stay active then finish the center.  The
        barycenter is returned whenever it is no worse, and unsearched when
        its deviation is at rounding level (<= 1e-10).  center_certificate()
        reports how stationary the center is.
        """
        if optimize_center in self._eps:
            return self._eps[optimize_center]
        y, nu = self._coordinate_rows()
        bary = self.barycenter()
        dev = _deviations(y, nu, bary)
        if not optimize_center:
            self._eps[False] = (float(np.max(dev)), bary)
            return self._eps[False]
        center, dev_c, passes = _minimax_center(y, nu, bary, dev,
                                                float(np.mean(1.0 + self.profile.values)))
        if np.max(dev) <= np.max(dev_c):
            center, dev_c = bary, dev
        value = float(np.max(dev_c))
        active = np.flatnonzero(dev_c >= value * (1.0 - _ACTIVE_GAP))
        _, grads = _row_terms(y[:, active].T, nu[:, active].T, center)
        self._eps_certificate = CenterCertificate(
            residual=_hull_point(grads)[0], active_rows=len(active), full_passes=passes)
        self._eps[True] = (value, center)
        return self._eps[True]

    def center_certificate(self) -> "CenterCertificate":
        """Stationarity certificate of the optimized eps_size center."""
        if self._eps_certificate is None:
            self.eps_size()
        return self._eps_certificate

    # -- gradient-vs-normal comparison report --------------------------------------

    def gradient_normal_report(self) -> dict:
        """Two-sided pointwise, oscillation and mean-square comparisons
        between |grad u|/(1+u) and the normal deviation from radial."""
        u = self.profile.values
        _, grad2 = self._gradient()
        vmag = np.sqrt(grad2) / (1.0 + u)
        dev = self.deviation_values(np.zeros(self.n))

        mask = dev > 1e-15
        ratio_grad_over_dev = float(np.max(vmag[mask] / dev[mask])) if mask.any() else 0.0
        mask2 = vmag > 1e-15
        ratio_dev_over_grad = float(np.max(dev[mask2] / vmag[mask2])) if mask2.any() else 0.0

        vmax = float(np.max(vmag))
        osc = float(np.max(1.0 + u) / np.min(1.0 + u) - 1.0)
        oscillation_ratio = osc / vmax if vmax > 0 else 0.0

        area = sphere_area(self.n)
        mean_v2 = quadrature(vmag**2, self.grid) / area
        J = geometry.area_jacobian(u, grad2, self.n)
        per = quadrature(J, self.grid)
        mean_dev2 = quadrature(dev**2 * J, self.grid) / per
        if mean_dev2 > 0 and mean_v2 > 0:
            ms_a, ms_b = mean_v2 / mean_dev2, mean_dev2 / mean_v2
        else:
            ms_a = ms_b = 0.0

        ratios = {
            "pointwise_grad_over_dev": ratio_grad_over_dev,
            "pointwise_dev_over_grad": ratio_dev_over_grad,
            "oscillation_ratio": oscillation_ratio,
            "mean_square_grad_over_dev": ms_a,
            "mean_square_dev_over_grad": ms_b,
        }
        ratios["within_bound"] = all(r <= DEVIATION_RATIO_BOUND for r in ratios.values())
        return ratios

    # -- transforms ---------------------------------------------------------------

    def scaled(self, s: float) -> "StarDomain":
        """Dilated domain sK; the profile map is u -> s(1+u) - 1."""
        if s <= 0:
            raise ValueError("scale factor must be positive")
        prof = fields_affine(self.profile, s, s - 1.0)
        return StarDomain(prof, center=s * self.center)

    def rotated(self, R: np.ndarray) -> "StarDomain":
        """Domain R K for a rotation matrix R (spectral profiles, n = 3)."""
        from quermass.harmonics import sh_values_at_points
        if self.profile.coeffs is None or self.n != 3:
            raise NotImplementedError("rotation needs an n=3 spectral profile")
        vals = sh_values_at_points(self.profile.coeffs, self.grid.nodes @ R)
        prof = fields.analyze(ScalarField(self.grid, vals), self.profile.truncation)
        return StarDomain(prof, center=self.center @ R.T)

    def translated(self, shift: np.ndarray) -> "StarDomain":
        """Domain K - shift, re-parametrized as a radial graph.

        Solves |t z + shift| = 1 + u(direction) per node direction z by the
        undamped fixed-point iteration t <- t - (|t z + shift| - rho), with
        rho the radius in the current direction (at most 60 steps, until the
        residual is below 1e-14); requires an off-grid evaluable profile.
        """
        shift = np.asarray(shift, dtype=float)
        rho = self._radius_evaluator()
        z = self.grid.nodes
        t = np.full(self.grid.num_nodes, 1.0 + float(np.mean(self.profile.values)))
        for _ in range(60):
            p = t[:, None] * z + shift
            norm = np.linalg.norm(p, axis=1)
            g = norm - rho(p / norm[:, None])
            t = t - g
            if np.max(np.abs(g)) < 1e-14:
                break
        else:
            raise RuntimeError("re-centering root-find did not converge")
        if np.min(t) <= 0:
            raise ValueError("translation destroys star-shapedness")
        prof = ScalarField(self.grid, t - 1.0)
        if self.profile.coeffs is not None:
            prof = fields.analyze(prof, self.profile.truncation)
        return StarDomain(prof, center=self.center - shift)

    def _radius_evaluator(self):
        from quermass.harmonics import sh_values_at_points
        if self.profile.analytic is not None:
            prov = self.profile.analytic
            return lambda pts: 1.0 + prov.values_at(pts)
        if self.profile.coeffs is not None and self.n == 3:
            c = self.profile.coeffs
            return lambda pts: 1.0 + sh_values_at_points(c, pts)
        raise NotImplementedError(
            "off-grid profile evaluation needs a spectral (n=3) or analytic profile"
        )


# -- the eps_size center: an active-set epigraph solve ------------------------------

_FLAT_DEVIATION = 1e-10  # no search below this at the barycenter: rounding level
_FIRST_ROWS = 512       # the barycenter's largest rows, from which the first set is drawn
_ADDED_ROWS = 16        # rows taken per pass: the largest candidates ...
_PEAKS = 8              # ... and the largest of up to this many spread-out peaks,
_PEAK_COS = 0.9         # each at a cosine below this from the peaks taken before it
_MAX_PASSES = 24        # full passes per center
_CENTER_BOX = 0.3       # the center stays within the barycenter +- this per axis
_SLSQP_FTOLS = (1e-6, 1e-10, 1e-14)  # tightened only when Newton fails to finish
_NEAR_ACTIVE = 1e-5     # rows this close to the max (relative) enter the Newton solve
_NEWTON_STEPS = 8
_POLISH_SLACK = 1e-14   # relative: Newton may cost a few ulps of value
_ACTIVE_GAP = 1e-9      # rows this close to the max (relative) are the active rows


@dataclasses.dataclass(frozen=True)
class CenterCertificate:
    """How the optimized eps_size center was found, and how stationary it is."""

    residual: float     # distance from 0 to the hull of the active rows' grad g_i
    active_rows: int    # nodes within _ACTIVE_GAP of the max deviation
    full_passes: int    # deviation evaluations over all nodes


def _minimax_center(y, nu, bary, dev, radius) -> tuple:
    """(center, deviations there, full passes) of the active-set solve.

    y, nu are (n, N) rows and dev the deviations at the barycenter.  Each
    SLSQP solve is followed by a full pass; when no row beats the active
    max, Newton finishes on the near-active rows and one more full pass
    checks it.  A Newton step that loses value retries SLSQP at a tighter
    tolerance.  The SLSQP variables are scaled so that a unit move changes
    g by about its max: the center by radius * max(dev), t by max(dev)^2.
    """
    top = float(np.max(dev))
    if top <= _FLAT_DEVIATION:
        return bary, dev, 1
    scale = radius * top
    rows = _new_rows(y, dev, np.argpartition(dev, -min(_FIRST_ROWS, dev.size))[-_FIRST_ROWS:])
    center, passes, ftols = bary, 1, list(_SLSQP_FTOLS)
    while passes < _MAX_PASSES:
        center = _slsqp_center(y[:, rows].T, nu[:, rows].T, center, bary, scale,
                               top * top, ftols[0])
        dev = _deviations(y, nu, center)
        passes += 1
        if np.max(dev) <= np.max(dev[rows]):
            near = rows[dev[rows] >= np.max(dev) * (1.0 - _NEAR_ACTIVE)]
            polished = _newton_center(y[:, near].T, nu[:, near].T, center)
            dev_p = None if polished is None else _deviations(y, nu, polished)
            passes += polished is not None
            if dev_p is None or np.max(dev_p) > np.max(dev) * (1.0 + _POLISH_SLACK):
                if len(ftols) == 1:
                    break
                ftols.pop(0)
                continue
            center, dev = polished, dev_p
            if np.max(dev) <= np.max(dev[rows]):
                break
        rows = np.concatenate([rows, _new_rows(y, dev, np.flatnonzero(dev > np.max(dev[rows])))])
    return center, dev, passes


def _new_rows(y, dev, candidates) -> np.ndarray:
    """The _ADDED_ROWS largest candidates and the tops of up to _PEAKS peaks.

    A peak is the largest candidate left after those within cosine
    _PEAK_COS of an earlier peak are set aside, so a pass also takes rows
    from peaks below the largest one.
    """
    rows = candidates
    if rows.size > _ADDED_ROWS:
        rows = rows[np.argpartition(dev[rows], -_ADDED_ROWS)[-_ADDED_ROWS:]]
    peaks = []
    while candidates.size and len(peaks) < _PEAKS:
        top = candidates[np.argmax(dev[candidates])]
        peaks.append(top)
        candidates = candidates[y[:, top] @ y[:, candidates]
                                < _PEAK_COS * (y[:, top] @ y[:, top])]
    return np.union1d(rows, peaks)


def _slsqp_center(y, nu, center, bary, scale, t_scale, ftol) -> np.ndarray:
    """SLSQP on min t s.t. g_i(c) <= t over the rows of (m, n) y, nu, from center."""
    last = [None, None]

    def parts(x):
        if last[0] is None or not np.array_equal(last[0], x):
            g, grads = _row_terms(y, nu, bary + scale * x[:-1])
            jac = np.empty((len(g), len(x)))
            jac[:, :-1] = grads * (-scale / t_scale)
            jac[:, -1] = 1.0
            last[:] = x.copy(), (x[-1] - g / t_scale, jac)
        return last[1]

    g, _ = _row_terms(y, nu, center)
    x0 = np.append((center - bary) / scale, np.max(g) / t_scale)
    unit_t = np.zeros(len(x0))
    unit_t[-1] = 1.0
    box = _CENTER_BOX / scale
    res = minimize(lambda x: x[-1], x0, jac=lambda x: unit_t, method="SLSQP",
                   bounds=[(-box, box)] * (len(x0) - 1) + [(0.0, None)],
                   constraints={"type": "ineq", "fun": lambda x: parts(x)[0],
                                "jac": lambda x: parts(x)[1]},
                   options={"ftol": ftol, "maxiter": 100})
    return bary + scale * res.x[:-1] if np.all(np.isfinite(res.x)) else center


def _newton_center(y, nu, center):
    """Newton on the KKT system of min t s.t. g_j(c) = t over the rows of y, nu.

    The rows off the nearest point of the gradients' hull are dropped
    first (nnls leaves at most n + 1); their weights start the multipliers.
    Returns None when the iteration breaks down.
    """
    g, grads = _row_terms(y, nu, center)
    lam = _hull_point(grads)[1]
    keep = lam > 0.0
    y, nu, lam = y[keep], nu[keep], lam[keep]
    k, n = len(lam), len(center)
    t = float(np.max(g))
    kkt = np.zeros((n + 1 + k, n + 1 + k))
    kkt[n, n + 1:] = 1.0
    kkt[n + 1:, n] = -1.0
    for _ in range(_NEWTON_STEPS):
        g, grads, hess = _row_terms(y, nu, center, hessian=True)
        kkt[:n, :n] = np.einsum("j,jab->ab", lam, hess)
        kkt[:n, n + 1:] = grads.T
        kkt[n + 1:, :n] = grads
        rhs = -np.concatenate([lam @ grads, [lam.sum() - 1.0], g - t])
        try:
            step = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        center, t, lam = center + step[:n], t + step[n], lam + step[n + 1:]
        if np.max(np.abs(step[:n])) <= 1e-15 * (1.0 + np.max(np.abs(center))):
            break
    return center


def _row_terms(y, nu, center, hessian=False) -> tuple:
    """g = |rho nu - w|^2 / rho^2 and its center gradient (and Hessian) per row.

    w = y - center, rho = |w|, r = w / rho for (m, n) rows y, nu: the
    gradient is 2 (nu - (nu.r) r) / rho and, with q = nu - (nu.r) r, the
    Hessian is 2 (r q^T + q r^T + (nu.r)(I - r r^T)) / rho^2.
    """
    w = y - center
    rho = np.sqrt(np.einsum("ij,ij->i", w, w))
    d = rho[:, None] * nu - w
    g = np.einsum("ij,ij->i", d, d) / rho**2
    r = w / rho[:, None]
    nu_r = np.einsum("ij,ij->i", nu, r)
    q = nu - nu_r[:, None] * r
    grads = (2.0 / rho)[:, None] * q
    if not hessian:
        return g, grads
    rq = r[:, :, None] * q[:, None, :]
    proj = np.eye(len(center)) - r[:, :, None] * r[:, None, :]
    hess = (2.0 / rho**2)[:, None, None] * (rq + rq.transpose(0, 2, 1)
                                            + nu_r[:, None, None] * proj)
    return g, grads, hess


def _hull_point(grads) -> tuple:
    """(|lam @ grads|, lam): lam on the simplex at the hull point nearest 0.

    nnls on [grads^T; s 1^T] lam = [0; s], s the gradients' scale, holds
    sum(lam) = 1 to rounding; lam is then normalized, so the distance is
    that of a point of the hull.
    """
    s = float(np.max(np.abs(grads), initial=0.0))
    if s == 0.0:
        return 0.0, np.full(len(grads), 1.0 / len(grads))
    a = np.vstack([grads.T, np.full(len(grads), s)])
    b = np.zeros(len(a))
    b[-1] = s
    lam = nnls(a, b)[0]
    lam /= lam.sum()
    return float(np.linalg.norm(lam @ grads)), lam


def _deviations(y: np.ndarray, nu: np.ndarray, center: np.ndarray) -> np.ndarray:
    """|rho nu - w| / rho per column, w = y - center, for (n, N) rows y and nu."""
    w = y - center[:, None]
    rho = np.sqrt(np.einsum("ij,ij->j", w, w))
    d = nu * rho
    d -= w
    return np.sqrt(np.einsum("ij,ij->j", d, d)) / rho


def fields_affine(f: ScalarField, a: float, b: float) -> ScalarField:
    """a*f + b, preserving spectral or analytic structure when possible."""
    values = a * f.values + b
    coeffs = None
    if f.coeffs is not None:
        coeffs = a * f.coeffs.copy()
        coeffs[0] += b * np.sqrt(sphere_area(f.grid.n))
    analytic = None
    if f.analytic is not None:
        analytic = _scaled_provider(f.analytic, a, b)
    return ScalarField(f.grid, values, coeffs=coeffs, truncation=f.truncation,
                       analytic=analytic)


def _scaled_provider(provider, a, b):
    from quermass.analytic import GeodesicRadialField
    if not isinstance(provider, GeodesicRadialField):
        raise NotImplementedError("cannot rescale this analytic provider")
    f, fd, fdd = provider.f, provider.fd, provider.fdd
    return GeodesicRadialField(
        provider.centers,
        lambda r: a * f(r),
        lambda r: a * fd(r),
        lambda r: a * fdd(r),
        provider.support,
        offset=a * provider.offset + b,
    )
