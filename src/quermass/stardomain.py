"""Star-shaped domains and their boundary curvature functionals.

A domain K is encoded by a profile u on S^{n-1} with 1+u > 0; its
boundary is the radial graph T(x) = (1+u(x)) x.  This module evaluates
volume, perimeter, normals, the full curvature bundle (shape operator,
principal curvatures, mean curvature by two independent routes), the
curvature integrals, and the normal-deviation size of the domain.
RadialGraph and radial_functionals hold what StarDomain (a grid of the
sphere) and axisym.AxialDomain (a 1-D zonal rule) compute alike.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np

from quermass import fields, geometry
from quermass.analytic import _GRID_BLOCK
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
    II_eigenvalues: np.ndarray       # (N, n-1), ascending
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


def radial_functionals(n, volume, w, u, grad2, H, eigs) -> Functionals:
    """Functionals of the radial graph of u by a quadrature rule of the sphere.

    w are the rule's weights; u, |grad u|^2, the mean curvature H and the
    ascending principal curvatures eigs (one row per node) are taken at
    its nodes, and volume is the kind's own.
    """
    wj = w * geometry.area_jacobian(u, grad2, n)
    sigma = geometry.elementary_symmetric(eigs)
    return Functionals(
        n=n,
        volume=volume,
        perimeter=float(np.sum(wj)),
        int_H=float(np.sum(wj * H)),
        int_H_plus=float(np.sum(wj * np.maximum(H, 0.0))),
        int_H_minus=float(np.sum(wj * np.maximum(-H, 0.0))),
        int_nuclear=float(np.sum(wj * np.abs(eigs).sum(axis=1))),
        int_sigma=wj @ sigma,
        int_sigma_abs=wj @ np.abs(sigma),
        min_principal_curvature=float(np.min(eigs)),
    )


# -- the eps_size center search, shared by both kinds ---------------------------------

_FLAT_DEVIATION = 1e-10  # no search below this at the barycenter: rounding level
_MAX_PASSES = 24        # full passes per center
_CENTER_BOX = 0.3       # the center stays within the barycenter +- this per axis
_ACTIVE_GAP = 1e-9      # rows this close to the max (relative) are the active rows,
_ACTIVE_FLOOR = 1e-15   # or this close: a deviation is rounded to a few ulps of 1


@dataclasses.dataclass(frozen=True)
class CenterCertificate:
    """How the optimized eps_size center was found, and how stationary it is."""

    residual: float     # distance from 0 to the hull of the active rows' grad g_i
    active_rows: int    # nodes at or above _active_level of the max deviation
    full_passes: int    # deviation evaluations over all nodes


def _active_level(value: float) -> float:
    """The deviation from which a row counts as active, at the max deviation value."""
    return value - max(_ACTIVE_GAP * value, _ACTIVE_FLOOR)


class RadialGraph:
    """The surface both domain kinds share, over a quadrature rule of the sphere.

    A kind supplies n, _rule() -> (weights, u) and _grad2() -> |grad u|^2 at
    the rule's nodes, _coordinate_rows() -> (y, nu) there as (m, N) rows of
    boundary points and outward normals, _eps_search(), which also sets
    _eps_certificate, and for translated _chart(shift) and _refit(u, shift).
    A kind whose rows have fewer than n coordinates maps a center to them
    in _row_center(center).
    """

    def perimeter(self) -> float:
        w, u = self._rule()
        return float(np.sum(w * geometry.area_jacobian(u, self._grad2(), self.n)))

    def profile_quadratics(self) -> tuple[float, float, float]:
        """(int u, int u^2, int |grad u|^2) over the sphere."""
        w, u = self._rule()
        return (float(np.sum(w * u)), float(np.sum(w * u**2)),
                float(np.sum(w * self._grad2())))

    def deviation_values(self, center) -> np.ndarray:
        """|nu(y) - (y - center)/|y - center|| per node (geometry.normal_deviation)."""
        return geometry.normal_deviation(*self._coordinate_rows(), self._row_center(center))

    def _row_center(self, center) -> np.ndarray:
        return np.asarray(center, dtype=float)

    def deviation_mean_square(self, center) -> float:
        """Average square normal deviation over the boundary."""
        w, u = self._rule()
        dev = self.deviation_values(center)
        J = geometry.area_jacobian(u, self._grad2(), self.n)
        return float(np.sum(w * (dev**2 * J))) / float(np.sum(w * J))

    def eps_size(self):
        """Smallest sup-norm normal deviation over choices of the center.

        Returns (value, center), cached.  The kind's _eps_search finds it.
        """
        if "_eps" not in self.__dict__:
            self._eps = self._eps_search()
        return self._eps

    def center_certificate(self) -> CenterCertificate:
        """Stationarity certificate of the optimized eps_size center.

        g_i is a node's squared deviation; the residual is the distance from
        0 to the hull of the center gradients of g_i over the active rows.
        """
        self.eps_size()
        return self._eps_certificate

    def translated(self, shift: np.ndarray):
        """Domain K - shift, re-parametrized as a radial graph.

        For the kind's unit directions z, shift s in their coordinates and
        radius rho of K per direction (_chart), solves |t z + s| = rho per
        node by the undamped fixed-point iteration t <- t - (|t z + s| - rho)
        from t = 1 + mean(u), in at most 60 steps, to a residual below 1e-14.
        The kind's _refit fits the moved profile in its smooth basis (spherical
        harmonics of the same truncation, or zonal harmonics), which would
        smooth a compactly supported dent; so a StarDomain refuses an
        analytic profile and an AxialDomain a callable one, and an AxialDomain
        also refuses a shift off its axis, with a ValueError.
        """
        shift = np.asarray(shift, dtype=float)
        z, s, rho = self._chart(shift)
        t = np.full(len(z), 1.0 + float(np.mean(self._rule()[1])))
        for _ in range(60):
            p = t[:, None] * z + s
            norm = np.linalg.norm(p, axis=1)
            g = norm - rho(p / norm[:, None])
            t = t - g
            if np.max(np.abs(g)) < 1e-14:
                break
        else:
            raise RuntimeError("re-centering root-find did not converge")
        if np.min(t) <= 0:
            raise ValueError("translation destroys star-shapedness")
        return self._refit(t - 1.0, shift)


class StarDomain(RadialGraph):
    """Immutable star-shaped domain given by a profile field on a grid."""

    def __init__(self, profile: ScalarField, center=None):
        if np.min(1.0 + profile.values) <= 0.0:
            raise ValueError("profile violates 1 + u > 0: not star-shaped")
        self.profile = profile
        self.n = profile.grid.n
        self.grid = profile.grid
        self.center = np.zeros(self.n) if center is None else np.asarray(center, float)
        self._bundle = {}
        self._normals = None
        self._points = None

    # -- basic functionals -----------------------------------------------------

    def volume(self) -> float:
        u = self.profile.values
        return quadrature((1.0 + u) ** self.n / self.n, self.grid)

    @functools.cached_property
    def _gradient(self) -> tuple:
        """(grad u in the chart frame, |grad u|^2) per node."""
        grad_fr = fields.grad_frame(self.profile)
        return grad_fr, np.einsum("ik,ik->i", grad_fr, grad_fr)

    def _rule(self) -> tuple:
        return self.grid.weights, self.profile.values

    def _grad2(self) -> np.ndarray:
        return self._gradient[1]

    def boundary_points(self) -> np.ndarray:
        if self._points is None:
            self._points = (1.0 + self.profile.values)[:, None] * self.grid.nodes
        return self._points

    def normal_field(self) -> np.ndarray:
        if self._normals is None:
            g = np.einsum("ik,ikj->ij", self._gradient[0], tangent_frames(self.grid))
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
        grad_fr, grad2 = self._gradient
        hess_fr = fields.hessian_frame(self.profile)

        S = geometry.shape_operator_frame(u, grad_fr, hess_fr)
        eigs = np.linalg.eigvalsh(S)
        H = np.trace(S, axis1=1, axis2=2)

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
        bundle = CurvatureBundle(second_fundamental=S, H=H, II_eigenvalues=eigs,
                                 H_divergence=H_div, max_route_disagreement=disagree)
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
            phi = fields.analyze(ScalarField(self.grid, (1.0 + v2) ** -0.5))
            dot = np.einsum("ik,ik->i", fields.grad_frame(phi), grad_fr)
            lap = fields.laplacian(prof).values
        return geometry.divergence_form_mean_curvature(u, grad2, lap, dot, self.n)

    def curvature_integrals(self) -> Functionals:
        """The Functionals of the trace route (curvatures(check_routes=False))."""
        b = self.curvatures(check_routes=False)
        return radial_functionals(self.n, self.volume(), *self._rule(), self._grad2(),
                                  b.H, b.II_eigenvalues)

    def integrated_mean_curvature(self) -> float:
        """Integral of H over the boundary using the scalar fast path.

        Analytic profiles are streamed over chunks of _GRID_BLOCK nodes by
        the provider (GeodesicRadialField.integrated_mean_curvature), which
        keeps memory flat on very fine diagnostic grids.
        """
        prof = self.profile
        if prof.analytic is None:
            return self.curvature_integrals().int_H
        return prof.analytic.integrated_mean_curvature(self.grid, _GRID_BLOCK)

    # -- normal-deviation size ----------------------------------------------------

    def _coordinate_rows(self) -> tuple:
        """(y, nu) as contiguous (n, N) rows: boundary points and outward normals."""
        return (np.ascontiguousarray(self.boundary_points().T),
                np.ascontiguousarray(self.normal_field().T))

    def _eps_search(self):
        """(value, center) of eps_size, value = max(deviation_values(center)).

        The optimized center solves the epigraph problem: minimize t over
        (c, t) subject to g_i(c) <= t, g_i = |nu_i - r_i(c)|^2 the squared
        deviation.  An active-set loop starts from the barycenter with its
        largest rows and the tops of its other peaks; SQP (_sqp_center, its
        quadratic programs solved by a numpy NNLS) solves the problem on the
        active rows, with c in the barycenter +- 0.3, and one full pass over
        all nodes adds the rows that beat the active max, until the full max
        is the active max.  Newton steps on the KKT system of the rows that
        stay active then finish the center.  The barycenter is returned
        whenever it is no worse, and unsearched when its deviation is at
        rounding level (<= 1e-10).  center_certificate() reports how
        stationary the center is.
        """
        y, nu = self._coordinate_rows()
        bary = self.barycenter()
        dev = geometry.normal_deviation(y, nu, bary)
        center, dev_c, passes = _minimax_center(y, nu, bary, dev)
        if np.max(dev) <= np.max(dev_c):
            center, dev_c = bary, dev
        value = float(np.max(dev_c))
        active = np.flatnonzero(dev_c >= _active_level(value))
        _, grads = _row_terms(y[:, active].T, nu[:, active].T, center)
        self._eps_certificate = CenterCertificate(
            residual=_hull_point(grads)[0], active_rows=len(active), full_passes=passes)
        return value, center

    # -- gradient-vs-normal comparison report --------------------------------------

    def gradient_normal_report(self) -> dict:
        """Two-sided pointwise, oscillation and mean-square comparisons
        between |grad u|/(1+u) and the normal deviation from radial."""
        u = self.profile.values
        _, grad2 = self._gradient
        vmag = np.sqrt(grad2) / (1.0 + u)
        dev = self.deviation_values(np.zeros(self.n))

        mask = dev > 1e-15
        ratio_grad_over_dev = float(np.max(vmag[mask] / dev[mask])) if mask.any() else 0.0
        mask2 = vmag > 1e-15
        ratio_dev_over_grad = float(np.max(dev[mask2] / vmag[mask2])) if mask2.any() else 0.0

        vmax = float(np.max(vmag))
        osc = float(np.max(1.0 + u) / np.min(1.0 + u) - 1.0)
        oscillation_ratio = osc / vmax if vmax > 0 else 0.0

        mean_v2 = quadrature(vmag**2, self.grid) / sphere_area(self.n)
        mean_dev2 = self.deviation_mean_square(np.zeros(self.n))
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

    def _chart(self, shift) -> tuple:
        """The grid's nodes; the spectral refit would smooth an analytic
        (compactly supported) profile."""
        if self.profile.analytic is not None:
            raise ValueError("translated refits the profile in spherical harmonics, which "
                             "smooths a compactly supported (analytic) profile")
        return self.grid.nodes, shift, self._radius_evaluator()

    def _radius_evaluator(self):
        """1 + u at unit vectors: needs an analytic or an n = 3 spectral profile."""
        from quermass.harmonics import sh_values_at_points
        prof = self.profile
        if prof.analytic is not None:
            return lambda pts: 1.0 + prof.analytic.values_at(pts)
        if prof.coeffs is not None and self.n == 3:
            return lambda pts: 1.0 + sh_values_at_points(prof.coeffs, pts)
        raise NotImplementedError(
            "off-grid profile evaluation needs a spectral (n=3) or analytic profile")

    def _refit(self, u, shift) -> "StarDomain":
        prof = fields.analyze(ScalarField(self.grid, u), self.profile.truncation)
        return StarDomain(prof, center=self.center - shift)


# -- the eps_size center: an active-set epigraph solve ------------------------------

_FIRST_ROWS = 512       # the barycenter's largest rows, from which the first set is drawn
_ADDED_ROWS = 16        # rows taken per pass: the largest candidates ...
_PEAKS = 8              # ... and the largest of up to this many spread-out peaks,
_PEAK_COS = 0.9         # each at a cosine below this from the peaks taken before it
_SQP_STEPS = 40         # SQP steps per active set
_SQP_FLOOR = 1e-13      # relative: an SQP step predicting less decrease of max g is not taken,
_SQP_STOP = 1e-8        # and one predicting less than this is the last
_SQP_HALVINGS = 30      # backtracking halvings of one SQP step
_SQP_ARMIJO = 1e-4      # share of the predicted decrease a step must realize
_HESSIAN_FLOOR = 1e-3   # eigenvalues of W are clipped to this share of its largest
_NEAR_ACTIVE = 1e-5     # rows this close to the max (relative) enter the Newton solve
_NEWTON_STEPS = 8
_DEPENDENT = 1e-9       # NNLS: a column this close (relative) to the passive span does
_WARM_PIVOT = 1e-6      # not enter it, nor does a warm start whose pivots come this close
_EPS = np.finfo(float).eps
_NONE = np.zeros(0)


def _minimax_center(y, nu, bary, dev) -> tuple:
    """(center, deviations there, full passes) of the active-set solve.

    y, nu are (n, N) rows and dev the deviations at the barycenter.  Each
    SQP solve on the active rows (_sqp_center) is followed by a full pass;
    when no row beats the active max, Newton finishes on the near-active
    rows and one more full pass checks it; the Newton center is kept where
    it is no worse.  The SQP multipliers carry over from one active set to
    the next, the added rows at 0, and the near rows they weigh start the
    Newton solve's hull point.
    """
    top = float(np.max(dev))
    if top <= _FLAT_DEVIATION:
        return bary, dev, 1
    rows = _new_rows(y, dev, np.argpartition(dev, -min(_FIRST_ROWS, dev.size))[-_FIRST_ROWS:])
    center, passes, lam = bary, 1, np.full(len(rows), 1.0 / len(rows))
    while passes < _MAX_PASSES:
        center, lam = _sqp_center(y[:, rows].T, nu[:, rows].T, center, bary, lam)
        dev = geometry.normal_deviation(y, nu, center)
        passes += 1
        if np.max(dev) <= np.max(dev[rows]):
            near = dev[rows] >= np.max(dev) * (1.0 - _NEAR_ACTIVE)
            polished = _newton_center(y[:, rows[near]].T, nu[:, rows[near]].T, center,
                                      np.flatnonzero(lam[near]).tolist())
            dev_p = None if polished is None else geometry.normal_deviation(y, nu, polished)
            passes += polished is not None
            if dev_p is None or np.max(dev_p) > np.max(dev):
                break
            center, dev = polished, dev_p
            if np.max(dev) <= np.max(dev[rows]):
                break
        added = _new_rows(y, dev, np.flatnonzero(dev > np.max(dev[rows])))
        rows = np.concatenate([rows, added])
        lam = np.concatenate([lam, np.zeros(len(added))])
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


def _sqp_center(y, nu, center, bary, lam) -> tuple:
    """(center, multipliers) of SQP on min t s.t. g_i(c) <= t over the rows of y, nu.

    At (c, t_k), t_k = max g, a step (d, t) solves the QP
        min  1/2 d^T W d + t + 1/2 (t - t_k)^2 / t_k
        s.t. g_i + grad g_i . d <= t,  |c + d - bary| <= _CENTER_BOX per axis,
    with W = sum_i lam_i hess g_i (Nocedal and Wright, Numerical
    Optimization, ch. 18), its eigenvalues clipped to at least
    _HESSIAN_FLOOR of the largest.  The proximal term in t keeps the
    minimax point a fixed point and makes the objective 1/2 |x|^2 + const
    in x = (W^(1/2) d, t / sqrt(t_k)), so the QP is a least-distance
    program (Lawson and Hanson, ch. 23): with its rows E x >= f as the
    columns of e = [E^T; f^T], the NNLS solution u of e u = (0, 1) leaves
    the residual r, and x = r[:-1] / -r[-1].  The NNLS starts from the
    previous step's passive set, or from the rows lam weighs.  A
    backtracking line search on max g takes the step, and the QP's row
    multipliers, normalized, weigh the next W.  A step predicting a
    decrease of max g below _SQP_FLOOR of it is not taken, and one below
    _SQP_STOP is the last, as the next would be at rounding level.
    """
    m, n = y.shape
    g, grads, hess = _row_terms(y, nu, center, lam)
    e = np.zeros((n + 2, m + 2 * n))   # columns: the rows, then the box's two sides
    unit = np.zeros(n + 2)
    unit[-1] = 1.0
    passive = np.flatnonzero(lam).tolist()
    for _ in range(_SQP_STEPS):
        t = float(g.max())
        s, v = np.linalg.eigh(hess)
        v /= np.sqrt(np.maximum(s, _HESSIAN_FLOOR * s[-1]))   # d = v @ x[:n]
        off = center - bary
        np.negative((grads @ v).T, out=e[:n, :m])
        e[n, :m] = np.sqrt(t)
        e[n + 1, :m] = g
        np.negative(v.T, out=e[:n, m:m + n])
        e[:n, m + n:] = v.T
        e[n + 1, m:m + n] = off - _CENTER_BOX
        e[n + 1, m + n:] = -off - _CENTER_BOX
        u, passive = _nnls(e, unit, passive, refine=False)
        r = e @ u - unit
        if not r[-1] < 0.0:
            break
        x = r[:-1] / -r[-1]
        decrease = t - np.sqrt(t) * x[n]
        if not decrease > _SQP_FLOOR * t:
            break
        total = u[:m].sum()
        if total > 0.0:
            lam = u[:m] / total
        d, step = v @ x[:n], 1.0
        for _ in range(_SQP_HALVINGS):
            trial = center + step * d
            terms = _row_terms(y, nu, trial, lam)
            if terms[0].max() <= t - _SQP_ARMIJO * step * decrease:
                break
            step *= 0.5
        else:
            break
        center, (g, grads, hess) = trial, terms
        if decrease <= _SQP_STOP * t:
            break
    return center, lam


def _newton_center(y, nu, center, passive=None):
    """Newton on the KKT system of min t s.t. g_j(c) = t over the rows of y, nu.

    The rows off the nearest point of the gradients' hull are dropped
    first (_hull_point, warm-started from the rows passive, leaves at most
    n + 1); their weights start the multipliers.  Returns None when the
    iteration breaks down.
    """
    g, grads = _row_terms(y, nu, center)
    lam = _hull_point(grads, passive)[1]
    keep = lam > 0.0
    y, nu, lam = y[keep], nu[keep], lam[keep]
    k, n = len(lam), len(center)
    t = float(np.max(g))
    kkt = np.zeros((n + 1 + k, n + 1 + k))
    kkt[n, n + 1:] = 1.0
    kkt[n + 1:, n] = -1.0
    for _ in range(_NEWTON_STEPS):
        g, grads, kkt[:n, :n] = _row_terms(y, nu, center, lam)
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


def _row_terms(y, nu, center, lam=None) -> tuple:
    """g = |rho nu - w|^2 / rho^2 and its center gradient per row, and with
    weights lam also sum_i lam_i hess g_i.

    w = y - center, rho = |w|, r = w / rho for (m, n) rows y, nu: the
    gradient is 2 (nu - (nu.r) r) / rho and, with q = nu - (nu.r) r, the
    Hessian is 2 (r q^T + q r^T + (nu.r)(I - r r^T)) / rho^2.
    """
    w = y - center
    rho2 = np.einsum("ij,ij->i", w, w)
    rho = np.sqrt(rho2)
    d = rho[:, None] * nu - w
    g = np.einsum("ij,ij->i", d, d) / rho2
    r = w / rho[:, None]
    nu_r = np.einsum("ij,ij->i", nu, r)
    q = nu - nu_r[:, None] * r
    grads = (2.0 / rho)[:, None] * q
    if lam is None:
        return g, grads
    a = 2.0 * lam / rho2
    ar = a[:, None] * r
    rq = ar.T @ q
    hess = rq + rq.T - (nu_r[:, None] * ar).T @ r
    hess.reshape(-1)[::len(center) + 1] += a @ nu_r
    return g, grads, hess


def _hull_point(grads, passive=None) -> tuple:
    """(|lam @ grads|, lam): lam on the simplex at the hull point nearest 0.

    _nnls on [grads^T; s 1^T] lam = [0; s], s the gradients' scale, holds
    sum(lam) = 1 to rounding; lam is then normalized, so the distance is
    that of a point of the hull.  The NNLS starts from the rows passive,
    by default from all of them.  Where no weight comes out (all gradients
    0), the weights are uniform.
    """
    k, n = grads.shape
    s = float(np.max(np.abs(grads), initial=0.0))
    lam = np.zeros(k)
    if s > 0.0:
        a = np.empty((n + 1, k))
        a[:n] = grads.T
        a[n] = s
        b = np.zeros(n + 1)
        b[n] = s
        lam = _nnls(a, b, range(k) if passive is None else passive)[0]
    if not np.sum(lam) > 0.0:
        lam = np.ones(k)
    lam /= np.sum(lam)
    return float(np.linalg.norm(lam @ grads)), lam


def _nnls(a, b, passive=(), refine=True) -> tuple:
    """(x, passive columns) of min |a x - b| over x >= 0: Lawson and Hanson's NNLS.

    The active-set loop of Lawson and Hanson (Solving Least Squares
    Problems, 1974, ch. 23): the column of largest dual w = a^T (b - a x)
    enters the passive set, and least-squares solves on the passive
    columns step back to the boundary while a coefficient is not
    positive.  A column within _DEPENDENT (relative) of the passive span,
    or whose own coefficient comes out non-positive, is set aside until x
    moves: the passive columns stay independent, and their least-squares
    solves are direct (_lstsq).  passive, a list of columns, warm-starts
    the loop where they are no more than a's rows and independent
    (_independent): those of positive least-squares coefficient form the
    first passive set.  With refine, the final solve takes one step of
    iterative refinement.
    """
    tol = _EPS * np.abs(a).max() * np.abs(b).max()
    P, z = list(passive), _NONE
    if len(P) > len(a) or (P and not _independent(a[:, P])):
        P = []
    while P:
        z = _lstsq(a[:, P], b)
        if z.min() > 0.0:
            break
        P = [j for j, zj in zip(P, z.tolist()) if zj > 0.0]
    else:
        z = _NONE
    aside = []
    for _ in range(3 * a.shape[1]):
        w = (b - a[:, P] @ z) @ a
        w[P + aside] = -np.inf
        j = int(w.argmax())
        if not w[j] > tol:
            break
        if P:
            ap = a[:, P]
            off = a[:, j] - ap @ _lstsq(ap, a[:, j])   # column j off the passive span
            if off @ off <= _DEPENDENT**2 * (a[:, j] @ a[:, j]):
                aside.append(j)
                continue
        P.append(j)
        trial = _lstsq(a[:, P], b)
        if not trial[-1] > 0.0:
            aside.append(P.pop())
            continue
        x, aside = np.concatenate([z, [0.0]]), []
        while P and trial.min() <= 0.0:
            neg = np.flatnonzero(trial <= 0.0)
            ratio = x[neg] / (x[neg] - trial[neg])
            i = ratio.argmin()
            x += ratio[i] * (trial - x)
            x[neg[i]] = 0.0
            keep = x > 0.0
            P, x = [j for j, kj in zip(P, keep.tolist()) if kj], x[keep]
            trial = _lstsq(a[:, P], b) if P else _NONE
        z = trial
    if P and refine:
        # one step of iterative refinement: the normal equations square the
        # condition number, and the corrected solve has a QR solve's residual
        ap = a[:, P]
        z = np.maximum(z + _lstsq(ap, b - ap @ z), 0.0)
    out = np.zeros(a.shape[1])
    out[P] = z
    return out, P


def _independent(a) -> bool:
    """Whether each column of a is at least _WARM_PIVOT (relative) from the
    span of those before it: the pivots of the Cholesky factor of a^T a."""
    gram = a.T @ a
    try:
        pivots = np.linalg.cholesky(gram).diagonal() ** 2
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(pivots > _WARM_PIVOT**2 * gram.diagonal()))


def _lstsq(a, b) -> np.ndarray:
    """The least-squares solution of a x = b for independent columns of a.

    _nnls keeps at most n + 2 of them, so the normal equations are solved
    directly.
    """
    return np.linalg.solve(a.T @ a, a.T @ b)


def fields_affine(f: ScalarField, a: float, b: float) -> ScalarField:
    """a*f + b, preserving spectral or analytic structure when possible."""
    values = a * f.values + b
    coeffs = None
    if f.coeffs is not None:
        coeffs = a * f.coeffs.copy()
        coeffs[0] += b * np.sqrt(sphere_area(f.grid.n))
    analytic = None if f.analytic is None else f.analytic.affine(a, b)
    return ScalarField(f.grid, values, coeffs=coeffs, truncation=f.truncation,
                       analytic=analytic)
