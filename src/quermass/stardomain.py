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
from scipy.optimize import minimize

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
        self._grad = None
        self._normals = None
        self._points = None
        self._radial = None

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

    def _radial_products(self) -> tuple:
        """(nu . y, |y|^2) per boundary point y, fixed for the domain."""
        if self._radial is None:
            y, nu = self.boundary_points(), self.normal_field()
            self._radial = (np.einsum("ij,ij->i", nu, y), np.einsum("ij,ij->i", y, y))
        return self._radial

    def deviation_values(self, center) -> np.ndarray:
        """|nu(y) - (y - center)/|y - center|| per node.

        Both vectors are unit, so |nu - r| = sqrt(2 - 2 nu.r), and
        nu.r = (nu.y - nu.c) / sqrt(|y|^2 - 2 y.c + |c|^2) needs only two
        (N, n) x (n,) products per center.
        """
        c = np.asarray(center, dtype=float)
        nu_y, y2 = self._radial_products()
        dot = (nu_y - self.normal_field() @ c) / np.sqrt(
            y2 - 2.0 * (self.boundary_points() @ c) + c @ c)
        return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dot))

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

        Returns (value, center); Nelder-Mead seeded at the barycenter.
        """
        if optimize_center in self._eps:
            return self._eps[optimize_center]
        seed = self.barycenter()
        if not optimize_center:
            val = float(np.max(self.deviation_values(seed)))
            self._eps[False] = (val, seed)
            return self._eps[False]

        def objective(c):
            return np.max(self.deviation_values(c))

        res = minimize(objective, seed, method="Nelder-Mead",
                       options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 200})
        best = res.x if res.fun <= objective(seed) else seed
        self._eps[True] = (float(min(res.fun, objective(seed))), np.asarray(best))
        return self._eps[True]

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
