"""Axially symmetric domains: the 1-D machinery, valid for every n >= 3.

A zonal profile V(theta) on [0, pi] (angle from the e_1 axis) determines
the domain; every functional reduces to a weighted integral against
sin(theta)^{n-2} (coarea reduction), which Gauss-Jacobi rules in
t = cos(theta) integrate exactly for polynomial data.  Smooth zonal
fields are smooth functions of t, so profiles are represented in the
orthonormal zonal (Gegenbauer) basis and differentiated exactly;
analytic profiles, given as one jet theta -> (V, V', V''), bypass the
basis entirely.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from quermass import geometry
from quermass.config import POLE_CONSTANT, POLE_SLACK
from quermass.grids import jacobi_rule, panel_rule, sphere_area
from quermass.harmonics import ZonalBasis
from quermass.reporting import DeficitReport
from quermass.stardomain import (_CENTER_BOX, _FLAT_DEVIATION, _MAX_PASSES,
                                 CenterCertificate, Functionals, RadialGraph,
                                 _active_level, radial_functionals)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Fixed polar node sets: the sup-norm deviation grid of eps_size and the
# samples of c1_norm.  Together with each profile's Gauss-Jacobi nodes
# they are the only angles whose zonal tables are cached.
_DEVIATION_THETA = _read_only(np.linspace(0.0, math.pi, 4096))
_DEVIATION_COS = _read_only(np.cos(_DEVIATION_THETA))
_DEVIATION_SIN = _read_only(np.sin(_DEVIATION_THETA))
_C1_THETA = _read_only(np.linspace(0.0, math.pi, 2048))


# Tables of more doubles than this are built afresh on every call, so the
# cache below holds at most 32 x 1 MiB.  The benchmark's largest table
# (L = 8 on the deviation grid) has 36 864.
_CACHED_TABLE_DOUBLES = 2**17


@functools.lru_cache(maxsize=32)
def _zonal_table(n: int, L: int, derivative: int, nodes) -> np.ndarray:
    """Read-only ZonalBasis(n, L).values(cos theta, derivative) on a fixed node set.

    nodes names the set: "deviation", "c1", or the resolution of the
    Gauss-Jacobi nodes.  Built once per key and shared by every profile
    and thread (two threads that miss the same key at once may both
    build it; the two tables are equal bit for bit).  Callers keep
    tables larger than _CACHED_TABLE_DOUBLES out of it.
    """
    theta = {"deviation": _DEVIATION_THETA, "c1": _C1_THETA}.get(nodes)
    if theta is None:
        theta = np.arccos(jacobi_rule(nodes, (n - 3) / 2.0)[0])
    return _read_only(ZonalBasis(n, L).values(np.cos(theta), derivative=derivative))


def coarea_integral(f, n: int) -> float:
    """Integral over S^{n-1} of a function of the polar angle.

    f is a callable of theta; the sin^{n-2} coarea weight and the
    |S^{n-2}| equatorial factor are applied here, on 512 Gauss-Jacobi nodes.
    """
    t, w = jacobi_rule(512, (n - 3) / 2.0)
    theta = np.arccos(t)
    return float(sphere_area(n - 1) * np.sum(w * f(theta)))


class AxialProfile:
    """Zonal profile V on [0, pi] with exact first and second derivatives:
    zonal coefficients, or one analytic jet theta -> (V, V', V'') read
    below support (the profile is 0 from support on)."""

    def __init__(self, n: int, coeffs=None, jet=None, support=math.pi,
                 resolution: int = 512, breakpoints=()):
        if n < 3:
            raise ValueError("axial machinery requires n >= 3")
        self.n = n
        self.resolution = resolution
        self.support = float(support)
        self.breakpoints = tuple(breakpoints)
        t, w = jacobi_rule(resolution, (n - 3) / 2.0)
        self.t, self.w = t, w
        self.theta = _read_only(np.arccos(t))
        if (coeffs is None) == (jet is None):
            raise ValueError("provide exactly one of coeffs or jet")
        self.coeffs = None if coeffs is None else np.asarray(coeffs, dtype=float)
        self._basis = None if coeffs is None else ZonalBasis(n, len(self.coeffs) - 1)
        self._jet = jet
        if jet is None:
            return
        # the slope at pi is read only where the profile reaches it
        for end, label in ((0.0, "0"), (math.pi, "pi"))[:2 if self.support >= math.pi else 1]:
            val = float(np.atleast_1d(jet(np.array([end]))[1])[0])
            if abs(val) > 1e-8:
                raise ValueError(f"profile slope at theta={label} is {val}; "
                                 "a smooth boundary needs zero polar slope")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_zonal_coeffs(cls, n: int, coeffs, resolution: int = 512) -> "AxialProfile":
        return cls(n, coeffs=coeffs, resolution=resolution)

    @classmethod
    def from_values(cls, n: int, theta_nodes, values, degree: int | None = None,
                    resolution: int = 512) -> "AxialProfile":
        """Fit a zonal expansion to sampled values (least squares)."""
        theta_nodes = np.asarray(theta_nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if theta_nodes.shape != values.shape:
            raise ValueError(f"{theta_nodes.size} theta nodes but {values.size} values")
        if degree is None:
            degree = min(len(theta_nodes) - 1, 256)
        basis = ZonalBasis(n, degree)
        Z = basis.values(np.cos(theta_nodes))       # (L+1, M)
        coeffs, *_ = np.linalg.lstsq(Z.T, values, rcond=None)
        return cls(n, coeffs=coeffs, resolution=resolution)

    @classmethod
    def from_jet(cls, n: int, jet, support=math.pi, breakpoints=(),
                 resolution: int = 512) -> "AxialProfile":
        """Analytic profile; jet(theta) -> (V, V', V'') on arrays of theta in [0, support)."""
        return cls(n, jet=jet, support=support, breakpoints=breakpoints,
                   resolution=resolution)

    # -- evaluation --------------------------------------------------------------

    def _table(self, theta: np.ndarray, derivative: int) -> np.ndarray:
        """Zonal table on theta: cached on the fixed node sets, else built afresh."""
        if theta is self.theta:
            nodes = self.resolution
        elif theta is _DEVIATION_THETA:
            nodes = "deviation"
        elif theta is _C1_THETA:
            nodes = "c1"
        else:
            nodes = None
        if nodes is None or (self._basis.L + 1) * theta.size > _CACHED_TABLE_DOUBLES:
            return self._basis.values(np.cos(theta), derivative=derivative)
        return _zonal_table(self.n, self._basis.L, derivative, nodes)

    def jet(self, theta) -> tuple:
        """(V, V', V'') at theta, each bit for bit as value, slope and
        curvature_slope; a coefficient profile builds each table once."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.coeffs is None:
            inside = theta < self.support
            out = tuple(np.zeros_like(theta) for _ in range(3))
            if inside.any():
                for o, part in zip(out, self._jet(theta[inside])):
                    o[inside] = part
            return out
        t = np.cos(theta)
        Zp = self.coeffs @ self._table(theta, 1)
        return (self.coeffs @ self._table(theta, 0), -np.sin(theta) * Zp,
                (1 - t * t) * (self.coeffs @ self._table(theta, 2)) - t * Zp)

    def value(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.coeffs is None:
            return self.jet(theta)[0]
        return self.coeffs @ self._table(theta, 0)

    def slope(self, theta) -> np.ndarray:
        """dV/d(theta)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.coeffs is None:
            return self.jet(theta)[1]
        return -np.sin(theta) * (self.coeffs @ self._table(theta, 1))

    def curvature_slope(self, theta) -> np.ndarray:
        """d^2 V/d(theta)^2."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.coeffs is None:
            return self.jet(theta)[2]
        t = np.cos(theta)
        Zp = self._table(theta, 1)
        Zpp = self._table(theta, 2)
        return (1 - t * t) * (self.coeffs @ Zpp) - t * (self.coeffs @ Zp)

    def c1_norm(self) -> float:
        return float(max(np.max(np.abs(self.value(_C1_THETA))),
                         np.max(np.abs(self.slope(_C1_THETA)))))

    # -- quadrature rule tuned to the profile -------------------------------------

    def quadrature_rule(self):
        """(theta, weights) with coarea and |S^{n-2}| factors included.

        Coefficient profiles use the global Gauss-Jacobi rule; compactly
        supported analytic profiles get 16-point panel rules, eight panels
        between consecutive breakpoints, plus two 48-point far panels.
        """
        area = sphere_area(self.n - 1)
        feature_edges = sorted(b for b in {self.support, *self.breakpoints}
                               if b < math.pi - 1e-12)
        if self.coeffs is not None or not feature_edges:
            return self.theta, area * self.w
        tail0 = feature_edges[-1]
        mid = min(2 * tail0, math.pi)
        far_edges = (tail0, mid, math.pi) if math.pi > mid + 1e-15 else (tail0, mid)
        near_t, near_w = panel_rule((0.0, *feature_edges), 16, 8)
        far_t, far_w = panel_rule(far_edges, 48, 1)
        theta = np.concatenate([near_t, far_t])
        w = np.concatenate([near_w, far_w]) * np.sin(theta) ** (self.n - 2) * area
        return theta, w


def _pointwise_curvature(profile: AxialProfile, theta: np.ndarray):
    n = profile.n
    V, Vd, Vdd = profile.jet(theta)
    cot_term, lap = geometry.zonal_laplacian(Vd, Vdd, theta, n)
    grad2 = Vd * Vd
    cubic = Vdd * grad2
    H = geometry.mean_curvature_from_scalars(V, grad2, lap, cubic, n)
    return V, Vd, Vdd, cot_term, lap, grad2, cubic, H


def axial_curvature(profile: AxialProfile, theta=None) -> dict:
    """Pointwise curvature data of the axisymmetric boundary.

    Returns arrays over theta: H, |grad u| = |V'|, the Laplacian
    V'' + (n-2) V' cot(theta) (pole limit handled), and the cubic
    integrand V'' V'^2.
    """
    if theta is None:
        theta = profile.theta
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    V, Vd, Vdd, cot_term, lap, grad2, cubic, H = _pointwise_curvature(profile, theta)
    return {
        "theta": theta, "V": V, "Vdot": Vd, "Vddot": Vdd,
        "H": H, "grad_abs": np.abs(Vd), "laplacian": lap,
        "cubic_integrand": cubic,
    }


def zonal_frames(profile: AxialProfile, theta: np.ndarray):
    """(V, gradient frame, Hessian frame, H) of the profile along theta.

    In the orthonormal frame (e_theta, then n-2 directions along the
    parallel) the gradient is (V', 0, ...) and the covariant Hessian is
    diag(V'', V' cot(theta), ...).
    """
    n = profile.n
    V, Vd, Vdd, cot_term, *_, H = _pointwise_curvature(profile, theta)
    m = theta.shape[0]
    grad = np.zeros((m, n - 1))
    grad[:, 0] = Vd
    hess = np.zeros((m, n - 1, n - 1))
    hess[:, 0, 0] = Vdd
    for k in range(1, n - 1):
        hess[:, k, k] = cot_term
    return V, grad, hess, H


def _shape(profile: AxialProfile, theta: np.ndarray):
    """(V, |grad u|^2, H, S) along theta; S is the shape operator."""
    V, grad, hess, H = zonal_frames(profile, theta)
    return V, grad[:, 0] ** 2, H, geometry.shape_operator_frame(V, grad, hess)


def _kinked(H: np.ndarray, S: np.ndarray) -> np.ndarray:
    """One column per integrand whose absolute value or positive part a
    functional takes, each kinked where it changes sign: the meridian and
    parallel curvatures, H and sigma_1..sigma_{n-1}.  S is diagonal in the
    zonal frame, the parallel curvature S[:, 1, 1] taken n - 2 times."""
    kappa = np.column_stack([S[:, 0, 0]] + [S[:, 1, 1]] * (S.shape[1] - 1))
    return np.column_stack([kappa[:, :2], H, geometry.elementary_symmetric(kappa)])


def _sign_change_roots(profile: AxialProfile, theta: np.ndarray, G: np.ndarray):
    """The angles where a column of G = _kinked along theta changes sign
    between consecutive nodes, each narrowed to rounding on the pointwise
    G: every evaluation cuts each bracket into 16 and keeps the part where
    the sign first changes, four halvings for one evaluation's overhead."""
    order = np.argsort(theta)
    below = G[order] < 0.0
    i, k = np.nonzero(below[1:] != below[:-1])
    lo, hi, low_side = theta[order][i], theta[order][i + 1], below[i, k]
    rows = np.arange(len(k))
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return mid
        cuts = np.column_stack([lo, lo[:, None] + np.outer(hi - lo, np.arange(1, 16) / 16.0),
                                hi])
        inner = _kinked(*_shape(profile, cuts[:, 1:-1].ravel())[2:]).reshape(len(k), 15, -1)
        # cuts[j] is the last cut on lo's side, cuts[j + 1] the first past it
        j = np.cumprod((inner[rows, :, k] < 0.0) == low_side[:, None], axis=1).sum(axis=1)
        lo, hi = cuts[rows, j], cuts[rows, j + 1]


def axial_functionals(profile: AxialProfile) -> Functionals:
    """All scalar functionals of the axisymmetric domain by 1-D quadrature.

    The profile's rule integrates smooth integrands, but |kappa_i|, H^+-
    and |sigma_k| are kinked where their field changes sign, and there
    the rule converges only algebraically.  When some field changes sign
    between rule nodes, int |f| = int f - 2 int_{f<0} f: the signed
    integral from the rule, the negative part from Gauss-Legendre panels
    between the roots and the profile's breakpoints.
    """
    n = profile.n
    theta, w = profile.quadrature_rule()
    V, grad2, H, S = _shape(profile, theta)
    # S is diagonal in the zonal frame: its sorted diagonal is its spectrum
    out = radial_functionals(n, float(np.sum(w * (1.0 + V) ** n / n)), w, V,
                             grad2, H, np.sort(np.diagonal(S, axis1=1, axis2=2), axis=1))
    if out.min_principal_curvature >= 0.0:
        return out          # no field is negative at a node
    G = _kinked(H, S)
    roots = _sign_change_roots(profile, theta, G)
    if not len(roots):
        return out
    edges = np.sort(np.minimum(np.concatenate(
        [[0.0, *profile.breakpoints, profile.support, math.pi], roots]), math.pi))
    t, pw = panel_rule(edges[np.diff(edges, prepend=-1.0) > 0.0], 48, 1)
    Vt, grad2_t, Ht, St = _shape(profile, t)
    pw = pw * np.sin(t) ** (n - 2) * sphere_area(n - 1) * geometry.area_jacobian(
        Vt, grad2_t, n)
    negative = pw @ np.minimum(_kinked(Ht, St), 0.0)
    absolute = (w * geometry.area_jacobian(V, grad2, n)) @ G - 2.0 * negative
    return dataclasses.replace(
        out, int_H_plus=out.int_H - float(negative[2]), int_H_minus=-float(negative[2]),
        int_nuclear=float(absolute[0] + (n - 2) * absolute[1]), int_sigma_abs=absolute[3:])


def pole_gradient_bound(profile: AxialProfile, theta0: float | None = None) -> dict:
    """Check the polar slope bound V'(th) <= POLE_SLACK*th + C0 th^{-(n-2)} * intHminus.

    Evaluated on 400 angles in (0, theta0] and mirrored near pi.
    Returns worst margins (rhs - lhs; nonnegative means the bound holds)
    for each candidate constant C0 in (1, POLE_CONSTANT, 10).
    """
    n = profile.n
    if theta0 is None:
        theta0 = math.sqrt(max(profile.c1_norm(), 1e-12))
    theta0 = min(theta0, math.pi / 2)
    int_h_minus = axial_functionals(profile).int_H_minus

    th = np.linspace(theta0 / 400, theta0, 400)
    north_lhs = profile.slope(th)
    south_lhs = -profile.slope(math.pi - th)
    report = {"theta0": theta0, "int_H_minus": int_h_minus, "slack": POLE_SLACK,
              "constants": {}}
    for c0 in (1.0, POLE_CONSTANT, 10.0):
        rhs = POLE_SLACK * th + c0 * th ** (-(n - 2.0)) * int_h_minus
        report["constants"][c0] = {
            "north_margin": float(np.min(rhs - north_lhs)),
            "south_margin": float(np.min(rhs - south_lhs)),
        }
    return report


def axial_minkowski_deficit(K: "AxialDomain", seed=None) -> DeficitReport:
    """Perimeter-normalized H^+ deficit of an AxialDomain, entirely in 1-D.

    Reads the domain's cached functionals and eps_size, so a domain that
    random_domain has already sized costs no further work here.
    """
    from quermass.deficits import minkowski_deficit
    return dataclasses.replace(minkowski_deficit(K, seed=seed), which="axial_minkowski")


def lift_to_sphere(profile: AxialProfile, grid):
    """The zonal profile as a ScalarField on a full n=3 grid.

    Coefficient profiles map exactly onto the m = 0 line of the full
    harmonic basis (the zonal basis IS Y_{l,0} for n = 3), which makes
    the 1-D and 2-D pipelines independently computable on the same
    domain.  Analytic profiles are lifted through the radial provider.
    """
    from quermass.fields import ScalarField, synthesize
    if profile.coeffs is None:
        from quermass.analytic import zonal_field
        prov = zonal_field(profile.jet, n=grid.n)
        return ScalarField(grid, prov.values(grid), analytic=prov)
    if grid.n != 3 or profile.n != 3:
        raise ValueError("coefficient lifting is exact for n = 3 only")
    from quermass.harmonics import coeff_count
    L = len(profile.coeffs) - 1
    full = np.zeros(coeff_count(L))
    for l in range(L + 1):
        full[l * l] = profile.coeffs[l]
    return synthesize(full, grid)


def _section_rows(theta: np.ndarray, V: np.ndarray, Vd: np.ndarray) -> tuple:
    """(y, nu) as (2, M) rows of the meridian section along theta.

    In the section x = (cos th, sin th) the boundary point is y = (1+V) x
    and the normal nu = (x - v e_theta)/sqrt(1 + v^2) with v = V'/(1+V);
    the deviation about an axial center (offset, 0) is
    geometry.normal_deviation of these rows.
    """
    opu = 1.0 + V
    v = Vd / opu
    s = np.sqrt(1.0 + v * v)
    if theta is _DEVIATION_THETA:
        cos, sin = _DEVIATION_COS, _DEVIATION_SIN
    else:
        cos, sin = np.cos(theta), np.sin(theta)
    return (np.array([opu * cos, opu * sin]),
            np.array([(cos + v * sin) / s, (sin - v * cos) / s]))


def _crossing(y, nu, r: int, f: int, lo: float, hi: float) -> float:
    """The offset in [lo, hi] where the rising node r and the falling node f deviate alike.

    Read as complex numbers, a node deviates by 2|sin(t/2)|, t the angle
    from its normal nu to p = y - x, and t grows with the offset x.  So
    d_r = d_f where t_r + t_f = 0: where Pi(x) = p_r conj(nu_r) p_f conj(nu_f)
    is real and positive.  Im Pi = 0 is a quadratic in x (linear when its
    x^2 coefficient vanishes), solved in the stable form; its other root
    has t_r + t_f = +-pi and Re Pi < 0.  The root is clipped to the bracket.
    """
    y_r, y_f = complex(y[0, r], y[1, r]), complex(y[0, f], y[1, f])
    A = complex(nu[0, r], -nu[1, r]) * complex(nu[0, f], -nu[1, f])
    # Im Pi(x) = a x^2 + b x + c for Pi(x) = A (y_r - x)(y_f - x)
    a, b, c = A.imag, -(A * (y_r + y_f)).imag, (A * y_r * y_f).imag
    if a == 0.0:
        roots = (-c / b,)
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(max(b * b - 4.0 * a * c, 0.0)), b))
        roots = (q / a, c / q)
    x = max(roots, key=lambda x: (A * (y_r - x) * (y_f - x)).real)
    return min(max(x, lo), hi)


def _tops(dev: np.ndarray, rising: np.ndarray) -> tuple:
    """((up, r), (down, f)): the largest deviation and its node among the
    rising nodes and among the others, (-inf, None) for an empty side."""
    j = int(np.argmax(dev))
    other = np.where(rising, -math.inf, dev) if rising[j] else np.where(rising, dev, -math.inf)
    k = int(np.argmax(other))
    top, second = (float(dev[j]), j), (float(other[k]), k)
    if second[0] == -math.inf:
        second = -math.inf, None
    return (top, second) if rising[j] else (second, top)


def _crossing_search(y, nu, seed: float) -> tuple:
    """(offset, value, certificate) of the smallest sup deviation along the axis.

    y, nu are the section's (2, M) rows.  Each node's deviation is
    V-shaped in the offset: it falls to 0 where the center reaches the
    node's normal line and rises after.  So the sup is the larger of R,
    the top of the rising nodes, which never falls, and F, the top of the
    falling ones, which never rises, and its minimum is where they cross.
    A full pass at x (geometry.normal_deviation on every node) finds the
    top rising node r and falling node f and moves the end of the bracket,
    first the seed +- _CENTER_BOX, on the side of the larger to x.  The
    next x is the exact crossing of d_r and d_f, a quadratic's root,
    clipped to the bracket (_crossing), or the bracket's midpoint where
    that offset has had its pass.  With no rising node the next x is the
    upper end; with no falling node, or an on-axis f (y2 = 0, its
    deviation the same at every offset), the lower end.  The search
    stops when a pass returns the pair whose crossing it ran at, after
    _MAX_PASSES, or at once when the seed's deviation is at most
    _FLAT_DEVIATION.  The value at every x is the max of its pass; the
    seed is kept whenever it is no worse.
    """
    lo, hi = seed - _CENTER_BOX, seed + _CENTER_BOX
    # a node's squared deviation g rises with the offset where its slope
    # g' = 2 p2 (nu1 p2 - nu2 p1)/|p|^3 > 0, p = y - (x, 0); as p2 = y[1] >= 0,
    # that is where p2 > 0 and nu2 p1 < nu1 p2
    nu1_p2, off_axis = nu[0] * y[1], y[1] > 0.0
    x, aimed, seen, passes, best = seed, None, set(), 0, None
    while True:
        dev = geometry.normal_deviation(y, nu, np.array([x, 0.0]))
        (up, r), (down, f) = _tops(dev, (nu[1] * (y[0] - x) < nu1_p2) & off_axis)
        passes += 1
        seen.add(x)
        value = max(up, down)
        if best is None or value < best[1]:
            best = x, value, dev
        if value <= _FLAT_DEVIATION and passes == 1:
            break
        if (r, f) == aimed or up == down or passes == _MAX_PASSES:
            break
        if up > down:
            hi = x
        else:
            lo = x
        if r is None:
            nxt = hi
        elif f is None or not off_axis[f]:
            nxt = lo
        else:
            nxt = _crossing(y, nu, r, f, lo, hi)
        aimed = r, f
        if nxt in seen:
            nxt, aimed = 0.5 * (lo + hi), None
            if nxt in seen:
                break
        x = nxt
    x, value, dev = best
    # the active rows are the nodes at or above _active_level(value); the
    # residual is 0 when their slopes g' straddle 0, else the least |g'|
    rows = np.flatnonzero(dev >= _active_level(value))
    p1, p2 = y[0, rows] - x, y[1, rows]
    slopes = 2.0 * p2 * (nu[0, rows] * p2 - nu[1, rows] * p1) / (p1 * p1 + p2 * p2) ** 1.5
    straddle = np.min(slopes) <= 0.0 <= np.max(slopes)
    return x, value, CenterCertificate(
        residual=0.0 if straddle else float(np.min(np.abs(slopes))),
        active_rows=int(rows.size), full_passes=passes)


class AxialDomain(RadialGraph):
    """Axisymmetric star-shaped domain of a zonal profile, for every n >= 3.

    The RadialGraph surface runs on the profile's quadrature rule, whose
    weights, V and (once needed) V' are kept; the functionals come from
    axial_functionals, eps_size from an exact minimax search along the axis.
    """

    def __init__(self, profile: AxialProfile):
        theta, w = profile.quadrature_rule()
        V = profile.value(theta)
        if np.min(1.0 + V) <= 0:
            raise ValueError("profile violates 1 + V > 0: not star-shaped")
        self.profile = profile
        self.n = profile.n
        self._theta, self._w, self._V = theta, w, V
        self._functionals = None

    @functools.cached_property
    def _Vd(self) -> np.ndarray:
        return self.profile.slope(self._theta)

    def _rule(self) -> tuple:
        return self._w, self._V

    def _grad2(self) -> np.ndarray:
        return self._Vd * self._Vd

    def volume(self) -> float:
        return float(np.sum(self._w * (1.0 + self._V) ** self.n / self.n))

    def curvature_integrals(self) -> Functionals:
        if self._functionals is None:
            self._functionals = axial_functionals(self.profile)
        return self._functionals

    def barycenter(self) -> np.ndarray:
        n = self.n
        b1 = float(np.sum(self._w * (1.0 + self._V) ** (n + 1) * np.cos(self._theta)))
        out = np.zeros(n)
        out[0] = b1 / ((n + 1) * self.volume())
        return out

    # -- the meridian section's normal deviation ---------------------------------------

    def _coordinate_rows(self) -> tuple:
        return _section_rows(self._theta, self._V, self._Vd)

    def _row_center(self, center) -> np.ndarray:
        """(offset, 0) in the section's coordinates; ValueError off the axis."""
        center = np.asarray(center, dtype=float).ravel()
        if np.any(center[1:] != 0.0):
            raise ValueError(f"an axisymmetric domain's normal deviation is taken about a "
                             f"center on its axis; {center.tolist()} is off it")
        return np.array([center[0], 0.0])

    def _eps_search(self):
        """(value, center) of eps_size on 4096 polar angles.

        value is the max of geometry.normal_deviation of the section's rows
        on those angles at the center.  The optimized center is the axial
        offset within _CENTER_BOX of the barycenter where the largest
        rising and falling deviations cross (_crossing_search), which also
        sets the center_certificate.
        """
        th = _DEVIATION_THETA
        y, nu = _section_rows(th, self.profile.value(th), self.profile.slope(th))
        best_b, best, self._eps_certificate = _crossing_search(y, nu, self.barycenter()[0])
        center = np.zeros(self.n)
        center[0] = best_b
        return best, center

    # -- transforms ------------------------------------------------------------------

    def scaled(self, s: float) -> "AxialDomain":
        prof = self.profile
        if prof.coeffs is not None:
            coeffs = s * prof.coeffs.copy()
            coeffs[0] += (s - 1.0) * math.sqrt(sphere_area(self.n))
            newp = AxialProfile(self.n, coeffs=coeffs, resolution=prof.resolution)
        else:
            def jet(x):
                V, Vd, Vdd = prof.jet(x)
                return s * V + (s - 1.0), s * Vd, s * Vdd
            newp = AxialProfile.from_jet(
                self.n, jet, support=math.pi, breakpoints=prof.breakpoints + (prof.support,),
                resolution=prof.resolution)
        return AxialDomain(newp)

    def _chart(self, shift) -> tuple:
        """The section's directions (cos, sin) at the Gauss-Jacobi nodes; the
        zonal refit would smooth a jet (compactly supported) profile, and
        a shift off the axis would leave the axisymmetric class."""
        prof = self.profile
        if prof.coeffs is None:
            raise ValueError("translated refits the profile in the zonal basis, which "
                             "smooths a compactly supported (jet) profile")
        shift = shift.ravel()
        if np.any(shift[1:] != 0.0):
            raise ValueError(f"an axisymmetric domain moves along its axis only; "
                             f"the shift {shift.tolist()} has off-axis components")
        z = np.column_stack([np.cos(self._theta), np.sin(self._theta)])
        rho = lambda d: 1.0 + prof.value(np.arctan2(d[:, 1], d[:, 0]))
        return z, np.array([shift[0], 0.0]), rho

    def _refit(self, u, shift) -> "AxialDomain":
        res = self.profile.resolution
        return AxialDomain(AxialProfile.from_values(
            self.n, self._theta, u, degree=min(res - 1, 256), resolution=res))
