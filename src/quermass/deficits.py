"""Scale-invariant curvature deficits and domain normalization.

The deficits compare (integral of H^+)^{1/(n-2)} against the perimeter
or volume with the constant that makes the round ball an equality case.
They are formed from scale-invariant ratios, so no normalization error
enters the margins; perimeter/volume/barycenter normalization is still
provided for the expansions that require it.

Every operation accepts a StarDomain (grid) or an AxialDomain (zonal
1-D), through the stardomain.RadialGraph surface the two share.
"""

from __future__ import annotations

import math

import numpy as np

from quermass import fields
from quermass.config import NORMALIZE_CENTER, NORMALIZE_MAX_ITER, NORMALIZE_SCALE_REL
from quermass.grids import ball_volume, build_grid, sphere_area
from quermass.reporting import DeficitReport
from quermass.stardomain import StarDomain, fields_affine


def ball_minkowski_constant(n: int) -> float:
    """RHS of the perimeter-normalized inequality: value at the unit ball."""
    return ((n - 1.0) * sphere_area(n)) ** (1.0 / (n - 2)) / sphere_area(n) ** (1.0 / (n - 1))


def ball_volumetric_constant(n: int) -> float:
    return ((n - 1.0) * sphere_area(n)) ** (1.0 / (n - 2)) / ball_volume(n) ** (1.0 / n)


def normalize(K, mode: str = "volume"):
    """Rescale and re-center until Per = Per(B_1) (or |K| = |B_1|) and the
    barycenter sits at the origin.

    Alternates exact dilations with radial re-parametrization after
    translation; raises on non-convergence with the residuals attached.
    """
    if mode not in ("volume", "perimeter"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    n = K.n
    target = ball_volume(n) if mode == "volume" else sphere_area(n)
    for _ in range(NORMALIZE_MAX_ITER):
        current = K.volume() if mode == "volume" else K.perimeter()
        s = (target / current) ** (1.0 / (n if mode == "volume" else n - 1))
        if abs(s - 1.0) > 1e-16:
            K = K.scaled(s)
        b = K.barycenter()
        scale_res = abs((K.volume() if mode == "volume" else K.perimeter()) - target) / target
        if np.linalg.norm(b) <= NORMALIZE_CENTER and scale_res <= NORMALIZE_SCALE_REL:
            return K
        K = K.translated(b)
    scale_res = abs((K.volume() if mode == "volume" else K.perimeter()) - target) / target
    raise RuntimeError(
        f"normalization did not converge: scale residual {scale_res:.3e}, "
        f"barycenter {np.linalg.norm(K.barycenter()):.3e}"
    )


def perimeter_constraint_residual(K) -> dict:
    """Residual of the second-order perimeter constraint after
    perimeter normalization:
    int u + (n-2)/2 int u^2 + 1/(2(n-1)) int |grad u|^2 ~ 0."""
    n = K.n
    mu, mu2, mg2 = K.profile_quadratics()
    residual = mu + 0.5 * (n - 2) * mu2 + mg2 / (2.0 * (n - 1))
    return {"residual": residual, "quadratic_scale": mu2 + mg2}


def volume_constraint_residual(K) -> dict:
    """Residual of int u + (n-1)/2 int u^2 ~ 0 after volume normalization."""
    n = K.n
    mu, mu2, mg2 = K.profile_quadratics()
    return {"residual": mu + 0.5 * (n - 1) * mu2, "quadratic_scale": mu2 + mg2}


# -- deficit functionals ---------------------------------------------------------


def _deficit(K, which: str, use_nuclear: bool = False, volumetric: bool = False,
             delta: float = 0.0, seed=None) -> DeficitReport:
    n = K.n
    F = K.curvature_integrals()
    numerator = F.int_nuclear if use_nuclear else F.int_H_plus
    extra = {}
    if numerator <= 0.0:
        lhs = 0.0
        extra["degenerate"] = True
    else:
        denom = F.volume ** (1.0 / n) if volumetric else F.perimeter ** (1.0 / (n - 1))
        lhs = numerator ** (1.0 / (n - 2)) / denom
    rhs = (ball_volumetric_constant(n) if volumetric else ball_minkowski_constant(n)) - delta
    eps, _ = K.eps_size()
    return DeficitReport(which=which, n=n, lhs=lhs, rhs=rhs,
                         normalization="none", eps_size=eps, seed=seed, extra=extra)


def minkowski_deficit(K, seed=None) -> DeficitReport:
    return _deficit(K, "minkowski", seed=seed)


def volumetric_minkowski_deficit(K, seed=None) -> DeficitReport:
    return _deficit(K, "volumetric", volumetric=True, seed=seed)


def nuclear_minkowski_deficit(K, seed=None) -> DeficitReport:
    return _deficit(K, "nuclear", use_nuclear=True, seed=seed)


def almost_sharp_margin(K, delta: float, seed=None) -> DeficitReport:
    return _deficit(K, "almost_sharp", delta=delta, seed=seed)


def stability_ratio(K) -> float:
    """Volumetric deficit divided by the mean-square normal deviation.

    Positive uniformly in the domain class for n >= 4; returns +inf at
    balls (deviation below 1e-14).
    """
    if K.n < 4:
        raise ValueError("the stability comparison is stated for n >= 4")
    eps, center = K.eps_size()
    den = K.deviation_mean_square(center)
    if den < 1e-14:
        return math.inf
    return volumetric_minkowski_deficit(K).margin / den


def perimeter_expansion_deficit(K) -> dict:
    """Perimeter excess against its quadratic model at fixed volume.

    Returns exact = Per - Per(B_1), the quadratic model
    1/2 int |grad u|^2 - (n-1)/2 int u^2 of the volume-normalized
    profile, and their difference.
    """
    n = K.n
    Kn = normalize(K, "volume")
    exact = Kn.perimeter() - sphere_area(n)
    _, mu2, mg2 = Kn.profile_quadratics()
    model = 0.5 * mg2 - 0.5 * (n - 1) * mu2
    return {"exact": exact, "model": model, "residual": exact - model,
            "quadratic_scale": mu2 + mg2}


def quermassintegral_ratio(K, k: int, seed=None) -> DeficitReport:
    """Ratio comparison between consecutive curvature integrals.

    For k <= n-2 this is the scale-invariant power ratio; for k = n-1
    the integrand sigma_{n-1} (Gauss curvature) is itself
    scale-invariant and is compared against its ball value directly.
    Carries a convexity flag; no sign assertion when nonconvex.
    """
    n = K.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be between 1 and n-1, got {k}")
    F = K.curvature_integrals()
    area = sphere_area(n)
    sig = lambda j: F.int_sigma_abs[j - 1] if j >= 1 else F.perimeter
    if k == n - 1:
        lhs = sig(n - 1)
        rhs = math.comb(n - 1, n - 1) * area
    else:
        lhs = sig(k) ** (1.0 / (n - 1 - k)) / sig(k - 1) ** (1.0 / (n - k))
        rhs = ((math.comb(n - 1, k) * area) ** (1.0 / (n - 1 - k))
               / (math.comb(n - 1, k - 1) * area) ** (1.0 / (n - k)))
    eps, _ = K.eps_size()
    return DeficitReport(
        which=f"quermass_k{k}", n=n, lhs=lhs, rhs=rhs, normalization="none",
        eps_size=eps, seed=seed,
        extra={"convex": bool(F.is_convex)},
    )


# -- random near-ball domains -----------------------------------------------------


def random_domain(n: int, target_eps: float, seed: int, L: int = 8,
                  grid=None, zonal: bool = False):
    """Seeded random smooth domain rescaled to a target normal-deviation size.

    n = 3 draws a full band-limited profile (per-degree variance l^-4,
    on grid, default build_grid(3, 32)) unless zonal is requested; n >= 4
    always draws a zonal profile (resolution 256), where the
    general-dimension content of the theory lives.  A zonal draw
    rescales its coefficients by target/eps at most five times; a
    step that would leave the star-shaped class is damped instead.  A
    target of 0 gives the ball; a negative one is refused.
    """
    if not (math.isfinite(target_eps) and target_eps >= 0):
        raise ValueError(f"target_eps must be finite and >= 0, got {target_eps}")
    rng = np.random.default_rng(seed)
    safe_amp = min(0.3, 2.0 * target_eps)
    if n == 3 and not zonal:
        if grid is None:
            grid = build_grid(3, 32)
        f = fields.random_band_limited(grid, L, rng)
        g = fields.grad_frame(f)
        c1 = max(np.max(np.abs(f.values)), np.max(np.abs(g)))
        f = fields_affine(f, safe_amp / c1, 0.0)
        K = StarDomain(f)
        for _ in range(4):
            # barycenter-centered size bounds the optimized one from above,
            # so targeting with it keeps the true size at or below target
            eps = float(np.max(K.deviation_values(K.barycenter())))
            if abs(eps - target_eps) <= 0.02 * target_eps:
                break
            f = fields_affine(f, target_eps / eps, 0.0)
            K = StarDomain(f)
        return K
    from quermass.axisym import AxialDomain, AxialProfile
    c = fields.random_zonal_coeffs(L, rng)
    step = safe_amp / AxialProfile.from_zonal_coeffs(n, c, resolution=256).c1_norm()
    K, damped, rescales = None, False, 0
    while rescales < 5:
        trial = c * step
        try:
            K_trial = AxialDomain(AxialProfile.from_zonal_coeffs(n, trial, resolution=256))
        except ValueError:
            if K is None:
                raise
            # the step left the star-shaped class, where eps grows faster
            # than the amplitude: halve it in log scale, and every later
            # step with it (step -> 1 gives back K, so this ends)
            step, damped = math.sqrt(step), True
            continue
        K, c, rescales = K_trial, trial, rescales + 1
        eps, _ = K.eps_size()
        if abs(eps - target_eps) <= 0.02 * target_eps:
            break
        step = math.sqrt(target_eps / eps) if damped else target_eps / eps
    return K
