"""Domains that are C^1-close to the ball with very negative total mean
curvature.

The construction dents the unit sphere with many identical radial bumps
of geodesic radius 1/kappa placed at points with pairwise distance at
least 2/kappa.  Each dent contributes a cubic-order negative amount
~ eps^3 / kappa to the total mean curvature while the number of dents
grows like kappa^{n-1}, so the total crosses any negative threshold for
kappa large.

The dent centers on S^2 are a thinned spherical Fibonacci lattice: for
the index offset m the height gap and the azimuth step are fixed, so an
exact certificate over offsets finds every pair closer than 2/kappa in
O(N log kappa) time and O(N) memory, with no KD-tree (Keinert et al.,
Spherical Fibonacci Mapping, ACM TOG 34(6), 2015); the dense-grid check
reads its coordinates.  On S^{n-1}, n >= 4, only the zonal total runs,
which needs only the number of dents: that of a recursive latitude-ring
packing (after the EQ partition, Leopardi, ETNA 25, 2006), counted
without coordinates.  Lattices and grid checks above memory_budget(),
and ring counts above RING_WORK_LIMIT, fail fast.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from quermass import geometry
from quermass.analytic import GeodesicRadialField, _ranges
from quermass.axisym import AxialProfile, _pointwise_curvature
from quermass.fields import ScalarField
from quermass.grids import build_grid, panel_rule, sphere_area

# minimal pairwise distance of the N-point Fibonacci lattice is
# FIB_MIN_DIST/sqrt(N) (measured, stable to 4 digits across N)
FIB_MIN_DIST = 3.0921
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Packings and dense-grid checks refuse to start (MemoryBudgetError) when
# their estimated working set exceeds MEMORY_FRACTION of the machine's
# physical memory (memory_budget()); on 8 GB that admits the kappa = 5120
# lattice (62.6M points) and the kappa = 320 grid check.  Ring counts
# (n >= 4) refuse above RING_WORK_LIMIT circles (n = 4: kappa 5120, ~2 s).
MEMORY_FRACTION = 0.75
RING_WORK_LIMIT = 10**8
# peak bytes per lattice point of pack_points(3, kappa) (72, measured, and
# rounded up) and per node of total_mean_curvature_grid: tracemalloc over
# kappa 10-160 gives 123 (kappa 10 and 20, the whole grid one chunk), 102
# (40), 61 (80), 50 (120) and 48 (160, where the chunk's temporaries
# spread over 8.7M nodes); the maximum plus a 10% margin
_BYTES_PER_LATTICE_POINT = 80
_BYTES_PER_GRID_NODE = 136
_RING_PAD = 1e-12       # relative pad of the ring angles, against rounding
_RING_CHUNK = 1 << 16   # ring slices per numpy step, which bounds memory


class MemoryBudgetError(ValueError):
    """A packing or grid check over memory_budget(), or rings over RING_WORK_LIMIT."""


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def memory_budget() -> int:
    """Bytes a packing or grid check may use: MEMORY_FRACTION of RAM."""
    return int(MEMORY_FRACTION * _physical_memory())


def _check_budget(what: str, items: int, unit: str, nbytes: int) -> None:
    budget = memory_budget()
    if nbytes > budget:
        raise MemoryBudgetError(
            f"{what} needs {items:,} {unit}, about {nbytes / 2**30:.1f} GiB, "
            f"above the {budget / 2**30:.1f} GiB budget ({MEMORY_FRACTION:g} "
            f"of physical memory, quermass.counterexample.MEMORY_FRACTION)")


# -- the radial dent profile -----------------------------------------------------


def _smoothstep(w):
    return ((6.0 * w - 15.0) * w + 10.0) * w**3


def _smoothstep_prime(w):
    return 30.0 * w * w * (w - 1.0) * (w - 1.0)


def _smoothstep_antideriv(w):
    return ((w - 3.0) * w + 2.5) * w**4


@dataclasses.dataclass(frozen=True)
class BumpProfile:
    """Inward dent: f <= 0 with slope ramping to eps/2 on most of [0, 1/kappa].

    The slope is eps/2 times a quintic smoothstep ramp: up on
    [0, r/8], plateau on [r/8, 7r/8], down on [7r/8, r], r = 1/kappa.
    f is the negative tail integral of the slope, so f(r) = 0 and
    -eps/2 <= f <= 0.
    """

    kappa: float
    eps: float

    def __post_init__(self):
        if not self.kappa >= 1.0:
            raise ValueError("kappa must be >= 1")
        if not 0.0 <= self.eps < 0.5:
            raise ValueError("eps must lie in [0, 1/2)")

    @property
    def radius(self) -> float:
        return 1.0 / self.kappa

    @property
    def breakpoints(self) -> tuple:
        r = self.radius
        return (r / 8.0, 7.0 * r / 8.0, r)

    def axial_profile(self, n: int) -> AxialProfile:
        """One dent as a zonal profile about the pole of S^{n-1}."""
        return AxialProfile.from_callables(
            n, self.depth, self.slope, self.slope_derivative,
            support=self.radius, breakpoints=self.breakpoints)

    def slope(self, r):
        r = np.asarray(r, dtype=float)
        a, R = self.radius / 8.0, self.radius
        out = np.zeros_like(r)
        m1 = (r >= 0) & (r < a)
        m2 = (r >= a) & (r <= 7 * a)
        m3 = (r > 7 * a) & (r < R)
        out[m1] = 0.5 * self.eps * _smoothstep(r[m1] / a)
        out[m2] = 0.5 * self.eps
        out[m3] = 0.5 * self.eps * _smoothstep((R - r[m3]) / a)
        return out

    def slope_derivative(self, r):
        r = np.asarray(r, dtype=float)
        a, R = self.radius / 8.0, self.radius
        out = np.zeros_like(r)
        m1 = (r >= 0) & (r < a)
        m3 = (r > 7 * a) & (r < R)
        out[m1] = 0.5 * self.eps * _smoothstep_prime(r[m1] / a) / a
        out[m3] = -0.5 * self.eps * _smoothstep_prime((R - r[m3]) / a) / a
        return out

    def depth(self, r):
        """f(r) = -int_r^R slope; f(0) = -(7/16) eps / kappa."""
        r = np.asarray(r, dtype=float)
        a, R = self.radius / 8.0, self.radius
        mass = 0.5 * self.eps * (7.0 * R / 8.0)
        cum = np.zeros_like(r)
        m1 = (r >= 0) & (r < a)
        m2 = (r >= a) & (r <= 7 * a)
        m3 = r > 7 * a
        cum[m1] = 0.5 * self.eps * a * _smoothstep_antideriv(r[m1] / a)
        cum[m2] = 0.5 * self.eps * (0.5 * a + (r[m2] - a))
        w = np.clip((R - r[m3]) / a, 0.0, 1.0)
        cum[m3] = 0.5 * self.eps * (6.5 * a + a * (0.5 - _smoothstep_antideriv(w)))
        return cum - mass

    def validate(self) -> dict:
        """The box constraints of the dent, checked on 4001 radii."""
        r = np.linspace(0.0, self.radius, 4001)
        f, fd = self.depth(r), self.slope(r)
        checks = {
            "depth_range": bool(np.all((-0.5 * self.eps - 1e-15 <= f) & (f <= 1e-15))),
            "slope_range": bool(np.all((-1e-15 <= fd) & (fd <= 0.5 * self.eps + 1e-15))),
            "plateau": bool(np.all(np.abs(
                self.slope(np.linspace(*self.breakpoints[:2], 101)) - 0.5 * self.eps
            ) < 1e-15)),
            "flat_start": abs(float(self.slope(np.array([0.0]))[0])) < 1e-15,
            "closes": abs(float(self.depth(np.array([self.radius]))[0])) < 1e-15,
        }
        checks["ok"] = all(checks.values())
        return checks


def make_bump(kappa: float, eps: float) -> BumpProfile:
    """Concrete dent profile; all box constraints verified on a dense sample."""
    bump = BumpProfile(float(kappa), float(eps))
    checks = bump.validate()
    if not checks["ok"]:
        raise AssertionError(f"bump profile violates its box constraints: {checks}")
    return bump


# -- point packing ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PackedPoints:
    """Dent centers on S^{n-1}, pairwise at least 2/kappa apart.

    min_distance is the exact minimum of the n = 3 lattice; a ring count
    (n >= 4) has points None and min_distance 2/kappa, its proved bound.
    """

    n: int
    kappa: float
    points: np.ndarray | None
    min_distance: float
    count: int | None = None

    def __post_init__(self):
        if self.count is None:
            object.__setattr__(self, "count", len(self.points))

    @property
    def packing_constant(self) -> float:
        return self.count / self.kappa ** (self.n - 1)


def fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = 2.0 * math.pi * i / GOLDEN
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([z, r * np.cos(phi), r * np.sin(phi)], axis=1)


def _close_pairs(points: np.ndarray, reach: float):
    """All pairs i < j of points = fibonacci_sphere(N) closer than reach.

    Returns (i, j, d2), d2 being the squared distance summed over the
    coordinates in order, as a KD-tree sums it.  For j = i + m the
    height gap is 2m/N and the azimuth step is 2 pi m / GOLDEN whatever
    i is, so |p_i - p_j|^2 >= (2m/N)^2 + 4 rho^2 sin^2(step/2) with
    rho = min(r_i, r_j).  Hence only offsets m < reach N / 2 can hold a
    close pair, and for each only the i with an end in one of the polar
    caps r < R_m, where R_m follows from the bound: two contiguous index
    ranges.  Exact distances are evaluated on those ranges, one offset
    at a time.  The bound is padded for the rounding of the computed
    angles and radii, so no pair closer than reach is skipped.
    """
    N = len(points)
    z, x, y = points[:, 0], points[:, 1], points[:, 2]
    bound = reach * (1.0 + 1e-6)
    m = np.arange(1, min(N - 1, int(bound * N / 2.0) + 1) + 1)
    turns = m / GOLDEN
    step = 2.0 * math.pi * np.abs(turns - np.rint(turns))
    # the computed phi_i = 2 pi i / GOLDEN < 4 N are off by a few ulps
    step = np.maximum(step - (1e-14 * N + 1e-12), 0.0)
    room = bound**2 - (2.0 * m / N) ** 2
    with np.errstate(divide="ignore"):
        cap_r2 = np.minimum(room / (4.0 * np.sin(0.5 * step) ** 2), 1.0)
    # indices i with r_i < R lie in i < N (1 - sqrt(1 - R^2)) / 2
    caps = np.ceil(0.5 * N * cap_r2 / (1.0 + np.sqrt(1.0 - cap_r2))) + 2
    caps = np.where(room > 0.0, np.where(cap_r2 < 1.0, caps, N), 0).astype(int)
    limit = reach * reach
    found = [(np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))]
    for off, cap in zip(m.tolist(), caps.tolist()):
        last = N - off            # i runs over [0, last)
        if cap == 0:
            continue
        if 2 * cap >= last:
            ranges = ((0, last),)
        else:
            ranges = ((0, cap), (last - cap, last))
        for a, b in ranges:
            t = z[a + off:b + off] - z[a:b]
            d2 = t * t
            np.subtract(x[a + off:b + off], x[a:b], out=t)
            d2 += t * t
            np.subtract(y[a + off:b + off], y[a:b], out=t)
            d2 += t * t
            hit = np.flatnonzero(d2 < limit)
            if hit.size:
                found.append((hit + a, hit + (a + off), d2[hit]))
    return tuple(np.concatenate(column) for column in zip(*found))


def _thinned_fibonacci(count: int, min_d: float):
    """fibonacci_sphere(count) without the later point of each pair closer
    than min_d, and the exact minimal distance of what remains.

    Deleting points creates no new pair, so one pass over the close pairs
    of the full lattice thins it completely.  The minimal distance comes
    from the same evaluated pairs; when none of them survives, the reach
    doubles until it covers all pairs.  Returns None below two points.
    """
    pts = fibonacci_sphere(count)
    cut = min_d * (1.0 - 1e-12)
    reach = 1.05 * min_d
    i, j, d2 = _close_pairs(pts, reach)
    keep = np.ones(count, dtype=bool)
    keep[j[d2 <= cut * cut]] = False
    if np.count_nonzero(keep) < 2:
        return None
    both = keep[i] & keep[j]
    while not both.any():
        reach *= 2.0
        i, j, d2 = _close_pairs(pts, reach)
        both = keep[i] & keep[j]
    points = pts if keep.all() else pts[keep]
    return points, float(np.sqrt(d2[both].min()))


def _half_gaps(radius: np.ndarray, kappa: float) -> np.ndarray:
    """arcsin(1/(kappa rho)), padded, for radii rho; pi where kappa rho <= 1.

    Points of a circle at central angle twice this, or of a sphere at
    polar angles twice this apart, are 2/kappa apart.
    """
    x = kappa * radius
    out = np.full(x.shape, np.pi)
    wide = x > 1.0
    out[wide] = np.arcsin(1.0 / x[wide]) * (1.0 + _RING_PAD)
    return out


def _circle_capacity(radius: np.ndarray, kappa: float) -> np.ndarray:
    """Points 2/kappa apart that fit equally spaced on circles of these radii."""
    return np.floor(np.pi / _half_gaps(radius, kappa)).astype(np.int64)


def ring_circles(n: int, kappa: float, coordinates: bool = True):
    """The circles of the latitude-ring packing of S^{n-1}, in chunks.

    A sphere of radius rho is cut at polar angles 2 arcsin(1/(kappa rho))
    apart (padded), as many as fit in [0, pi], centered on the equator;
    each slice, a sphere of radius rho sin(theta), is cut the same way
    down to circles.  Points on two slices differ by that gap in polar
    angle, so by induction all are 2/kappa apart.  Yields (lead, radius): row i of lead holds the
    first n - 2 coordinates of circle i (lead is None unless coordinates),
    which lies in the last two coordinates.
    """
    def walk(m, lead, radius):
        if m == 2:
            yield lead, radius
            return
        half = _half_gaps(radius, kappa)
        counts = np.floor(0.5 * np.pi / half).astype(np.int64) + 1
        step = max(1, _RING_CHUNK // int(counts.max()))
        for i in range(0, len(radius), step):
            c = counts[i:i + step]
            owner = np.repeat(np.arange(i, i + len(c)), c)
            g = 2.0 * half[owner]
            theta = 0.5 * (np.pi - (counts[owner] - 1) * g) + _ranges(0, c) * g
            sub_lead = None if lead is None else np.column_stack(
                [lead[owner], radius[owner] * np.cos(theta)])
            yield from walk(m - 1, sub_lead, radius[owner] * np.sin(theta))

    yield from walk(n, np.zeros((1, 0)) if coordinates else None, np.ones(1))


def pack_points(n: int, kappa: float) -> PackedPoints:
    """Centers with pairwise Euclidean distance >= 2/kappa.

    n = 3 thins the Fibonacci lattice sized from its measured minimal
    distance: an exact certificate over index offsets (_close_pairs)
    finds every pair closer than 2/kappa in O(N log kappa) time and O(N)
    memory, drops the later point of each, and gives the exact minimal
    distance of the rest.  Other dimensions count the latitude rings
    (ring_circles) without coordinates, in work growing like kappa^{n-2}
    (n = 4: about 2.47 kappa^3 points).  Below two points the result is
    the antipodal pair.  Raises MemoryBudgetError up front when the
    lattice would need more than memory_budget() or the rings more than
    RING_WORK_LIMIT circles.
    """
    if n < 2:
        raise ValueError(f"pack_points needs n >= 2, got {n}")
    min_d = 2.0 / kappa
    what = f"pack_points({n}, {kappa:g})"
    if n == 3:
        count = max(2, int((FIB_MIN_DIST * kappa / 2.0) ** 2 * 0.999))
        _check_budget(what, count, "points", count * _BYTES_PER_LATTICE_POINT)
        packed = _thinned_fibonacci(count, min_d)
        if packed is not None:
            return PackedPoints(n, kappa, *packed)
    else:
        slices = math.floor(0.5 * math.pi / _half_gaps(np.ones(1), kappa)[0]) + 1
        work = slices ** (n - 2)
        if work > RING_WORK_LIMIT:
            raise MemoryBudgetError(
                f"{what} would count about {work:.3g} circles, above the work budget "
                f"of {RING_WORK_LIMIT:.0e} (quermass.counterexample.RING_WORK_LIMIT)")
        count = sum(int(_circle_capacity(radius, kappa).sum())
                    for _, radius in ring_circles(n, kappa, coordinates=False))
        if count >= 2:
            return PackedPoints(n, kappa, None, min_d, count)
    pts = np.zeros((2, n))
    pts[0, 0], pts[1, 0] = 1.0, -1.0
    return PackedPoints(n, kappa, pts, 2.0)


# -- flat radial cubic-term identity ----------------------------------------------


def _dent_rule(bump: BumpProfile):
    """24-point Gauss-Legendre panels, eight between consecutive breakpoints."""
    return panel_rule((0.0, *bump.breakpoints), 24, 8)


def radial_cubic_identity_check(bump: BumpProfile, n: int, a_fn=None) -> dict:
    """Flat-space identity for the cubic term of a radial profile.

    lhs = |S^{n-2}| int a(f, f'^2) f'' f'^2 r^{n-2} dr must match
    leading = -((n-2)|S^{n-2}|/3) int f'^3 r^{n-3} dr up to
    C * (eps |leading| + int f'^2 r^{n-2}) with C = 5.  With a == 1 the two sides
    are equal exactly (pure integration by parts).
    """
    area = sphere_area(n - 1)
    r, w = _dent_rule(bump)
    f, fd, fdd = bump.depth(r), bump.slope(r), bump.slope_derivative(r)
    av = np.ones_like(r) if a_fn is None else a_fn(f, fd**2)
    lhs = area * float(np.sum(w * av * fdd * fd**2 * r ** (n - 2)))
    leading = -(n - 2) * area / 3.0 * float(np.sum(w * fd**3 * r ** (n - 3)))
    remainder_scale = float(np.sum(w * fd**2 * r ** (n - 2)))
    bound = 5.0 * (bump.eps * abs(leading) + remainder_scale)
    return {
        "lhs": lhs,
        "leading": leading,
        "difference": lhs - leading,
        "remainder_scale": remainder_scale,
        "bound": bound,
        "margin": bound - abs(lhs - leading),
    }


# -- the dented sphere --------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DentedSphere:
    """The dented near-ball domain: C^1 eps-perturbation with dents."""

    n: int
    eps: float
    kappa: float
    bump: BumpProfile
    centers: PackedPoints

    def provider(self) -> GeodesicRadialField:
        if self.centers.points is None:
            raise ValueError(f"the n = {self.n} ring packing is a count without "
                             "coordinates; only the zonal total runs on it")
        return GeodesicRadialField(self.centers.points, self.bump.depth,
                                   self.bump.slope, self.bump.slope_derivative,
                                   support=self.bump.radius)

    def on_grid(self, grid):
        from quermass.stardomain import StarDomain
        prov = self.provider()
        return StarDomain(ScalarField(grid, prov.values(grid), analytic=prov))

    def c1_norm(self) -> float:
        r = np.linspace(0.0, self.bump.radius, 4001)
        return float(max(np.max(np.abs(self.bump.depth(r))),
                         np.max(np.abs(self.bump.slope(r)))))

    def eps_size(self) -> float:
        """Sup-norm deviation of the normal from radial (center at origin).

        The deviation field vanishes off the dents and is identical on
        every dent by rotational symmetry, so the global sup equals the
        sup over a single cap, evaluated on a dense 1-D sample.
        """
        r = np.linspace(0.0, self.bump.radius, 8001)
        v2 = (self.bump.slope(r) / (1.0 + self.bump.depth(r))) ** 2
        return float(np.sqrt(np.max(geometry.normal_deviation_sq(v2))))


def build_counterexample(n: int, eps: float, kappa: float,
                         centers: PackedPoints | None = None) -> DentedSphere:
    """Dent the sphere at packed points; supports are verified disjoint."""
    bump = make_bump(kappa, eps)
    if centers is None:
        centers = pack_points(n, kappa)
    if centers.min_distance < 2.0 * bump.radius:
        raise AssertionError(
            f"dent supports overlap: min distance {centers.min_distance:.3e} "
            f"< {2 * bump.radius:.3e}"
        )
    return DentedSphere(n, eps, kappa, bump, centers)


# -- total mean curvature, two ways --------------------------------------------------


def _cap_contributions(bump: BumpProfile, n: int) -> tuple[float, float]:
    """(integral of H over one dented cap, cap area on the sphere).

    The dent's zonal profile goes through the axisymmetric pointwise
    curvature on the dent panel rule.  The rule covers the cap only, so
    the per-dent excess over (n-1) times the cap area keeps its relative
    precision; a whole-sphere integral minus (n-1)|S^{n-1}| loses it.
    """
    theta, w = _dent_rule(bump)
    V, Vd, *_, H = _pointwise_curvature(bump.axial_profile(n), theta)
    J = geometry.area_jacobian(V, Vd * Vd, n)
    coarea = w * np.sin(theta) ** (n - 2) * sphere_area(n - 1)
    return float(np.sum(coarea * H * J)), float(np.sum(coarea))


def total_mean_curvature_zonal(domain: DentedSphere) -> float:
    """Sum of identical per-dent cap integrals plus the untouched sphere."""
    n = domain.n
    cap_h, cap_area = _cap_contributions(domain.bump, n)
    q = domain.centers.count
    return (n - 1.0) * (sphere_area(n) - q * cap_area) + q * cap_h


def total_mean_curvature_grid(domain: DentedSphere, resolution: int | None = None,
                              chunk: int = 400_000) -> float:
    """Independent check on a dense 2-D grid (n = 3).

    Every node is integrated, in chunks of chunk nodes: the curvature of
    the dented profile at the nodes inside a dent, which the provider
    finds by latitude bands, and that of the round sphere elsewhere.
    Raises MemoryBudgetError, before building the grid, when its nodes
    would need more than memory_budget().
    """
    if domain.n != 3:
        raise ValueError("the full-grid route is built for n = 3")
    if resolution is None:
        # ~13 polar nodes per dent radius; even multiples of kappa can beat
        # against the dent lattice and inflate the quadrature error
        resolution = max(256, int(math.ceil(13 * domain.kappa)))
    nodes = 2 * resolution * resolution
    _check_budget(f"the dense-grid check at resolution {resolution}", nodes,
                  "nodes", nodes * _BYTES_PER_GRID_NODE)
    grid = build_grid(3, resolution)
    K = domain.on_grid(grid)
    return K.integrated_mean_curvature(chunk=chunk)


def total_mean_curvature(n: int, eps: float, kappa: float, method: str = "zonal",
                         resolution: int | None = None,
                         centers: PackedPoints | None = None,
                         packing_cache: dict | None = None) -> dict:
    """Total boundary mean curvature of the dented sphere.

    method "zonal" uses the exact per-dent decomposition; "both" adds
    the dense-grid evaluation (n = 3) and reports their relative gap.
    packing_cache maps (n, kappa) to PackedPoints: packings do not
    depend on eps, so sweeps over eps can share the expensive part.
    """
    if centers is None and packing_cache is not None:
        key = (n, kappa)
        if key not in packing_cache:
            packing_cache[key] = pack_points(n, kappa)
        centers = packing_cache[key]
    domain = build_counterexample(n, eps, kappa, centers=centers)
    out = {
        "n": n, "eps": eps, "kappa": kappa,
        "count": domain.centers.count,
        "packing_constant": domain.centers.packing_constant,
        "int_H_zonal": total_mean_curvature_zonal(domain),
        "c1_norm": domain.c1_norm(),
        "eps_size": domain.eps_size(),
    }
    if method == "both":
        out["int_H_grid"] = total_mean_curvature_grid(domain, resolution)
        scale = max(abs(out["int_H_zonal"]), (n - 1.0) * sphere_area(n))
        out["relative_gap"] = abs(out["int_H_grid"] - out["int_H_zonal"]) / scale
    elif method != "zonal":
        raise ValueError(f"unknown method {method!r}")
    return out


def sweep_total_mean_curvature(n: int, eps: float, kappas,
                               method: str = "both") -> list[dict]:
    return [total_mean_curvature(n, eps, float(k), method=method) for k in kappas]


def affine_fit(x, y) -> dict:
    """Least-squares line with R^2, for the kappa sweep."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r2}


def find_negative_mean_curvature(n: int, eps: float, threshold: float = -1.0,
                                 kappa_start: float = 20.0,
                                 kappa_max: float = 1e5,
                                 packing_cache: dict | None = None) -> dict:
    """Double kappa until the total mean curvature drops below the threshold.

    Never silent: returns found=False with the full history and the
    reason when kappa_max is passed or the next packing would exceed
    memory_budget() or RING_WORK_LIMIT (the history then ends at the
    last kappa within it).
    """
    history = []
    kappa = float(kappa_start)
    reason = f"kappa exceeds kappa_max = {kappa_max:g}"
    while kappa <= kappa_max:
        try:
            rec = total_mean_curvature(n, eps, kappa, method="zonal",
                                       packing_cache=packing_cache)
        except MemoryBudgetError as exc:
            reason = str(exc)
            break
        history.append(rec)
        if rec["int_H_zonal"] < threshold:
            return {"found": True, "kappa_star": kappa,
                    "int_H": rec["int_H_zonal"], "history": history,
                    "reason": None}
        kappa *= 2.0
    return {"found": False, "kappa_star": None,
            "int_H": history[-1]["int_H_zonal"] if history else None,
            "history": history, "reason": reason}
