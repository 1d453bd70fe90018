"""Domains that are C^1-close to the ball with very negative total mean
curvature.

The construction dents the unit sphere with many identical radial bumps
of geodesic radius 1/kappa placed at points with pairwise distance at
least 2/kappa.  Each dent contributes a cubic-order negative amount
~ eps^3 / kappa to the total mean curvature while the number of dents
grows like kappa^{n-1}, so the total crosses any negative threshold for
kappa large.

The dent centers on S^2 are a spherical Fibonacci lattice certified by
its exact minimal distance: for the index offset m the height gap and
the azimuth step are fixed, so a search over offsets finds that minimum
in O(N log kappa) time, with no KD-tree (Keinert et al., Spherical
Fibonacci Mapping, ACM TOG 34(6), 2015).  It streams the lattice in
index blocks, so the count takes O(block) memory; only the dense-grid
check and the mesh export read the coordinates.  On S^{n-1}, n >= 4,
only the zonal total runs, which needs only the number of dents: that
of a recursive latitude-ring packing (after the EQ partition, Leopardi,
ETNA 25, 2006), counted without coordinates.  Counts above WORK_LIMIT
lattice points or circles, and dense-grid checks above WORK_LIMIT nodes,
fail fast on any machine; the check takes O(chunk) memory whatever its
node count.  The coordinates are built only for a kappa whose dense-grid
check is within WORK_LIMIT (kappa <= 543, at most about 706k points),
so every input is admitted or refused the same way on every machine.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from quermass import geometry
from quermass.analytic import GeodesicRadialField, _ranges
from quermass.axisym import AxialProfile, _pointwise_curvature, _section_rows
from quermass.fields import ScalarField
from quermass.grids import build_grid, panel_rule, sphere_area

# minimal pairwise distance of the N-point Fibonacci lattice is
# FIB_MIN_DIST/sqrt(N) (measured, stable to 4 digits across N)
FIB_MIN_DIST = 3.0921
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Counts refuse above WORK_LIMIT lattice points (n = 3) or circles
# (n >= 4), and dense-grid checks above WORK_LIMIT nodes, whatever the
# machine: counts admit kappa 5120 (n = 3: 62.6M points, ~6 s; n = 4:
# ~2 s), grid checks kappa 543 (99.7M nodes) but not 640 (138M nodes).
# Lattice coordinates are admitted by the grid check's rule.
WORK_LIMIT = 10**8
# lattice points per block of the streamed lattice: its coordinates,
# temporaries and pair distances take O(block) memory
_LATTICE_BLOCK = 1 << 16
_SLICED_RANGE = 4096    # index ranges this long are sliced, shorter ones gathered
_RING_PAD = 1e-12       # relative pad of the ring angles, against rounding
_RING_CHUNK = 1 << 16   # ring slices per numpy step, which bounds memory


class MemoryBudgetError(ValueError):
    """A count, a grid check or lattice coordinates over WORK_LIMIT."""


def _check_work(what: str, items: int, unit: str) -> None:
    if items > WORK_LIMIT:
        raise MemoryBudgetError(
            f"{what} would count {items:,} {unit}, above the work budget of "
            f"{WORK_LIMIT:.0e} (quermass.counterexample.WORK_LIMIT)")


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
        if not 1.0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and >= 1")
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

    Three kinds: explicit coordinates; the n = 3 Fibonacci lattice,
    fibonacci_sphere(lattice), whose points are built on first read
    (MemoryBudgetError when kappa's dense-grid check is over WORK_LIMIT);
    and a ring count (n >= 4), whose points are None.
    min_distance is the exact minimum of the lattice; a ring count has
    2/kappa, its proved bound.
    """

    n: int
    kappa: float
    coordinates: np.ndarray | None
    min_distance: float
    count: int | None = None
    lattice: int = 0

    def __post_init__(self):
        if self.count is None:
            count = len(self.coordinates) if self.lattice == 0 else self.lattice
            object.__setattr__(self, "count", count)

    @functools.cached_property
    def points(self) -> np.ndarray | None:
        if self.lattice == 0:
            return self.coordinates
        check_points(self.kappa)
        return fibonacci_sphere(self.lattice)

    @property
    def packing_constant(self) -> float:
        return self.count / self.kappa ** (self.n - 1)


def check_points(kappa: float) -> None:
    """MemoryBudgetError unless the points of pack_points(3, kappa) are built.

    Only the dense-grid check and the mesh read them, and a grid within
    WORK_LIMIT nodes cannot resolve the dents of a larger kappa; callers
    that will read the points check before packing.
    """
    try:
        _grid_resolution(kappa)
    except MemoryBudgetError as exc:
        raise MemoryBudgetError(
            f"the points of pack_points(3, {kappa:g}) are built only for a "
            f"kappa whose dense-grid check runs; {exc}") from None


def _fibonacci_block(count: int, start: int, stop: int) -> tuple:
    """(z, x, y) of the points [start, stop) of fibonacci_sphere(count).

    Every value is computed elementwise from its index alone, so a block
    holds the same bits as the corresponding rows of the whole lattice.
    """
    i = np.arange(start, stop)
    z = 1.0 - (2.0 * i + 1.0) / count
    phi = 2.0 * math.pi * i / GOLDEN
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return z, r * np.cos(phi), r * np.sin(phi)


def fibonacci_sphere(count: int) -> np.ndarray:
    """The count-point spherical Fibonacci lattice as (N, 3) rows (z, x, y).

    Filled block by block, so the peak is the output plus O(block).
    """
    out = np.empty((count, 3))
    for start in range(0, count, _LATTICE_BLOCK):
        stop = min(start + _LATTICE_BLOCK, count)
        for k, column in enumerate(_fibonacci_block(count, start, stop)):
            out[start:stop, k] = column
    return out


def _least_d2(N: int, reach: float) -> float:
    """The least squared distance between points of fibonacci_sphere(N)
    closer than reach, or inf when no pair is that close.

    Distances are squared sums over the coordinates in order, as a
    KD-tree sums them.  For j = i + m the height gap is 2m/N and the
    azimuth step is 2 pi m / GOLDEN whatever i is, so |p_i - p_j|^2 >=
    (2m/N)^2 + 4 rho^2 sin^2(step/2) with rho = min(r_i, r_j).  Hence
    only offsets m < reach N / 2 can hold a close pair, and for each only
    the i with an end in one of the polar caps r < R_m, where R_m follows
    from the bound: two contiguous index ranges.  Exact distances are
    evaluated on those ranges: the long ones one offset at a time, the
    short ones gathered together.  The bound is padded for the rounding
    of the computed angles and radii, so no pair closer than reach is
    skipped.

    The lattice is streamed: the points of each block of _LATTICE_BLOCK
    indices, and as many more as the largest offset, come from
    _fibonacci_block, so memory is O(block) and the result does not
    depend on the block size.
    """
    block = _LATTICE_BLOCK
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
    caps = np.where(room > 0.0, np.where(cap_r2 < 1.0, caps, N), 0).astype(np.int64)
    # per offset, i runs over [0, last): the two caps [0, cap) and
    # [last - cap, last), or all of it where they meet
    last = N - m
    whole = 2 * caps >= last
    first = np.concatenate([np.zeros_like(m), np.where(whole, last, last - caps)])
    stop = np.concatenate([np.where(whole, last, caps), last])
    off = np.concatenate([m, m])
    overlap = int(m[-1]) if len(m) else 0
    least = math.inf
    for b0 in range(0, N, block):
        b1 = min(b0 + block, N)
        # the ranges within the block, local to it: long ones as slices,
        # the short ones gathered, at most about a block of pairs at a time
        lo = np.maximum(first, b0) - b0
        size = np.maximum(np.minimum(stop, b1) - b0 - lo, 0)
        if not size.any():
            continue            # a block between the caps: no point is built
        zxy = _fibonacci_block(N, b0, min(b1 + overlap, N))
        for k in np.flatnonzero(size >= _SLICED_RANGE).tolist():
            a, b, o = int(lo[k]), int(lo[k] + size[k]), int(off[k])
            least = min(least, float(
                _squared_distances(zxy, slice(a, b), slice(a + o, b + o)).min()))
        short = np.flatnonzero((size > 0) & (size < _SLICED_RANGE))
        total = np.cumsum(size[short])
        cuts = np.searchsorted(total, np.arange(block, total[-1] if len(total) else 0, block))
        for part in np.split(short, cuts):
            i = _ranges(lo[part], size[part])
            if len(i):
                j = i + np.repeat(off[part], size[part])
                least = min(least, float(_squared_distances(zxy, i, j).min()))
    return least if least < reach * reach else math.inf


def _squared_distances(zxy, i, j) -> np.ndarray:
    """|p_j - p_i|^2 summed over z, x, y in order; i, j slices or indices."""
    t = zxy[0][j] - zxy[0][i]
    d2 = t * t
    for c in zxy[1:]:
        np.subtract(c[j], c[i], out=t)
        d2 += t * t
    return d2


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

    n = 3 takes the Fibonacci lattice sized from its measured minimal
    distance and certifies it by its exact minimal distance, from a
    search over index offsets (_least_d2) in O(N log kappa) time and
    O(block) memory; while that is below 2/kappa, the lattice loses a
    point and is certified again.  The points are built only when read.
    Other dimensions count the latitude rings (ring_circles) without
    coordinates, in work growing like kappa^{n-2} (n = 4: about
    2.47 kappa^3 points).  Below two points the result is the antipodal
    pair.  Raises MemoryBudgetError up front when the lattice holds more
    than WORK_LIMIT points or the rings more than WORK_LIMIT circles.
    """
    if n < 2:
        raise ValueError(f"pack_points needs n >= 2, got {n}")
    min_d = 2.0 / kappa
    what = f"pack_points({n}, {kappa:g})"
    if n == 3:
        lattice = max(2, int((FIB_MIN_DIST * kappa / 2.0) ** 2 * 0.999))
        _check_work(what, lattice, "lattice points")
        for lattice in range(lattice, 1, -1):
            reach, d2 = 1.05 * min_d, math.inf
            while d2 == math.inf:
                d2, reach = _least_d2(lattice, reach), 2.0 * reach
            if math.sqrt(d2) >= min_d:
                return PackedPoints(n, kappa, None, math.sqrt(d2), lattice=lattice)
    else:
        slices = math.floor(0.5 * math.pi / _half_gaps(np.ones(1), kappa)[0]) + 1
        _check_work(what, slices ** (n - 2), "circles")
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
                                   support=self.bump.radius,
                                   separation=self.centers.min_distance)

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
        sup over a single cap: geometry.normal_deviation of the cap's
        meridian section on 8001 geodesic radii, at center 0.
        """
        r = np.linspace(0.0, self.bump.radius, 8001)
        y, nu = _section_rows(r, self.bump.depth(r), self.bump.slope(r))
        return float(np.max(geometry.normal_deviation(y, nu, np.zeros(2))))


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

    Every node is integrated in one pass over the provider's members,
    summed in chunks of chunk nodes: the curvature of the dented profile
    at the nodes inside a dent, which the provider finds by latitude
    bands, and that of the round sphere elsewhere.  The grid's node
    arrays are never built, so the pass takes O(chunk) memory whatever
    the resolution.  Raises MemoryBudgetError, before any work, when the
    grid has more than WORK_LIMIT nodes.
    """
    if domain.n != 3:
        raise ValueError("the full-grid route is built for n = 3")
    grid = build_grid(3, _grid_resolution(domain.kappa, resolution))
    return domain.provider().integrated_mean_curvature(grid, chunk)


def _grid_resolution(kappa: float, resolution: int | None = None) -> int:
    """The resolution of the dense-grid check, by default about 13 polar
    nodes per dent radius; MemoryBudgetError above WORK_LIMIT nodes."""
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    if resolution is None:
        # even multiples of kappa can beat against the dent lattice and
        # inflate the quadrature error
        resolution = max(256, int(math.ceil(13 * kappa)))
    _check_work(f"the dense-grid check at resolution {resolution}",
                2 * resolution * resolution, "nodes")
    return resolution


def total_mean_curvature(n: int, eps: float, kappa: float, method: str = "zonal") -> dict:
    """Total boundary mean curvature of the dented sphere.

    method "zonal" uses the exact per-dent decomposition; "both" adds
    the dense-grid evaluation (n = 3, at total_mean_curvature_grid's
    default resolution) and reports their relative gap.  A grid over
    WORK_LIMIT nodes is refused before the packing.
    """
    if method == "both":
        _grid_resolution(kappa)
    domain = build_counterexample(n, eps, kappa)
    out = {
        "n": n, "eps": eps, "kappa": kappa,
        "count": domain.centers.count,
        "packing_constant": domain.centers.packing_constant,
        "int_H_zonal": total_mean_curvature_zonal(domain),
        "c1_norm": domain.c1_norm(),
        "eps_size": domain.eps_size(),
    }
    if method == "both":
        out["int_H_grid"] = total_mean_curvature_grid(domain)
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
                                 kappa_max: float = 1e5) -> dict:
    """Double kappa until the total mean curvature drops below the threshold.

    Never silent: returns found=False with the full history and the
    reason when kappa_max is passed or the next packing would exceed
    WORK_LIMIT (the history then ends at the last kappa within it).
    """
    if math.isnan(kappa_max):
        raise ValueError("kappa_max is nan; pass inf for no cap")
    history = []
    kappa = float(kappa_start)
    reason = f"kappa exceeds kappa_max = {kappa_max:g}"
    while kappa <= kappa_max:
        try:
            rec = total_mean_curvature(n, eps, kappa, method="zonal")
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
