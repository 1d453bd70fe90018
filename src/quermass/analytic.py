"""Analytic field providers: geodesically radial profiles on S^{n-1}.

A GeodesicRadialField is u(x) = f(d(x, p_i)) about one or several
centers p_i with pairwise disjoint supports.  Values, gradients and
Hessians come from the closed radial formulas, so fields with very
small support (far beyond any spectral truncation) are differentiated
exactly.  Distances use the nearest center only, which is valid because
supports are disjoint; the first profile evaluation refuses overlapping
supports.

The radial formulas are evaluated only at the members of the supports;
every other point gets the value of the profile's constant offset and
no slope.  Members of a grid come from grid_members: on the n = 3
Gauss-Legendre x equiangular grid the nodes near each center are read
off its latitude bands, with no search; other grids and arbitrary
points take the center of largest dot product, in blocks of at most
_DOT_BLOCK products.  No point inside a support has two equally near
centers, so the members and their distances do not depend on how the
nearest center is found.  Every per-grid method fills its members one
block of _GRID_BLOCK nodes at a time; integrated_mean_curvature sums
its terms over the members only, in node order within each block, and
adds the round sphere's value times the weight of the nodes outside.

Overlap is refused on every use, from a proven lower bound on the
centers' separation where the caller has one (the dented sphere passes
its lattice's exact min_distance, so its n = 3 grid check searches no
pair), and otherwise from the closest pair of centers, found once by a
sort-and-sweep along the first coordinate (_closest_pair).
"""

from __future__ import annotations

import numpy as np

from quermass.geometry import (POLE_SIN, area_jacobian, mean_curvature_from_scalars,
                               zonal_laplacian)
from quermass.grids import SphericalGrid, tangent_frames

# nodes per block of a pass over a grid's members: with its terms, the
# working set of such a pass, which does not grow with the grid
_GRID_BLOCK = 1 << 16
# point-center dot products per block of a nearest-center query
_DOT_BLOCK = 1 << 20
# below this sin(theta_i) sin(theta_c) the phi-window of row i about a
# center has no usable precision; the whole row is taken instead
_BAND_MIN_SIN2 = 1e-7


def _gap(chord: float) -> float:
    """Geodesic distance of two unit vectors a Euclidean chord apart."""
    return 2.0 * np.arcsin(min(0.5 * chord, 1.0))


def _ranges(first, count):
    """Concatenation of the integer ranges first[i] + arange(count[i])."""
    return np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())


def _closest_pair(points) -> tuple:
    """(chord, i, j), i < j, of the two closest rows of points: a sort-and-sweep.

    The rows are sorted by their first coordinate; offset s compares each
    row with the one s places later, only where the two first coordinates
    differ by less than the best chord so far, and the sweep ends at the
    first offset with no such pair, as no later offset can have one.
    """
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    best, i, j = np.inf, 0, 1
    for s in range(1, len(pts)):
        near = np.flatnonzero(pts[s:, 0] - pts[:-s, 0] < best)
        if not near.size:
            break
        chord = np.linalg.norm(pts[near + s] - pts[near], axis=1)
        k = int(np.argmin(chord))
        if chord[k] < best:
            best, i, j = float(chord[k]), int(order[near[k]]), int(order[near[k] + s])
    return best, min(i, j), max(i, j)


class GeodesicRadialField:
    """Sum of identical radial profiles about centers with disjoint supports.

    f, fd, fdd are callables on [0, pi] (profile and its two derivatives);
    support is the geodesic support radius (pi for a global zonal profile).
    separation, when given, is a proven lower bound on the Euclidean
    distance between any two centers.
    """

    def __init__(self, centers: np.ndarray, f, fd, fdd, support: float,
                 offset: float = 0.0, separation: float | None = None):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.f, self.fd, self.fdd = f, fd, fdd
        self.support = float(support)
        self.offset = float(offset)
        self.separation = separation
        self._single = len(self.centers) == 1
        self._closest = (np.inf, 0, 0) if self._single else None   # (gap, i, j)

    def _require_disjoint(self):
        """Refuse overlapping supports (ValueError), on every use.

        A separation whose geodesic gap is at least twice the support
        proves the supports disjoint; otherwise _closest_pair finds the
        closest pair of centers once, and its gap is checked against the
        support of the time, so an enlarged support is checked again.
        """
        if self._closest is None:
            if self.separation is not None and _gap(self.separation) >= 2.0 * self.support:
                return
            chord, i, j = _closest_pair(self.centers)
            self._closest = (_gap(chord), i, j)
        gap, i, j = self._closest
        if gap < 2.0 * self.support:
            raise ValueError(
                f"supports overlap: centers {i} and {j} are {gap:.6g} apart, "
                f"less than twice the support {self.support:.6g}")

    def affine(self, a: float, b: float) -> "GeodesicRadialField":
        """The field a u + b: same centers, support and separation."""
        f, fd, fdd = self.f, self.fd, self.fdd
        return GeodesicRadialField(self.centers, lambda r: a * f(r), lambda r: a * fd(r),
                                   lambda r: a * fdd(r), self.support,
                                   offset=a * self.offset + b, separation=self.separation)

    # -- distances ----------------------------------------------------------

    def geodesic_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the nearest center."""
        points = np.asarray(points, dtype=float)
        dots = np.einsum("ij,ij->i", points, self.centers[self._nearest_index(points)])
        return np.arccos(np.clip(dots, -1.0, 1.0))

    def _nearest_index(self, points) -> np.ndarray:
        """Row of the nearest center per unit point: the largest dot product."""
        idx = np.zeros(len(points), dtype=np.int64)
        if not self._single:
            rows = max(1, _DOT_BLOCK // len(self.centers))
            for start in range(0, len(points), rows):
                idx[start:start + rows] = np.argmax(points[start:start + rows] @ self.centers.T,
                                                    axis=1)
        return idx

    def _members(self, node, points, center=None):
        """(node, center, dots, d) of the candidate nodes, at points, whose
        center (a row of self.centers, by default the nearest) is within
        the support: their dot product dots and geodesic distance d."""
        if center is None:
            center = self._nearest_index(points)
        dots = np.einsum("ij,ij->i", points, self.centers[center])
        d = np.arccos(np.clip(dots, -1.0, 1.0))
        inside = np.flatnonzero(d < self.support)
        return node[inside], center[inside], dots[inside], d[inside]

    def grid_members(self, grid: SphericalGrid, block: int = _GRID_BLOCK):
        """Members of the supports among the grid nodes, block by block.

        Yields (start, stop, index, center, dots, d) for the node blocks
        [start, stop) of at most block nodes, in order, as _members gives
        them for the block's nodes within the support of a center: the
        distances of the points API, bit for bit.  On the n = 3 tensor
        grid the candidates come from latitude bands (_band_candidates),
        in O(members) work; other grids take each node's nearest center.
        The coordinates come from grid.points, so the pass builds no node
        array.
        """
        self._require_disjoint()
        N = grid.num_nodes
        bands = self._latitude_bands(grid) if grid.n == 3 else None
        for start in range(0, N, block):
            stop = min(start + block, N)
            if bands is None:
                node, center = np.arange(start, stop), None
            else:
                node, center = self._band_candidates(grid, bands, start, stop)
            yield (start, stop) + self._members(node, grid.points(node), center)

    def _latitude_bands(self, grid: SphericalGrid):
        """Centers in row order, with the rows [first, last) each may reach.

        Rows run in decreasing theta.  A node within geodesic distance r
        of the center has |theta_i - theta_c| < r; the row range holds
        those rows and one more on each side.
        """
        theta = grid.angles[0]
        c = self.centers
        theta_c = np.arccos(np.clip(c[:, 0], -1.0, 1.0))
        order = np.argsort(-theta_c, kind="stable")
        theta_c = theta_c[order]
        r = min(self.support, np.pi)
        neg = -theta
        first = np.maximum(np.searchsorted(neg, -(theta_c + r), "right") - 1, 0)
        last = np.minimum(np.searchsorted(neg, -(theta_c - r), "left") + 1, len(theta))
        phi_c = np.arctan2(c[order, 2], c[order, 1])
        return order, theta_c, phi_c, first, last

    def _band_candidates(self, grid, bands, start, stop):
        """(node, center) candidate pairs for the nodes [start, stop).

        Row i of center c holds the nodes within r in the phi-window of
        half-width arccos((cos r - cos theta_i cos theta_c) /
        (sin theta_i sin theta_c)) about phi_c.  The window is padded by
        one node on each side, wrapped mod 2 res, and widened to the
        whole row where it covers it, where the row or the center is so
        close to a pole that the window loses its precision, and where
        the cap covers the row.  Each node appears at most once per
        center, so disjoint supports give no node twice among members.
        """
        order, theta_c, phi_c, first, last = bands
        m = len(grid.angles[1])
        row0, row1 = start // m, (stop - 1) // m + 1
        # centers in row order reaching a row of [row0, row1)
        lo = np.searchsorted(last, row0, "right")
        hi = np.searchsorted(first, row1, "left")
        rows_from = np.maximum(first[lo:hi], row0)
        nrows = np.minimum(last[lo:hi], row1) - rows_from
        pair = np.repeat(np.arange(lo, hi), nrows)
        row = _ranges(rows_from, nrows)

        t = grid.axis_nodes[0][row]
        s = np.sin(grid.angles[0][row])
        den = s * np.sin(theta_c[pair])
        near_pole = den < _BAND_MIN_SIN2
        a = ((np.cos(min(self.support, np.pi)) - t * np.cos(theta_c[pair]))
             / np.where(near_pole, 1.0, den))
        w = np.arccos(np.clip(a, -1.0, 1.0))
        step = 2.0 * np.pi / m
        j_lo = np.ceil((phi_c[pair] - w) / step).astype(np.int64) - 1
        count = np.floor((phi_c[pair] + w) / step).astype(np.int64) + 2 - j_lo
        whole = near_pole | (a <= -1.0) | (count >= m)
        j_lo[whole] = 0
        count[whole] = m

        node = np.repeat(row * m, count) + _ranges(j_lo, count) % m
        center = np.repeat(order[pair], count)
        keep = np.flatnonzero((node >= start) & (node < stop))
        return node[keep], center[keep]

    # -- radial formulas at members -------------------------------------------

    def outside_invariants(self):
        """(u, |grad u|^2, lap u, grad^2 u[grad u, grad u]) off the supports."""
        return self.offset + 0.0, 0.0, 0.0, 0.0

    def _invariants(self, d, n):
        fdv, fddv = self.fd(d), self.fdd(d)
        _, lap = zonal_laplacian(fdv, fddv, d, n)
        return self.offset + self.f(d), fdv**2, lap, fddv * fdv**2

    def _tangent_direction(self, points, centers, dots, d):
        """Unit tangent at x along the great circle away from the center."""
        s = np.sin(d)
        tau = (dots[:, None] * points - centers)
        with np.errstate(invalid="ignore", divide="ignore"):
            tau = np.where(s[:, None] > POLE_SIN,
                           tau / np.where(s > POLE_SIN, s, 1.0)[:, None], 0.0)
        return tau

    def _gradient(self, points, centers, dots, d):
        return self.fd(d)[:, None] * self._tangent_direction(points, centers, dots, d)

    def _hessian(self, points, centers, dots, d):
        """fdd tau tau^T + fd cot(d) (P - tau tau^T) at members."""
        fdv, fddv = self.fd(d), self.fdd(d)
        n = points.shape[1]
        cot_slope, _ = zonal_laplacian(fdv, fddv, d, n)
        tau = self._tangent_direction(points, centers, dots, d)
        tt = tau[:, :, None] * tau[:, None, :]
        P = np.eye(n)[None] - points[:, :, None] * points[:, None, :]
        return fddv[:, None, None] * tt + cot_slope[:, None, None] * (P - tt)

    def _phi_dot(self, d):
        fdv, fddv = self.fd(d), self.fdd(d)
        opu = 1.0 + self.offset + self.f(d)
        v = fdv / opu
        vprime = (fddv * opu - fdv**2) / opu**2
        phi_prime = -(1.0 + v**2) ** (-1.5) * v * vprime
        return phi_prime * fdv

    # -- arbitrary points (nearest-center membership) ---------------------------

    def _fill_points(self, points, shape, fill, evaluate):
        """fill at each unit point, and evaluate(x, center, dots, d) at the
        points x inside a support, center the coordinates of their centers:
        one membership query."""
        points = np.asarray(points, dtype=float)
        self._require_disjoint()
        idx, center, dots, d = self._members(np.arange(len(points)), points)
        out = np.full((len(points),) + shape, fill)
        out[idx] = evaluate(points[idx], self.centers[center], dots, d)
        return out

    def scalar_invariants(self, points: np.ndarray, n: int):
        """(u, |grad u|^2, lap u, grad^2 u[grad u, grad u]) at points."""
        out = self._fill_points(points, (4,), self.outside_invariants(),
                                lambda x, c, dots, d: np.stack(self._invariants(d, n), axis=1))
        return tuple(out.T)

    def values_at(self, points: np.ndarray) -> np.ndarray:
        return self._fill_points(points, (), self.offset + 0.0,
                                 lambda x, c, dots, d: self.offset + self.f(d))

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """Ambient tangential gradient at arbitrary unit vectors."""
        return self._fill_points(points, np.shape(points)[1:], 0.0, self._gradient)

    def hessian_ambient(self, points: np.ndarray) -> np.ndarray:
        """Tangential ambient Hessian: fdd tau tau^T + fd cot(d) (P - tau tau^T)."""
        n = np.shape(points)[1]
        return self._fill_points(points, (n, n), 0.0, self._hessian)

    # -- ScalarField provider protocol (per-grid, grid_members membership) ------

    def _fill_grid(self, grid, shape, fill, evaluate):
        """fill at each node of grid, and evaluate(index, center, dots, d) at
        the members of each grid_members block."""
        out = np.full((grid.num_nodes,) + shape, fill)
        for _, _, idx, center, dots, d in self.grid_members(grid):
            out[idx] = evaluate(idx, center, dots, d)
        return out

    def values(self, grid: SphericalGrid) -> np.ndarray:
        return self._fill_grid(grid, (), self.offset + 0.0,
                               lambda idx, c, dots, d: self.offset + self.f(d))

    def grad_frame(self, grid: SphericalGrid) -> np.ndarray:
        frames = tangent_frames(grid)
        return self._fill_grid(grid, (grid.n - 1,), 0.0, lambda idx, c, dots, d: np.einsum(
            "ikj,ij->ik", frames[idx], self._gradient(grid.nodes[idx], self.centers[c], dots, d)))

    def hessian_frame(self, grid: SphericalGrid) -> np.ndarray:
        frames = tangent_frames(grid)

        def in_frame(idx, c, dots, d):
            H = self._hessian(grid.nodes[idx], self.centers[c], dots, d)
            return np.einsum("iaj,ijk,ibk->iab", frames[idx], H, frames[idx])
        return self._fill_grid(grid, (grid.n - 1, grid.n - 1), 0.0, in_frame)

    def laplacian(self, grid: SphericalGrid) -> np.ndarray:
        return self._fill_grid(grid, (), 0.0,
                               lambda idx, c, dots, d: self._invariants(d, grid.n)[2])

    def phi_gradient_dot_grad(self, grid: SphericalGrid) -> np.ndarray:
        """grad(phi) . grad(u) for phi = (1+|v|^2)^{-1/2}, analytically."""
        return self._fill_grid(grid, (), 0.0, lambda idx, c, dots, d: self._phi_dot(d))

    def integrated_mean_curvature(self, grid: SphericalGrid) -> float:
        """Integral of H over the radial graph of the field, in one member pass.

        The terms weight * H * J of the members of the supports are summed
        one grid_members block at a time, in node order within the block,
        so the result does not depend on how the members were found.  The
        other nodes lie on the round sphere u = offset: its H * J is added
        once, times the grid's total weight (from its per-axis weights)
        less the members' weight, and evaluated, and refused, only when
        some node is outside.  The pass builds neither node array, so it
        takes O(_GRID_BLOCK) memory whatever the grid.  Raises ValueError
        where 1 + u <= 0 at a node (the graph is not star-shaped).
        """
        n = grid.n

        def integrand(u, grad2, lap, cubic):
            if u.size and np.min(1.0 + u) <= 0.0:
                raise ValueError("profile violates 1 + u > 0: not star-shaped")
            H = mean_curvature_from_scalars(u, grad2, lap, cubic, n)
            return H, area_jacobian(u, grad2, n)

        total, inside, members = 0.0, 0.0, 0
        for start, stop, idx, _, _, d in self.grid_members(grid):
            w = grid.node_weights(idx)
            H, J = integrand(*self._invariants(d, n))
            # summed in node order: one bin per node of the block
            total += float(np.bincount(idx - start, w * H * J, stop - start).sum())
            inside += float(np.bincount(idx - start, w, stop - start).sum())
            members += len(idx)
        if members < grid.num_nodes:
            H, J = integrand(*(np.array([v]) for v in self.outside_invariants()))
            # a weight is its per-axis weights' product times 2 pi / (phi count)
            weight = 2.0 * np.pi * float(np.prod([np.sum(w) for w in grid.axis_weights]))
            total += float(H[0] * J[0]) * (weight - inside)
        return total


def zonal_field(f, fd, fdd, n: int = 3) -> GeodesicRadialField:
    """Global zonal profile V(theta) about the axis e_1."""
    axis = np.zeros((1, n))
    axis[0, 0] = 1.0
    return GeodesicRadialField(axis, f, fd, fdd, support=np.pi + 1.0)
