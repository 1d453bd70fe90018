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
nearest center is found.

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

# nodes per block when a per-grid method walks the whole grid
_GRID_BLOCK = 200_000
# nodes per member block of integrated_mean_curvature: with one chunk of
# its terms, its working set, which does not grow with the grid
_MEMBER_BLOCK = 1 << 16
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
        return self._nearest(np.asarray(points, dtype=float))[2]

    def _nearest_index(self, points) -> np.ndarray:
        """Row of the nearest center per unit point: the largest dot product."""
        idx = np.zeros(len(points), dtype=np.int64)
        if not self._single:
            rows = max(1, _DOT_BLOCK // len(self.centers))
            for start in range(0, len(points), rows):
                idx[start:start + rows] = np.argmax(points[start:start + rows] @ self.centers.T,
                                                    axis=1)
        return idx

    def _nearest(self, points):
        if self._single:
            centers = np.broadcast_to(self.centers[0], points.shape)
        else:
            centers = self.centers[self._nearest_index(points)]
        dots = np.einsum("ij,ij->i", points, centers)
        d = np.arccos(np.clip(dots, -1.0, 1.0))
        return centers, dots, d

    def _point_members(self, points):
        """(index, centers, dots, d) of the points inside a support."""
        self._require_disjoint()
        centers, dots, d = self._nearest(points)
        idx = np.flatnonzero(d < self.support)
        return idx, centers[idx], dots[idx], d[idx]

    def grid_members(self, grid: SphericalGrid, block: int, chunk: int | None = None):
        """Members of the supports among the grid nodes, block by block.

        Yields (start, stop, index, center, dots, d) for the node blocks
        [start, stop) of at most block nodes, in order, none of which
        straddles a multiple of chunk (when given): index holds the global
        indices of the block's nodes at geodesic distance d < support
        from a center, center the row of that center in self.centers and
        dots its dot product with the node.  The distances are those of
        the points API (_nearest), bit for bit.  On the n = 3 tensor grid
        the candidates come from latitude bands (_band_candidates), in
        O(members) work; other grids take each node's nearest center.
        The coordinates come from grid.points, so the pass builds no node
        array.
        """
        self._require_disjoint()
        N = grid.num_nodes
        chunk = chunk or N
        bands = self._latitude_bands(grid) if grid.n == 3 else None
        for first in range(0, N, chunk):
            last = min(first + chunk, N)
            for start in range(first, last, block):
                stop = min(start + block, last)
                yield (start, stop) + self._block_members(grid, bands, start, stop)

    def _block_members(self, grid, bands, start, stop):
        """(index, center, dots, d) of grid_members for the nodes [start, stop)."""
        if bands is None:
            node = np.arange(start, stop)
            points = grid.points(node)
            center = self._nearest_index(points)
        else:
            node, center = self._band_candidates(grid, bands, start, stop)
            points = grid.points(node)
        dots = np.einsum("ij,ij->i", points, self.centers[center])
        d = np.arccos(np.clip(dots, -1.0, 1.0))
        inside = np.flatnonzero(d < self.support)
        return node[inside], center[inside], dots[inside], d[inside]

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
        tau = self._tangent_direction(points, centers, dots, d)
        return self.fd(d)[:, None] * tau

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

    def scalar_invariants(self, points: np.ndarray, n: int):
        """(u, |grad u|^2, lap u, grad^2 u[grad u, grad u]) at points."""
        points = np.asarray(points, dtype=float)
        idx, _, _, d = self._point_members(points)
        out = [np.full(len(points), v) for v in self.outside_invariants()]
        for arr, val in zip(out, self._invariants(d, n)):
            arr[idx] = val
        return tuple(out)

    def values_at(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        idx, _, _, d = self._point_members(points)
        out = np.full(len(points), self.offset + 0.0)
        out[idx] = self.offset + self.f(d)
        return out

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """Ambient tangential gradient at arbitrary unit vectors."""
        points = np.asarray(points, dtype=float)
        idx, centers, dots, d = self._point_members(points)
        out = np.zeros(points.shape)
        out[idx] = self._gradient(points[idx], centers, dots, d)
        return out

    def hessian_ambient(self, points: np.ndarray) -> np.ndarray:
        """Tangential ambient Hessian: fdd tau tau^T + fd cot(d) (P - tau tau^T)."""
        points = np.asarray(points, dtype=float)
        idx, centers, dots, d = self._point_members(points)
        n = points.shape[1]
        out = np.zeros((len(points), n, n))
        out[idx] = self._hessian(points[idx], centers, dots, d)
        return out

    # -- ScalarField provider protocol (per-grid, grid_members membership) ------

    def values(self, grid: SphericalGrid) -> np.ndarray:
        out = np.full(grid.num_nodes, self.offset + 0.0)
        for _, _, idx, _, _, d in self.grid_members(grid, _GRID_BLOCK):
            out[idx] = self.offset + self.f(d)
        return out

    def grad_frame(self, grid: SphericalGrid) -> np.ndarray:
        frames = tangent_frames(grid)
        out = np.zeros((grid.num_nodes, grid.n - 1))
        for _, _, idx, center, dots, d in self.grid_members(grid, _GRID_BLOCK):
            g = self._gradient(grid.nodes[idx], self.centers[center], dots, d)
            out[idx] = np.einsum("ikj,ij->ik", frames[idx], g)
        return out

    def hessian_frame(self, grid: SphericalGrid) -> np.ndarray:
        frames = tangent_frames(grid)
        out = np.zeros((grid.num_nodes, grid.n - 1, grid.n - 1))
        for _, _, idx, center, dots, d in self.grid_members(grid, _GRID_BLOCK):
            F = frames[idx]
            H = self._hessian(grid.nodes[idx], self.centers[center], dots, d)
            out[idx] = np.einsum("iaj,ijk,ibk->iab", F, H, F)
        return out

    def laplacian(self, grid: SphericalGrid) -> np.ndarray:
        out = np.zeros(grid.num_nodes)
        for _, _, idx, _, _, d in self.grid_members(grid, _GRID_BLOCK):
            out[idx] = self._invariants(d, grid.n)[2]
        return out

    def phi_gradient_dot_grad(self, grid: SphericalGrid) -> np.ndarray:
        """grad(phi) . grad(u) for phi = (1+|v|^2)^{-1/2}, analytically."""
        out = np.zeros(grid.num_nodes)
        for _, _, idx, _, _, d in self.grid_members(grid, _GRID_BLOCK):
            out[idx] = self._phi_dot(d)
        return out

    def integrated_mean_curvature(self, grid: SphericalGrid, chunk: int) -> float:
        """Integral of H over the radial graph of the field, in one member pass.

        The terms weight * H * J are summed chunk by chunk, each chunk of
        chunk nodes in node order, so the result does not depend on how
        the members were found.  They are filled from member blocks of
        at most _MEMBER_BLOCK nodes (grid_members): the curvature is
        evaluated at the members of the supports only, and every other
        node gets that of the round sphere u = offset.  The weights come
        from grid.node_weights, so the pass builds neither node array and
        takes O(chunk + _MEMBER_BLOCK) memory whatever the grid.  Raises
        ValueError where 1 + u <= 0 at a node (the graph is not
        star-shaped), from the same values the pass integrates.
        """
        n, N = grid.n, grid.num_nodes

        def integrand(u, grad2, lap, cubic):
            if u.size and np.min(1.0 + u) <= 0.0:
                raise ValueError("profile violates 1 + u > 0: not star-shaped")
            H = mean_curvature_from_scalars(u, grad2, lap, cubic, n)
            return H, area_jacobian(u, grad2, n)

        outside = None      # (H, J) off the supports, once a node needs it
        total = 0.0
        for start, stop, idx, _, _, d in self.grid_members(grid, _MEMBER_BLOCK, chunk):
            first = start - start % chunk
            if start == first:
                terms = np.empty(min(chunk, N - first))
            H, J = np.empty(stop - start), np.empty(stop - start)
            if len(idx) < stop - start:
                if outside is None:
                    outside = integrand(*(np.array([v]) for v in self.outside_invariants()))
                H.fill(outside[0][0])
                J.fill(outside[1][0])
            H[idx - start], J[idx - start] = integrand(*self._invariants(d, n))
            terms[start - first:stop - first] = grid.node_weights(slice(start, stop)) * H * J
            if stop - first == len(terms):
                total += float(np.sum(terms))
        return total


def zonal_field(f, fd, fdd, n: int = 3) -> GeodesicRadialField:
    """Global zonal profile V(theta) about the axis e_1."""
    axis = np.zeros((1, n))
    axis[0, 0] = 1.0
    return GeodesicRadialField(axis, f, fd, fdd, support=np.pi + 1.0)
