"""Analytic field providers: geodesically radial profiles on S^{n-1}.

A GeodesicRadialField is u(x) = f(d(x, p_i)) about one or several
centers p_i with pairwise disjoint supports.  The radial profile is one
callable, its jet r -> (f(r), f'(r), f''(r)), so each evaluation
classifies the radii once.  Values, gradients and Hessians come from
the closed radial formulas, so fields with very small support (far
beyond any spectral truncation) are differentiated exactly.  Distances
use the nearest center only, which is valid because supports are
disjoint; the first profile evaluation refuses overlapping supports.

The radial formulas are evaluated only at the members of the supports;
every other point gets the value of the profile's constant offset and
no slope.  Members of a grid come from grid_members: on the n = 3
Gauss-Legendre x equiangular grid the nodes near each center are read
off its latitude bands, with no search, and their dot products with the
center are taken from the grid's per-axis factors cos(theta), sin(theta)
and cos(phi), sin(phi) at the candidates' rows and columns; other grids
and arbitrary points take the center of largest dot product, in blocks
of at most _DOT_BLOCK products.  Every dot product over three
coordinates is summed in one order (_dot3), so the two routes give a
node the same distance bit for bit.  No point inside a support has two
equally near centers, so the members and their distances do not depend
on how the nearest center is found.  Every per-grid method fills its
members one block of _GRID_BLOCK nodes at a time; integrated_mean_curvature
sums its terms over the members only, in node order within each block,
with the weights taken from the members' rows, and adds the round
sphere's value times the weight of the nodes outside.

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


def _dot3(p0, p1, p2):
    """The dot product over three coordinates from its products p_k = x_k c_k,
    summed as (p0 + p2) + p1, the order numpy 2.4's einsum takes over three
    columns, so that every route to a distance has the same bits.  The sum
    is formed in p0, which is returned."""
    p0 += p2
    p0 += p1
    return p0


def _row_dots(x, c) -> np.ndarray:
    """Dot products of the rows of two (M, n) arrays; _dot3 for n = 3."""
    if x.shape[1] == 3:
        return _dot3(x[:, 0] * c[:, 0], x[:, 1] * c[:, 1], x[:, 2] * c[:, 2])
    return np.einsum("ij,ij->i", x, c)


def _band_dots(grid: SphericalGrid, row, c, k, col) -> np.ndarray:
    """_dot3 of candidate nodes and their centers on the n = 3 grid.

    Candidate i lies in theta row row[k[i]] and phi column col[i], and its
    center's coordinates are c[:, k[i]].  Its coordinates are the products
    grid.points takes of the per-axis factors, cos theta, sin theta cos phi
    and sin theta sin phi, and each is multiplied by the center's in place.
    """
    (cos_t, cos_p), (sin_t, sin_p) = grid.factors
    s = sin_t[row][k]
    p0 = cos_t[row][k]
    p0 *= c[0][k]
    p1 = cos_p[col]
    p1 *= s
    p1 *= c[1][k]
    p2 = sin_p[col]
    p2 *= s
    p2 *= c[2][k]
    return _dot3(p0, p1, p2)


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

    jet maps an array of radii in [0, pi] to the arrays (f, f', f'') of
    the profile and its two derivatives there; support is the geodesic
    support radius (pi for a global zonal profile).  separation, when
    given, is a proven lower bound on the Euclidean distance between any
    two centers.
    """

    def __init__(self, centers: np.ndarray, jet, support: float,
                 offset: float = 0.0, separation: float | None = None):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.jet = jet
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
        jet = self.jet

        def scaled(r):
            f, fd, fdd = jet(r)
            return a * f, a * fd, a * fdd
        return GeodesicRadialField(self.centers, scaled, self.support,
                                   offset=a * self.offset + b, separation=self.separation)

    # -- distances ----------------------------------------------------------

    def geodesic_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance to the nearest center."""
        points = np.asarray(points, dtype=float)
        dots = _row_dots(points, self.centers[self._nearest_index(points)])
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

    def _within(self, dots, *labels) -> tuple:
        """(*labels, dots, d) at the candidates whose dot product dots with
        their center puts them within the support, d their geodesic distance."""
        d = np.clip(dots, -1.0, 1.0)
        np.arccos(d, out=d)
        inside = np.flatnonzero(d < self.support)
        return tuple(a[inside] for a in labels) + (dots[inside], d[inside])

    def _members(self, node, points):
        """(node, center, dots, d) of the candidate nodes, at points, within
        the support of their nearest center (a row of self.centers): their
        dot product dots with it and geodesic distance d."""
        center = self._nearest_index(points)
        return self._within(_row_dots(points, self.centers[center]), node, center)

    def grid_members(self, grid: SphericalGrid, block: int = _GRID_BLOCK):
        """Members of the supports among the grid nodes, block by block.

        Yields (start, stop, index, center, dots, d) for the node blocks
        [start, stop) of at most block nodes, in order: the block's nodes
        within the support of a center, with the distances of the points
        API, bit for bit.  On the n = 3 tensor grid the candidates come
        from latitude bands (_band_members), in O(members) work; other
        grids take each node's nearest center, at grid.points.  The pass
        builds no node array.
        """
        members = self._member_finder(grid)
        for start in range(0, grid.num_nodes, block):
            stop = min(start + block, grid.num_nodes)
            index, _, center, dots, d = members(start, stop)
            yield start, stop, index, center, dots, d

    def _member_finder(self, grid: SphericalGrid):
        """The function (start, stop) -> (index, row, center, dots, d) of the
        members among the grid nodes [start, stop), row their theta row, or
        None off the n = 3 grid; overlapping supports are refused first."""
        self._require_disjoint()
        if grid.n == 3:
            bands = self._latitude_bands(grid)
            return lambda start, stop: self._band_members(grid, bands, start, stop)

        def members(start, stop):
            node = np.arange(start, stop)
            node, center, dots, d = self._members(node, grid.points(node))
            return node, None, center, dots, d
        return members

    def _latitude_bands(self, grid: SphericalGrid):
        """Centers in row order, with the rows [first, last) each may reach.

        Rows run in decreasing theta.  A node within geodesic distance r
        of the center has |theta_i - theta_c| < r; the row range holds
        those rows and one more on each side.  The centers' coordinates
        come as three contiguous columns in the same order.
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
        return order, theta_c, phi_c, first, last, np.ascontiguousarray(c[order].T)

    def _band_members(self, grid, bands, start, stop):
        """(node, row, center, dots, d) of the members among the nodes [start, stop).

        Row i of center c holds the nodes within r in the phi-window of
        half-width arccos((cos r - cos theta_i cos theta_c) /
        (sin theta_i sin theta_c)) about phi_c.  The window is padded by
        one node on each side, wrapped mod 2 res, and widened to the
        whole row where it covers it, where the row or the center is so
        close to a pole that the window loses its precision, and where
        the cap covers the row.  Each window is cut at the seam phi = 0
        into at most two column ranges, clipped to the block's columns of
        its row, so each node of the block appears at most once per
        center and disjoint supports give no node twice among members.
        A candidate's dot product with its center comes from the grid's
        per-axis factors (_band_dots).
        """
        order, theta_c, phi_c, first, last, columns = bands
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
        s = grid.factors[1][0][row]
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

        # the columns [j, j + count) mod m as the ranges [j, m) and [0, j + count - m),
        # each clipped to the block's columns [col_lo, col_hi) of the row
        j = j_lo % m
        base = row * m
        col_lo = np.maximum(start - base, 0)
        col_hi = np.minimum(stop - base, m)
        wrapped = np.flatnonzero(j + count > m)
        piece = np.concatenate([np.arange(len(row)), wrapped])
        seg_lo = np.concatenate([np.maximum(j, col_lo), col_lo[wrapped]])
        seg_hi = np.minimum(np.concatenate([j + count, (j + count - m)[wrapped]]),
                            col_hi[piece])
        size = np.maximum(seg_hi - seg_lo, 0)

        k = np.repeat(piece, size)                  # the pair-row of each candidate
        col = np.repeat(seg_lo - np.cumsum(size) + size, size)
        col += np.arange(len(col))
        dots = _band_dots(grid, row, columns[:, pair], k, col)
        k, col, dots, d = self._within(dots, k, col)
        return base[k] + col, row[k], order[pair[k]], dots, d

    # -- radial formulas at members -------------------------------------------

    def outside_invariants(self):
        """(u, |grad u|^2, lap u, grad^2 u[grad u, grad u]) off the supports."""
        return self.offset + 0.0, 0.0, 0.0, 0.0

    def _invariants(self, d, n):
        f, fd, fdd = self.jet(d)
        _, lap = zonal_laplacian(fd, fdd, d, n)
        grad2 = fd**2
        return self.offset + f, grad2, lap, fdd * grad2

    def _tangent_direction(self, points, centers, dots, d):
        """Unit tangent at x along the great circle away from the center."""
        s = np.sin(d)
        tau = (dots[:, None] * points - centers)
        with np.errstate(invalid="ignore", divide="ignore"):
            tau = np.where(s[:, None] > POLE_SIN,
                           tau / np.where(s > POLE_SIN, s, 1.0)[:, None], 0.0)
        return tau

    def _gradient(self, points, centers, dots, d):
        return self.jet(d)[1][:, None] * self._tangent_direction(points, centers, dots, d)

    def _hessian(self, points, centers, dots, d):
        """fdd tau tau^T + fd cot(d) (P - tau tau^T) at members."""
        _, fd, fdd = self.jet(d)
        n = points.shape[1]
        cot_slope, _ = zonal_laplacian(fd, fdd, d, n)
        tau = self._tangent_direction(points, centers, dots, d)
        tt = tau[:, :, None] * tau[:, None, :]
        P = np.eye(n)[None] - points[:, :, None] * points[:, None, :]
        return fdd[:, None, None] * tt + cot_slope[:, None, None] * (P - tt)

    def _phi_dot(self, d):
        f, fd, fdd = self.jet(d)
        opu = 1.0 + self.offset + f
        v = fd / opu
        vprime = (fdd * opu - fd**2) / opu**2
        phi_prime = -(1.0 + v**2) ** (-1.5) * v * vprime
        return phi_prime * fd

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
                                 lambda x, c, dots, d: self.offset + self.jet(d)[0])

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
                               lambda idx, c, dots, d: self.offset + self.jet(d)[0])

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
        one block of _GRID_BLOCK nodes at a time (grid_members' blocks), in
        node order within the block, so the result does not depend on how
        the members were found.  A
        member's weight is its row's axis weight times the phi weight on
        the n = 3 grid, grid.node_weights elsewhere (the same bits), and
        its terms come from one jet of the profile at its distance.  The
        other nodes lie on the round sphere u = offset: its H * J is added
        once, times the grid's total weight (from its per-axis weights)
        less the members' weight, and evaluated, and refused, only when
        some node is outside.  The pass builds neither node array, so it
        takes O(_GRID_BLOCK) memory whatever the grid.  Raises ValueError
        where 1 + u <= 0 at a node (the graph is not star-shaped).
        """
        n, N = grid.n, grid.num_nodes
        members = self._member_finder(grid)
        # a node's weight on the n = 3 grid, by theta row: grid.node_weights' bits
        row_weights = grid.axis_weights[0] * grid.phi_weight if n == 3 else None

        def integrand(u, grad2, lap, cubic):
            if u.size and np.min(1.0 + u) <= 0.0:
                raise ValueError("profile violates 1 + u > 0: not star-shaped")
            H = mean_curvature_from_scalars(u, grad2, lap, cubic, n)
            return H, area_jacobian(u, grad2, n)

        total, inside, count = 0.0, 0.0, 0
        # a block's arrays stay bound until the next block has made its own,
        # which keeps their pages mapped: freeing them first (a helper per
        # block) took four times the minor page faults of a kappa = 40 pass
        for start in range(0, N, _GRID_BLOCK):
            stop = min(start + _GRID_BLOCK, N)
            idx, row, _, _, d = members(start, stop)
            w = grid.node_weights(idx) if row is None else row_weights[row]
            H, J = integrand(*self._invariants(d, n))
            # summed in node order: one bin per node of the block
            local = idx - start
            total += float(np.bincount(local, w * H * J, stop - start).sum())
            inside += float(np.bincount(local, w, stop - start).sum())
            count += len(idx)
        if count < N:
            H, J = integrand(*(np.array([v]) for v in self.outside_invariants()))
            # a weight is its per-axis weights' product times 2 pi / (phi count)
            weight = 2.0 * np.pi * float(np.prod([np.sum(w) for w in grid.axis_weights]))
            total += float(H[0] * J[0]) * (weight - inside)
        return total


def zonal_field(jet, n: int = 3) -> GeodesicRadialField:
    """Global zonal profile V(theta) about the axis e_1, jet(theta) -> (V, V', V'')."""
    axis = np.zeros((1, n))
    axis[0, 0] = 1.0
    return GeodesicRadialField(axis, jet, support=np.pi + 1.0)
