"""Real spherical-harmonic bases.

n = 3 gets the full real basis Y_{l,m} built from fully-normalized
associated Legendre functions (stable three-term recurrences, no
Condon-Shortley phase).  General n >= 3 gets the zonal (Gegenbauer)
basis for fields depending only on the polar angle.  Basis functions
are unit-normalized against the surface measure.

The n = 3 transforms are separable.  One batched matmul against the
Legendre tables sums over the degree l for every order m at once; the
phi stage is one real matmul against a cached cos/sin table at low
degree, and an FFT above the crossover DENSE_PHI_ROWS.
"""

from __future__ import annotations

import math

import numpy as np

from quermass.grids import sphere_area


def multiplicity(l: int, n: int) -> int:
    """Dimension of the degree-l harmonic eigenspace on S^{n-1}.

    Homogeneous degree-l polynomials minus the degree l-2 ones.
    """
    if l == 0:
        return 1
    if n == 2:
        return 2
    lower = math.comb(n + l - 3, l - 2) if l >= 2 else 0
    return math.comb(n + l - 1, l) - lower


# ---------------------------------------------------------------------------
# n = 3: fully-normalized associated Legendre tables
# ---------------------------------------------------------------------------

def legendre_tables(L: int, t: np.ndarray, derivatives: int = 2):
    """Normalized associated Legendre values and theta-derivatives.

    Returns (Q, dQ, d2Q), each of shape (L+1, L+1, len(t)) with entry
    [l, m] the function N_l^m P_l^m(t); entries with m > l are zero.
    Normalization: 2*pi * integral of Q_{l,m}^2 dt = 1, so that the real
    basis built below is orthonormal on S^2.

    One pass over the degree l fills row l of every table, vectorized over
    m <= l; temporaries stay one row in size, so the peak memory is the
    three tables themselves.

    Requires |t| < 1 (the Gauss nodes exclude the poles).
    """
    t = np.asarray(t, dtype=float)
    s = np.sqrt(1.0 - t * t)
    cot = t / s
    Q = np.zeros((L + 1, L + 1, t.shape[0]))
    dQ = np.zeros_like(Q) if derivatives >= 1 else None
    d2Q = np.zeros_like(Q) if derivatives >= 2 else None
    Q[0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for l in range(L + 1):
        if l >= 1:
            Q[l, l] = Q[l - 1, l - 1] * s * math.sqrt((2 * l + 1) / (2.0 * l))
            Q[l, l - 1] = Q[l - 1, l - 1] * t * math.sqrt(2 * (l - 1) + 3.0)
        if l >= 2:
            m = np.arange(l - 1)
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
            a_prev = np.sqrt((4.0 * (l - 1) ** 2 - 1.0) / ((l - 1) ** 2 - m * m))[:, None]
            Q[l, :l - 1] = a * (t * Q[l - 1, :l - 1] - Q[l - 2, :l - 1] / a_prev)
        if dQ is None:
            continue
        m = np.arange(l + 1)
        row = Q[l, :l + 1]
        # b Q[l-1, m] for m < l; the m = l term is exactly 0.0 * 0.0
        b = np.zeros(l + 1)
        b[:l] = np.sqrt((l * l - m[:l] * m[:l]) * (2.0 * l + 1.0) / (2.0 * l - 1.0))
        low = Q[l - 1, :l + 1] if l else np.zeros_like(row)
        dQ[l, :l + 1] = (l * t * row - b[:, None] * low) / s
        if d2Q is not None:
            # second derivative from the associated Legendre ODE
            d2Q[l, :l + 1] = (-cot * dQ[l, :l + 1]
                              - (l * (l + 1.0) - (m * m)[:, None] / (s * s)) * row)
    return Q, dQ, d2Q


def coeff_count(L: int) -> int:
    return (L + 1) ** 2


def degree_of_index(L: int) -> np.ndarray:
    """Degree l of each flat coefficient index (n = 3 layout)."""
    idx = np.arange(coeff_count(L))
    return np.floor(np.sqrt(idx)).astype(int)


def flat_index(l: int, m_index: int) -> int:
    """Flat position of (degree l, within-degree index m_index).

    m_index enumerates [m=0, cos 1, sin 1, ..., cos l, sin l], 0..2l.
    """
    if not 0 <= m_index <= 2 * l:
        raise ValueError(f"m_index {m_index} out of range for degree {l}")
    return l * l + m_index


def _order_layout(L: int) -> np.ndarray:
    """Flat coefficient index at each (m, l, cos/sin) slot.

    The (L+1, L+1, 2) array pairs with the table view Q.transpose(1, 0, 2)
    = (m, l, theta).  Slots without a coefficient (l < m, and the sine of
    m = 0) hold (L+1)^2, the index of an appended zero.
    """
    K = coeff_count(L)
    m = np.arange(L + 1)[:, None]
    l = np.arange(L + 1)[None, :]
    cos = np.where(l >= m, l * l + np.maximum(2 * m - 1, 0), K)
    sin = np.where((l >= m) & (m > 0), l * l + 2 * m, K)
    return np.stack([cos, sin], axis=-1)


# The phi stage runs as one real matmul against cached cos/sin tables up
# to this many table rows, 2(L+1), and as an rfft/irfft above it.  From
# the timing table in CHANGES.md (whole transforms, 2 cores, BLAS on one
# thread): a batched chart pass plus a 4-field analysis, the shape of an
# ascent step, costs the same both ways near L = 34-40 for m_phi from 64
# to 512, and the FFT wins from L = 48; the rule therefore reads L only.
# Synthesis alone stays faster dense beyond it, analysis alone turns
# earlier (L = 20-30) when m_phi >= 128.
DENSE_PHI_ROWS = 70


def sh_tables_for_grid(grid, L: int):
    """Legendre tables and transform constants at the grid, cached on it.

    "gather" maps the flat coefficients (plus an appended zero) to the
    (m, l, cos/sin) slots of the batched matmul, "scatter" maps those
    slots back to the flat order, and "an_weights" scales the per-order
    analysis sums.  On the dense side of DENSE_PHI_ROWS, "phi" holds the
    (m, cos/sin) x phi table [s_m cos m phi; s_m sin m phi] (s_0 = 1,
    s_m = sqrt 2), read by both directions; above it the phi stage is an
    FFT, there is no table, and "synth_scale" turns the per-order sums
    into Fourier amplitudes.
    """
    if grid.n != 3:
        raise ValueError("full spherical-harmonic stack is built for n = 3 only")
    if L > grid.max_degree:
        raise ValueError(
            f"truncation L={L} exceeds grid capability {grid.max_degree}"
        )

    def build():
        Q, dQ, d2Q = legendre_tables(L, grid.axis_nodes[0])
        slots = _order_layout(L).ravel()
        scatter = np.empty(coeff_count(L), dtype=int)
        used = slots < coeff_count(L)
        scatter[slots[used]] = np.flatnonzero(used)
        m = np.arange(L + 1)
        m_phi = len(grid.angles[1])
        s = np.where(m == 0, 1.0, _SQRT2)
        data = {"tables": (Q, dQ, d2Q), "gather": slots, "scatter": scatter,
                "m": m[:, None, None].astype(float)}
        if 2 * (L + 1) <= DENSE_PHI_ROWS:
            # m phi reduced mod 2 pi exactly, as an integer multiple of 2 pi / m_phi
            angle = 2.0 * math.pi / m_phi * ((m[:, None] * np.arange(m_phi)) % m_phi)
            data["phi"] = (s[:, None, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
                           ).reshape(2 * (L + 1), m_phi)
            # analysis: the table's s_m times 2 pi / m_phi, times the polar weights
            data["an_weights"] = (2.0 * math.pi / m_phi) * grid.axis_weights[0][None, :]
        else:
            # synthesis: Fourier amplitude of a unit (cos, sin) pair is sqrt2 m_phi / 2
            data["synth_scale"] = s * np.where(m == 0, m_phi, m_phi / 2.0)
            # analysis: (cos, sin) coefficient from Re, -Im of the rfft, times
            # the polar weights
            an_scale = np.where(m == 0, 2.0 * math.pi, 2.0 * _SQRT2 * math.pi) / m_phi
            data["an_weights"] = an_scale[:, None] * grid.axis_weights[0][None, :]
        return data

    return grid.cache(("sh", L), build)


_SQRT2 = math.sqrt(2.0)


def _coeff_shape(coeffs: np.ndarray) -> tuple:
    """(batch shape, L) of a (..., (L+1)^2) coefficient array."""
    K = coeffs.shape[-1]
    L = int(round(math.sqrt(K))) - 1
    if coeff_count(L) != K:
        raise ValueError("coefficient vector length is not a perfect square")
    return coeffs.shape[:-1], L


def _order_sums(data, coeffs: np.ndarray, tables) -> np.ndarray:
    """Per-order Legendre sums, one batched matmul per table.

    coeffs is (B, K); returns the (F, m, cos/sin, B, theta) real array
    whose slots [f, m] hold the sums over l of the cos and sin
    coefficients of order m times tables[f][l, m], times synth_scale
    above the crossover (below it the cos/sin table holds the scale).
    """
    B = coeffs.shape[0]
    padded = np.concatenate([coeffs, np.zeros((B, 1))], axis=1)
    L1, _, n_theta = data["tables"][0].shape
    P = padded.T[data["gather"]].reshape(L1, L1, 2 * B)   # (m, l, cos/sin x B)
    P = P.transpose(0, 2, 1)                                # (m, 2B, l)
    out = np.empty((len(tables), L1, 2, B, n_theta))
    for T, o in zip(tables, out):
        np.matmul(P, T.transpose(1, 0, 2), out=o.reshape(L1, 2 * B, n_theta))
    if "synth_scale" in data:
        out *= data["synth_scale"][:, None, None, None]
    return out


def _phi_derivative(m, sums: np.ndarray, out: np.ndarray) -> None:
    """(pc, ps) of order m -> those of d/dphi: (m ps, -m pc)."""
    np.multiply(m, sums[:, 1], out=out[:, 0])
    np.multiply(-m, sums[:, 0], out=out[:, 1])


def _to_nodes(grid, data, spectra: np.ndarray) -> np.ndarray:
    """(F, m, cos/sin, B, theta) order sums -> (F, B, N) node values.

    One matmul against the cached cos/sin table, or one stacked irfft of
    pc - i ps above the crossover.
    """
    F, L1, _, B, n_theta = spectra.shape
    if "phi" in data:
        out = np.matmul(spectra.reshape(F, 2 * L1, -1).transpose(0, 2, 1), data["phi"])
        return out.reshape(F, B, -1)
    m_phi = len(grid.angles[1])
    full = np.zeros((F, B, n_theta, m_phi // 2 + 1), dtype=complex)
    full.real[..., :L1] = spectra[:, :, 0].transpose(0, 2, 3, 1)
    full.imag[..., :L1] = -spectra[:, :, 1].transpose(0, 2, 3, 1)
    return np.fft.irfft(full, n=m_phi, axis=-1).reshape(F, B, -1)


def sh_synthesize(grid, coeffs: np.ndarray) -> np.ndarray:
    """Evaluate coefficients at the grid nodes.

    coeffs is (K,) or (..., K) with K = (L+1)^2.  Returns (N,) or (..., N)
    node values; sh_chart_derivatives gives the chart derivatives.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    batch, L = _coeff_shape(coeffs)
    data = sh_tables_for_grid(grid, L)
    sums = _order_sums(data, coeffs.reshape(-1, coeffs.shape[-1]), data["tables"][:1])
    return _to_nodes(grid, data, sums)[0].reshape(batch + (-1,))


def sh_chart_derivatives(grid, coeffs: np.ndarray, second: bool) -> np.ndarray:
    """Node values and chart derivatives of coefficients, from one pass.

    Returns the stacked (u, u_theta, u_phi) -- plus (u_thetatheta,
    u_thetaphi, u_phiphi) when second -- shaped (3 or 6, ..., N) for
    coeffs of shape (..., K): one contraction per Legendre table, the
    phi derivatives taken on the order sums, and one phi stage for all.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    batch, L = _coeff_shape(coeffs)
    data = sh_tables_for_grid(grid, L)
    m = data["m"]
    flat = coeffs.reshape(-1, coeffs.shape[-1])
    sums = _order_sums(data, flat, data["tables"][:3 if second else 2])
    spectra = np.empty((6 if second else 3,) + sums.shape[1:])
    spectra[:2] = sums[:2]
    _phi_derivative(m, sums[0], spectra[2])
    if second:
        spectra[3] = sums[2]
        _phi_derivative(m, sums[1], spectra[4])
        np.multiply(-(m * m)[:, None], sums[0], out=spectra[5])
    out = _to_nodes(grid, data, spectra)
    return out.reshape((out.shape[0],) + batch + (-1,))


def sh_analyze(grid, values: np.ndarray, L: int) -> np.ndarray:
    """Forward transform: flat coefficients from node values.

    values is (N,) or (..., N); returns (K,) or (..., K).  The phi stage
    (a matmul against the cos/sin table, or an rfft above the crossover)
    gives the (cos, sin) sums of each order, the weights scale them and
    one batched matmul against the Legendre table sums over theta.
    """
    data = sh_tables_for_grid(grid, L)
    Q = data["tables"][0]
    values = np.asarray(values, dtype=float)
    batch = values.shape[:-1]
    n_theta = len(grid.axis_nodes[0])
    m_phi = len(grid.angles[1])
    rows = values.reshape(-1, m_phi)
    B = rows.shape[0] // n_theta
    if "phi" in data:
        X = np.matmul(rows, data["phi"].T)
    else:
        # Re and -Im of the rfft: the cos and sin sums of each order
        X = np.conj(np.fft.rfft(rows, axis=-1)[:, :L + 1]).view(float)
    G = np.empty((L + 1, n_theta, 2, B))                  # (m, theta, cos/sin, B)
    np.multiply(data["an_weights"][:, :, None, None],
                X.reshape(B, n_theta, L + 1, 2).transpose(2, 1, 3, 0), out=G)
    R = np.matmul(Q.transpose(1, 0, 2), G.reshape(L + 1, n_theta, 2 * B))   # (m, l, 2B)
    coeffs = R.reshape(-1, B)[data["scatter"]]           # (K, B)
    return coeffs.T.reshape(batch + (-1,))


def sh_values_at_points(coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate an n=3 coefficient vector at arbitrary unit vectors.

    Used for off-grid needs (rotating a profile, re-centering a domain).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    _, L = _coeff_shape(coeffs)
    pts = np.asarray(points, dtype=float)
    phi = np.arctan2(pts[:, 2], pts[:, 1])
    # guard the poles: Legendre recurrences divide by sin(theta) only in
    # derivative tables, values are safe, but keep |t| slightly inside.
    t = np.clip(pts[:, 0], -1.0 + 1e-15, 1.0 - 1e-15)
    Q, _, _ = legendre_tables(L, t, derivatives=0)
    P = np.append(coeffs, 0.0)[_order_layout(L)]          # (m, l, cos/sin)
    S = np.matmul(P.transpose(0, 2, 1), Q.transpose(1, 0, 2))   # (m, cos/sin, point)
    m = np.arange(L + 1)[:, None]
    scale = np.where(m == 0, 1.0, _SQRT2)
    return np.sum(scale * (S[:, 0] * np.cos(m * phi) + S[:, 1] * np.sin(m * phi)), axis=0)


# ---------------------------------------------------------------------------
# general n: zonal (Gegenbauer) basis
# ---------------------------------------------------------------------------

class ZonalBasis:
    """Orthonormal zonal harmonics Z_l(t), t = cos(theta), on S^{n-1}.

    Z_l(x . axis) is the unit-normalized degree-l zonal harmonic; the
    basis diagonalizes the Laplace-Beltrami operator on zonal fields
    with eigenvalues l(l+n-2).
    """

    def __init__(self, n: int, L: int):
        if n < 3:
            raise ValueError("zonal basis requires n >= 3")
        self.n = n
        self.L = L
        self.alpha = (n - 2) / 2.0
        l = np.arange(L + 1)
        # squared L^2([-1,1], (1-t^2)^{alpha-1/2}) norm of C_l^{(alpha)}
        a = self.alpha
        log_h = (
            math.log(math.pi) + (1.0 - 2.0 * a) * math.log(2.0)
            + np.array([math.lgamma(k + 2.0 * a) - math.lgamma(k + 1.0)
                        for k in range(L + 1)])
            - np.log(l + a) - 2.0 * math.lgamma(a)
        )
        self.norms = np.sqrt(sphere_area(n - 1) * np.exp(log_h))
        self.eigenvalues = l * (l + n - 2.0)

    def values(self, t: np.ndarray, derivative: int = 0) -> np.ndarray:
        """Matrix Z^{(derivative)}_l(t), shape (L+1, len(t)), built afresh.

        derivative counts d/dt applications (not d/d(theta)), taken with
        d/dt C_l^(a) = 2a C_{l-1}^(a+1).  AxialProfile caches read-only
        tables on its fixed node sets (axisym._zonal_table), so there this
        runs once per (n, L, derivative) and node set.
        """
        if derivative not in (0, 1, 2):
            raise ValueError("derivative order must be 0, 1 or 2")
        t = np.asarray(t, dtype=float)
        a = self.alpha
        scale = math.prod(2.0 * (a + k) for k in range(derivative))
        out = np.zeros((self.L + 1, t.shape[0]))
        out[derivative:] = scale * _gegenbauer_table(self.L - derivative, a + derivative, t)
        return out / self.norms[:, None]


def _gegenbauer_table(L: int, a: float, t: np.ndarray) -> np.ndarray:
    """Rows C_0^(a)(t), ..., C_L^(a)(t) from the three-term recurrence.

    l C_l = 2(l+a-1) t C_{l-1} - (l+2a-2) C_{l-2}; shape (L+1, len(t)),
    no rows for L < 0.
    """
    C = np.empty((max(L + 1, 0), t.shape[0]))
    if L >= 0:
        C[0] = 1.0
    if L >= 1:
        C[1] = 2.0 * a * t
    for l in range(2, L + 1):
        C[l] = (2.0 * (l + a - 1.0) * t * C[l - 1] - (l + 2.0 * a - 2.0) * C[l - 2]) / l
    return C
