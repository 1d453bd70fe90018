"""Scalar fields on S^{n-1} and their covariant derivatives.

A field holds node values on a grid, optionally spectral coefficients
(n = 3 full basis, n = 2 Fourier), optionally an analytic derivative
provider.  Derivatives are exact: from the provider when one is
attached, from the coefficients otherwise.  A field with values only
has no derivatives; analyze() gives it coefficients.

Gradients are returned either as ambient tangent vectors (N, n) or as
components in the per-node orthonormal chart frame (N, n-1); Hessians
are symmetric (n-1) x (n-1) matrices in that frame.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from quermass import harmonics
from quermass.grids import SphericalGrid, tangent_frames


@dataclasses.dataclass
class ScalarField:
    """A function on the sphere: node values plus optional spectra."""

    grid: SphericalGrid
    values: np.ndarray
    coeffs: np.ndarray | None = None
    truncation: int | None = None
    analytic: object | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.num_nodes,):
            raise ValueError("values do not match the grid")

    @property
    def n(self) -> int:
        return self.grid.n


def constant_field(grid: SphericalGrid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.num_nodes, float(value)))


# -- per-node chart helper arrays -------------------------------------------

def node_angles(grid: SphericalGrid) -> tuple:
    """Per-node (sin(theta_1), cos(theta_1)) arrays for the n = 3 chart."""
    def build():
        shape = grid.shape
        theta = grid.angles[0]
        th = np.broadcast_to(theta[:, None], shape).ravel()
        return np.sin(th), np.cos(th)
    return grid.cache("polar_sin_cos", build)


# -- transforms --------------------------------------------------------------

def fourier_synthesize(grid, coeffs: np.ndarray, dphi: int = 0) -> np.ndarray:
    """n = 2: node values (or the dphi-th derivative) of (..., 2L+1) coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    L = (coeffs.shape[-1] - 1) // 2
    m_phi = grid.num_nodes
    F = np.zeros(coeffs.shape[:-1] + (m_phi // 2 + 1,), dtype=complex)
    if dphi == 0:
        F[..., 0] = coeffs[..., 0] / math.sqrt(2.0 * math.pi) * m_phi
    m = np.arange(1, L + 1)
    sq = 1.0 / math.sqrt(math.pi)
    pc, ps = coeffs[..., 1::2] * sq, coeffs[..., 2::2] * sq
    if dphi == 1:
        pc, ps = m * ps, -m * pc
    elif dphi == 2:
        pc, ps = -(m * m) * pc, -(m * m) * ps
    F[..., 1:L + 1] = (pc - 1j * ps) * (m_phi / 2.0)
    return np.fft.irfft(F, n=m_phi, axis=-1)


def fourier_analyze(grid, values: np.ndarray, L: int) -> np.ndarray:
    """n = 2: (..., 2L+1) Fourier coefficients of (..., N) node values."""
    m_phi = grid.num_nodes
    A = np.fft.rfft(values, axis=-1)[..., :L + 1]
    coeffs = np.empty(A.shape[:-1] + (2 * L + 1,))
    coeffs[..., 0] = A[..., 0].real / m_phi * math.sqrt(2.0 * math.pi)
    coeffs[..., 1::2] = 2.0 * A[..., 1:].real / m_phi * math.sqrt(math.pi)
    coeffs[..., 2::2] = -2.0 * A[..., 1:].imag / m_phi * math.sqrt(math.pi)
    return coeffs


def analyze(f: ScalarField, L: int | None = None) -> ScalarField:
    """Attach spectral coefficients up to degree L (defaults to grid max)."""
    grid = f.grid
    if L is None:
        L = grid.max_degree
    if L > grid.max_degree:
        raise ValueError(f"L={L} exceeds grid capability {grid.max_degree}")
    if grid.n == 3:
        coeffs = harmonics.sh_analyze(grid, f.values, L)
    elif grid.n == 2:
        coeffs = fourier_analyze(grid, f.values, L)
    else:
        raise ValueError(
            "spectral analysis on the full grid is implemented for n in {2, 3}; "
            "use the zonal machinery for higher dimensions"
        )
    return ScalarField(grid, f.values, coeffs=coeffs, truncation=L,
                       analytic=f.analytic)


def synthesize(coeffs: np.ndarray, grid: SphericalGrid) -> ScalarField:
    """Node values of a coefficient vector."""
    coeffs = np.asarray(coeffs, dtype=float)
    if grid.n == 3:
        values = harmonics.sh_synthesize(grid, coeffs)
        L = int(round(math.sqrt(coeffs.shape[0]))) - 1
    elif grid.n == 2:
        L = (coeffs.shape[0] - 1) // 2
        if L > grid.max_degree:
            raise ValueError(f"truncation L={L} exceeds grid capability {grid.max_degree}")
        values = fourier_synthesize(grid, coeffs)
    else:
        raise ValueError("synthesis on the full grid requires n in {2, 3}")
    return ScalarField(grid, values, coeffs=coeffs, truncation=L)


def degree_eigenvalues(f: ScalarField) -> np.ndarray:
    """Eigenvalue of -Laplace for each flat coefficient index."""
    n, K = f.n, f.coeffs.shape[0]
    if n == 3:
        l = harmonics.degree_of_index(int(round(math.sqrt(K))) - 1)
    else:
        m = np.arange(K)
        l = (m + 1) // 2
    return l * (l + n - 2.0)


def split_frequencies(f: ScalarField, lam: float) -> tuple[ScalarField, ScalarField]:
    """Split into eigenspace components below / at-or-above the cutoff."""
    if lam <= 0:
        raise ValueError("frequency cutoff must be positive")
    if f.coeffs is None:
        raise ValueError("field must be analyzed before splitting")
    ev = degree_eigenvalues(f)
    low = np.where(ev < lam, f.coeffs, 0.0)
    high = np.where(ev >= lam, f.coeffs, 0.0)
    return synthesize(low, f.grid), synthesize(high, f.grid)


# -- derivative dispatch ------------------------------------------------------

def _coefficients(f: ScalarField) -> np.ndarray:
    if f.coeffs is None:
        raise ValueError("a field with values only has no derivatives: give it "
                         "coefficients with fields.analyze, or an analytic provider")
    return f.coeffs


def _spectral_derivatives(f: ScalarField, second: bool):
    """Chart derivatives from the coefficients, keyed u, t, p, tt, tp, pp (n = 2: p, pp)."""
    grid = f.grid
    c = _coefficients(f)
    if grid.n == 3:
        keys = ("u", "t", "p", "tt", "tp", "pp")
        return dict(zip(keys, harmonics.sh_chart_derivatives(grid, c, second)))
    d = {"p": fourier_synthesize(grid, c, 1)}
    if second:
        d["pp"] = fourier_synthesize(grid, c, 2)
    return d


def grad_frame(f: ScalarField) -> np.ndarray:
    """Gradient components in the orthonormal chart frame, (N, n-1)."""
    if f.analytic is not None:
        return f.analytic.grad_frame(f.grid)
    d = _spectral_derivatives(f, second=False)
    if f.n == 2:
        return d["p"][:, None]
    s, _ = node_angles(f.grid)
    return np.stack([d["t"], d["p"] / s], axis=1)


def gradient(f: ScalarField) -> np.ndarray:
    """Ambient tangential gradient vectors, (N, n)."""
    frames = tangent_frames(f.grid)
    comp = grad_frame(f)
    return np.einsum("ik,ikj->ij", comp, frames)


def hessian_frame(f: ScalarField) -> np.ndarray:
    """Covariant Hessian in the orthonormal chart frame, (N, n-1, n-1)."""
    if f.analytic is not None:
        return f.analytic.hessian_frame(f.grid)
    d = _spectral_derivatives(f, second=True)
    if f.n == 2:
        return d["pp"][:, None, None]
    s, c = node_angles(f.grid)
    h = np.empty((f.grid.num_nodes, 2, 2))
    h[:, 0, 0] = d["tt"]
    h[:, 0, 1] = h[:, 1, 0] = d["tp"] / s - c * d["p"] / s**2
    h[:, 1, 1] = d["pp"] / s**2 + c / s * d["t"]
    return h


def laplacian(f: ScalarField) -> ScalarField:
    """Laplace-Beltrami of the field: the exact eigenvalue action on the
    coefficients, or the analytic provider's."""
    if f.analytic is not None and f.coeffs is None:
        return ScalarField(f.grid, f.analytic.laplacian(f.grid))
    c = _coefficients(f)
    return synthesize(-degree_eigenvalues(f) * c, f.grid)


def random_zonal_coeffs(L: int, rng: np.random.Generator) -> np.ndarray:
    """Random zonal coefficients of degrees 1..L: c[l] = N(0, 1) l^-2, c[0] = 0."""
    c = np.zeros(L + 1)
    for l in range(1, L + 1):
        c[l] = rng.standard_normal() * l**-2.0
    return c


def random_band_limited(grid: SphericalGrid, L: int, rng: np.random.Generator) -> ScalarField:
    """Random smooth field of degrees 1..L: per-degree coefficient variance l^-4."""
    if grid.n != 3:
        raise ValueError("random full-basis fields are built for n = 3")
    coeffs = np.zeros(harmonics.coeff_count(L))
    for l in range(1, L + 1):
        block = rng.standard_normal(2 * l + 1) * (l ** -2.0)
        coeffs[l * l:(l + 1) ** 2] = block
    return synthesize(coeffs, grid)
