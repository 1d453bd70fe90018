"""Numerical laboratory for curvature functionals of near-ball domains.

The package evaluates the geometric functionals of star-shaped domains
(1+u(x))x over the unit sphere - volume, perimeter, shape operator,
mean-curvature integrals - and uses them to test Minkowski-type deficit
inequalities, the high-frequency estimates behind them, a dented-sphere
construction with arbitrarily negative total mean curvature, and an
open gradient-energy inequality.
"""

from quermass.fields import ScalarField, analyze, gradient, laplacian, synthesize, split_frequencies
from quermass.grids import SphericalGrid, build_grid, quadrature, sphere_area, ball_volume
from quermass.harmonics import ZonalBasis
from quermass.stardomain import CurvatureBundle, Functionals, StarDomain
from quermass.axisym import AxialDomain, AxialProfile
from quermass.reporting import DeficitReport

__all__ = [
    "AxialDomain",
    "AxialProfile",
    "CurvatureBundle",
    "DeficitReport",
    "Functionals",
    "ScalarField",
    "SphericalGrid",
    "StarDomain",
    "ZonalBasis",
    "analyze",
    "ball_volume",
    "build_grid",
    "gradient",
    "laplacian",
    "quadrature",
    "sphere_area",
    "split_frequencies",
    "synthesize",
]
