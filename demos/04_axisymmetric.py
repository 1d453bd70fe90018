"""Axially symmetric domains: the 1-D pipeline and its 2-D cross-check.

Run:  python3 demos/04_axisymmetric.py
"""

import math

import numpy as np

from quermass import build_grid
from quermass.axisym import (
    AxialDomain,
    AxialProfile,
    axial_functionals,
    axial_minkowski_deficit,
    coarea_integral,
    lift_to_sphere,
    pole_gradient_bound,
)
from quermass.stardomain import StarDomain

print("== coarea reduction ==")
print(f"  area of S^2 : {coarea_integral(lambda th: np.ones_like(th), 3):.12f}")
print(f"  area of S^3 : {coarea_integral(lambda th: np.ones_like(th), 4):.12f} "
      f"(2 pi^2 = {2 * math.pi ** 2:.12f})")

print("\n== a zonal profile in n = 3, checked against the full 2-D pipeline ==")
rng = np.random.default_rng(3)
c = np.zeros(9)
c[1:] = rng.standard_normal(8) * np.arange(1, 9.0) ** -2
prof = AxialProfile.from_zonal_coeffs(3, c)
c *= 0.1 / prof.c1_norm()
prof = AxialProfile.from_zonal_coeffs(3, c)

F1 = axial_functionals(prof)
K = StarDomain(lift_to_sphere(prof, build_grid(3, 32)))
F2 = K.curvature_integrals()
for name in ("volume", "perimeter", "int_H", "int_H_plus", "int_nuclear"):
    a, b = getattr(F1, name), getattr(F2, name)
    print(f"  {name:<12} 1-D {a:+.10f}   2-D {b:+.10f}   rel diff {abs(a - b) / abs(a):.1e}")

print("\n== polar slope estimate ==")
rep = pole_gradient_bound(prof)
for c0, margins in rep["constants"].items():
    print(f"  constant {c0:>4}: worst margin "
          f"{min(margins['north_margin'], margins['south_margin']):+.4f}")
print(f"  (int of the negative mean-curvature part: {rep['int_H_minus']:.3e})")

print("\n== the axisymmetric deficit in n = 3, 4, 5 ==")
for n in (3, 4, 5):
    rng = np.random.default_rng(40 + n)
    c = np.zeros(7)
    c[1:] = rng.standard_normal(6) * np.arange(1, 7.0) ** -2
    p = AxialProfile.from_zonal_coeffs(n, c)
    p = AxialProfile.from_zonal_coeffs(n, c * (0.05 / p.c1_norm()))
    rep = axial_minkowski_deficit(AxialDomain(p))
    print(f"  n={n}: margin {rep.margin:+.4e} (eps-size {rep.eps_size:.3f})")
