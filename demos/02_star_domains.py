"""Star-shaped domains: functionals, curvature, and mesh export.

Run:  python3 demos/02_star_domains.py
"""

import math

import numpy as np

from quermass import StarDomain, analyze, build_grid
from quermass.fields import ScalarField, constant_field, random_band_limited
from quermass.io import export_obj
from quermass.stardomain import fields_affine

grid = build_grid(3, 32)

print("== the unit ball ==")
K = StarDomain(analyze(constant_field(grid, 0.0), L=4))
F = K.curvature_integrals()
print(f"  |K| = {F.volume:.12f}  (4pi/3 = {4 * math.pi / 3:.12f})")
print(f"  Per = {F.perimeter:.12f}  int H = {F.int_H:.12f}  int sigma_2 = {F.int_sigma[1]:.12f}")

print("\n== a ball that forgot to be centered ==")
t = 0.1
x1 = grid.nodes[:, 0]
prof = ScalarField(grid, t * x1 + np.sqrt(1 - t * t + t * t * x1 ** 2) - 1.0)
Kt = StarDomain(analyze(prof))
b = Kt.curvatures(check_routes=False)
print(f"  principal curvatures all 1: max deviation {np.max(np.abs(b.II_eigenvalues - 1)):.2e}")
eps, center = Kt.eps_size()
print(f"  eps-size {eps:.2e} at optimized center ({center[0]:.4f}, {center[1]:.1e}, {center[2]:.1e})")

print("\n== a random near-ball domain ==")
rng = np.random.default_rng(7)
u = random_band_limited(grid, 8, rng)
u = fields_affine(u, 0.08 / np.max(np.abs(u.values)), 0.0)
Kr = StarDomain(u)
import warnings
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    br = Kr.curvatures()  # includes the divergence-route diagnostic
print(f"  divergence-route diagnostic: {br.max_route_disagreement:.2e} "
      "(decays spectrally with resolution)")
Fr = Kr.curvature_integrals()
print(f"  int ||II||_1 = {Fr.int_nuclear:.6f} >= |int H| = {abs(Fr.int_H):.6f}")
rep = Kr.gradient_normal_report()
print(f"  gradient/normal-deviation ratios within bound: {rep['within_bound']}")

path = export_obj(Kr, "quermass-out/random_domain.obj")
print(f"  wrote mesh {path}")
