"""A C^1-small perturbation of the ball with very negative total curvature.

Dents of geodesic radius 1/kappa at ~kappa^{n-1} packed points each
remove a cubic-order amount of total mean curvature; the removal grows
linearly in kappa while the perturbation size stays fixed.  On S^3 the
dents are counted on latitude rings, never placed.

Run:  python3 demos/06_dented_sphere.py        (~10 seconds)
"""

import math

from quermass.counterexample import (
    affine_fit,
    find_negative_mean_curvature,
    make_bump,
    pack_points,
    radial_cubic_identity_check,
    sweep_total_mean_curvature,
)

print("== the dent profile ==")
bump = make_bump(kappa=20.0, eps=0.3)
print(f"  support radius 1/kappa = {bump.radius}")
print(f"  box constraints verified: {bump.validate()['ok']}")
rep = radial_cubic_identity_check(bump, n=3)
print(f"  flat radial identity (a = 1): difference {rep['difference']:.2e}")

print("\n== packing dent centers ==")
for kappa in (10.0, 20.0, 40.0):
    packed = pack_points(3, kappa)
    print(f"  kappa {kappa:>5}: {packed.count:>5} points, min distance "
          f"{packed.min_distance:.4f} >= {2 / kappa:.4f}, "
          f"c_pack = {packed.packing_constant:.3f}")

print("\n== total mean curvature along a kappa sweep (eps = 0.3) ==")
rows = sweep_total_mean_curvature(3, 0.3, (20.0, 40.0, 80.0), method="both")
for r in rows:
    print(f"  kappa {r['kappa']:>5}: int H = {r['int_H_zonal']:+.4f} "
          f"(grid route {r['int_H_grid']:+.4f}, gap {r['relative_gap']:.1e}); "
          f"eps-size {r['eps_size']:.3f}")
fit = affine_fit([r["kappa"] for r in rows], [r["int_H_zonal"] for r in rows])
print(f"  affine fit: slope {fit['slope']:.4e}, R^2 = {fit['r_squared']:.6f}")
print(f"  (round sphere value: {8 * math.pi:.4f})")

print("\n== doubling kappa until the total drops below -1 ==")
out = find_negative_mean_curvature(3, 0.3, kappa_start=320.0)
for rec in out["history"]:
    print(f"  kappa {rec['kappa']:>7.0f}: q = {rec['count']:>9}, "
          f"int H = {rec['int_H_zonal']:+9.3f}")
print(f"  threshold crossed at kappa* = {out['kappa_star']:.0f}")

print("\n== the same search on S^3 (n = 4, ring counts, eps = 0.3) ==")
out = find_negative_mean_curvature(4, 0.3, kappa_start=20.0)
for rec in out["history"]:
    print(f"  kappa {rec['kappa']:>7.0f}: q = {rec['count']:>14,}, "
          f"q/kappa^3 = {rec['packing_constant']:.3f}, int H = {rec['int_H_zonal']:+9.3f}")
print(f"  threshold crossed at kappa* = {out['kappa_star']:.0f}")
