"""File formats: field/domain/axial-profile JSON and OBJ mesh export.

Field files hold either spectral coefficients
{"n": ..., "L": ..., "coeffs": [{"l": ..., "m_index": ..., "value": ...}]}
or plain node values {"n": ..., "grid_resolution": ..., "values": [...]},
which are read on their own grid only.  A coefficient entry names the
degree l and the index m_index within it, and only nonzero entries are
written:
  n = 3 -- m_index enumerates [m = 0, cos 1, sin 1, ..., cos l, sin l],
           0..2l, the flat index l^2 + m_index (harmonics.flat_index);
  n = 2 -- the Fourier basis: m_index 0 for l = 0 (the constant), and 1
           (cos l phi) or 2 (sin l phi) for l >= 1, the flat indices 0,
           then 2l - 1 and 2l (fields.fourier_synthesize).
Domain files add an optional "center".  Field and domain files are read
for n = 2 and 3, where a field has spectral coefficients; axial
profiles, the files of n >= 4 domains, hold {"n", "theta_nodes",
"values"} or {"n", "zonal_coeffs"}.  A file with a nan or an infinite
number, an empty zonal profile, or lists of mismatched lengths is
refused with a ValueError that names it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from quermass import fields, harmonics
from quermass.axisym import AxialProfile
from quermass.fields import ScalarField
from quermass.grids import build_grid
from quermass.stardomain import StarDomain


def _coefficient_slots(n: int, L: int) -> dict:
    """{(l, m_index): flat index} of the n = 2 or 3 coefficient layout."""
    if n == 3:
        return {(l, m_index): harmonics.flat_index(l, m_index)
                for l in range(L + 1) for m_index in range(2 * l + 1)}
    slots = {(0, 0): 0}
    for l in range(1, L + 1):
        slots[l, 1], slots[l, 2] = 2 * l - 1, 2 * l
    return slots


def _finite(path, key: str, numbers, empty: bool = False) -> np.ndarray:
    """The file's numbers under key as floats; ValueError naming the file
    when one is nan or infinite, or when there are none and empty is False."""
    a = np.asarray(numbers, dtype=float)
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"{path}: {key} entry {bad[0]} is {a.flat[bad[0]]}, "
                         "not a finite number")
    if not (a.size or empty):
        raise ValueError(f"{path}: {key} is empty")
    return a


def save_field(f: ScalarField, path, as_values: bool = False) -> Path:
    path = Path(path)
    if f.coeffs is not None and not as_values:
        L = f.truncation
        entries = [{"l": l, "m_index": m_index, "value": float(f.coeffs[k])}
                   for (l, m_index), k in _coefficient_slots(f.n, L).items()
                   if f.coeffs[k] != 0.0]
        payload = {"n": f.n, "L": L, "coeffs": entries}
    else:
        payload = {"n": f.n, "grid_resolution": f.grid.resolution,
                   "values": [float(v) for v in f.values]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path


def load_field(path, grid=None, resolution: int | None = None) -> ScalarField:
    payload = json.loads(Path(path).read_text())
    n = int(payload["n"])
    if n not in (2, 3):
        raise ValueError(
            f"{path} holds a field of n = {n}; field and domain files are read for "
            f"n = 2 and 3, and a domain of n >= 4 from an axial-profile file "
            f"(\"zonal_coeffs\", or \"theta_nodes\" and \"values\")")
    if "coeffs" in payload:
        L = int(payload["L"])
        if grid is None:
            grid = build_grid(n, resolution if resolution else max(32, L + 1))
        slots = _coefficient_slots(n, L)
        coeffs = np.zeros(len(slots))
        values = _finite(path, "coeffs value", [e["value"] for e in payload["coeffs"]],
                         empty=True)
        for entry, value in zip(payload["coeffs"], values):
            key = int(entry["l"]), int(entry["m_index"])
            if key not in slots:
                raise ValueError(f"{path}: no coefficient (l, m_index) = {key} "
                                 f"in the n = {n} layout of degree L = {L}")
            coeffs[slots[key]] = value
        return fields.synthesize(coeffs, grid)
    res = int(payload["grid_resolution"])
    if resolution is not None and resolution != res:
        raise ValueError(f"{path} holds node values on a grid of resolution {res}; "
                         f"they cannot be read at resolution {resolution}")
    if grid is None:
        grid = build_grid(n, res)
    values = _finite(path, "values", payload["values"])
    if len(values) != grid.num_nodes:
        raise ValueError(f"{path} holds {len(values)} node values; the grid of "
                         f"resolution {grid.resolution} has {grid.num_nodes} nodes")
    return fields.analyze(ScalarField(grid, values))


def save_domain(K: StarDomain, path) -> Path:
    path = Path(path)
    payload = json.loads(save_field(K.profile, path).read_text())
    payload["center"] = [float(c) for c in K.center]
    path.write_text(json.dumps(payload))
    return path


def load_domain(path, grid=None, resolution: int | None = None) -> StarDomain:
    payload = json.loads(Path(path).read_text())
    f = load_field(path, grid=grid, resolution=resolution)
    center = payload.get("center")
    return StarDomain(f, center=None if center is None else _finite(path, "center", center))


def save_axial_profile(prof: AxialProfile, path, as_values: bool = False) -> Path:
    path = Path(path)
    if prof.coeffs is not None and not as_values:
        payload = {"n": prof.n, "zonal_coeffs": [float(c) for c in prof.coeffs]}
    else:
        theta = prof.theta
        payload = {"n": prof.n, "theta_nodes": [float(t) for t in theta],
                   "values": [float(v) for v in prof.value(theta)]}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path


def load_axial_profile(path, resolution: int | None = None) -> AxialProfile:
    """The profile of an axial-profile file, its Gauss-Jacobi rule of
    resolution nodes (AxialProfile's default when None)."""
    payload = json.loads(Path(path).read_text())
    n = int(payload["n"])
    rule = {} if resolution is None else {"resolution": resolution}
    if "zonal_coeffs" in payload:
        return AxialProfile.from_zonal_coeffs(
            n, _finite(path, "zonal_coeffs", payload["zonal_coeffs"]), **rule)
    theta, values = (_finite(path, key, payload[key]) for key in ("theta_nodes", "values"))
    try:
        return AxialProfile.from_values(n, theta, values, **rule)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def export_obj(K: StarDomain, path) -> Path:
    """Wavefront OBJ of the boundary graph (n = 3 only).

    Vertices follow grid order (polar-major), plus two pole vertices;
    quads are split into triangles with a fixed diagonal; per-vertex
    mean curvature goes into a comment block.
    """
    if K.n != 3:
        raise ValueError("mesh export is defined for n = 3")
    grid = K.grid
    n_theta, n_phi = grid.shape
    pts = K.boundary_points()
    bundle = K.curvatures(check_routes=False)
    H = bundle.H

    # pole radii: evaluate the profile on the axis
    rho = K._radius_evaluator()
    poles = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    r_pole = rho(poles)
    north = poles[0] * r_pole[0]
    south = poles[1] * r_pole[1]

    lines = ["# star-shaped boundary mesh",
             f"# grid resolution {grid.resolution}",
             "# per-vertex mean curvature:"]
    for i, h in enumerate(H):
        lines.append(f"# H {i + 1} {h:.17g}")
    ring_mean = H.reshape(n_theta, n_phi).mean(axis=1)
    lines.append(f"# H {len(H) + 1} {ring_mean[-1]:.17g}")
    lines.append(f"# H {len(H) + 2} {ring_mean[0]:.17g}")

    for p in pts:
        lines.append(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    lines.append(f"v {north[0]:.17g} {north[1]:.17g} {north[2]:.17g}")
    lines.append(f"v {south[0]:.17g} {south[1]:.17g} {south[2]:.17g}")

    def vid(i, j):
        return i * n_phi + (j % n_phi) + 1

    for i in range(n_theta - 1):
        for j in range(n_phi):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    north_id, south_id = n_theta * n_phi + 1, n_theta * n_phi + 2
    # theta decreases with row index (nodes are arccos of ascending t),
    # so the last row rings the north pole (x1 = +1)
    for j in range(n_phi):
        lines.append(f"f {vid(n_theta - 1, j)} {north_id} {vid(n_theta - 1, j + 1)}")
        lines.append(f"f {vid(0, j)} {vid(0, j + 1)} {south_id}")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path
