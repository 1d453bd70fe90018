import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from quermass import fields, harmonics, io as qio
from quermass.axisym import AxialProfile
from quermass.fields import ScalarField
from quermass.grids import build_grid
from quermass.stardomain import StarDomain, fields_affine


@pytest.fixture(scope="module")
def grid():
    return build_grid(3, 32)


def test_field_coeff_roundtrip(grid, tmp_path):
    rng = np.random.default_rng(31)
    f = fields.random_band_limited(grid, 6, rng)
    path = qio.save_field(f, tmp_path / "f.json")
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "L", "coeffs"}
    assert {"l", "m_index", "value"} == set(payload["coeffs"][0])
    g = qio.load_field(path, grid=grid)
    assert np.max(np.abs(g.values - f.values)) < 1e-12


def test_field_values_roundtrip(grid, tmp_path):
    f = fields.constant_field(grid, 0.25)
    path = qio.save_field(f, tmp_path / "v.json", as_values=True)
    payload = json.loads(path.read_text())
    assert set(payload) == {"n", "grid_resolution", "values"}
    g = qio.load_field(path)
    assert np.max(np.abs(g.values - 0.25)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 8),
       amp=st.floats(0.01, 0.25), as_values=st.booleans())
def test_saved_field_loads_as_a_domain_with_the_same_functionals(grid, tmp_path_factory,
                                                                  seed, L, amp, as_values):
    f = fields.random_band_limited(grid, L, np.random.default_rng(seed))
    f = fields_affine(f, amp / np.max(np.abs(f.values)), 0.0)
    path = qio.save_field(f, tmp_path_factory.mktemp("io") / "f.json", as_values=as_values)
    F = StarDomain(f).curvature_integrals()
    G = qio.load_domain(path).curvature_integrals()
    for name in ("volume", "perimeter", "int_H", "int_H_plus", "int_nuclear"):
        assert_allclose(getattr(G, name), getattr(F, name), rtol=1e-12)
    assert_allclose(G.int_sigma, F.int_sigma, rtol=1e-12)


def test_domain_center_roundtrip(grid, tmp_path):
    f = fields.analyze(fields.constant_field(grid, 0.0), L=4)
    K = StarDomain(f, center=np.array([0.1, 0.0, -0.05]))
    path = qio.save_domain(K, tmp_path / "dom.json")
    K2 = qio.load_domain(path, grid=grid)
    assert_allclose(K2.center, K.center)


def test_axial_roundtrips(tmp_path):
    rng = np.random.default_rng(5)
    c = np.zeros(7)
    c[1:] = rng.standard_normal(6) * 0.01
    prof = AxialProfile.from_zonal_coeffs(4, c)
    p1 = qio.save_axial_profile(prof, tmp_path / "a.json")
    assert "zonal_coeffs" in json.loads(p1.read_text())
    profest = qio.load_axial_profile(p1)
    theta = np.linspace(0.1, 3.0, 33)
    assert np.max(np.abs(prof.value(theta) - profest.value(theta))) < 1e-12

    p2 = qio.save_axial_profile(prof, tmp_path / "b.json", as_values=True)
    payload = json.loads(p2.read_text())
    assert set(payload) == {"n", "theta_nodes", "values"}
    prof2 = qio.load_axial_profile(p2)
    assert np.max(np.abs(prof.value(theta) - prof2.value(theta))) < 1e-9


def test_obj_export_counts(grid, tmp_path):
    c = np.zeros(harmonics.coeff_count(4))
    c[harmonics.flat_index(2, 0)] = 0.05
    K = StarDomain(fields.synthesize(c, grid))
    path = qio.export_obj(K, tmp_path / "m.obj")
    lines = path.read_text().splitlines()
    nv = sum(1 for l in lines if l.startswith("v "))
    nf = sum(1 for l in lines if l.startswith("f "))
    nh = sum(1 for l in lines if l.startswith("# H "))
    assert nv == grid.num_nodes + 2
    assert nh == nv
    assert nv - 3 * nf / 2 + nf == 2  # Euler characteristic of the sphere


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(0, 7))
def test_circle_field_coeff_roundtrip(tmp_path_factory, seed, L):
    g = build_grid(2, 8)
    c = np.random.default_rng(seed).standard_normal(2 * L + 1)
    f = fields.synthesize(c, g)
    path = qio.save_field(f, tmp_path_factory.mktemp("io") / "f.json")
    payload = json.loads(path.read_text())
    assert payload["L"] == L and len(payload["coeffs"]) == 2 * L + 1
    assert {(e["l"], e["m_index"]) for e in payload["coeffs"]} == \
        {(0, 0)} | {(l, k) for l in range(1, L + 1) for k in (1, 2)}
    back = qio.load_field(path, grid=g)
    assert back.truncation == L and np.array_equal(back.coeffs, c)
    assert np.max(np.abs(back.values - f.values)) < 1e-13


@pytest.mark.parametrize("L", [1, 2, 5])
def test_circle_field_file_reads_the_fourier_layout(tmp_path, L):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": 2, "L": L, "coeffs": [
        {"l": 0, "m_index": 0, "value": 0.5},
        {"l": 1, "m_index": 2, "value": -0.25},
        {"l": L, "m_index": 1, "value": 1.0}]}))
    f = qio.load_field(path, grid=build_grid(2, 16))
    phi = f.grid.angles[0]
    want = (0.5 / math.sqrt(2.0 * math.pi)
            + (-0.25 * np.sin(phi) + np.cos(L * phi)) / math.sqrt(math.pi))
    assert f.truncation == L
    assert np.max(np.abs(f.values - want)) < 1e-13
    path.write_text(json.dumps({"n": 2, "L": L, "coeffs": [
        {"l": L, "m_index": 3, "value": 1.0}]}))
    with pytest.raises(ValueError, match=r"\(l, m_index\) = \(%d, 3\)" % L):
        qio.load_field(path, grid=build_grid(2, 16))


@pytest.mark.parametrize("n", [2, 3])
def test_coefficients_above_the_grid_degree_are_refused(n, tmp_path):
    g = build_grid(n, 8)
    L = g.max_degree + 1
    c = np.zeros(2 * L + 1 if n == 2 else harmonics.coeff_count(L))
    c[-1] = 1.0                       # the top sine mode, zero at every node when n = 2
    message = f"truncation L={L} exceeds grid capability {g.max_degree}"
    with pytest.raises(ValueError, match=message):
        fields.synthesize(c, g)
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"n": n, "L": L, "coeffs": [
        {"l": L, "m_index": 2 if n == 2 else 2 * L, "value": 1.0}]}))
    with pytest.raises(ValueError, match=message):
        qio.load_field(path, grid=g)


# malformed domain files, each with the part of the message that names the fault
_MALFORMED = {
    "nan zonal coefficient": ('{"n": 4, "zonal_coeffs": [0.0, NaN, 0.01]}',
                              "zonal_coeffs entry 1 is nan"),
    "infinite zonal coefficient": ('{"n": 3, "zonal_coeffs": [0.0, Infinity]}',
                                   "zonal_coeffs entry 1 is inf"),
    "no zonal coefficient": ('{"n": 4, "zonal_coeffs": []}', "zonal_coeffs is empty"),
    "nan profile value": ('{"n": 4, "theta_nodes": [0.5, 1.5, 2.5], "values": [0, NaN, 0]}',
                          "values entry 1 is nan"),
    "mismatched profile lists": ('{"n": 4, "theta_nodes": [0.5, 1.5, 2.5], "values": [0, 0]}',
                                 "3 theta nodes but 2 values"),
    "no profile node": ('{"n": 4, "theta_nodes": [], "values": []}', "theta_nodes is empty"),
    "nan n = 3 coefficient": ('{"n": 3, "L": 2, "coeffs": [{"l": 2, "m_index": 0, '
                              '"value": NaN}]}', "coeffs value entry 0 is nan"),
    "infinite n = 3 coefficient": ('{"n": 3, "L": 1, "coeffs": [{"l": 0, "m_index": 0, '
                                   '"value": 1.0}, {"l": 1, "m_index": 1, '
                                   '"value": -Infinity}]}', "coeffs value entry 1 is -inf"),
    "nan node value": ('{"n": 3, "grid_resolution": 4, "values": [%s]}'
                       % ", ".join(["0.0"] * 31 + ["NaN"]), "values entry 31 is nan"),
    "too few node values": ('{"n": 3, "grid_resolution": 4, "values": [0.0, 0.0]}',
                            "holds 2 node values; the grid of resolution 4 has 32 nodes"),
    "nan center": ('{"n": 3, "L": 0, "coeffs": [], "center": [0.0, NaN, 0.0]}',
                   "center entry 1 is nan"),
}


@pytest.mark.parametrize("text, message", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_domain_files_are_refused_naming_the_file(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    load = (qio.load_axial_profile if "zonal_coeffs" in text or "theta_nodes" in text
            else qio.load_domain)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(path) in str(info.value) and message in str(info.value)


def test_from_values_refuses_mismatched_lengths():
    with pytest.raises(ValueError, match="3 theta nodes but 2 values"):
        AxialProfile.from_values(4, [0.5, 1.5, 2.5], [0.0, 0.0])
