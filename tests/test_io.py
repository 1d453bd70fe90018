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
