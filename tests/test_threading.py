import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from quermass import axisym, suites
from quermass.config import thread_count
from quermass.grids import jacobi_rule
from quermass.harmonics import ZonalBasis
from quermass.reporting import csv_bytes
from quermass.stardomain import ResolutionWarning


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("QUERMASS_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("QUERMASS_THREADS", "junk")
    assert thread_count() == 1
    monkeypatch.delenv("QUERMASS_THREADS")
    assert thread_count() == 1


def test_parallel_map_is_deterministic(monkeypatch):
    def run():
        out = suites.eigen_interpolation_suite(count=16, seed=99)
        return csv_bytes(out["rows"], out["columns"])

    monkeypatch.setenv("QUERMASS_THREADS", "1")
    serial = run()
    monkeypatch.setenv("QUERMASS_THREADS", "2")
    threaded = run()
    assert serial == threaded


def test_route_suite_threads_match_serial(monkeypatch):
    # the suite silences its ResolutionWarning in the calling thread, so
    # the pooled run neither warns nor differs from the serial one
    import warnings

    def run():
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = suites.route_agreement_suite(count=4, eps=0.3, seed=7,
                                               resolution=16, L=6)
        assert not [w for w in seen if w.category is ResolutionWarning]
        return csv_bytes(out["rows"], out["columns"])

    monkeypatch.setenv("QUERMASS_THREADS", "1")
    serial = run()
    monkeypatch.setenv("QUERMASS_THREADS", "2")
    assert run() == serial


def test_zonal_suites_from_a_cold_table_cache_match_serial(monkeypatch):
    # two threads fill the shared zonal table cache from empty while the
    # suites run; the rows must not depend on who built which table
    def run(threads):
        monkeypatch.setenv("QUERMASS_THREADS", threads)
        axisym._zonal_table.cache_clear()
        out = [suites.axial_deficit_suite(count=12, eps=0.05, seed=31),
               suites.stability_suite(count=8, eps=0.05, seed=37)]
        return [csv_bytes(o["rows"], o["columns"]) for o in out]

    serial = run("1")
    assert run("2") == serial


def test_zonal_table_cache_under_thread_contention():
    # more threads than cores hit a cold cache with a short switch
    # interval: every caller must get the fresh table's bits, read-only
    keys = [(n, L, d, nodes) for n in (3, 4) for L in (3, 6)
            for d in (0, 1) for nodes in ("deviation", 64)]
    axisym._zonal_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(axisym._zonal_table, *k) for k in keys * 6]
            tables = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (n, L, d, nodes), table in zip(keys * 6, tables):
        theta = (axisym._DEVIATION_THETA if nodes == "deviation"
                 else np.arccos(jacobi_rule(nodes, (n - 3) / 2.0)[0]))
        fresh = ZonalBasis(n, L).values(np.cos(theta), derivative=d)
        assert table.tobytes() == fresh.tobytes() and not table.flags.writeable
    assert axisym._zonal_table.cache_info().currsize == len(keys)
    axisym._zonal_table.cache_clear()
