import os

from quermass import suites
from quermass.config import thread_count
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
