import multiprocessing
import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from quermass import axisym, deficits, io as qio, suites
from quermass.config import thread_count
from quermass.grids import build_grid, jacobi_rule
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


# the six suites that map seeded jobs through _pmap, at small counts
POOLED = {
    "route": (suites.route_agreement_suite,
              dict(count=4, eps=0.3, seed=7, resolution=16, L=6)),
    "gradient_normal": (suites.gradient_normal_suite,
                        dict(count=4, eps=0.1, seed=11, resolution=16)),
    "eigen_interpolation": (suites.eigen_interpolation_suite,
                            dict(count=4, seed=99, resolution=16, L=6)),
    "nuclear": (suites.nuclear_deficit_suite, dict(count=4, seed=13, resolution=16)),
    "axial": (suites.axial_deficit_suite, dict(count=6, seed=17)),
    "stability": (suites.stability_suite, dict(count=4, seed=19)),
}


@pytest.mark.parametrize("name", sorted(POOLED))
def test_pooled_suites_match_serial(name, monkeypatch):
    suite, kwargs = POOLED[name]

    def run(workers):
        monkeypatch.setenv("QUERMASS_THREADS", str(workers))
        out = suite(**kwargs)
        assert multiprocessing.active_children() == []
        return csv_bytes(out["rows"], out["columns"])

    serial = run(1)
    assert run(2) == serial
    assert run(kwargs["count"] + 3) == serial       # a cap above the job count


def _fails_at(bad):
    def fn(x):                                      # a closure: it does not pickle
        if x == bad:
            raise ValueError(f"job {x} refused")
        return {"x": x, "square": float(x * x)}
    return fn


@pytest.mark.parametrize("bad", [0, 1, 5], ids=["caller", "child", "last_child"])
def test_pool_error_reaches_the_caller_and_children_are_reaped(bad, monkeypatch):
    # with 3 workers the caller maps jobs 0, 3, 6, child 1 jobs 1, 4, 7
    # and child 2 jobs 2, 5
    monkeypatch.setenv("QUERMASS_THREADS", "3")
    with pytest.raises(ValueError, match=f"^job {bad} refused$"):
        suites._pmap(_fails_at(bad), range(8))
    assert multiprocessing.active_children() == []
    assert suites._pmap(_fails_at(-1), range(8)) == [
        {"x": x, "square": float(x * x)} for x in range(8)]
    assert multiprocessing.active_children() == []


def test_pool_worker_that_dies_is_reported(monkeypatch):
    caller = os.getpid()

    def fn(x):
        if x == 1 and os.getpid() != caller:
            os._exit(7)
        return x
    monkeypatch.setenv("QUERMASS_THREADS", "2")
    with pytest.raises(RuntimeError, match="pooled worker 1 exited with status 7"):
        suites._pmap(fn, range(4))
    assert multiprocessing.active_children() == []


def test_pool_runs_serially_beside_a_second_thread(monkeypatch):
    monkeypatch.setenv("QUERMASS_THREADS", "2")
    assert set(suites._pmap(lambda x: os.getpid(), range(4))) != {os.getpid()}
    with ThreadPoolExecutor(max_workers=1) as pool:
        pids = pool.submit(suites._pmap, lambda x: os.getpid(), range(4)).result(timeout=60)
    assert pids == [os.getpid()] * 4


def _probe(code: str, **env) -> str:
    """stdout of code run in a fresh interpreter that sees this test's sys.path."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env))
    return out.stdout


def test_importing_the_cli_loads_no_multiprocessing():
    probe = ("import sys, quermass.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    assert _probe(probe).strip() == "[]"


_HEAVY = """
import sys
def heavy():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
"""


def _commands(tmp_path):
    """One command line of every kind, and the CSV each writes."""
    domain = qio.save_domain(deficits.random_domain(3, 0.1, seed=3, grid=build_grid(3, 32)),
                             tmp_path / "domain.json")
    return [(["counterexample", "--n", "3", "--kappa", "10"], "counterexample"),  # grid check
            (["counterexample", "--n", "4", "--kappa", "4"], "counterexample"),
            (["conjecture", "--n", "3", "--restarts", "1"], "conjecture"),
            (["conjecture", "--n", "4", "--restarts", "1"], "conjecture"),
            (["functionals", str(domain)], "functionals"),               # an n = 3 center
            (["verify", "curvature-routes", "--count", "2", "--eps", "0.1", "--resolution", "32"],
             "verify_curvature-routes"),
            (["verify", "nuclear", "--count", "2", "--eps", "0.05"], "verify_nuclear"),
            (["verify", "freq-split", "--count", "4"], "verify_freq-split"),
            (["verify", "axial", "--count", "3", "--eps", "0.05"], "verify_axial"),
            (["verify", "stability", "--count", "2", "--eps", "0.05"], "verify_stability"),
            (["verify", "pole", "--count", "2", "--eps", "0.05"], "verify_pole")]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_no_command_loads_scipy(tmp_path, threads):
    # the Gauss-Jacobi rules and zonal tables, the n = 3 (SQP and NNLS)
    # and axial eps_size centers, and the disjointness of analytic supports
    # are all numpy's, so no command loads any part of scipy, in one
    # process or with forked workers
    runs = _commands(tmp_path)
    outs = [str(tmp_path / str(i)) for i in range(len(runs))]
    probe = _HEAVY + f"""
import quermass.cli
seen = [heavy()]
for argv, out in zip({[argv for argv, _ in runs]!r}, {outs!r}):
    assert quermass.cli.main(argv + ["--out", out]) == 0
    seen.append(heavy())
print(seen)
"""
    assert (_probe(probe, QUERMASS_THREADS=threads).splitlines()[-1]
            == repr([[]] * (len(runs) + 1)))
    for out, (_, csv) in zip(outs, runs):
        assert (Path(out) / f"{csv}.csv").exists()


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    # a finder that refuses scipy stands in for an install with numpy
    # only; with two workers the forked children inherit it too
    runs = [_commands(tmp_path)[i] for i in (0, 2, 5, 8)]
    outs = [str(tmp_path / str(i)) for i in range(len(runs))]
    probe = f"""
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ImportError('scipy is not installed')
sys.meta_path.insert(0, NoScipy())
import quermass.cli
for argv, out in zip({[argv for argv, _ in runs]!r}, {outs!r}):
    assert quermass.cli.main(argv + ["--out", out]) == 0
"""
    _probe(probe, QUERMASS_THREADS="2")
    for out, (_, csv) in zip(outs, runs):
        assert (Path(out) / f"{csv}.csv").exists()


def test_pooled_verify_from_a_cold_interpreter_matches_serial(tmp_path):
    # from a cold interpreter the pool preloads nothing before the fork,
    # and the children load no further module for their axial centers;
    # the pytest process has every module loaded already, so the
    # in-process pool tests do not reach this
    def run(workers):
        out = tmp_path / f"axial{workers}"
        probe = _HEAVY + f"""
import quermass.cli
assert heavy() == []
quermass.cli.main(["verify", "axial", "--count", "6", "--eps", "0.05", "--seed", "5",
                   "--out", {str(out)!r}])
"""
        _probe(probe, QUERMASS_THREADS=str(workers))
        return (out / "verify_axial.csv").read_bytes()

    assert run(2) == run(1)


def test_route_suite_threads_match_serial(monkeypatch, capfd):
    # the suite silences its ResolutionWarning in the caller; a worker's
    # warnings are re-emitted in the caller, where that filter drops them,
    # and nothing a worker prints reaches file descriptor 2
    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = suites.route_agreement_suite(count=4, eps=0.3, seed=7,
                                               resolution=16, L=6)
        assert not [w for w in caught if issubclass(w.category, ResolutionWarning)]
        assert ResolutionWarning.__name__ not in capfd.readouterr().err
        return csv_bytes(out["rows"], out["columns"])

    monkeypatch.setenv("QUERMASS_THREADS", "1")
    serial = run()
    monkeypatch.setenv("QUERMASS_THREADS", "2")
    assert run() == serial


def _warns_on_odd(x):
    if x % 2:
        warnings.warn(f"job {x} is odd", UserWarning)
    return x


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_warnings_reach_the_caller_in_job_order(workers, monkeypatch):
    def run(count):
        monkeypatch.setenv("QUERMASS_THREADS", str(count))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = suites._pmap(_warns_on_odd, range(7))
        assert rows == list(range(7))
        return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    serial = run(1)
    assert [m for m, *_ in serial] == ["job 1 is odd", "job 3 is odd", "job 5 is odd"]
    assert run(workers) == serial
    assert multiprocessing.active_children() == []


def test_pooled_warnings_obey_the_callers_filters(monkeypatch):
    monkeypatch.setenv("QUERMASS_THREADS", "2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.filterwarnings("ignore", message="job 3")
        suites._pmap(_warns_on_odd, range(6))
    assert [str(w.message) for w in caught] == ["job 1 is odd", "job 5 is odd"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="job 1 is odd"):
            suites._pmap(_warns_on_odd, range(6))
    assert multiprocessing.active_children() == []


def test_zonal_suites_from_a_cold_table_cache_match_serial(monkeypatch):
    # the caller and a forked worker each fill the zonal table cache from
    # empty while the suites run; the rows must not depend on who built
    # which table
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
