"""Tests of the benchmark's own code: span arithmetic, wrappers, checks, names."""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_child  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _span(tracer, name, thread, start, end, parent=None, cause=None):
    s = bench_trace.Span(name, thread, start, parent, cause)
    s.end = end
    tracer.spans.append(s)
    return s


def test_self_times_of_nested_spans_on_two_threads():
    tr = bench_trace.Tracer()
    main, worker = tr.main_thread, tr.main_thread + 1
    a = _span(tr, "a", main, 0.0, 10.0)
    _span(tr, "b", main, 1.0, 4.0, a)
    c = _span(tr, "c", main, 5.0, 9.0, a)
    _span(tr, "d", main, 6.0, 7.0, c)
    e = _span(tr, "e", worker, 2.0, 8.0, cause=c)    # pool item on a worker
    _span(tr, "f", worker, 3.0, 5.0, e)
    _span(tr, "b", main, 10.5, 11.0)                 # second root, same name
    tr.start, tr.end = 0.0, 12.0

    own = bench_trace.self_times(tr.spans)
    assert own == pytest.approx({"a": 3.0, "b": 3.5, "c": 3.0, "d": 1.0,
                                 "e": 4.0, "f": 2.0})
    assert bench_trace.untraced_time(tr.spans, main, 12.0) == pytest.approx(1.5)
    main_own = sum(v for k, v in own.items() if k not in ("e", "f"))
    assert main_own + 1.5 == pytest.approx(12.0)
    assert bench_trace.consistency_problems(tr) == []


def test_consistency_problems_catch_broken_nesting():
    tr = bench_trace.Tracer()
    main = tr.main_thread
    a = _span(tr, "a", main, 0.0, 5.0)
    _span(tr, "b", main, 1.0, 7.0, a)                # child outlives its parent
    _span(tr, "c", main, 6.0, 13.0)                  # root ends after the sequence
    tr.start, tr.end = 0.0, 12.0
    problems = bench_trace.consistency_problems(tr)
    assert any(p.startswith("a:") for p in problems)
    assert any(p.startswith("c: root span outside") for p in problems)

    tr = bench_trace.Tracer()
    _span(tr, "a", tr.main_thread, 0.0, 3.0)
    _span(tr, "b", tr.main_thread, 2.5, 4.0)         # overlapping roots
    tr.start, tr.end = 0.0, 4.0
    assert any(p.startswith("untraced time") for p in bench_trace.consistency_problems(tr))


def test_span_stacks_are_per_thread():
    tr = bench_trace.Tracer()
    outer = tr.open("outer")
    seen = {}

    def work():
        inner = tr.open("inner", cause=outer)
        leaf = tr.open("leaf")
        tr.close(leaf)
        tr.close(inner)
        seen.update(inner=inner, leaf=leaf)

    t = threading.Thread(target=work)
    t.start()
    t.join()
    mine = tr.open("mine")
    tr.close(mine)
    tr.close(outer)
    assert seen["inner"].parent is None and seen["inner"].cause is outer
    assert seen["leaf"].parent is seen["inner"]
    assert mine.parent is outer


def _bindings():
    """(owner, attribute) -> object for every traced target, wherever bound."""
    out = {}
    for module_name, attr, _ in bench_trace.SPAN_TARGETS + [
            ("quermass.suites", "_pmap", None),
            ("quermass.stardomain", "StarDomain.deviation_values", None),
            ("quermass.harmonics", "sh_tables_for_grid", None)]:
        owner, name, original = bench_trace._resolve(module_name, attr)
        owners = [owner] if isinstance(owner, type) else [
            m for k, m in sys.modules.items()
            if (k == "quermass" or k.startswith("quermass."))
            and getattr(m, name, None) is original]
        for o in owners:
            out[(o, name)] = getattr(o, name)
    return out


def test_wrappers_replace_from_imports_and_restore_originals():
    import quermass.suites as suites
    import quermass.grids as grids
    before = _bindings()
    tr = bench_trace.Tracer()
    tr.install()
    try:
        assert suites.build_grid is not before[(suites, "build_grid")]
        assert suites.build_grid is grids.build_grid
        changed = [k for k, v in before.items() if getattr(*k) is v]
        assert changed == []
    finally:
        tr.uninstall()
    assert all(getattr(*k) is v for k, v in before.items())


def test_traced_commands_add_up(tmp_path):
    cmds = [bench_workloads.Command(("verify", "pole", "--count", "2", "--eps", "0.05",
                                     "--seed", "3")),
            bench_workloads.Command(("counterexample", "--n", "3", "--kappa", "5",
                                     "--eps", "0.3", "--seed", "3"))]
    seq = bench_child.Sequence(cmds, tmp_path)
    tr = bench_trace.Tracer()
    tr.install()
    try:
        rep = seq.run("traced")
    finally:
        tr.uninstall()
    tr.start, tr.end = rep["start"], rep["end"]
    assert all(c["passed"] for c in seq.checks)
    assert bench_trace.consistency_problems(tr) == []
    layers = bench_trace.layer_metrics(tr, rep["wall_s"])
    assert set(layers) == set(bench_trace.PER_LAYER_UNITS)
    assert layers["cli.verify.s"] > 0 and layers["cli.counterexample.s"] > 0
    assert layers["axisym.AxialProfile.init.calls"] > 0
    assert layers["counterexample.pack_points.n3.points"] > 0
    assert layers["counterexample.grid_check.nodes_per_s"] > 0
    assert layers["harmonics.sh_synthesize.calls"] == 0
    assert layers["reporting.bytes"] > 0


def test_failing_command_raises_failed_fraction(tmp_path):
    cmds = [bench_workloads.Command(("verify", "no-such-lemma", "--seed", "1")),
            bench_workloads.Command(("verify", "pole", "--count", "1", "--eps", "0.05",
                                     "--seed", "1"))]
    seq = bench_child.Sequence(cmds, tmp_path)
    rep = seq.run("rep0", calibrate=iter([0.1, 0.2, 0.3]).__next__)
    assert rep["calibration_s"] == [0.1, 0.2, 0.3]      # before, and after each command
    assert rep["wall_s"] == pytest.approx(sum(rep["command_s"]))
    failed = [c for c in seq.checks if not c["passed"]]
    assert [c["check"] for c in failed] == ["exit_code"]
    assert "no-such-lemma" in failed[0]["command"]
    values = run.end_to_end_values({"setup_s": 0.5, "wall_s": 1.0, "peak_rss_mb": 1.0,
                                    "checks": seq.checks})
    assert 0 < values["pass_frac"] < 1


def test_conjecture_gradient_check_is_enforced(tmp_path):
    cmd = bench_workloads.Command(("conjecture", "--n", "4"))
    names = {name: ok for name, ok, _ in
             bench_workloads.check_outputs(cmd, 0, tmp_path, [2e-5])}
    assert names["conjecture:gradient_check"] is False
    names = {name: ok for name, ok, _ in
             bench_workloads.check_outputs(cmd, 0, tmp_path, [])}
    assert names["conjecture:gradient_check"] is False


def test_metric_names_and_units_match_benchmark_json():
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert per_layer == bench_trace.PER_LAYER_UNITS
    assert end_to_end == run.END_TO_END_UNITS
    for name in list(per_layer) + list(end_to_end):
        assert NAME.match(name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(bench_workloads.WORKLOADS)


def test_threads2_runs_the_pooled_commands_of_the_serial_workloads():
    pooled = bench_workloads.commands("threads2", 7)
    serial = bench_workloads.commands("spectral", 7) + bench_workloads.commands("zonal", 7)
    assert all(c.threads == 2 for c in pooled)
    assert [c.argv for c in bench_workloads.serial_reference(pooled)] == [
        c.argv for c in serial if c.argv[1] in ("curvature-routes", "axial", "stability")]
