import inspect
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from quermass import cli, fields, io as qio, suites
from quermass.cli import VERIFY_CHECKS, build_parser, main
from quermass.config import DENT_CROSS_CHECK_REL
from quermass.fields import ScalarField
from quermass.grids import build_grid
from quermass.stardomain import StarDomain

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import bench_workloads  # noqa: E402


@pytest.fixture()
def ball_file(tmp_path):
    grid = build_grid(3, 32)
    K = StarDomain(fields.analyze(fields.constant_field(grid, 0.0), L=4))
    return qio.save_domain(K, tmp_path / "ball.json")


def test_functionals_on_unit_ball(ball_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["functionals", str(ball_file), "--out", str(out)])
    assert code == 0
    csv_text = (out / "functionals.csv").read_bytes().decode()
    header, data = csv_text.strip().split("\r\n")
    vals = dict(zip(header.split(","), data.split(",")))
    assert abs(float(vals["volume"]) - 4 * math.pi / 3) < 1e-10
    assert abs(float(vals["perimeter"]) - 4 * math.pi) < 1e-10
    assert abs(float(vals["int_H"]) - 8 * math.pi) < 1e-8
    assert (out / "config.json").exists()


def test_deficits_command(ball_file, tmp_path):
    out = tmp_path / "run"
    code = main(["deficits", str(ball_file), "--which", "minkowski,nuclear",
                 "--out", str(out)])
    assert code == 0
    text = (out / "deficits.csv").read_text()
    assert "minkowski" in text and "nuclear" in text


def test_verify_radial_identity(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "radial-identity", "--out", str(out)])
    assert code == 0
    assert (out / "verify_radial-identity.csv").exists()
    summary = json.loads((out / "verify_radial-identity_summary.json").read_text())
    assert summary["passed"]


def test_verify_alias(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "A.1", "--out", str(out)])
    assert code == 0


def test_verify_eigen_interp_small(tmp_path):
    out = tmp_path / "run"
    code = main(["verify", "eigen-interp", "--count", "20", "--seed", "5",
                 "--out", str(out)])
    assert code == 0


def test_verify_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["verify", "grad-normal", "--count", "8", "--seed", "42",
                     "--out", str(out)]) == 0
    b1 = (out1 / "verify_grad-normal.csv").read_bytes()
    b2 = (out2 / "verify_grad-normal.csv").read_bytes()
    assert b1 == b2


def test_counterexample_single(tmp_path):
    out = tmp_path / "run"
    code = main(["counterexample", "--kappa", "20", "--eps", "0.3",
                 "--out", str(out)])
    assert code == 0
    text = (out / "counterexample.csv").read_text()
    assert text.startswith("kappa,q,int_H_grid,int_H_zonal,eps_size")


def test_counterexample_mesh(tmp_path):
    out = tmp_path / "run"
    code = main(["counterexample", "--kappa", "10", "--eps", "0.2", "--mesh",
                 "--resolution", "48", "--out", str(out)])
    assert code == 0
    obj = (out / "counterexample.obj").read_text()
    assert obj.count("\nv ") >= 48 * 96


@pytest.mark.parametrize("extra", [["--kappa", "4"], ["--sweep", "4,8"]])
def test_counterexample_mesh_outside_three_dimensions_exits_2(extra, tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["counterexample", "--n", "4", "--eps", "0.3", "--mesh",
                 "--out", str(out)] + extra)
    assert code == 2
    assert "--mesh" in capsys.readouterr().err
    assert not out.exists()


def test_counterexample_sweep_in_four_dimensions(tmp_path):
    # the sweep and the search run in the dimension asked for, zonal only,
    # with no grid check; --seed is still accepted
    out = tmp_path / "run"
    code = main(["counterexample", "--n", "4", "--sweep", "20,40,80", "--eps", "0.3",
                 "--kappa-max", "2560", "--seed", "5", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "counterexample_summary.json").read_text())["summary"]
    assert summary["search"]["kappa_star"] == 2560.0
    assert summary["search"]["int_H"] < -1.0
    assert summary["worst_gap"] is None
    first = (out / "counterexample.csv").read_text().splitlines()[1].split(",")
    assert first[1] == "19358"        # the n = 4 ring count at kappa = 20
    assert first[2] == "" and first[5] == ""


def test_conjecture_command(tmp_path):
    out = tmp_path / "run"
    code = main(["conjecture", "--n", "4", "--degree-cap", "10",
                 "--restarts", "3", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert (out / "conjecture.csv").exists()
    assert (out / "best_candidate.json").exists()


def test_export_mesh_roundtrip(ball_file, tmp_path):
    out = tmp_path / "meshrun"
    code = main(["export-mesh", str(ball_file), "--out", str(out)])
    assert code == 0
    lines = (out / "mesh.obj").read_text().splitlines()
    nv = sum(1 for l in lines if l.startswith("v "))
    nf = sum(1 for l in lines if l.startswith("f "))
    # closed surface: V - E + F = 2 with E = 3F/2 for a triangulation
    assert nv - 3 * nf / 2 + nf == 2
    assert json.loads((out / "config.json").read_text()) == {
        "command": "export-mesh", "domain": str(ball_file), "resolution": None,
        "out": str(out)}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("as_values", [False, True], ids=["zonal_coeffs", "theta_nodes"])
def test_export_mesh_refuses_an_axial_profile(n, as_values, tmp_path, capsys):
    from quermass.axisym import AxialProfile
    path = qio.save_axial_profile(
        AxialProfile.from_zonal_coeffs(n, np.array([0.0, 0.0, 0.01])),
        tmp_path / "profile.json", as_values=as_values)
    out = tmp_path / "meshrun"
    assert main(["export-mesh", str(path), "--out", str(out)]) == 2
    assert (f"error: export-mesh meshes a field or domain file of n = 3; "
            f"{path} is an axial profile") in capsys.readouterr().err
    assert not out.exists()


def test_export_mesh_refuses_a_domain_outside_three_dimensions(tmp_path, capsys):
    K = StarDomain(fields.constant_field(build_grid(4, 8), 0.0))
    path = qio.save_domain(K, tmp_path / "ball4.json")
    out = tmp_path / "meshrun"
    assert main(["export-mesh", str(path), "--out", str(out)]) == 2
    assert "mesh export is defined for n = 3" in capsys.readouterr().err
    assert not out.exists()


def test_a_domain_file_outside_two_and_three_dimensions_is_refused_at_load(tmp_path, capsys):
    # a values file of n = 4 has no spectral coefficients to differentiate;
    # a domain of n >= 4 is read from an axial-profile file
    K = StarDomain(fields.constant_field(build_grid(4, 8), 0.0))
    path = qio.save_domain(K, tmp_path / "ball4.json")
    for command in ("functionals", "deficits"):
        assert main([command, str(path), "--out", str(tmp_path / command)]) == 2
        assert f"error: {path} holds a field of n = 4" in capsys.readouterr().err
    with pytest.raises(ValueError, match="from an axial-profile file"):
        qio.load_domain(path)


def test_bad_arguments_exit_code(tmp_path):
    code = main(["counterexample", "--kappa", "0.2", "--eps", "0.3",
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_tolerance_override_rejects_unknown(ball_file, tmp_path):
    assert main(["functionals", str(ball_file), "--tolerance", "nope",
                 "--out", str(tmp_path / "y")]) == 2


def test_verify_second_alias(tmp_path):
    out = tmp_path / "run42"
    code = main(["verify", "4.2", "--count", "10", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    assert (out / "verify_eigen-interp.csv").exists()


def _fake_suite(seen):
    def fake_suite(**kwargs):
        seen.append(kwargs)
        return {"rows": [{"x": 1}], "columns": ["x"], "passed": True,
                "summary": {}}
    return fake_suite


def test_eps_default_is_per_subcommand(monkeypatch, tmp_path):
    # an omitted option reaches the suite as absent, so the suite's own
    # default applies; 0 counts as given; counterexample's own default
    # (0.3) belongs to its own parser and never reaches a suite
    seen = []
    monkeypatch.setattr(suites, "gradient_normal_suite", _fake_suite(seen))
    assert main(["verify", "grad-normal", "--out", str(tmp_path / "a")]) == 0
    assert main(["verify", "grad-normal", "--eps", "0", "--count", "0",
                 "--resolution", "0", "--out", str(tmp_path / "b")]) == 0
    assert seen[0] == {"seed": 0}
    assert seen[1] == {"seed": 0, "eps": 0.0, "count": 0, "resolution": 0}


def test_verify_table_options_are_suite_parameters():
    for name, check in VERIFY_CHECKS.items():
        params = inspect.signature(getattr(suites, check.suite)).parameters
        for kw in check.options.values():
            assert kw in params, (name, kw)


def test_eps_reaches_eigen_interp(monkeypatch, tmp_path):
    out = tmp_path / "real"
    assert main(["verify", "eigen-interp", "--eps", "0.05", "--count", "2",
                 "--out", str(out)]) == 0
    lines = (out / "verify_eigen-interp.csv").read_text().splitlines()
    col = lines[0].split(",").index("eps_scale")
    assert {float(ln.split(",")[col]) for ln in lines[1:]} == {0.05}
    seen = []
    monkeypatch.setattr(suites, "eigen_interpolation_suite", _fake_suite(seen))
    assert main(["verify", "4.2", "--eps", "0.9", "--count", "4",
                 "--out", str(tmp_path / "fake")]) == 0
    assert seen == [{"seed": 0, "eps_scale": 0.9, "count": 4}]


def test_conjecture_degree_cap_zero_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["conjecture", "--n", "4", "--degree-cap", "0", "--restarts", "1",
                 "--out", str(out)]) == 2
    assert "basis_cap 0" in capsys.readouterr().err
    assert not out.exists()


def test_conjecture_negative_restarts_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["conjecture", "--n", "4", "--degree-cap", "4", "--restarts", "-1",
                 "--out", str(out)]) == 2
    assert "restarts must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_counterexample_over_budget_exits_2(tmp_path, capsys):
    code = main(["counterexample", "--kappa", "1e5", "--eps", "0.3",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_counterexample_mesh_past_the_grid_check_work_limit_exits_2(tmp_path, capsys):
    # a kappa = 600 mesh needs the lattice's coordinates, which are built
    # only where the dense-grid check is within WORK_LIMIT (kappa <= 543)
    out = tmp_path / "x"
    t0 = time.perf_counter()
    code = main(["counterexample", "--kappa", "600", "--mesh", "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "pack_points(3, 600)" in err and "WORK_LIMIT" in err
    assert not out.exists()


def test_counterexample_mesh_refuses_before_packing(tmp_path, capsys, monkeypatch):
    # kappa = 5120 is within the count's WORK_LIMIT, so its lattice takes
    # seconds to pack; the points' admission rule refuses the mesh first
    from quermass import counterexample as cx

    def packing(*args):
        raise AssertionError("packed before the refusal")
    monkeypatch.setattr(cx, "pack_points", packing)
    out = tmp_path / "x"
    t0 = time.perf_counter()
    code = main(["counterexample", "--kappa", "5120", "--mesh", "--out", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "pack_points(3, 5120)" in err and "WORK_LIMIT" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--kappa", "inf"], ["--sweep", "10,inf"], ["--n", "4", "--kappa", "inf"],
    ["--kappa=-inf", "--mesh"], ["--kappa", "nan"]])
def test_counterexample_refuses_a_kappa_that_is_not_finite(argv, tmp_path, capsys,
                                                           monkeypatch):
    # refused as the option is read: no lattice is packed, no grid sized
    # and nothing written, also for the finite kappa of a sweep
    from quermass import counterexample as cx

    def work(*args, **kwargs):
        raise AssertionError("worked on a kappa that is not finite")
    monkeypatch.setattr(cx, "pack_points", work)
    monkeypatch.setattr(cx, "_grid_resolution", work)
    out = tmp_path / "x"
    assert main(["counterexample", *argv, "--out", str(out)]) == 2
    assert "is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_counterexample_resolution_is_the_mesh_grid_128_by_default(tmp_path):
    # unread without --mesh, so echoed as null; a mesh that omits it is
    # built at 128; --kappa-max inf is "no cap"
    out = tmp_path / "zonal"
    assert main(["counterexample", "--n", "4", "--kappa", "4", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["resolution"] is None
    out = tmp_path / "mesh"
    assert main(["counterexample", "--kappa", "4", "--mesh", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text())["resolution"] == 128
    assert (out / "counterexample.obj").read_text().count("\nv ") >= 128 * 256
    args = build_parser().parse_args(["counterexample", "--sweep", "4", "--kappa-max", "inf"])
    assert args.kappa_max == math.inf


@pytest.mark.parametrize("as_values", [False, True], ids=["zonal_coeffs", "theta_nodes"])
def test_functionals_reads_an_axial_profile_at_the_given_resolution(as_values, tmp_path):
    from quermass.axisym import AxialDomain, AxialProfile
    path = qio.save_axial_profile(
        AxialProfile.from_zonal_coeffs(4, np.array([0.0, 0.03, 0.05]), resolution=64),
        tmp_path / "profile.json", as_values=as_values)
    perimeters = {}
    for res in (16, 64):
        out = tmp_path / f"run{res}"
        assert main(["functionals", str(path), "--resolution", str(res),
                     "--out", str(out)]) == 0
        header, data = (out / "functionals.csv").read_text().strip().split("\n")
        perimeters[res] = float(dict(zip(header.split(","), data.split(",")))["perimeter"])
        K = AxialDomain(qio.load_axial_profile(path, res))
        assert K.profile.resolution == res
        assert perimeters[res] == K.perimeter()
        assert json.loads((out / "config.json").read_text())["resolution"] == res
    assert perimeters[16] != perimeters[64]


def test_functionals_refuses_another_resolution_for_a_node_value_file(tmp_path, capsys):
    grid = build_grid(3, 16)
    path = qio.save_field(fields.analyze(fields.constant_field(grid, 0.0), L=4),
                          tmp_path / "ball.json", as_values=True)
    out = tmp_path / "run"
    assert main(["functionals", str(path), "--resolution", "32", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "resolution 32" in err and "grid of resolution 16" in err
    assert not out.exists()
    assert main(["functionals", str(path), "--resolution", "16", "--out", str(out)]) == 0


@pytest.mark.parametrize("check, count, minimum", [
    ("axial", 2, 3), ("nuclear", 0, 2), ("stability", 0, 1), ("eigen-interp", 1, 2),
    ("curvature-routes", 0, 1), ("grad-normal", 0, 1), ("freq-split", 0, 1)])
def test_verify_count_leaving_no_job_exits_2(check, count, minimum, tmp_path, capsys):
    # --eps only where the check reads it: freq-split would refuse it
    eps = ["--eps", "0.05"] if "--eps" in VERIFY_CHECKS[check].options else []
    code = main(["verify", check, "--count", str(count), *eps,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"at least {minimum}" in capsys.readouterr().err


def test_verify_negative_eps_exits_2(tmp_path, capsys):
    code = main(["verify", "stability", "--count", "2", "--eps", "-0.1",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "target_eps" in capsys.readouterr().err


def test_verify_freq_split_on_the_circle_exits_2(tmp_path, capsys):
    # the random fields of the suite are drawn for n >= 3 only
    code = main(["verify", "freq-split", "--n", "2", "--count", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "n >= 3" in capsys.readouterr().err


def test_single_kappa_dent_gap_gates_the_verdict(tmp_path, capsys):
    # the kappa = 10, eps = 0.45 grid check is 6.6e-3 from the zonal total
    argv = ["counterexample", "--n", "3", "--kappa", "10", "--eps", "0.45"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    code = main(argv + ["--tolerance", "dent_cross_check_rel=1e-9",
                        "--out", str(tmp_path / "b")])
    assert code == 3
    verdict, _, shown = capsys.readouterr().out.splitlines()[-1].partition(" ")
    assert verdict == "FAIL"
    summary = json.loads((tmp_path / "b" / "counterexample_summary.json").read_text())
    row = (tmp_path / "b" / "counterexample.csv").read_text().splitlines()[1]
    gap = float(row.split(",")[5])
    assert 1e-9 < gap <= 1e-2
    # the summary and the stdout line carry the gap and the tolerance it
    # was held to
    gated = {"relative_gap": gap, "tolerance": 1e-9}
    assert summary == {"passed": False, "summary": gated}
    assert json.loads(shown) == gated
    # n = 4 has no grid check, so no gap to gate
    assert main(["counterexample", "--n", "4", "--kappa", "2", "--eps", "0.3",
                 "--tolerance", "dent_cross_check_rel=1e-9",
                 "--out", str(tmp_path / "c")]) == 0
    summary = json.loads((tmp_path / "c" / "counterexample_summary.json").read_text())
    assert summary == {"passed": True, "summary": {}}


def test_sweep_gap_tolerance_comes_from_the_tolerances(monkeypatch, tmp_path):
    default = inspect.signature(suites.dent_sweep_suite).parameters["gap_tolerance"].default
    assert default == DENT_CROSS_CHECK_REL
    seen = []

    def fake_suite(**kwargs):
        seen.append(kwargs)
        return {"rows": [], "columns": ["x"], "passed": True, "summary": {}}

    monkeypatch.setattr(suites, "dent_sweep_suite", fake_suite)
    monkeypatch.setattr(suites, "negative_total_curvature_suite", fake_suite)
    assert main(["counterexample", "--sweep", "10,20", "--out", str(tmp_path / "a"),
                 "--tolerance", "dent_cross_check_rel=0.25"]) == 0
    assert main(["counterexample", "--sweep", "10,20", "--out", str(tmp_path / "b")]) == 0
    assert seen[0]["gap_tolerance"] == 0.25
    assert seen[2]["gap_tolerance"] == DENT_CROSS_CHECK_REL


# the keys of the former per-run tolerance table; two (command, key) pairs
# read one, and every other pair is refused before anything runs
TOLERANCE_KEYS = ("mean_curvature_agree", "normalize_scale_rel", "normalize_center",
                  "normalize_max_iter", "deviation_ratio_bound", "cubic_slack",
                  "pole_slack", "pole_constant", "dent_cross_check_rel")
ACCEPTED = {("verify curvature-routes", "mean_curvature_agree"),
            ("counterexample", "dent_cross_check_rel")}
READS_A_KEY = {command for command, _ in ACCEPTED}
COMMANDS = {"functionals": ["functionals", "BALL"], "deficits": ["deficits", "BALL"],
            "export-mesh": ["export-mesh", "BALL"],
            "counterexample": ["counterexample", "--kappa", "4"],
            "conjecture": ["conjecture", "--n", "4", "--restarts", "1"],
            **{f"verify {name}": ["verify", name] for name in VERIFY_CHECKS}}
REFUSED = [
    # the cases kept from before the table above, a made-up key first
    ["verify", "radial-identity", "--tolerance", "bogus=1"],
    ["verify", "radial-identity", "--tolerance", "cubic_slack=1e-30"],
    ["verify", "pole", "--count", "3", "--tolerance", "pole_constant=1e-9"],
    ["verify", "curvature-routes", "--count", "1", "--tolerance", "cubic_slack=1"],
    ["counterexample", "--kappa", "4", "--tolerance", "mean_curvature_agree=1"],
    ["conjecture", "--n", "4", "--tolerance", "cubic_slack=1"],
] + [argv + ["--tolerance", f"{key}=1"] for command, argv in COMMANDS.items()
     for key in TOLERANCE_KEYS if (command, key) not in ACCEPTED]


def test_every_command_is_in_the_tolerance_table():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {c.split()[0] for c in COMMANDS} == set(sub.choices)
    assert len(REFUSED) == 6 + len(COMMANDS) * len(TOLERANCE_KEYS) - 2


@pytest.mark.parametrize("argv", REFUSED)
def test_tolerance_keys_the_command_does_not_read_exit_2(argv, ball_file, tmp_path, capsys):
    argv = [str(ball_file) if a == "BALL" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    # a command that declares --tolerance names the refused key; the others
    # name only the flag
    command = " ".join(argv[:2]) if argv[0] == "verify" else argv[0]
    key = argv[-1].partition("=")[0] if command in READS_A_KEY else ""
    assert f"does not read --tolerance{key and ' ' + key};" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_tolerance_keys_the_command_reads_are_accepted(ball_file, tmp_path):
    assert main(["verify", "curvature-routes", "--count", "1", "--resolution", "16",
                 "--tolerance", "mean_curvature_agree=1e-3",
                 "--out", str(tmp_path / "a")]) == 0
    # functionals and deficits read no tolerance, so they refuse every key
    assert main(["functionals", str(ball_file), "--tolerance", "cubic_slack=2",
                 "--out", str(tmp_path / "b")]) == 2
    assert main(["deficits", str(ball_file), "--tolerance", "pole_slack=2",
                 "--out", str(tmp_path / "c")]) == 2
    assert main(["deficits", str(ball_file), "--tolerance", "bogus=2",
                 "--out", str(tmp_path / "d")]) == 2
    assert not any((tmp_path / d).exists() for d in "bcd")


@pytest.mark.parametrize("check, n", [("pole", 5), ("stability", 5), ("freq-split", 2)])
def test_n_reaches_the_suites_that_take_it(check, n, monkeypatch, tmp_path):
    suite = VERIFY_CHECKS[check].suite
    seen = []
    monkeypatch.setattr(suites, suite, _fake_suite(seen))
    assert main(["verify", check, "--n", str(n), "--out", str(tmp_path / "a")]) == 0
    assert main(["verify", check, "--out", str(tmp_path / "b")]) == 0
    assert seen == [{"seed": 0, "n": n}, {"seed": 0}]


@pytest.mark.parametrize("argv, unread", [
    # named in the order given
    (["verify", "radial-identity", "--resolution", "8", "--count", "3"],
     "--resolution, --count"),
    (["verify", "radial-identity", "--seed", "9"], "--seed"),
    (["verify", "axial", "--count", "3", "--n", "4"], "--n"),
    (["verify", "pole", "--resolution", "8"], "--resolution"),
    (["verify", "grad-normal", "--lambda-cut", "3"], "--lambda-cut"),
    (["verify", "freq-split", "--eps", "0.1"], "--eps"),
    (["verify", "nuclear", "--kappa", "2"], "--kappa"),
    (["verify", "stability", "--degree-cap", "4"], "--degree-cap"),
    (["verify", "eigen-interp", "--restarts", "2"], "--restarts"),
])
def test_verify_options_the_check_does_not_read_exit_2(argv, unread, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert f"does not read {unread};" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_counterexample_and_conjecture_default_to_three_dimensions(tmp_path):
    out = tmp_path / "cx"
    assert main(["counterexample", "--kappa", "4", "--out", str(out)]) == 0
    assert (out / "counterexample.csv").read_text().splitlines()[1].split(",")[2] != ""
    out = tmp_path / "conj"
    assert main(["conjecture", "--degree-cap", "2", "--restarts", "1",
                 "--out", str(out)]) == 0
    assert (out / "conjecture.csv").read_text().splitlines()[1].split(",")[0] == "3"


@pytest.mark.parametrize("argv", [
    ["--n", "5", "--degree-cap", "12", "--restarts", "4", "--seed", "315"],
    ["--n", "4", "--degree-cap", "12", "--restarts", "6", "--seed", "323"],
    ["--n", "5", "--degree-cap", "16", "--restarts", "4", "--seed", "4"],
])
def test_conjecture_inputs_that_once_failed_their_gradient_check_pass(argv, tmp_path):
    out = tmp_path / "run"
    assert main(["conjecture", *argv, "--out", str(out)]) == 0
    summary = json.loads((out / "conjecture_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["summary"]["gradient_check_max_rel"] <= 1e-6


def test_failing_conjecture_says_why(monkeypatch, tmp_path, capsys):
    from quermass import conjecture
    monkeypatch.setattr(conjecture, "_FD_STEP", 1e-2)     # truncation swamps the check
    out = tmp_path / "run"
    assert main(["conjecture", "--n", "4", "--degree-cap", "6", "--restarts", "2",
                 "--out", str(out)]) == 3
    summary = json.loads((out / "conjecture_summary.json").read_text())
    check = summary["summary"]["gradient_check_max_rel"]
    assert summary["passed"] is False and check > 1e-5
    assert f"FAIL gradient check {check}" in capsys.readouterr().out


@pytest.mark.parametrize("option, value", [
    ("--resolution", "64"), ("--lambda-cut", "3"), ("--eps", "0.1"), ("--kappa", "2")])
def test_conjecture_refuses_options_it_does_not_read(option, value, tmp_path, capsys):
    assert main(["conjecture", "--n", "4", "--restarts", "1", option, value,
                 "--out", str(tmp_path / "x")]) == 2
    assert f"conjecture does not read {option};" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _leaf_parsers():
    """(command as typed, its parser, the options its table entry declares)."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for name, command in cli.COMMANDS.items():
        yield name, sub.choices[name], command.options
    checks = next(a for a in sub.choices["verify"]._actions if a.choices)
    for name, check in VERIFY_CHECKS.items():
        yield f"verify {name}", checks.choices[name], check.options


def test_each_parser_declares_only_the_options_its_command_reads():
    for name, parser, options in _leaf_parsers():
        declared = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        assert declared == {opt.split()[0] for opt in options} | {"--out"}, name


# the (command, option) pairs that a parent parser shared by every command
# once accepted and then dropped without a word
DROPPED = [(command, option) for command, options in [
    ("functionals", ("--n", "--degree-cap", "--lambda-cut", "--eps", "--kappa", "--seed",
                     "--restarts")),
    ("deficits", ("--n", "--degree-cap", "--lambda-cut", "--eps", "--kappa", "--restarts")),
    ("counterexample", ("--degree-cap", "--lambda-cut", "--restarts")),
    ("export-mesh", ("--n", "--degree-cap", "--lambda-cut", "--eps", "--kappa", "--seed",
                     "--restarts", "--format"))] for option in options]
VALUES = {"--n": "3", "--degree-cap": "3", "--lambda-cut": "2", "--eps": "0.1",
          "--kappa": "5", "--seed": "1", "--restarts": "3", "--format": "csv"}


@pytest.mark.parametrize("command, option", DROPPED)
def test_options_once_dropped_exit_2(command, option, ball_file, tmp_path, capsys):
    assert len(DROPPED) == 24
    argv = [str(ball_file) if a == "BALL" else a for a in COMMANDS[command]]
    out = tmp_path / "x"
    assert main(argv + [option, VALUES[option], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # the flag is named, its value is not
    assert f"error: {command} does not read {option}; it reads --" in err
    assert VALUES[option] not in err.partition(";")[0]
    assert not out.exists()


@pytest.mark.parametrize("argv, says", [
    (["verify", "nosuch"], "invalid choice: 'nosuch'"),
    (["counterexample", "--kappa", "4", "--tolerance", "nope"],
     "does not read --tolerance nope; it reads --tolerance dent_cross_check_rel=VAL"),
    (["verify", "curvature-routes", "--tolerance", "mean_curvature_agree=x"],
     "invalid tolerance value"),
    (["counterexample"], "one of the arguments --kappa --sweep is required"),
    (["counterexample", "--kappa", "4", "--sweep", "4,8"],
     "argument --sweep: not allowed with argument --kappa"),
    (["counterexample", "--sweep", "4,x"], "invalid kappa_list value: '4,x'"),
    (["counterexample", "--kappa", "4", "--mesh", "--resolution", "0"], "resolution 0"),
    (["deficits", "BALL", "--which", "bogus"], "unknown deficit bogus"),
    (["deficits", "BALL", "--which", "minkowski,all"], "unknown deficit all"),
    (["conjecture", "--amplitude-cap", "1"], "conjecture does not read --amplitude-cap;"),
    (["functionals", "BALL", "--format", "json"], "functionals does not read --format;"),
    (["functionals", "BALL", "extra.json"], "functionals does not read extra.json;"),
    (["counterexample", "--sweep", "4,8", "--kappa-max", "nan"],
     "argument --kappa-max: nan is not a number"),
    (["counterexample", "--n", "4", "--kappa", "4", "--resolution", "7"],
     "--resolution sets the grid of --mesh; it is read only with --mesh"),
])
def test_refusals_exit_2_before_writing(argv, says, ball_file, tmp_path, capsys):
    argv = [str(ball_file) if a == "BALL" else a for a in argv]
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert says in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0_and_a_missing_check_2(capsys):
    assert main(["verify", "pole", "--help"]) == 0
    assert "--count" in capsys.readouterr().out
    assert main(["verify"]) == 2
    assert "required: CHECK" in capsys.readouterr().err


@pytest.mark.parametrize("workload", sorted(bench_workloads.WORKLOADS))
def test_benchmark_commands_parse_with_nothing_left_over(workload):
    # counterexample reads no --seed, but declares it for these commands
    for cmd in bench_workloads.commands(workload, 0):
        _, unread = build_parser().parse_known_args(list(cmd.argv))
        assert unread == [], cmd.argv


def test_config_lists_the_options_the_command_reads(monkeypatch, tmp_path):
    monkeypatch.setattr(suites, "eigen_interpolation_suite", _fake_suite([]))
    out = tmp_path / "v"
    assert main(["verify", "4.2", "--eps", "0.05", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text()) == {
        "command": "verify", "lemma": "eigen-interp", "seed": 0, "count": None,
        "eps_scale": 0.05, "resolution": None, "out": str(out)}
    out = tmp_path / "c"
    assert main(["conjecture", "--n", "4", "--restarts", "1", "--degree-cap", "4",
                 "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text()) == {
        "command": "conjecture", "n": 4, "basis_cap": 4, "restarts": 1, "seed": None,
        "out": str(out)}
