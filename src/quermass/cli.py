"""Command-line front end.

Subcommands: functionals, deficits, verify, counterexample, conjecture,
export-mesh.  Every run echoes its parsed options into the output
directory; randomized suites require explicit seeds and produce
byte-identical CSV under identical configuration.  `verify` hands its
suite only the options given on the command line and refuses one the
check does not read (VERIFY_CHECKS names them, `--tolerance KEY` among
them), so an omitted option takes the suite's own default, as an
omitted `conjecture --degree-cap` takes maximize_ratio's.  `conjecture`
likewise refuses the shared options it does not read, and a failing run
prints its gradient check, which conjecture_summary.json records.  A
single-kappa n = 3 `counterexample` prints the grid-versus-zonal gap and
its tolerance next to the verdict.  The exit status is 0 exactly when
every assertion of the invoked suite holds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

from quermass import deficits, io as qio, suites
from quermass.axisym import AxialDomain
from quermass.config import DENT_CROSS_CHECK_REL
from quermass.reporting import (DEFICIT_COLUMNS, echo_config, write_csv,
                                write_json)


class Check(NamedTuple):
    """One `verify` check: its suite and the options the suite reads."""

    suite: str              # name in quermass.suites, looked up at call time
    options: dict           # option as typed (--tolerance KEY too) -> suite keyword
    aliases: tuple = ()


# the options of the checks that draw seeded random domains
_DRAWN = {"--seed": "seed", "--count": "count", "--eps": "eps"}
_GRID = {**_DRAWN, "--resolution": "resolution"}

VERIFY_CHECKS = {
    "grad-normal": Check("gradient_normal_suite", _GRID, ("3.2",)),
    "freq-split": Check("frequency_split_suite",
                        {"--seed": "seed", "--count": "count", "--n": "n",
                         "--lambda-cut": "lam", "--resolution": "resolution"},
                        ("4.1",)),
    "eigen-interp": Check("eigen_interpolation_suite",
                          {"--seed": "seed", "--count": "count", "--eps": "eps_scale",
                           "--resolution": "resolution"}, ("4.2",)),
    "radial-identity": Check("radial_identity_suite", {}, ("A.1",)),
    "pole": Check("pole_bound_suite", {**_DRAWN, "--n": "n"}),
    "curvature-routes": Check("route_agreement_suite",
                              {**_GRID, "--tolerance mean_curvature_agree": "tolerance"}),
    "nuclear": Check("nuclear_deficit_suite", _DRAWN),
    "axial": Check("axial_deficit_suite", _DRAWN),
    "stability": Check("stability_suite", {**_DRAWN, "--n": "n"}),
}
VERIFY_ALIASES = {a: name for name, c in VERIFY_CHECKS.items() for a in c.aliases}

# defaults of the shared options that a subcommand reads itself; verify
# leaves an omitted option absent, so that its suite's default applies
_OWN_DEFAULTS = {"counterexample": {"n": 3, "eps": 0.3},
                 "conjecture": {"n": 3}, "deficits": {"seed": 0}}
# namespace entries that are not options a check may leave unread
_NOT_OPTIONS = {"command", "func", "lemma", "out", "format", "tolerance"}


def _tolerances(args) -> dict:
    """The --tolerance KEY=VAL pairs, as {"--tolerance KEY": VAL}."""
    given = {}
    for item in args.tolerance or ():
        key, _, val = item.partition("=")
        if not val:
            raise SystemExit(f"--tolerance expects KEY=VAL, got {item!r}")
        given[f"--tolerance {key}"] = float(val)
    return given


def _given(args) -> dict:
    """The options given, as typed (--tolerance KEY pairs too); None means omitted."""
    given = {f"--{dest.replace('_', '-')}": value for dest, value in vars(args).items()
             if dest not in _NOT_OPTIONS and value is not None}
    given.update(_tolerances(args))
    return given


def _refuse_unread(given: dict, reads, what: str) -> None:
    """ValueError (exit 2) naming the given options that the command does not read."""
    unread = [opt for opt in given if opt not in reads]
    if unread:
        raise ValueError(f"{what} does not read {', '.join(unread)}; it reads "
                         f"{', '.join(sorted(reads)) if reads else 'none'}")


def _emit(out_dir: Path, name: str, result: dict, fmt: str, config: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    clean = {k: (v if isinstance(v, (int, float, str, bool, list, type(None)))
                 else str(v))
             for k, v in config.items() if k != "func"}
    echo_config(out_dir, clean)
    if fmt == "csv":
        write_csv(out_dir / f"{name}.csv", result["rows"], result["columns"])
    else:
        write_json(out_dir / f"{name}.json", result["rows"])
    write_json(out_dir / f"{name}_summary.json",
               {"passed": result.get("passed", True),
                "summary": result.get("summary", {})})


def _load_any_domain(path, resolution):
    payload = json.loads(Path(path).read_text())
    if "zonal_coeffs" in payload or "theta_nodes" in payload:
        return AxialDomain(qio.load_axial_profile(path))
    return qio.load_domain(path, resolution=resolution)


def cmd_functionals(args) -> int:
    _refuse_unread(_tolerances(args), (), "functionals")
    K = _load_any_domain(args.domain, args.resolution)
    F = K.curvature_integrals(check_routes=False)
    eps, center = K.eps_size()
    row = {"n": F.n, "volume": F.volume, "perimeter": F.perimeter,
           "int_H": F.int_H, "int_H_plus": F.int_H_plus,
           "int_H_minus": F.int_H_minus, "int_nuclear": F.int_nuclear,
           "eps_size": eps}
    for k, v in enumerate(F.int_sigma, start=1):
        row[f"int_sigma_{k}"] = v
    result = {"rows": [row], "columns": list(row.keys()), "passed": True,
              "summary": {"center": list(map(float, center))}}
    _emit(Path(args.out), "functionals", result, args.format, vars(args))
    print(json.dumps(row, indent=2))
    return 0


def cmd_deficits(args) -> int:
    _refuse_unread(_tolerances(args), (), "deficits")
    K = _load_any_domain(args.domain, args.resolution)
    which = args.which.split(",") if args.which != "all" else [
        "minkowski", "volumetric", "nuclear"]
    ops = {"minkowski": deficits.minkowski_deficit,
           "volumetric": deficits.volumetric_minkowski_deficit,
           "nuclear": deficits.nuclear_minkowski_deficit}
    rows = []
    for name in which:
        if name not in ops:
            raise SystemExit(f"unknown deficit {name!r}; choose from {sorted(ops)}")
        rows.append(ops[name](K, seed=args.seed).row())
    result = {"rows": rows, "columns": DEFICIT_COLUMNS, "passed": True,
              "summary": {}}
    _emit(Path(args.out), "deficits", result, args.format, vars(args))
    for row in rows:
        print(f"{row['which']}: margin = {row['margin']:.6e}")
    return 0


def cmd_verify(args) -> int:
    lemma = VERIFY_ALIASES.get(args.lemma, args.lemma)
    if lemma not in VERIFY_CHECKS:
        raise SystemExit(f"unknown check {args.lemma!r}; choose from "
                         f"{sorted(VERIFY_CHECKS) + sorted(VERIFY_ALIASES)}")
    check = VERIFY_CHECKS[lemma]
    if args.seed is None and "--seed" in check.options:
        args.seed = 0       # a seeded check always gets its seed from here
    # an omitted option is left out, so the suite's default applies
    given = _given(args)
    _refuse_unread(given, check.options, f"verify {lemma}")
    kwargs = {check.options[opt]: value for opt, value in given.items()}
    result = getattr(suites, check.suite)(**kwargs)
    _emit(Path(args.out), f"verify_{lemma}", result, args.format, vars(args))
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{lemma}: {status}  {json.dumps(result['summary'], default=str)}")
    return 0 if result["passed"] else 3


def cmd_counterexample(args) -> int:
    given = _tolerances(args)
    _refuse_unread(given, ("--tolerance dent_cross_check_rel",), "counterexample")
    gap_tolerance = given.get("--tolerance dent_cross_check_rel", DENT_CROSS_CHECK_REL)
    if args.mesh and args.n != 3:
        raise ValueError(f"--mesh exports the dented sphere of n = 3 only, got --n {args.n}")
    out_dir = Path(args.out)
    from quermass import counterexample as cx
    if args.sweep:
        kappas = tuple(float(k) for k in args.sweep.split(","))
        result = suites.dent_sweep_suite(eps=args.eps, kappas=kappas, n=args.n,
                                         gap_tolerance=gap_tolerance)
        search = suites.negative_total_curvature_suite(
            eps=args.eps, kappa_start=max(kappas), kappa_max=args.kappa_max,
            n=args.n)
        result["rows"].extend(search["rows"])
        result["summary"]["search"] = search["summary"]
        result["passed"] = result["passed"] and search["passed"]
        shown = result["summary"]
    else:
        if args.kappa is None:
            raise SystemExit("counterexample needs --kappa or --sweep")
        rec = cx.total_mean_curvature(args.n, args.eps, args.kappa,
                                      method="both" if args.n == 3 else "zonal")
        # n = 3 also integrates on the dense grid: its gap gates the verdict
        passed = rec.get("relative_gap", 0.0) <= gap_tolerance
        result = {"rows": [suites.dent_row(rec)],
                  "columns": suites.DENT_EXTRA_COLUMNS,
                  "passed": passed, "summary": {}}
        # the summary file stays {}; stdout shows the gap and its gate
        shown = ({"relative_gap": rec["relative_gap"],
                  "tolerance": gap_tolerance}
                 if "relative_gap" in rec else {})
    _emit(out_dir, "counterexample", result, args.format, vars(args))
    if args.mesh:
        from quermass.grids import build_grid
        domain = cx.build_counterexample(args.n, args.eps, args.kappa or 20.0)
        K = domain.on_grid(build_grid(3, args.resolution or 128))
        qio.export_obj(K, out_dir / "counterexample.obj")
    print("PASS" if result["passed"] else "FAIL", json.dumps(shown, default=str))
    return 0 if result["passed"] else 3


# conjecture's options, as typed -> maximize_ratio keyword (--n is positional)
_CONJECTURE_OPTIONS = {"--degree-cap": "basis_cap", "--restarts": "restarts",
                       "--seed": "seed", "--amplitude-cap": "amplitude_cap"}


def cmd_conjecture(args) -> int:
    from quermass import conjecture
    given = _given(args)
    _refuse_unread(given, ("--n", *_CONJECTURE_OPTIONS), "conjecture")
    out_dir = Path(args.out)
    # an omitted option leaves maximize_ratio's default
    out = conjecture.maximize_ratio(
        args.n, **{kw: given[opt] for opt, kw in _CONJECTURE_OPTIONS.items() if opt in given})
    best = out["best"]
    rows = [suites.conjecture_row(args.n, r["seed"], out["backend"].L, r["ratio"],
                                  r["constraint_margin"], r["grad_inf"])
            for r in out["rows"]]
    check = best.meta["gradient_check_max_rel"]
    passed = (check or 0) <= 1e-5 and all(r["best_ratio"] <= 1 + 1e-8 for r in rows)
    result = {"rows": rows, "columns": suites.CONJ_COLUMNS, "passed": passed,
              "summary": {"best_ratio": best.ratio,
                          "constraint_margin": best.constraint_margin,
                          "grad_inf": best.grad_norm_inf,
                          "conjectured_bound": conjecture.conjectured_bound(args.n),
                          "gradient_check_max_rel": check,
                          "recheck": out.get("high_resolution_recheck")}}
    _emit(out_dir, "conjecture", result, args.format, vars(args))
    # persist the best candidate as a field / axial-profile file
    if args.n == 3:
        from quermass import fields
        qio.save_field(fields.synthesize(best.coeffs, out["backend"].grid),
                       out_dir / "best_candidate.json")
    elif args.n >= 4:
        from quermass.axisym import AxialProfile
        qio.save_axial_profile(
            AxialProfile.from_zonal_coeffs(args.n, best.coeffs),
            out_dir / "best_candidate.json")
    print(f"best ratio {best.ratio:.6f} vs conjectured "
          f"{conjecture.conjectured_bound(args.n):.6f}"
          + (" (recheck attached)" if "high_resolution_recheck" in out else ""))
    if not passed:
        print(f"FAIL gradient check {check} (bound 1e-5), "
              f"largest ratio {max(r['best_ratio'] for r in rows)} (bound 1)")
    return 0 if passed else 3


def cmd_export_mesh(args) -> int:
    _refuse_unread(_tolerances(args), (), "export-mesh")
    K = qio.load_domain(args.domain, resolution=args.resolution)
    path = Path(args.out) / "mesh.obj"
    qio.export_obj(K, path)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quermass",
        description="curvature functionals and deficit inequalities of "
                    "near-ball star-shaped domains")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--resolution", type=int, default=None)
    common.add_argument("--degree-cap", type=int, default=None)
    common.add_argument("--lambda-cut", type=float, default=None)
    common.add_argument("--eps", type=float, default=None)
    common.add_argument("--kappa", type=float, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--restarts", type=int, default=None)
    common.add_argument("--out", default="quermass-out")
    common.add_argument("--tolerance", action="append", metavar="KEY=VAL")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("functionals", parents=[common],
                       help="volume, perimeter and curvature integrals of a domain file")
    p.add_argument("domain")
    p.set_defaults(func=cmd_functionals)

    p = sub.add_parser("deficits", parents=[common],
                       help="deficit reports for a domain file")
    p.add_argument("domain")
    p.add_argument("--which", default="all",
                   help="comma list: minkowski,volumetric,nuclear")
    p.set_defaults(func=cmd_deficits)

    p = sub.add_parser("verify", parents=[common],
                       help="run a randomized verification suite")
    p.add_argument("lemma", help=f"one of {sorted(VERIFY_CHECKS)} "
                                 f"(aliases {sorted(VERIFY_ALIASES)})")
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexample", parents=[common],
                       help="dented near-ball domains with negative total mean curvature")
    p.add_argument("--sweep", default=None, help="comma list of kappa values")
    p.add_argument("--kappa-max", type=float, default=1e5)
    p.add_argument("--mesh", action="store_true",
                   help="also write counterexample.obj (n = 3 only)")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("conjecture", parents=[common],
                       help="search for extremals of the gradient-energy ratio")
    p.add_argument("--amplitude-cap", type=float, default=None)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("export-mesh", parents=[common],
                       help="OBJ mesh of a domain file (n = 3)")
    p.add_argument("domain")
    p.set_defaults(func=cmd_export_mesh)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, value in _OWN_DEFAULTS.get(args.command, {}).items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
