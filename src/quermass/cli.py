"""Command-line front end.

Subcommands: functionals, deficits, verify CHECK, counterexample,
conjecture, export-mesh.  One table (COMMANDS, VERIFY_CHECKS) declares
the options each command reads and the defaults the CLI owns, and the
parsers are built from it.  An option without a default is left out of
the namespace when omitted, so the callee's default applies: `verify`
and `conjecture` pass the namespace as keywords.  Any other option, an
unknown check, a malformed value or a ValueError of the run exits 2
before anything is written.  config.json records the options the
command reads, null where omitted.  Fixed seeds give byte-identical
CSV.  The exit status is 0 exactly when every assertion of the invoked
suite holds, 3 when one fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

from quermass import deficits, io as qio, suites
from quermass.axisym import AxialDomain
from quermass.config import DENT_CROSS_CHECK_REL
from quermass.reporting import (DEFICIT_COLUMNS, echo_config, write_csv,
                                write_json)

# the grid of counterexample --mesh when --resolution is omitted
_MESH_RESOLUTION = 128

# deficits --which: name -> function in quermass.deficits
_DEFICITS = {"minkowski": "minkowski_deficit",
             "volumetric": "volumetric_minkowski_deficit",
             "nuclear": "nuclear_minkowski_deficit"}


def deficit_list(text: str) -> list:
    names = list(_DEFICITS) if text == "all" else text.split(",")
    unknown = [name for name in names if name not in _DEFICITS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown deficit {', '.join(unknown)}; choose all or from {', '.join(_DEFICITS)}")
    return names


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return value


def float_or_inf(text: str) -> float:
    """A number, inf included (kappa_max's "no cap"); nan is refused."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"{text} is not a number")
    return value


def kappa_list(text: str) -> tuple:
    return tuple(finite_float(k) for k in text.split(","))


def _tolerance(key: str):
    """The --tolerance type of a command that reads KEY: "KEY=VAL" -> VAL."""
    def tolerance(item: str) -> float:
        given, _, value = item.partition("=")
        if given != key:
            raise argparse.ArgumentTypeError(
                f"does not read --tolerance {given}; it reads --tolerance {key}=VAL")
        return float(value)
    return tolerance


# every option of the CLI; a command declares the ones it reads
OPTIONS = {
    "--n": {"type": int}, "--resolution": {"type": int}, "--count": {"type": int},
    "--eps": {"type": float}, "--seed": {"type": int}, "--lambda-cut": {"type": float},
    "--degree-cap": {"type": int}, "--restarts": {"type": int},
    "--kappa": {"type": finite_float}, "--kappa-max": {"type": float_or_inf},
    "--sweep": {"type": kappa_list, "help": "comma list of kappa values"},
    "--mesh": {"action": "store_true", "help": "also write counterexample.obj (n = 3 only)"},
    "--which": {"type": deficit_list, "help": "all, or a comma list of "
                                              "minkowski,volumetric,nuclear"},
    "--tolerance": {"metavar": "KEY=VAL"},     # its type reads the command's key
}


class Command(NamedTuple):
    """A command: the options it reads and the defaults the CLI owns."""

    help: str
    options: dict           # option as typed (--tolerance KEY too) -> namespace key
    defaults: dict = {}     # option -> default; the others are left out when omitted
    domain: bool = False    # reads a domain file
    one_of: tuple = ()      # options of which exactly one is given


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

COMMANDS = {
    "functionals": Command("volume, perimeter and curvature integrals of a domain file",
                           {"--resolution": "resolution"}, {"--resolution": None},
                           domain=True),
    "deficits": Command("deficit reports for a domain file",
                        {"--resolution": "resolution", "--which": "which", "--seed": "seed"},
                        {"--resolution": None, "--which": "all", "--seed": 0}, domain=True),
    "counterexample": Command(
        "dented near-ball domains with negative total mean curvature",
        {"--n": "n", "--eps": "eps", "--kappa": "kappa", "--sweep": "kappas",
         "--kappa-max": "kappa_max", "--mesh": "mesh", "--resolution": "resolution",
         "--tolerance dent_cross_check_rel": "gap_tolerance",
         # read by nothing: the benchmark passes --seed to every command
         "--seed": "seed"},
        {"--n": 3, "--eps": 0.3, "--kappa": None, "--sweep": None, "--kappa-max": 1e5,
         "--mesh": False, "--resolution": None, "--seed": None,
         "--tolerance dent_cross_check_rel": DENT_CROSS_CHECK_REL},
        one_of=("--kappa", "--sweep")),
    "conjecture": Command("search for extremals of the gradient-energy ratio",
                          {"--n": "n", "--degree-cap": "basis_cap",
                           "--restarts": "restarts", "--seed": "seed"}, {"--n": 3}),
    "export-mesh": Command("OBJ mesh of a domain file (n = 3)",
                           {"--resolution": "resolution"}, {"--resolution": None},
                           domain=True),
}
# namespace entries that are not keywords of the callee
_BOOKKEEPING = ("command", "lemma", "out")


def _reads(args) -> dict:
    """The options the command of a parsed run reads, as typed -> namespace key."""
    return (VERIFY_CHECKS[args.lemma] if args.command == "verify"
            else COMMANDS[args.command]).options


def _keywords(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _BOOKKEEPING}


def _echo_config(args) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo_config(out_dir, {**dict.fromkeys(_reads(args).values()), **vars(args)})
    return out_dir


def _emit(args, name: str, result: dict) -> Path:
    out_dir = _echo_config(args)
    write_csv(out_dir / f"{name}.csv", result["rows"], result["columns"])
    write_json(out_dir / f"{name}_summary.json",
               {"passed": result.get("passed", True),
                "summary": result.get("summary", {})})
    return out_dir


def _is_axial_profile(path) -> bool:
    payload = json.loads(Path(path).read_text())
    return "zonal_coeffs" in payload or "theta_nodes" in payload


def _load_any_domain(path, resolution):
    if _is_axial_profile(path):
        return AxialDomain(qio.load_axial_profile(path, resolution))
    return qio.load_domain(path, resolution=resolution)


def cmd_functionals(args) -> int:
    K = _load_any_domain(args.domain, args.resolution)
    F = K.curvature_integrals()
    eps, center = K.eps_size()
    row = {"n": F.n, "volume": F.volume, "perimeter": F.perimeter,
           "int_H": F.int_H, "int_H_plus": F.int_H_plus,
           "int_H_minus": F.int_H_minus, "int_nuclear": F.int_nuclear,
           "eps_size": eps}
    for k, v in enumerate(F.int_sigma, start=1):
        row[f"int_sigma_{k}"] = v
    result = {"rows": [row], "columns": list(row.keys()), "passed": True,
              "summary": {"center": list(map(float, center))}}
    _emit(args, "functionals", result)
    print(json.dumps(row, indent=2))
    return 0


def cmd_deficits(args) -> int:
    K = _load_any_domain(args.domain, args.resolution)
    rows = [getattr(deficits, _DEFICITS[name])(K, seed=args.seed).row()
            for name in args.which]
    _emit(args, "deficits", {"rows": rows, "columns": DEFICIT_COLUMNS})
    for row in rows:
        print(f"{row['which']}: margin = {row['margin']:.6e}")
    return 0


def cmd_verify(args) -> int:
    result = getattr(suites, VERIFY_CHECKS[args.lemma].suite)(**_keywords(args))
    _emit(args, f"verify_{args.lemma}", result)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{args.lemma}: {status}  {json.dumps(result['summary'], default=str)}")
    return 0 if result["passed"] else 3


def cmd_counterexample(args) -> int:
    if args.mesh and args.n != 3:
        raise ValueError(f"--mesh exports the dented sphere of n = 3 only, got --n {args.n}")
    if args.resolution is not None and not args.mesh:
        raise ValueError("--resolution sets the grid of --mesh; it is read only with --mesh")
    from quermass import counterexample as cx
    if args.mesh:       # built first, so that a kappa or resolution it refuses writes nothing
        from quermass.grids import build_grid
        kappa = args.kappa or 20.0
        if args.resolution is None:
            args.resolution = _MESH_RESOLUTION
        cx.check_points(kappa)      # before the packing, which can take seconds
        mesh = cx.build_counterexample(args.n, args.eps, kappa).on_grid(
            build_grid(3, args.resolution))
    if args.kappas:
        result = suites.dent_sweep_suite(eps=args.eps, kappas=args.kappas, n=args.n,
                                         gap_tolerance=args.gap_tolerance)
        search = suites.negative_total_curvature_suite(
            eps=args.eps, kappa_start=max(args.kappas), kappa_max=args.kappa_max,
            n=args.n)
        result["rows"].extend(search["rows"])
        result["summary"]["search"] = search["summary"]
        result["passed"] = result["passed"] and search["passed"]
        shown = result["summary"]
    else:
        rec = cx.total_mean_curvature(args.n, args.eps, args.kappa,
                                      method="both" if args.n == 3 else "zonal")
        # n = 3 also integrates on the dense grid: its gap gates the verdict
        shown = ({"relative_gap": rec["relative_gap"],
                  "tolerance": args.gap_tolerance}
                 if "relative_gap" in rec else {})
        result = {"rows": [suites.dent_row(rec)],
                  "columns": suites.DENT_EXTRA_COLUMNS,
                  "passed": shown.get("relative_gap", 0.0) <= args.gap_tolerance,
                  "summary": shown}
    out_dir = _emit(args, "counterexample", result)
    if args.mesh:
        qio.export_obj(mesh, out_dir / "counterexample.obj")
    print("PASS" if result["passed"] else "FAIL", json.dumps(shown, default=str))
    return 0 if result["passed"] else 3


def cmd_conjecture(args) -> int:
    from quermass import conjecture
    # an omitted option leaves maximize_ratio's default
    out = conjecture.maximize_ratio(**_keywords(args))
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
    out_dir = _emit(args, "conjecture", result)
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
    if _is_axial_profile(args.domain):
        raise ValueError(f"export-mesh meshes a field or domain file of n = 3; "
                         f"{args.domain} is an axial profile")
    n = json.loads(Path(args.domain).read_text())["n"]
    if n != 3:
        raise ValueError(f"mesh export is defined for n = 3; {args.domain} has n = {n}")
    K = qio.load_domain(args.domain, resolution=args.resolution)
    path = qio.export_obj(K, Path(args.out) / "mesh.obj")
    _echo_config(args)
    print(f"wrote {path}")
    return 0


def _declare(parser, options: dict, defaults: dict, one_of: tuple = ()) -> None:
    """Declare on parser the options it reads, and --out."""
    group = parser.add_mutually_exclusive_group(required=True) if one_of else None
    for opt, dest in options.items():
        flag, _, key = opt.partition(" ")
        spec = dict(OPTIONS[flag], type=_tolerance(key)) if key else OPTIONS[flag]
        (group if opt in one_of else parser).add_argument(
            flag, dest=dest, default=defaults.get(opt, argparse.SUPPRESS), **spec)
    parser.add_argument("--out", default="quermass-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quermass",
        description="curvature functionals and deficit inequalities of "
                    "near-ball star-shaped domains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.domain:
            p.add_argument("domain")
        _declare(p, command.options, command.defaults, command.one_of)
    p = sub.add_parser("verify", help="run a randomized verification suite")
    checks = p.add_subparsers(metavar="CHECK", required=True)
    for name, check in VERIFY_CHECKS.items():
        p = checks.add_parser(name, aliases=check.aliases, help=f"suites.{check.suite}")
        _declare(p, check.options, {"--seed": 0})    # a seeded check always gets one
        p.set_defaults(lemma=name)
    return parser


def main(argv=None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
    except SystemExit as exc:       # argparse's refusals (2), and --help (0)
        return exc.code
    try:
        if unread:
            what = f"verify {args.lemma}" if args.command == "verify" else args.command
            flags = [a.partition("=")[0] for a in unread if a.startswith("--")] or unread
            raise ValueError(f"{what} does not read {', '.join(dict.fromkeys(flags))}; "
                             f"it reads {', '.join(sorted([*_reads(args), '--out']))}")
        # looked up at call time, so that a patched cmd_* is the one called
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
