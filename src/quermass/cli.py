"""Command-line front end.

Subcommands: functionals, deficits, verify, counterexample, conjecture,
export-mesh.  Every run echoes its fully resolved configuration into the
output directory; randomized suites require explicit seeds and produce
byte-identical CSV under identical configuration.  The exit status is 0
exactly when every assertion of the invoked suite holds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from quermass import deficits, io as qio, suites
from quermass.axisym import AxialDomain
from quermass.config import DEFAULT_TOLERANCES, Tolerances
from quermass.reporting import (DEFICIT_COLUMNS, echo_config, write_csv,
                                write_json)

VERIFY_CHOICES = {
    "grad-normal": "gradient/normal two-sided comparison",
    "freq-split": "high-frequency lower bound for the cubic term",
    "eigen-interp": "Hessian eigenvalue interpolation bound",
    "radial-identity": "flat radial cubic-term identity",
    "pole": "polar slope estimate",
    "curvature-routes": "two mean-curvature formulas agree",
    "nuclear": "nuclear-norm deficit nonnegativity",
    "axial": "axisymmetric deficit nonnegativity",
    "stability": "volumetric deficit stability ratio",
}
VERIFY_ALIASES = {"3.2": "grad-normal", "4.1": "freq-split",
                  "4.2": "eigen-interp", "A.1": "radial-identity"}


# tolerance keys each verify check reads; the others read none
VERIFY_TOLERANCES = {"curvature-routes": ("mean_curvature_agree",)}


def _tolerances(pairs, reads=None, what="this command"):
    """Tolerances with the --tolerance KEY=VAL overrides applied.

    reads names the keys the command reads (None: every field of
    Tolerances); any other key is refused with ValueError before
    anything runs.
    """
    overrides = {}
    for item in pairs or ():
        key, _, val = item.partition("=")
        if not val:
            raise SystemExit(f"--tolerance expects KEY=VAL, got {item!r}")
        overrides[key] = float(val)
    if reads is None:
        reads = [f.name for f in dataclasses.fields(Tolerances)]
    refused = sorted(set(overrides) - set(reads))
    if refused:
        raise ValueError(f"unknown tolerance keys {refused} for {what}, which "
                         f"reads {sorted(reads) if reads else 'none'}")
    return DEFAULT_TOLERANCES.with_overrides(overrides)


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


def _given(value, default):
    """value unless the option was omitted (None); 0 counts as given."""
    return default if value is None else value


def cmd_functionals(args) -> int:
    _tolerances(args.tolerance, what="functionals")
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
    _tolerances(args.tolerance, what="deficits")
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
    if lemma not in VERIFY_CHOICES:
        raise SystemExit(f"unknown check {args.lemma!r}; choose from "
                         f"{sorted(VERIFY_CHOICES) + sorted(VERIFY_ALIASES)}")
    tol = _tolerances(args.tolerance, VERIFY_TOLERANCES.get(lemma, ()),
                      f"verify {lemma}")
    count = args.count
    if lemma == "grad-normal":
        result = suites.gradient_normal_suite(
            count=_given(count, 100), eps=_given(args.eps, 0.1), seed=args.seed,
            resolution=_given(args.resolution, 32))
    elif lemma == "freq-split":
        result = suites.frequency_split_suite(
            count=_given(count, 300), seed=args.seed, lam=args.lambda_cut,
            resolution=_given(args.resolution, 32))
    elif lemma == "eigen-interp":
        result = suites.eigen_interpolation_suite(
            count=_given(count, 1000), seed=args.seed,
            resolution=_given(args.resolution, 32))
    elif lemma == "radial-identity":
        result = suites.radial_identity_suite()
    elif lemma == "pole":
        result = suites.pole_bound_suite(seed=args.seed, count=_given(count, 20),
                                         eps=_given(args.eps, 0.05))
    elif lemma == "curvature-routes":
        result = suites.route_agreement_suite(
            count=_given(count, 100), eps=_given(args.eps, 0.3), seed=args.seed,
            resolution=_given(args.resolution, 64),
            tolerance=tol.mean_curvature_agree)
    elif lemma == "nuclear":
        result = suites.nuclear_deficit_suite(
            count=_given(count, 200), eps=_given(args.eps, 0.05), seed=args.seed)
    elif lemma == "axial":
        result = suites.axial_deficit_suite(
            count=_given(count, 200), eps=_given(args.eps, 0.05), seed=args.seed)
    else:
        result = suites.stability_suite(
            count=_given(count, 200), eps=_given(args.eps, 0.05), seed=args.seed)
    _emit(Path(args.out), f"verify_{lemma}", result, args.format, vars(args))
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{lemma}: {status}  {json.dumps(result['summary'], default=str)}")
    return 0 if result["passed"] else 3


def cmd_counterexample(args) -> int:
    tol = _tolerances(args.tolerance, ("dent_cross_check_rel",), "counterexample")
    if args.mesh and args.n != 3:
        raise ValueError(f"--mesh exports the dented sphere of n = 3 only, got --n {args.n}")
    out_dir = Path(args.out)
    from quermass import counterexample as cx
    if args.sweep:
        kappas = tuple(float(k) for k in args.sweep.split(","))
        result = suites.dent_sweep_suite(eps=args.eps, kappas=kappas, n=args.n,
                                         gap_tolerance=tol.dent_cross_check_rel)
        search = suites.negative_total_curvature_suite(
            eps=args.eps, kappa_start=max(kappas), kappa_max=args.kappa_max,
            n=args.n)
        result["rows"].extend(search["rows"])
        result["summary"]["search"] = search["summary"]
        result["passed"] = result["passed"] and search["passed"]
    else:
        if args.kappa is None:
            raise SystemExit("counterexample needs --kappa or --sweep")
        rec = cx.total_mean_curvature(args.n, args.eps, args.kappa,
                                      method="both" if args.n == 3 else "zonal")
        row = {"kappa": rec["kappa"], "q": rec["count"],
               "int_H_grid": rec.get("int_H_grid", ""),
               "int_H_zonal": rec["int_H_zonal"],
               "eps_size": rec["eps_size"],
               "relative_gap": rec.get("relative_gap", ""),
               "packing_constant": rec["packing_constant"],
               "c1_norm": rec["c1_norm"]}
        # n = 3 also integrates on the dense grid: its gap gates the verdict
        passed = rec.get("relative_gap", 0.0) <= tol.dent_cross_check_rel
        result = {"rows": [row], "columns": suites.DENT_EXTRA_COLUMNS,
                  "passed": passed, "summary": {}}
    _emit(out_dir, "counterexample", result, args.format, vars(args))
    if args.mesh:
        from quermass.grids import build_grid
        domain = cx.build_counterexample(args.n, args.eps, args.kappa or 20.0)
        K = domain.on_grid(build_grid(3, args.resolution or 128))
        qio.export_obj(K, out_dir / "counterexample.obj")
    print("PASS" if result["passed"] else "FAIL",
          json.dumps(result["summary"], default=str))
    return 0 if result["passed"] else 3


def cmd_conjecture(args) -> int:
    from quermass import conjecture
    _tolerances(args.tolerance, (), "conjecture")
    out_dir = Path(args.out)
    rows = []
    out = conjecture.maximize_ratio(
        args.n, basis_cap=args.degree_cap or 12,
        restarts=args.restarts, seed=args.seed,
        amplitude_cap=args.amplitude_cap)
    best = out["best"]
    for r in out["rows"]:
        rows.append({"n": args.n, "seed": r["seed"],
                     "basis_cap": args.degree_cap or 12,
                     "best_ratio": r["ratio"],
                     "constraint_margin": r["constraint_margin"],
                     "grad_inf": r["grad_inf"],
                     "conjectured_bound": conjecture.conjectured_bound(args.n)})
    passed = (best.meta["gradient_check_max_rel"] or 0) <= 1e-5
    passed = passed and all(
        r["best_ratio"] <= 1 + 1e-8 for r in rows)
    result = {"rows": rows, "columns": suites.CONJ_COLUMNS, "passed": passed,
              "summary": {"best_ratio": best.ratio,
                          "constraint_margin": best.constraint_margin,
                          "grad_inf": best.grad_norm_inf,
                          "conjectured_bound": conjecture.conjectured_bound(args.n),
                          "recheck": out.get("high_resolution_recheck")}}
    _emit(out_dir, "conjecture", result, args.format, vars(args))
    # persist the best candidate as a field / axial-profile file
    if args.n == 3:
        from quermass import fields
        from quermass.grids import build_grid
        grid = out["backend"].grid
        qio.save_field(fields.synthesize(best.coeffs, grid),
                       out_dir / "best_candidate.json")
    elif args.n >= 4:
        from quermass.axisym import AxialProfile
        qio.save_axial_profile(
            AxialProfile.from_zonal_coeffs(args.n, best.coeffs),
            out_dir / "best_candidate.json")
    print(f"best ratio {best.ratio:.6f} vs conjectured "
          f"{conjecture.conjectured_bound(args.n):.6f}"
          + (" (recheck attached)" if "high_resolution_recheck" in out else ""))
    return 0 if passed else 3


def cmd_export_mesh(args) -> int:
    _tolerances(args.tolerance, (), "export-mesh")
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
    common.add_argument("--n", type=int, default=3)
    common.add_argument("--resolution", type=int, default=None)
    common.add_argument("--degree-cap", type=int, default=None)
    common.add_argument("--lambda-cut", type=float, default=None)
    common.add_argument("--eps", type=float, default=None)
    common.add_argument("--kappa", type=float, default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--restarts", type=int, default=20)
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
    p.add_argument("lemma", help=f"one of {sorted(VERIFY_CHOICES)} "
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
    if args.eps is None and getattr(args, "command", "") == "counterexample":
        args.eps = 0.3
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
