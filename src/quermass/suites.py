"""Randomized verification suites.

Each suite draws seeded domains or fields, evaluates one family of
checks, and returns {"rows", "columns", "passed", "summary"}; the rows
serialize deterministically to CSV, so identical seeds give identical
bytes.  The command-line `verify` subcommand and the acceptance tests
both run these functions.

The suites whose jobs are independent seeded domains run them through
_pmap on up to QUERMASS_THREADS worker processes, the caller included:
the caller computes one stride of the jobs and forked children the
others.  Where the fork start method does not exist (Windows), they run
serially.  The rows, and so the CSV bytes, do not depend on the count.
"""

from __future__ import annotations

import math
import sys
import threading
import warnings

import numpy as np

from quermass import conjecture, counterexample, cubic, deficits
from quermass.axisym import axial_minkowski_deficit
from quermass.config import (DEFICIT_MARGIN_SLACK, DENT_CROSS_CHECK_REL,
                             DEVIATION_RATIO_BOUND, MEAN_CURVATURE_AGREE, POLE_CONSTANT,
                             thread_count)
from quermass.grids import build_grid
from quermass.reporting import DEFICIT_COLUMNS
from quermass.stardomain import ResolutionWarning

CUBIC_COLUMNS = ["lemma", "n", "seed", "eps_scale", "lhs", "rhs",
                 "slack_scale", "margin", "ratio"]


def _require_count(count: int, minimum: int = 1) -> None:
    """Refuse a count that would leave the suite with no job to run."""
    if count < minimum:
        raise ValueError(f"count {count} leaves no job; this check needs "
                         f"a count of at least {minimum}")


def _target_miss(K, eps: float) -> float:
    """|eps_size - eps| / eps of a zonal draw sized to the target eps.

    The draw's eps_size is cached by random_domain's last rescale, so
    this costs nothing.  A zero target (the ball) gives eps_size itself.
    """
    e, _ = K.eps_size()
    return abs(e - eps) / eps if eps > 0 else e


def _pop_worst(rows, key: str) -> float | None:
    """Pop key from each row; the largest value, or None where no row has one."""
    values = [v for v in (r.pop(key, None) for r in rows) if v is not None]
    return max(values, default=None)


def _jobs(count: int, ns) -> list:
    """count // len(ns) seeds per dimension, as (n, i) pairs."""
    _require_count(count, len(ns))
    per_n = count // len(ns)
    return [(n, i) for n in ns for i in range(per_n)]


def _pmap(fn, items):
    """[fn(x) for x in items], on up to thread_count() processes.

    With w workers the caller computes items[0::w] and forked child j
    computes items[j::w]: a stride gives every process jobs of every
    dimension, and the caller's lazily built tables warm for the next
    map's children.  The children inherit the caller's imports; none of
    their jobs needs a module the caller has not loaded.  fn and its
    stride reach a child through the fork, so closures need not pickle;
    only the rows and the warnings each job raised, or the exception that
    stopped a stride, come back pickled.
    Every process records its jobs' warnings, and the caller re-emits
    them in job order once the rows are in, so its own filters decide
    what is shown, as in a serial map.  The children are reaped before
    _pmap returns or raises.  A process running a second Python thread
    maps serially, since a fork copies the locks another thread holds.
    """
    items = list(items)
    workers = min(thread_count(), len(items))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return _forked_map(multiprocessing.get_context("fork"), fn, items, workers)
    return [fn(x) for x in items]


def _recorded(fn, items) -> list:
    """[(fn(x), the warnings it raised as (message, category, filename, lineno))]."""
    out = []
    for x in items:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            row = fn(x)
        out.append((row, [(w.message, w.category, w.filename, w.lineno) for w in caught]))
    return out


def _warn_again(message, category, filename, lineno) -> None:
    """warnings.warn_explicit with the module and registry warnings.warn uses."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    if module is None:
        warnings.warn_explicit(message, category, filename, lineno)
        return
    globals_ = vars(module)
    warnings.warn_explicit(message, category, filename, lineno, module=module.__name__,
                           registry=globals_.setdefault("__warningregistry__", {}),
                           module_globals=globals_)


def _stride(fn, items, conn) -> None:
    """A child's work: send (True, recorded rows), or (False, the exception)."""
    try:
        reply = (True, _recorded(fn, items))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)


def _forked_map(ctx, fn, items, workers: int) -> list:
    recorded = [None] * len(items)
    children = []
    try:
        for j in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_stride, args=(fn, items[j::workers], send))
            children.append((child, recv))
            child.start()
            send.close()        # so that a child that dies leaves its pipe at EOF
        recorded[0::workers] = _recorded(fn, items[0::workers])
        for j, (child, recv) in enumerate(children, start=1):
            try:
                ok, reply = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"pooled worker {j} exited with status "
                                   f"{child.exitcode} before returning its rows") from None
            if not ok:
                raise reply
            recorded[j::workers] = reply
    except BaseException:
        for child, _ in children:
            if child.pid is not None:
                child.terminate()
        raise
    finally:
        for child, recv in children:
            recv.close()
            if child.pid is not None:
                child.join()
                child.close()
    for _, caught in recorded:
        for warning in caught:
            _warn_again(*warning)
    return [row for row, _ in recorded]


# -- curvature-formula agreement (two mean-curvature routes) -------------------


def route_agreement_suite(count: int = 100, eps: float = 0.3, seed: int = 2024,
                          resolution: int = 64, L: int = 6,
                          tolerance: float = MEAN_CURVATURE_AGREE) -> dict:
    _require_count(count)
    grid = build_grid(3, resolution)

    def one(i):
        K = deficits.random_domain(3, eps, seed=seed + i, L=L, grid=grid)
        b = K.curvatures(check_routes=True)
        e, _ = K.eps_size()
        return {"lemma": "curvature_routes", "n": 3, "seed": seed + i,
                "eps_scale": e, "lhs": float(np.max(np.abs(b.H))),
                "rhs": float(np.max(np.abs(b.H_divergence))),
                "slack_scale": tolerance, "margin": tolerance - b.max_route_disagreement,
                "ratio": b.max_route_disagreement,
                "center_residual": K.center_certificate().residual}
    # the route disagreement is the measured quantity here, so its
    # warning is silenced; set in the caller, the filter reaches the
    # pooled workers through the fork
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        rows = _pmap(one, range(count))
    worst = max(r["ratio"] for r in rows)
    return {"rows": rows, "columns": CUBIC_COLUMNS,
            "passed": worst <= tolerance,
            "summary": {"worst_disagreement": worst, "tolerance": tolerance,
                        "worst_center_residual": _pop_worst(rows, "center_residual")}}


# -- gradient-vs-normal comparison ----------------------------------------------


def gradient_normal_suite(count: int = 100, eps: float = 0.1, seed: int = 3001,
                          resolution: int = 32) -> dict:
    _require_count(count)
    grid = build_grid(3, resolution)

    def one(i):
        K = deficits.random_domain(3, eps, seed=seed + i, grid=grid)
        rep = K.gradient_normal_report()
        worst = max(v for k, v in rep.items() if k != "within_bound")
        return {"lemma": "grad_vs_normal", "n": 3, "seed": seed + i,
                "eps_scale": eps, "lhs": worst,
                "rhs": DEVIATION_RATIO_BOUND, "slack_scale": 0.0,
                "margin": DEVIATION_RATIO_BOUND - worst,
                "ratio": worst, "within": rep["within_bound"]}
    rows = _pmap(one, range(count))
    passed = all(r["within"] for r in rows)
    for r in rows:
        del r["within"]
    return {"rows": rows, "columns": CUBIC_COLUMNS, "passed": passed,
            "summary": {"worst_ratio": max(r["ratio"] for r in rows)}}


# -- Hessian eigenvalue interpolation bound --------------------------------------


def eigen_interpolation_suite(count: int = 1000, ns=(3, 4),
                              eps_scale: float = 0.1, seed: int = 4001,
                              resolution: int = 32, L: int = 12,
                              tolerance: float = 1e-7) -> dict:
    jobs = _jobs(count, ns)
    grid = build_grid(3, resolution)

    def one(job):
        n, i = job
        u = cubic.random_c1_field(n, eps_scale, seed=seed + i, L=L,
                                  grid=grid if n == 3 else None)
        rep = cubic.eigenvalue_interpolation_check(u)
        return {"lemma": "eigen_interpolation", "n": n, "seed": seed + i,
                "eps_scale": eps_scale, "lhs": rep["lhs"], "rhs": rep["rhs"],
                "slack_scale": rep["scale"], "margin": rep["margin"],
                "ratio": rep["margin"] / max(rep["scale"], 1e-300)}
    rows = _pmap(one, jobs)
    worst = min(r["margin"] for r in rows)
    return {"rows": rows, "columns": CUBIC_COLUMNS, "passed": worst >= -tolerance,
            "summary": {"worst_margin": worst, "tolerance": tolerance}}


# -- frequency-split slack ladder -------------------------------------------------


def frequency_split_suite(count: int = 300, eps_levels=(0.04, 0.02, 0.01),
                          seed: int = 5001, n: int = 3, lam: float | None = None,
                          resolution: int = 32, L: int = 12) -> dict:
    _require_count(count)
    if n < 3:
        raise ValueError(f"the frequency split is checked for n >= 3, got n = {n}")
    pairs = (cubic.mean_curvature_pair(n), cubic.volumetric_pair(n))
    ladders = cubic.slack_ratio_ladders(n, pairs, eps_levels=eps_levels, count=count,
                                        seed=seed, lam=lam, L=L, resolution=resolution)
    rows, summaries = [], {}
    passed = True
    for pair, out in zip(pairs, ladders):
        for r in out["rows"]:
            r["lemma"] = f"freq_split_{pair.name}"
            rows.append(r)
        summaries[pair.name] = out["mean_abs_ratio"]
        passed = passed and out["monotone"] and all(
            r["margin"] >= -1e-12 * max(1.0, abs(r["lhs"])) for r in out["rows"])
    return {"rows": rows, "columns": CUBIC_COLUMNS, "passed": passed,
            "summary": summaries}


# -- flat radial identity -----------------------------------------------------------


def radial_identity_suite(ns=(3, 4, 5), kappas=(10.0, 40.0),
                          eps_values=(0.1, 0.3), tolerance: float = 1e-10) -> dict:
    rows = []
    passed = True
    for n in ns:
        p = n - 3.0
        a_fn = lambda s, t, p=p: (1.0 + s) ** p / ((1.0 + s) ** 2 + t)
        for kappa in kappas:
            for eps in eps_values:
                bump = counterexample.make_bump(kappa, eps)
                exact = counterexample.radial_cubic_identity_check(bump, n)
                preset = counterexample.radial_cubic_identity_check(bump, n, a_fn)
                ok = abs(exact["difference"]) <= tolerance and preset["margin"] >= 0
                passed = passed and ok
                rows.append({"lemma": "radial_identity", "n": n, "seed": 0,
                             "eps_scale": eps, "lhs": preset["lhs"],
                             "rhs": preset["leading"],
                             "slack_scale": preset["remainder_scale"],
                             "margin": preset["margin"],
                             "ratio": exact["difference"]})
    worst_exact = max(abs(r["ratio"]) for r in rows)
    return {"rows": rows, "columns": CUBIC_COLUMNS, "passed": passed,
            "summary": {"worst_exact_case_residual": worst_exact}}


# -- polar slope estimate --------------------------------------------------------------


def pole_bound_suite(n: int = 3, seed: int = 6001, count: int = 20,
                     eps: float = 0.05) -> dict:
    from quermass.axisym import AxialProfile, pole_gradient_bound
    if n < 3:
        raise ValueError(f"the pole bound is checked for n >= 3, got n = {n}")
    rows = []
    passed = True

    def record(profile, tag, seed_val):
        nonlocal passed
        rep = pole_gradient_bound(profile)
        margin = min(rep["constants"][POLE_CONSTANT]["north_margin"],
                     rep["constants"][POLE_CONSTANT]["south_margin"])
        passed = passed and margin >= 0
        rows.append({"lemma": f"pole_bound_{tag}", "n": profile.n, "seed": seed_val,
                     "eps_scale": eps, "lhs": rep["int_H_minus"],
                     "rhs": rep["theta0"], "slack_scale": POLE_CONSTANT,
                     "margin": margin, "ratio": rep["slack"]})

    record(AxialProfile.from_zonal_coeffs(n, np.zeros(2)), "sphere", 0)
    for i in range(count):
        K = deficits.random_domain(n if n > 3 else 4, eps, seed=seed + i)
        record(K.profile, "random", seed + i)
        rows[-1].update(target_miss=_target_miss(K, eps),
                        center_residual=K.center_certificate().residual)
    bump = counterexample.make_bump(20.0, 0.3)
    record(bump.axial_profile(n), "dent", 0)
    return {"rows": rows, "columns": CUBIC_COLUMNS, "passed": passed,
            "summary": {"worst_margin": min(r["margin"] for r in rows),
                        "worst_target_miss": _pop_worst(rows, "target_miss"),
                        "worst_center_residual": _pop_worst(rows, "center_residual")}}


# -- deficit suites ----------------------------------------------------------------------


def nuclear_deficit_suite(count: int = 200, eps: float = 0.05, seed: int = 7001,
                          ns=(3, 4), resolution: int = 32) -> dict:
    jobs = _jobs(count, ns)
    grid = build_grid(3, resolution)

    def one(job):
        n, i = job
        K = deficits.random_domain(n, eps, seed=seed + i,
                                   grid=grid if n == 3 else None)
        row = deficits.nuclear_minkowski_deficit(K, seed=seed + i).row()
        row["center_residual"] = K.center_certificate().residual
        if n > 3:
            row["target_miss"] = _target_miss(K, eps)
        return row
    rows = _pmap(one, jobs)
    worst = min(r["margin"] for r in rows)
    return {"rows": rows, "columns": DEFICIT_COLUMNS,
            "passed": worst >= -DEFICIT_MARGIN_SLACK,
            "summary": {"worst_margin": worst,
                        "worst_target_miss": _pop_worst(rows, "target_miss"),
                        "worst_center_residual": _pop_worst(rows, "center_residual")}}


def axial_deficit_suite(count: int = 200, eps: float = 0.05, seed: int = 7501,
                        ns=(3, 4, 5)) -> dict:
    jobs = _jobs(count, ns)

    def one(job):
        n, i = job
        K = deficits.random_domain(n, eps, seed=seed + i, zonal=True)
        row = axial_minkowski_deficit(K, seed=seed + i).row()
        row.update(target_miss=_target_miss(K, eps),
                   center_residual=K.center_certificate().residual)
        return row
    rows = _pmap(one, jobs)
    worst = min(r["margin"] for r in rows)
    return {"rows": rows, "columns": DEFICIT_COLUMNS,
            "passed": worst >= -DEFICIT_MARGIN_SLACK,
            "summary": {"worst_margin": worst,
                        "worst_target_miss": _pop_worst(rows, "target_miss"),
                        "worst_center_residual": _pop_worst(rows, "center_residual")}}


def stability_suite(count: int = 200, eps: float = 0.05, seed: int = 8001,
                    n: int = 4) -> dict:
    _require_count(count)
    if n < 3:
        raise ValueError(f"the stability ratio is checked for n >= 3, got n = {n}")

    def one(i):
        K = deficits.random_domain(n, eps, seed=seed + i)
        rep = deficits.volumetric_minkowski_deficit(K, seed=seed + i)
        ratio = deficits.stability_ratio(K)
        row = rep.row()
        row["stability_ratio"] = ratio
        row["center_residual"] = K.center_certificate().residual
        if n > 3:
            row["target_miss"] = _target_miss(K, eps)
        return row
    rows = _pmap(one, range(count))
    worst_margin = min(r["margin"] for r in rows)
    ratios = [r["stability_ratio"] for r in rows if math.isfinite(r["stability_ratio"])]
    min_ratio = min(ratios) if ratios else math.inf
    return {"rows": rows, "columns": DEFICIT_COLUMNS + ["stability_ratio"],
            "passed": worst_margin >= -DEFICIT_MARGIN_SLACK and min_ratio > 0,
            "summary": {"worst_margin": worst_margin,
                        "empirical_stability_constant": min_ratio,
                        "worst_target_miss": _pop_worst(rows, "target_miss"),
                        "worst_center_residual": _pop_worst(rows, "center_residual")}}


# -- dented-sphere runs ----------------------------------------------------------------


DENT_COLUMNS = ["kappa", "q", "int_H_grid", "int_H_zonal", "eps_size"]
DENT_EXTRA_COLUMNS = DENT_COLUMNS + ["relative_gap", "packing_constant", "c1_norm"]


def dent_row(rec: dict) -> dict:
    """The DENT_EXTRA_COLUMNS row of one total_mean_curvature record.

    A zonal-only record has no grid total and no gap: those cells stay empty.
    """
    return {"kappa": rec["kappa"], "q": rec["count"],
            "int_H_grid": rec.get("int_H_grid", ""), "int_H_zonal": rec["int_H_zonal"],
            "eps_size": rec["eps_size"], "relative_gap": rec.get("relative_gap", ""),
            "packing_constant": rec["packing_constant"], "c1_norm": rec["c1_norm"]}


def dent_sweep_suite(eps: float = 0.3, kappas=(20.0, 40.0, 80.0, 160.0), n: int = 3,
                     gap_tolerance: float = DENT_CROSS_CHECK_REL) -> dict:
    recs = counterexample.sweep_total_mean_curvature(
        n, eps, kappas, method="both" if n == 3 else "zonal")
    rows = [dent_row(r) for r in recs]
    gaps = [r["relative_gap"] for r in recs if "relative_gap" in r]
    fit = counterexample.affine_fit([r["kappa"] for r in rows],
                                    [r["int_H_zonal"] for r in rows])
    passed = (fit["slope"] < 0 and fit["r_squared"] >= 0.9
              and all(g <= gap_tolerance for g in gaps)
              and all(r["c1_norm"] <= eps for r in rows))
    return {"rows": rows, "columns": DENT_EXTRA_COLUMNS, "passed": passed,
            "summary": {"fit": fit, "worst_gap": max(gaps, default=None)}}


def negative_total_curvature_suite(eps: float = 0.3, threshold: float = -1.0,
                                   kappa_start: float = 20.0,
                                   kappa_max: float = 1e5, n: int = 3) -> dict:
    out = counterexample.find_negative_mean_curvature(
        n, eps, threshold=threshold, kappa_start=kappa_start,
        kappa_max=kappa_max)
    rows = [dent_row(r) for r in out["history"]]
    return {"rows": rows, "columns": DENT_EXTRA_COLUMNS, "passed": out["found"],
            "summary": {"kappa_star": out["kappa_star"], "int_H": out["int_H"],
                        "reason": out["reason"]}}


# -- conjecture harness -------------------------------------------------------------------


CONJ_COLUMNS = ["n", "seed", "basis_cap", "best_ratio", "constraint_margin",
                "grad_inf", "conjectured_bound"]


def conjecture_row(n: int, seed: int, basis_cap: int, ratio: float,
                   constraint_margin: float, grad_inf: float) -> dict:
    """One CONJ_COLUMNS row; the conjectured bound follows from n."""
    return {"n": n, "seed": seed, "basis_cap": basis_cap, "best_ratio": ratio,
            "constraint_margin": constraint_margin, "grad_inf": grad_inf,
            "conjectured_bound": conjecture.conjectured_bound(n)}


def conjecture_suite(n3_cap: int = 12, n3_restarts: int = 12, seed: int = 9001,
                     levels=(8, 16, 32, 64)) -> dict:
    rows = []
    passed = True

    out2 = conjecture.maximize_ratio(2, basis_cap=8, restarts=4, seed=seed,
                                     iterations=120)
    best2 = out2["best"]
    rows.append(conjecture_row(2, seed, 8, best2.ratio, best2.constraint_margin,
                               best2.grad_norm_inf))
    passed = passed and abs(best2.ratio) <= 1e-8
    passed = passed and best2.meta["gradient_check_max_rel"] <= 1e-5

    out3 = conjecture.maximize_ratio(3, basis_cap=n3_cap, restarts=n3_restarts,
                                     seed=seed + 1)
    best3 = out3["best"]
    rows.append(conjecture_row(3, seed + 1, n3_cap, best3.ratio,
                               best3.constraint_margin, best3.grad_norm_inf))
    passed = passed and best3.meta["gradient_check_max_rel"] <= 1e-5
    # the trivial bound must hold for every feasible candidate
    backend3 = out3["backend"]
    trivial_ok = all(
        r["ratio"] <= 1.0 + 1e-8 for r in out3["rows"] if r["feasible"])
    passed = passed and trivial_ok
    passed = passed and conjecture.trivial_bound_margin(backend3, best3.coeffs) >= -1e-8

    ladder = conjecture.green_ladder(4, levels=levels)
    for lev, r, g in zip(ladder["levels"], ladder["ratios"], ladder["grad_inf"]):
        rows.append(conjecture_row(4, seed, lev, r, 0.0, g))
    passed = passed and ladder["min_ratio"] > 0
    passed = passed and ladder["grad_nonincreasing_within_10pct"]

    return {"rows": rows, "columns": CONJ_COLUMNS, "passed": passed,
            "summary": {"n2_best": best2.ratio, "n3_best": best3.ratio,
                        "green_min_ratio": ladder["min_ratio"],
                        "gradient_check_max": max(
                            best2.meta["gradient_check_max_rel"],
                            best3.meta["gradient_check_max_rel"])}}
