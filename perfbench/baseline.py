"""Repeat the benchmark over seeds and summarize it, as BASELINE.json is made.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Every workload of BENCHMARK.json runs RUNS times untraced in each of
SETS sets (set k uses the seeds 10k+1 .. 10k+10) and TRACE_RUNS times
traced, one fresh run.py process each.  For every end-to-end metric and
set the summary gives the median, the quartiles of
``statistics.quantiles(values, n=4)``, the sample count and the spread
(q3 - q1) / median, which is steady below a third of the metric's bound
in BENCHMARK.json.  The sets agree when no set's median is worse than
the first set's by more than the bound.  Traced runs give the median of
each per-layer metric.  The QUERMASS_THREADS=1 / =2 time ratio of the
pooled commands pairs, within each threads2 run, the serial run of each
command with its median pooled time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10
SETS = 2
TRACE_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, full record) of one benchmark run."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "spread": spread,
            "steady": spread < bound / 3, "values": values}


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def threads_ratio(records: list[dict]) -> dict:
    """argv without its --seed -> median over runs of serial / pooled seconds."""
    ratios = {}
    for rec in records:
        for cmd, pooled, serial in zip(rec["commands"], rec["command_s"],
                                       rec["serial_command_s"]):
            argv = cmd["argv"]
            i = argv.index("--seed")
            ratios.setdefault(" ".join(argv[:i] + argv[i + 2:]), []).append(serial / pooled)
    return {cmd: statistics.median(r) for cmd, r in ratios.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    seed_sets = [list(range(10 * k + 1, 10 * k + RUNS + 1)) for k in range(SETS)]
    summary = {"run_seconds": seconds, "seed_sets": seed_sets, "workloads": {}}
    ok = True
    for workload in bench["workloads"]:
        name = workload["name"]
        sets, records = [], []
        for seeds in seed_sets:
            results = []
            for seed in seeds:
                res, rec = run_once(name, seed, seconds, 0)
                results.append(res)
                records.append(rec)
                print(name, seed, json.dumps(res["metrics"]), file=sys.stderr, flush=True)
            sets.append({"failed": sum(r["failed"] for r in results),
                         "attempted": sum(r["attempted"] for r in results),
                         "end_to_end": {m["name"]: summarize(
                             [r["metrics"][m["name"]]["value"] for r in results], m["bound"])
                             for m in bench["end_to_end"]}})
        agreement = {}
        for m in bench["end_to_end"]:
            first = sets[0]["end_to_end"][m["name"]]["median"]
            worst = max(worse_by(m, first, s["end_to_end"][m["name"]]["median"])
                        for s in sets[1:])
            agreement[m["name"]] = {"worse_by": worst, "within_bound": worst <= m["bound"]}
        ok = ok and all(a["within_bound"] for a in agreement.values()) and all(
            st["steady"] for s in sets for st in s["end_to_end"].values())
        entry = {"sets": sets, "set_agreement": agreement,
                 "repetitions_per_run": [len(r["repetitions"]) for r in records],
                 "environment": records[0]["environment"]}
        traced = [run_once(name, s, seconds, 1)[1] for s in range(1, TRACE_RUNS + 1)]
        entry["per_layer_median"] = {k: statistics.median(t["per_layer"][k] for t in traced)
                                     for k in traced[0]["per_layer"]}
        entry["trace_failed_checks"] = sum(not c["passed"] for t in traced for c in t["checks"])
        if records[0]["serial_command_s"] is not None:
            summary["threads_ratio"] = {
                "base": f"{name}: median over its {len(records)} runs of (QUERMASS_THREADS=1 "
                        "seconds of one serial run after the pooled repetitions) / (median "
                        "QUERMASS_THREADS=2 seconds of the repetitions), same process and seed",
                "commands": threads_ratio(records)}
        summary["workloads"][name] = entry

    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for name, entry in summary["workloads"].items():
        for metric, agree in entry["set_agreement"].items():
            per_set = "  ".join(
                f"median {s['end_to_end'][metric]['median']:.5g} spread "
                f"{s['end_to_end'][metric]['spread']:.4f}"
                f"{'' if s['end_to_end'][metric]['steady'] else ' UNSTEADY'}"
                for s in entry["sets"])
            print(f"{name:9s} {metric:12s} {per_set}  worse by {agree['worse_by']:+.4f}"
                  f"{'' if agree['within_bound'] else ' OUTSIDE BOUND'}")
    for cmd, ratio in summary.get("threads_ratio", {}).get("commands", {}).items():
        print(f"threads ratio {ratio:.3f}  {cmd}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
