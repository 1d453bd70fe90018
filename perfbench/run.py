"""Benchmark of the quermass command line, end to end and per module.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 32 --trace 0

Set-up precompiles ``src/quermass``.  Then one fresh process
(bench_child.py) runs the workload's command sequence through
``quermass.cli.main``, repeated until --seconds are used.  Every process
runs with the BLAS/OpenMP pools pinned to one thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time
from a fresh interpreter to ``quermass.cli`` imported, sampled before the
first repetition and after each one), ``wall_s`` (median wall time of one
repetition of the sequence), both rescaled to the host's reference speed
(see bench_child.py), ``peak_rss_mb`` (the workload process's
``ru_maxrss``) and ``pass_frac`` (output checks passed / attempted; the
failed count is also the result's ``failed``).  ``--trace 1`` reports
the per-layer metrics of bench_trace.py.  Each metric is printed by name
with its unit; the last line is the JSON result.  The full record
(environment, per-command times, every check) and, when traced, the
spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 150
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def end_to_end_values(record: dict) -> dict:
    checks = record["checks"]
    passed = sum(c["passed"] for c in checks)
    return {"setup_s": record["setup_s"], "wall_s": record["wall_s"],
            "peak_rss_mb": record["peak_rss_mb"], "pass_frac": passed / len(checks)}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import bench_trace
    import bench_workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "quermass" / "cli.py").is_file():
        return fail(f"no quermass sources under {src}; run from a source checkout")

    env = dict(os.environ, PYTHONPATH=str(src), QUERMASS_THREADS="1", **PINS)
    try:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(src / "quermass")],
                       env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
    except subprocess.SubprocessError as exc:
        return fail(f"set-up failed: {exc}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = out_dir / f"{stem}.json"
    work = out_dir / f"work-{stem}-{os.getpid()}"
    child = [sys.executable, str(HERE / "bench_child.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", str(work), "--record", str(record_path)]
    # its own session, so that a timeout also ends the set-up probes it started
    proc = subprocess.Popen(child, env=env, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return fail(f"workload process exceeded {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        return fail(f"workload process exited with {code}")

    record = json.loads(record_path.read_text())
    record["environment"].update(git_commit=git_commit(root),
                                 source_sha256=source_digest(src / "quermass"))
    record_path.write_text(json.dumps(record, indent=1))

    checks = record["checks"]
    failed = sum(not c["passed"] for c in checks)
    if args.trace:
        values = record["per_layer"]
        units = bench_trace.PER_LAYER_UNITS
    else:
        values = end_to_end_values(record)
        units = END_TO_END_UNITS

    for key, val in record["environment"].items():
        print(f"env {key} = {val}")
    if not args.trace:
        print(f"raw setup_s = {record['raw_setup_s']} s; raw wall_s = {record['raw_wall_s']} s")
    for cmd, secs in zip(record["commands"], record["command_s"]):
        print(f"command {' '.join(cmd['argv'])} [QUERMASS_THREADS={cmd['quermass_threads']}]"
              f" = {secs:.4f} s")
    for c in checks:
        if not c["passed"]:
            print(f"FAILED {c['check']} ({c['rep']}: {c['command']}): {c['detail']}")
    print(f"checks failed = {failed} of {len(checks)}; failed_frac = {failed / len(checks)}")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]} {unit}")
    print(f"record = {record_path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
