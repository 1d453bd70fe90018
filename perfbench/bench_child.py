"""One benchmark run: a fresh process that runs a workload's command sequence.

Started by run.py with the BLAS/OpenMP pools pinned to one thread and
``src`` on PYTHONPATH.  Untraced runs repeat the sequence until the
next repetition would end after --seconds.  Before the first repetition
and after each one, SETUP_PER_GAP fresh interpreters are timed from
start to ``quermass.cli`` imported (the set-up samples).

The speed of the shared host the benchmark was built on drifts by up to
1.5x within seconds and over minutes, and command and set-up times drift
with it.  A Calibrator process, which runs no quermass code, therefore
times a fixed kernel before the first command of every repetition and
after each command, so that its samples spread over the whole run.  The
run reports the median repetition time (``wall_s``) and the median
set-up sample (``setup_s``), each multiplied by CAL_REFERENCE_S /
(median calibration sample): times at the host's reference speed.  The
raw times and every calibration sample are kept in the record.

Traced runs make a warm-up repetition, one with every span installed
and one untraced repetition to compare it with.  A workload with pooled
commands then runs them once more at one thread, for the CSV
byte-identity check and the serial command times.
The record, with every check, goes to --record as JSON.

    python3 perfbench/bench_child.py --workload zonal --seed 1 --seconds 32 \
        --trace 0 --work perfbench/out/work --record perfbench/out/rec.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
# Median calibrate.py kernel time on the host the baseline was measured
# on (2-core Xeon, 2.1 GHz); times are rescaled to this speed.
CAL_REFERENCE_S = 0.1
# a set-up sample is short and noisy; two per gap give about ten a run
SETUP_PER_GAP = 2


class Calibrator:
    """A quermass-free process of its own that times calibrate.py's kernel."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def setup_sample() -> float:
    """Seconds from spawning an interpreter to quermass.cli imported."""
    probe = "import time, quermass.cli; print(time.monotonic())"
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def call_cli(argv) -> object:
    """Exit code of one ``quermass`` invocation, as a user would see it."""
    from quermass import cli
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        return "exception"


class Sequence:
    """Runs commands into per-repetition output directories and checks them."""

    def __init__(self, cmds, work: Path):
        self.cmds = cmds
        self.work = work
        self.checks = []
        self.gradient_checks = []

    def observe_gradient_check(self, original):
        @functools.wraps(original)
        def maximize_ratio(*args, **kwargs):
            out = original(*args, **kwargs)
            self.gradient_checks.append(out["best"].meta["gradient_check_max_rel"])
            return out
        return maximize_ratio

    def run(self, tag: str, calibrate=None) -> dict:
        """One repetition: per-command times and their sum, ``wall_s``.

        A calibrate() sampler, if given, is called before the first
        command and after each one; its samples go to ``calibration_s``.
        """
        times = []
        samples = [calibrate()] if calibrate else []
        t0 = time.perf_counter()
        for i, cmd in enumerate(self.cmds):
            out = self.work / tag / str(i)
            os.environ["QUERMASS_THREADS"] = str(cmd.threads)
            self.gradient_checks.clear()
            start = time.perf_counter()
            code = call_cli(cmd.argv + ("--out", str(out)))
            times.append(time.perf_counter() - start)
            for name, ok, detail in bench_workloads.check_outputs(
                    cmd, code, out, list(self.gradient_checks)):
                self.checks.append({"rep": tag, "command": " ".join(cmd.argv),
                                    "check": name, "passed": ok, "detail": detail})
            if calibrate:
                samples.append(calibrate())
        t1 = time.perf_counter()
        os.environ["QUERMASS_THREADS"] = "1"
        return {"tag": tag, "start": t0, "end": t1, "wall_s": sum(times),
                "command_s": times, "calibration_s": samples}

    def compare_csvs(self, tag: str, reference: str) -> None:
        """Byte-identity of a repetition's CSVs with the reference's."""
        for i, cmd in enumerate(self.cmds):
            got = bench_workloads.csv_bytes(self.work / tag / str(i))
            want = bench_workloads.csv_bytes(self.work / reference / str(i))
            self.checks.append({"rep": tag, "command": " ".join(cmd.argv),
                                "check": "csv_identical_to_serial",
                                "passed": bool(want) and got == want,
                                "detail": f"{sorted(got)} vs {sorted(want)}"})


def environment(args) -> dict:
    import numpy
    import scipy
    import quermass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "quermass_file": os.path.relpath(quermass.__file__),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pins": {k: os.environ.get(k) for k in
                 ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--record", required=True)
    args = p.parse_args(argv)

    import quermass.cli  # noqa: F401  (imported before any timing)

    cmds = bench_workloads.commands(args.workload, args.seed)
    seq = Sequence(cmds, Path(args.work))
    observer = bench_trace.Patches()
    observer.replace("quermass.conjecture", "maximize_ratio", seq.observe_gradient_check)
    reps, setup = [], []
    layers = serial = None
    calibrate = None if args.trace else Calibrator()
    try:
        if args.trace:
            # warm-up, traced, untraced: the overhead compares two warm runs
            reps.append(seq.run("warmup"))
            tracer = bench_trace.Tracer()
            tracer.install()
            try:
                traced = seq.run("traced")
            finally:
                tracer.uninstall()
            reps.append(seq.run("untraced"))
            tracer.start, tracer.end = traced["start"], traced["end"]
            layers = bench_trace.layer_metrics(tracer, reps[-1]["end"] - reps[-1]["start"])
            problems = bench_trace.consistency_problems(tracer)
            seq.checks.append({"rep": "traced", "command": "", "check": "trace_consistency",
                               "passed": not problems, "detail": "; ".join(problems[:5])})
            tracer.dump(Path(args.record).with_suffix(".spans.json.gz"))
            reps.append(traced)
        else:
            began = time.perf_counter()
            while True:
                setup += [setup_sample() for _ in range(SETUP_PER_GAP)]
                reps.append(seq.run(f"rep{len(reps)}", calibrate))
                elapsed = time.perf_counter() - began
                if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                    break
            setup += [setup_sample() for _ in range(SETUP_PER_GAP)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if any(c.threads > 1 for c in cmds):
            seq.cmds = bench_workloads.serial_reference(cmds)
            serial = seq.run("serial")
            seq.cmds = cmds
            for rep in reps:
                seq.compare_csvs(rep["tag"], "serial")
    finally:
        observer.restore()
        if calibrate:
            calibrate.close()

    timed = [r for r in reps if r["tag"] != "traced"]
    record = {
        "environment": environment(args),
        "commands": [{"argv": list(c.argv), "quermass_threads": c.threads} for c in cmds],
        "repetitions": [{k: r[k] for k in ("tag", "wall_s", "command_s", "calibration_s")}
                        for r in reps],
        "raw_setup_samples_s": setup,
        "raw_wall_s": statistics.median(r["wall_s"] for r in timed),
        "command_s": [statistics.median(r["command_s"][i] for r in timed)
                      for i in range(len(cmds))],
        "serial_command_s": serial["command_s"] if serial else None,
        "peak_rss_mb": peak_rss_mb,
        "checks": seq.checks,
        "per_layer": layers,
    }
    if not args.trace:
        calibration = [c for r in reps for c in r["calibration_s"]]
        scale = CAL_REFERENCE_S / statistics.median(calibration)
        record.update(raw_setup_s=statistics.median(setup),
                      calibration_median_s=statistics.median(calibration))
        record.update(setup_s=scale * record["raw_setup_s"],
                      wall_s=scale * record["raw_wall_s"])
    Path(args.record).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
