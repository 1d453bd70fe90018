"""Workloads of the quermass benchmark and the checks on their outputs.

A workload is a fixed sequence of ``quermass`` command lines; the seed
given to the benchmark becomes ``--seed`` of every command.  Every other
parameter a command reads is passed explicitly: ``counterexample``'s
``set_defaults(eps=0.3)`` rewrites the ``--eps`` action that all
subcommands share through the ``common`` parent parser, so an omitted
``--eps`` means 0.3 in every subcommand, not the suite's own default.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Command:
    argv: tuple
    threads: int = 1      # QUERMASS_THREADS while the command runs


def _spectral(seed: str, threads: int = 1):
    return [
        Command(("verify", "curvature-routes", "--count", "8", "--eps", "0.3",
                 "--resolution", "64", "--seed", seed), threads),
        Command(("verify", "freq-split", "--count", "20", "--resolution", "32",
                 "--seed", seed), threads),
        Command(("conjecture", "--n", "3", "--degree-cap", "12", "--restarts", "1",
                 "--seed", seed), threads),
    ]


def _zonal(seed: str, threads: int = 1):
    return [
        Command(("verify", "axial", "--count", "24", "--eps", "0.05", "--seed", seed),
                threads),
        Command(("verify", "stability", "--count", "16", "--eps", "0.05", "--seed", seed),
                threads),
        Command(("verify", "pole", "--count", "6", "--eps", "0.05", "--seed", seed),
                threads),
        Command(("conjecture", "--n", "4", "--degree-cap", "12", "--restarts", "6",
                 "--seed", seed), threads),
        # at --degree-cap 16, 9 of the seeds 0-399 fail the command's own
        # gradient check (exit 3); at 12 one does (seed 315), as does seed
        # 323 for the n = 4 command above
        Command(("conjecture", "--n", "5", "--degree-cap", "12", "--restarts", "4",
                 "--seed", seed), threads),
    ]


def _dent(seed: str):
    return [
        Command(("counterexample", "--n", "3", "--sweep", "10,20,40", "--eps", "0.45",
                 "--kappa-max", "640", "--seed", seed)),
        Command(("counterexample", "--n", "4", "--kappa", "4", "--eps", "0.3",
                 "--seed", seed)),
    ]


def _threads2(seed: str):
    pool_users = ("curvature-routes", "axial", "stability")
    return [c for c in _spectral(seed, 2) + _zonal(seed, 2) if c.argv[1] in pool_users]


WORKLOADS = {"dent": _dent, "spectral": _spectral, "zonal": _zonal,
             "threads2": _threads2}


def commands(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](str(seed))


def serial_reference(cmds: list[Command]) -> list[Command]:
    """The same commands at one thread, for the byte-identity check."""
    return [dataclasses.replace(c, threads=1) for c in cmds]


# -- output checks ---------------------------------------------------------------


def check_outputs(cmd: Command, exit_code, out_dir: Path,
                  gradient_checks: list) -> list[tuple[str, bool, str]]:
    """(check, passed, detail) for one finished command.

    gradient_checks holds the maximize_ratio gradient-check values seen
    while the command ran.  The checks hold for any seed.
    """
    results = [("exit_code", exit_code == 0, f"exit {exit_code}")]
    for path in sorted(out_dir.glob("*_summary.json")):
        summary = json.loads(path.read_text())
        results.append((f"passed:{path.name}", summary.get("passed") is True,
                         f"passed={summary.get('passed')}"))
        if cmd.argv[0] == "counterexample" and "--sweep" in cmd.argv:
            found = summary.get("summary", {}).get("search", {}).get("kappa_star")
            results.append(("dent:kappa_star_found", found is not None,
                            f"kappa_star={found}"))
    if cmd.argv[0] == "counterexample" and "--sweep" in cmd.argv:
        csv = out_dir / "counterexample.csv"
        gaps = []
        if csv.exists():
            lines = csv.read_text().splitlines()
            col = lines[0].split(",").index("relative_gap")
            gaps = [float(v) for v in (ln.split(",")[col] for ln in lines[1:]) if v]
        worst = max(gaps, default=float("nan"))
        results.append(("dent:relative_gap", worst <= 1e-2,
                        f"worst relative_gap={worst}"))
    if cmd.argv[0] == "conjecture":
        worst = max(gradient_checks) if gradient_checks else None
        results.append(("conjecture:gradient_check",
                        worst is not None and worst <= 1e-5,
                        f"max relative gradient error={worst}"))
    return results


def csv_bytes(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
