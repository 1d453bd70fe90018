"""Shared report types and deterministic CSV/JSON writers.

CSV output follows RFC 4180 (CRLF line endings, '.' decimal separator)
with 17 significant digits so that identical runs produce byte-identical
files.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np


@dataclasses.dataclass(frozen=True)
class DeficitReport:
    """Left/right sides and margin of one scale-invariant inequality."""

    which: str
    n: int
    lhs: float
    rhs: float
    normalization: str = "none"
    eps_size: float = float("nan")
    seed: int | None = None
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def row(self) -> dict:
        return {
            "which": self.which,
            "n": self.n,
            "eps_size": self.eps_size,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "normalization": self.normalization,
            "seed": "" if self.seed is None else self.seed,
        }


DEFICIT_COLUMNS = ["which", "n", "eps_size", "lhs", "rhs", "margin",
                   "normalization", "seed"]


def format_value(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def csv_bytes(rows: list[dict], columns: list[str]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(row.get(c, "")) for c in columns])
    return buf.getvalue().encode()


def write_csv(path, rows: list[dict], columns: list[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(csv_bytes(rows, columns))
    return path


def write_json(path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_coerce))
    return path


def _coerce(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def echo_config(out_dir, config: dict) -> Path:
    """Every run drops its fully resolved configuration next to results."""
    return write_json(Path(out_dir) / "config.json", config)
