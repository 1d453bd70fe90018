"""Central configuration: default tolerances and run parameters.

Every numerical check in the package reads its tolerance from a
:class:`Tolerances` instance so that a single run can override any of
them (``--tolerance KEY=VAL`` on the command line).
"""

from __future__ import annotations

import dataclasses
import os


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Default numerical tolerances, overridable per run."""

    # curvature
    mean_curvature_agree: float = 1e-7
    # normalization loop
    normalize_scale_rel: float = 1e-10
    normalize_center: float = 1e-8
    normalize_max_iter: int = 50
    # gradient-vs-normal comparison checks
    deviation_ratio_bound: float = 10.0
    # cubic-term lemma slack constant
    cubic_slack: float = 5.0
    # pole gradient estimate
    pole_slack: float = 1.1
    pole_constant: float = 3.0
    # dented sphere: dense grid against the zonal total
    dent_cross_check_rel: float = 1e-2

    def with_overrides(self, overrides: dict[str, float]) -> "Tolerances":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise KeyError(f"unknown tolerance keys: {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = Tolerances()


def default_frequency_cutoff(n: int) -> float:
    """Default eigenvalue cutoff for the low/high frequency split.

    Safely above the third Laplace-Beltrami eigenvalue 2n; configurable
    everywhere it is used.
    """
    return 10.0 * n


def thread_count() -> int:
    """Worker cap for suite-level parallel maps (QUERMASS_THREADS)."""
    raw = os.environ.get("QUERMASS_THREADS", "1")
    try:
        k = int(raw)
    except ValueError:
        return 1
    return max(1, k)
