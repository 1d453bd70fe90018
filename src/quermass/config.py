"""Central configuration: the fixed numerical tolerances and run parameters.

Each tolerance is a module constant, read directly where it is used.
Two checks also take theirs as a keyword, and only their commands
declare ``--tolerance KEY=VAL``, for that one key:
``verify curvature-routes --tolerance mean_curvature_agree=VAL``
(``route_agreement_suite(tolerance=...)``) and ``counterexample
--tolerance dent_cross_check_rel=VAL`` (``dent_sweep_suite(gap_tolerance=...)``
and the single-kappa verdict).  Any other key, and ``--tolerance`` on
any other command, exits with status 2.
"""

from __future__ import annotations

import os

# the two mean-curvature routes agree to this (absolute, per node)
MEAN_CURVATURE_AGREE = 1e-7
# normalize(): relative scale residual, barycenter norm, iteration cap
NORMALIZE_SCALE_REL = 1e-10
NORMALIZE_CENTER = 1e-8
NORMALIZE_MAX_ITER = 50
# gradient-vs-normal comparison: bound on every two-sided ratio
DEVIATION_RATIO_BOUND = 10.0
# frequency-split lower bound: the slack constant C in C * eps * scale
CUBIC_SLACK = 5.0
# polar slope estimate V'(th) <= slack * th + C0 th^{-(n-2)} int H^-
POLE_SLACK = 1.1
POLE_CONSTANT = 3.0
# dented sphere: relative gap of the dense grid to the zonal total
DENT_CROSS_CHECK_REL = 1e-2
# deficit and stability suites: a margin above -this passes
DEFICIT_MARGIN_SLACK = 1e-8


def default_frequency_cutoff(n: int) -> float:
    """Default eigenvalue cutoff for the low/high frequency split.

    Safely above the third Laplace-Beltrami eigenvalue 2n; configurable
    everywhere it is used.
    """
    return 10.0 * n


def thread_count() -> int:
    """Worker cap of the pooled suites (QUERMASS_THREADS, default 1).

    The count of worker processes, the caller included: suites._pmap
    forks count - 1 children where the fork start method exists and runs
    serially elsewhere.  A value that is not an integer reads as 1.
    """
    raw = os.environ.get("QUERMASS_THREADS", "1")
    try:
        k = int(raw)
    except ValueError:
        return 1
    return max(1, k)
