"""Plan checks, run outside the timed region.

``check_plan_file`` is what the worker's process pool runs after the
timed loop, on plans the loop pickled to the run directory.
"""

from __future__ import annotations

import pickle
from typing import Any

#: Relative latency tolerance of the estimator-vs-simulator cross-check
#: (the tolerance the repository's tests use).
CROSSCHECK_TOLERANCE = 1e-5


def check_plan(plan: Any, crosscheck: bool) -> list[str]:
    """Why ``plan`` fails verification (and the simulator cross-check)."""
    from repro.sim.validate import crosscheck_plan
    from repro.verify import verify_plan

    reasons = []
    report = verify_plan(plan)
    if not report.ok:
        reasons.append(f"verify_plan failed: {report.diagnostics[:1]}")
    if crosscheck:
        check, _sim = crosscheck_plan(plan)
        if not check.traffic_matches:
            reasons.append("simulated traffic differs from the estimate")
        if check.latency_rel_error >= CROSSCHECK_TOLERANCE:
            reasons.append(f"latency error {check.latency_rel_error:.2e} vs simulator")
    return reasons


def check_plan_file(path: str, crosscheck: bool) -> list[str]:
    """:func:`check_plan` on a plan the worker pickled."""
    with open(path, "rb") as handle:
        plan = pickle.load(handle)
    return check_plan(plan, crosscheck)
