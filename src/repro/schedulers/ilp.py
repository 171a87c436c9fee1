"""Optimal slot-count computation (the ILP of Nimblock/DML).

Prior work derives, per application, the most efficient slot count for
pipeline execution via integer linear programming; Algorithm 1 consumes the
result as ``O_Ai = (O_B, O_L)``.  Two implementations are provided:

* :func:`optimal_little_slots` / :func:`optimal_big_slots` — exact search
  over the (tiny) discrete domain using the analytic makespan estimators.
  This is what the schedulers use at runtime.
* :func:`allocate_slots_milp` — a scipy ``milp`` formulation that splits a
  fixed slot budget across competing applications, used by the cross-app
  redistribution benches and as a reference for tests.

Results are memoised: workloads re-use the same (application, batch)
pairs heavily.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..apps.application import ApplicationSpec
from ..apps.pipeline import estimate_big_makespan_ms, estimate_makespan_ms

#: Accept a slot count whose makespan is within this factor of the best —
#: the "efficiency" tie-break that keeps O below the task count.
EFFICIENCY_TOLERANCE = 0.05


@lru_cache(maxsize=4096)
def _optimal_little(
    app_key: str,
    task_count: int,
    batch_size: int,
    pr_time_ms: float,
    max_slots: int,
) -> int:
    from ..apps.benchmarks import BENCHMARKS  # local import to keep cache key small

    app = BENCHMARKS.get(app_key)
    if app is None or app.task_count != task_count:
        raise KeyError(app_key)
    return _search_little(app, batch_size, pr_time_ms, max_slots)


def _search_little(app: ApplicationSpec, batch_size: int, pr_time_ms: float, max_slots: int) -> int:
    limit = max(1, min(app.task_count, max_slots))
    spans = [
        estimate_makespan_ms(app, batch_size, s, pr_time_ms) for s in range(1, limit + 1)
    ]
    best = min(spans)
    for s, span in enumerate(spans, start=1):
        if span <= best * (1.0 + EFFICIENCY_TOLERANCE):
            return s
    return limit  # pragma: no cover - loop always returns


def optimal_little_slots(
    app: ApplicationSpec,
    batch_size: int,
    pr_time_ms: float,
    max_slots: int,
) -> int:
    """O_L: smallest Little-slot count within 5 % of the best makespan."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    try:
        return _optimal_little(app.name, app.task_count, batch_size, pr_time_ms, max_slots)
    except KeyError:
        return _search_little(app, batch_size, pr_time_ms, max_slots)


@lru_cache(maxsize=4096)
def _optimal_big(
    app_key: str,
    bundle_count: int,
    batch_size: int,
    pr_time_ms: float,
    max_slots: int,
) -> int:
    from ..apps.benchmarks import BENCHMARKS  # local import to keep cache key small

    app = BENCHMARKS.get(app_key)
    if app is None or len(app.bundles) != bundle_count:
        raise KeyError(app_key)
    return _search_big(app, batch_size, pr_time_ms, max_slots)


def _search_big(app: ApplicationSpec, batch_size: int, pr_time_ms: float, max_slots: int) -> int:
    limit = max(1, min(len(app.bundles), max_slots))
    spans = [
        estimate_big_makespan_ms(app, batch_size, s, pr_time_ms)
        for s in range(1, limit + 1)
    ]
    best = min(spans)
    for s, span in enumerate(spans, start=1):
        if span <= best * (1.0 + EFFICIENCY_TOLERANCE):
            return s
    return limit  # pragma: no cover


def optimal_big_slots(
    app: ApplicationSpec,
    batch_size: int,
    big_pr_time_ms: float,
    max_slots: int,
) -> int:
    """O_B: smallest Big-slot count within 5 % of the best bundled makespan."""
    if not app.can_bundle:
        return 0
    try:
        return _optimal_big(
            app.name, len(app.bundles), batch_size, big_pr_time_ms, max_slots
        )
    except KeyError:
        return _search_big(app, batch_size, big_pr_time_ms, max_slots)


def allocate_slots_milp(
    apps: Sequence[Tuple[ApplicationSpec, int]],
    total_slots: int,
    pr_time_ms: float,
) -> List[int]:
    """Split ``total_slots`` Little slots across apps, minimizing summed makespan.

    ``apps`` is a list of ``(spec, batch_size)``.  The formulation uses one
    binary per (app, slot count) pair — exact for the problem sizes the
    paper handles (tens of apps, eight slots).  Every app receives at least
    one slot when the budget allows; surplus demand is truncated.
    """
    if total_slots < 1:
        raise ValueError(f"total_slots must be >= 1, got {total_slots}")
    if not apps:
        return []
    n_apps = len(apps)
    if n_apps > total_slots:
        raise ValueError(
            f"milp allocator needs slots >= apps ({n_apps} apps, {total_slots} slots); "
            "queue the surplus apps first"
        )
    # numpy/scipy are needed only by this reference formulation, never by
    # the runtime exact search above — import lazily so the core package
    # stays dependency-free.
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as exc:  # pragma: no cover - exercised by clean-install CI
        raise RuntimeError(
            "allocate_slots_milp requires numpy and scipy "
            "(pip install numpy scipy)"
        ) from exc
    options: List[List[int]] = []
    costs: List[float] = []
    index: List[Tuple[int, int]] = []
    for i, (spec, batch) in enumerate(apps):
        counts = list(range(1, min(spec.task_count, total_slots) + 1))
        options.append(counts)
        for s in counts:
            costs.append(estimate_makespan_ms(spec, batch, s, pr_time_ms))
            index.append((i, s))
    n_vars = len(costs)
    # One slot-count choice per app.
    choice = np.zeros((n_apps, n_vars))
    for j, (i, _) in enumerate(index):
        choice[i, j] = 1.0
    # Total slots within budget.
    slots_row = np.array([[s for (_, s) in index]], dtype=float)
    constraints = [
        LinearConstraint(choice, lb=np.ones(n_apps), ub=np.ones(n_apps)),
        LinearConstraint(slots_row, lb=np.array([0.0]), ub=np.array([float(total_slots)])),
    ]
    result = milp(
        c=np.array(costs),
        constraints=constraints,
        integrality=np.ones(n_vars),
        bounds=Bounds(lb=np.zeros(n_vars), ub=np.ones(n_vars)),
    )
    if not result.success:  # pragma: no cover - tiny exact problems always solve
        raise RuntimeError(f"milp allocation failed: {result.message}")
    chosen = [0] * n_apps
    for j, picked in enumerate(result.x):
        if picked > 0.5:
            i, s = index[j]
            chosen[i] = s
    return chosen


def clear_caches() -> None:
    """Drop memoised optimal-slot results (test isolation)."""
    _optimal_little.cache_clear()
