"""Baseline scheduling systems and the shared on-board runtime."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "base": ("OnBoardScheduler", "PRPlan", "ResponseRecord", "SchedulerStats"),
    "baseline": ("BaselineScheduler",),
    "fcfs": ("FCFSScheduler",),
    "ilp": ("optimal_big_slots", "optimal_little_slots"),
    "nimblock": ("NimblockScheduler",),
    "round_robin": ("RoundRobinScheduler",),
    "runtime": ("AppRun", "BundleRun", "TaskRun"),
})

__all__ = [
    "AppRun",
    "BaselineScheduler",
    "BundleRun",
    "FCFSScheduler",
    "NimblockScheduler",
    "OnBoardScheduler",
    "PRPlan",
    "ResponseRecord",
    "RoundRobinScheduler",
    "SchedulerStats",
    "TaskRun",
    "optimal_big_slots",
    "optimal_little_slots",
]
