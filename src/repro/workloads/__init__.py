"""Workload generation, arrival driving and trace record/replay."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "generator": (
        "BATCH_RANGE", "Arrival", "Condition", "WorkloadGenerator",
        "WorkloadSpec", "drive", "instantiate", "total_work_ms",
    ),
    "phases": ("Phase", "PhasedWorkload", "poisson_sequence", "ramp_workload"),
    "sampling": ("BatchSampler",),
    "trace": ("dumps", "load", "loads", "save"),
})

__all__ = [
    "Arrival",
    "BatchSampler",
    "Phase",
    "PhasedWorkload",
    "poisson_sequence",
    "ramp_workload",
    "BATCH_RANGE",
    "Condition",
    "WorkloadGenerator",
    "WorkloadSpec",
    "drive",
    "dumps",
    "instantiate",
    "load",
    "loads",
    "save",
    "total_work_ms",
]
