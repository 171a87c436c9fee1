"""Deterministic fault injection for the fleet serving layer.

Everything here is pure data + pure functions: fault *schedules* describe
what breaks and when, and the supervised control plane in
:mod:`repro.fleet.control` turns them into rerouted/shed serving plans.
Nothing in this package touches wall clocks, ``hash()`` or global state —
a schedule replays bit-identically in any process.
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "faults": (
        "FAULT_KINDS", "FaultSchedule", "FaultSpec", "sample_fault_schedule",
    ),
})

__all__ = [
    "FAULT_KINDS",
    "FaultSchedule",
    "FaultSpec",
    "sample_fault_schedule",
]
