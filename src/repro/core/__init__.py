"""VersaSlot core: Big.Little allocation, bundling, D_switch, switch loop."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "allocation": ("allocate_big_little",),
    "bundling": (
        "bundle_tiling", "idle_subslot_cycles", "parallel_time_ms",
        "serial_preferred", "serial_time_ms",
    ),
    "dswitch": ("DSwitchCalculator", "DSwitchSample"),
    "scheduling": (
        "dispatch_order", "pending_pr_payloads", "ready_task_queue",
    ),
    "switching": ("SchmittTrigger", "SwitchDecision", "TriggerEvent"),
    "versaslot": (
        "VersaSlotBigLittle", "VersaSlotOnlyLittle", "make_versaslot",
    ),
})

__all__ = [
    "DSwitchCalculator",
    "DSwitchSample",
    "SchmittTrigger",
    "SwitchDecision",
    "TriggerEvent",
    "VersaSlotBigLittle",
    "VersaSlotOnlyLittle",
    "allocate_big_little",
    "bundle_tiling",
    "dispatch_order",
    "idle_subslot_cycles",
    "make_versaslot",
    "pending_pr_payloads",
    "ready_task_queue",
    "parallel_time_ms",
    "serial_preferred",
    "serial_time_ms",
]
