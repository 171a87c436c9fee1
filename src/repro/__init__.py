"""VersaSlot reproduction: fine-grained FPGA sharing with Big.Little slots.

A complete, simulation-based reproduction of *VersaSlot: Efficient
Fine-grained FPGA Sharing with Big.Little Slots and Live Migration in FPGA
Cluster* (DAC 2025).  See the README's "Layout" section for the package
inventory and "Reproduce the paper's figures" for paper-vs-measured
results.

Public API tour::

    from repro import Engine, FPGABoard, BoardConfig
    from repro.core import VersaSlotBigLittle
    from repro.workloads import WorkloadGenerator, Condition, drive

    engine = Engine()
    board = FPGABoard(engine, BoardConfig.BIG_LITTLE)
    scheduler = VersaSlotBigLittle(board)
    arrivals = WorkloadGenerator(seed=1).sequence(Condition.STANDARD)
    engine.process(drive(engine, scheduler, arrivals))
    engine.run()

Campaigns (registry-driven scenarios, parallel execution, persisted
results) live in :mod:`repro.campaign`::

    from repro.campaign import CampaignRunner, Scenario
    from repro.workloads import Condition, WorkloadSpec

    scenario = Scenario(
        name="sweep",
        workload=WorkloadSpec(Condition.STRESS, sequence_count=4),
    )
    records = CampaignRunner(jobs=4, store="results/sweep.jsonl").run(scenario)

Every package re-exports its submodules' public names lazily (PEP 562,
see :func:`lazy_exports`): ``from repro.campaign import CampaignRunner``
loads only the modules that define it, so a short CLI command pays only
for its own import chain.
"""

from importlib import import_module

#: Read by ``setup.py`` without importing the package.
__version__ = "0.6.0"

#: Record-append cadence (cells per store append) that ``--resume`` implies.
#: Kept here so the CLI parser can show it without loading ``repro.store``.
DEFAULT_SNAPSHOT_EVERY = 25


def lazy_exports(namespace: dict, exports: dict):
    """PEP 562 ``(__getattr__, __dir__)`` for a package's ``__init__``.

    ``exports`` maps each submodule name to the public names it defines.
    A name (or a submodule itself) is imported on first attribute access
    and then cached in ``namespace``, so ``from pkg import Name`` loads
    only ``Name``'s own module chain.  ``dir(pkg)`` lists every export
    and submodule before any of them is loaded.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in exports:
            return import_module(f"{package}.{name}")
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{owner[name]}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(owner) | set(exports))

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(globals(), {
    "config": ("DEFAULT_PARAMETERS", "ParameterSweep", "SystemParameters"),
    "fpga": ("BoardConfig", "FPGABoard", "ResourceVector", "SlotKind"),
    "sim": ("Engine",),
})

__all__ = [
    "BoardConfig",
    "DEFAULT_PARAMETERS",
    "Engine",
    "FPGABoard",
    "ParameterSweep",
    "ResourceVector",
    "SlotKind",
    "SystemParameters",
    "__version__",
]
