"""Correctness infrastructure: differential oracle, invariants, fuzzing.

PR 2 made the kernel fast and pinned it to a handful of hand-captured
goldens; this package turns that snapshot into a *generator*.  Four pieces
compose:

* :mod:`repro.verify.reference` — :class:`ReferenceEngine`, a deliberately
  simple event loop implementing the documented ``sim/`` semantics with
  none of the hot-path shortcuts (no inlined fast lane, no pooled sleeps).
* :mod:`repro.verify.oracle` — runs the same seeded scenario on both
  kernels and asserts bit-identical traces, response records and
  utilization aggregates.
* :mod:`repro.verify.invariants` — pluggable checkers over ``Engine`` /
  ``AppRun`` state: clock monotonicity, slot-occupancy conservation,
  resource request/release balance, incremental counters == recomputed.
* :mod:`repro.verify.fuzz` — a property-based scenario fuzzer sampling
  random workloads and parameters through the campaign registry, with
  failing cases shrunk and persisted as replayable JSON repros.

The CLI entry point is ``python -m repro verify [--fuzz N] [--seed S]``.
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "fuzz": (
        "FuzzCase", "ScenarioFuzzer", "cases_from_fleet_scenario",
        "cases_from_scenario", "load_repro", "parse_repro_payload",
        "replay_case", "replay_repro", "save_repro", "shrink_case",
    ),
    "invariants": ("InvariantMonitor", "Violation"),
    "oracle": (
        "DifferentialOracle", "DivergenceReport", "KernelFingerprint",
        "instrumented_run", "trace_lines",
    ),
    "reference": ("KERNELS", "ReferenceEngine", "resolve_kernel"),
    "repro_file": ("REPRO_KIND", "is_repro_payload"),
})

__all__ = [
    "DifferentialOracle",
    "DivergenceReport",
    "FuzzCase",
    "InvariantMonitor",
    "KERNELS",
    "KernelFingerprint",
    "REPRO_KIND",
    "ReferenceEngine",
    "ScenarioFuzzer",
    "Violation",
    "cases_from_fleet_scenario",
    "cases_from_scenario",
    "instrumented_run",
    "is_repro_payload",
    "load_repro",
    "parse_repro_payload",
    "replay_case",
    "replay_repro",
    "resolve_kernel",
    "save_repro",
    "shrink_case",
    "trace_lines",
]
