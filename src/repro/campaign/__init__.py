"""Campaign subsystem: registry-driven scenarios, parallel execution,
persisted results.

The experiment stack (``repro.experiments``, the figure modules, the CLI
and the benches) is layered on top of this package:

* :mod:`repro.campaign.scenario` — declarative :class:`Scenario` specs and
  the decorator-based system/scenario registries.
* :mod:`repro.campaign.backend` — the simulation core plus serial and
  forked-worker execution backends.
* :mod:`repro.campaign.results` — per-run :class:`RunRecord` persistence
  (JSONL under ``results/``) consumed by reporting and replay.
* :mod:`repro.campaign.runner` — :class:`CampaignRunner`, tying the three
  together.

A results path picks its store in :mod:`repro.store`: a JSONL path is a
plain :class:`ResultsStore` (records only), a ``.sqlite``/``.db`` path the
SQLite store (records, telemetry events, incremental report
projections).  The runner and :func:`load_records` accept either;
resumable, chunked execution lives in :mod:`repro.store.resume`.
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "backend": (
        "CampaignCell", "DEFAULT_HORIZON_MS", "DrainError", "ProcessBackend",
        "SerialBackend", "SimulationOutcome", "execute_cell", "failure_record",
        "make_backend", "simulate_run",
    ),
    "results": (
        "COUNTER_FIELDS", "RESULTS_FILE_SCHEMA", "ResultsStore", "RunRecord",
        "SCHEMA_VERSION", "fingerprint_parameters", "group_by_system",
        "is_results_header", "load_records", "results_header",
    ),
    "runner": ("CampaignRunner",),
    "scenario": (
        "SCENARIOS", "SYSTEM_REGISTRY", "Scenario", "SystemSpec",
        "get_scenario", "get_system", "register_scenario", "register_system",
        "scenario_names", "system_names",
    ),
})

__all__ = [
    "COUNTER_FIELDS",
    "CampaignCell",
    "CampaignRunner",
    "DEFAULT_HORIZON_MS",
    "DrainError",
    "ProcessBackend",
    "RESULTS_FILE_SCHEMA",
    "ResultsStore",
    "RunRecord",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "SYSTEM_REGISTRY",
    "Scenario",
    "SerialBackend",
    "SimulationOutcome",
    "SystemSpec",
    "execute_cell",
    "failure_record",
    "fingerprint_parameters",
    "get_scenario",
    "get_system",
    "group_by_system",
    "is_results_header",
    "load_records",
    "make_backend",
    "results_header",
    "register_scenario",
    "register_system",
    "scenario_names",
    "simulate_run",
    "system_names",
]
