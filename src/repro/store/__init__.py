"""Persistence: one store per file format, resume, incremental projections.

A results path names one of two formats (:func:`open_store` picks by
suffix or file magic):

* a **JSONL** results file is a plain
  :class:`~repro.campaign.results.ResultsStore` — records only;
* a **SQLite** database is a :class:`CampaignStore` — one monotonically
  numbered notification log of records and telemetry events, plus the
  persisted state of watermark-tracked incremental projections
  (:mod:`repro.store.projections`).

:func:`execute_with_store` runs campaign cells into either, in chunks,
and ``--resume`` skips the cells whose records the store already holds
(:mod:`repro.store.resume`).  :func:`repro.store.audit.check_store`
(``repro store verify``) audits both formats.
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "campaign_store": (
        "CampaignStore", "is_sqlite_path", "open_store", "read_store",
    ),
    "notification": (
        "KIND_EVENT", "KIND_RECORD", "NOTIFICATION_KINDS", "Notification",
    ),
    "projections": (
        "FigureProjection", "FleetRollupProjection", "Projection",
        "RecordSummaryProjection", "TelemetryCounterProjection",
        "default_projections", "update_projections",
        "verify_store_projections",
    ),
    "resume": (
        "DEFAULT_SNAPSHOT_EVERY", "ExecutionOutcome", "cell_key",
        "execute_with_store",
    ),
})

__all__ = [
    "CampaignStore",
    "DEFAULT_SNAPSHOT_EVERY",
    "ExecutionOutcome",
    "FigureProjection",
    "FleetRollupProjection",
    "KIND_EVENT",
    "KIND_RECORD",
    "NOTIFICATION_KINDS",
    "Notification",
    "Projection",
    "RecordSummaryProjection",
    "TelemetryCounterProjection",
    "cell_key",
    "default_projections",
    "execute_with_store",
    "is_sqlite_path",
    "open_store",
    "read_store",
    "update_projections",
    "verify_store_projections",
]
