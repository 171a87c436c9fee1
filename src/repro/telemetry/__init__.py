"""Event-sourced telemetry: one typed event stream from kernel to reports.

The telemetry spine replaces ad-hoc measurement plumbing with a single
event-sourced pipeline:

* :mod:`repro.telemetry.events` — the typed :class:`TelemetryEvent`
  hierarchy (admission, arrival, launch, slot transition, preemption,
  migration, completion) and its JSON schema.
* :mod:`repro.telemetry.bus` — :class:`TelemetryBus`, the
  zero-cost-when-disabled fan-out the scheduler/fleet hot paths emit on.
* :mod:`repro.telemetry.sinks` — the built-in consumers: JSONL event log
  (replayable source of truth), streaming aggregation (bounded memory),
  and the verify-oracle fingerprint sink.
* :mod:`repro.telemetry.digest` — :class:`ResponseDigest`, the mergeable
  log-bucket histogram + Welford moments behind every percentile the
  reports print.
* :mod:`repro.telemetry.replay` — re-derive any report from an event log
  alone.
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "bus": ("TelemetryBus", "TelemetrySink"),
    "digest": (
        "DIGEST_VERSION", "GAMMA", "MAX_TRACK_MS", "MIN_TRACK_MS", "N_BUCKETS",
        "QUANTILE_REL_ERROR", "ResponseDigest", "bucket_bounds",
        "bucket_representative", "digest_of", "merge_digests",
    ),
    "events": (
        "ArrivalEvent", "CompletionEvent", "EVENT_SCHEMA", "EVENT_TYPES",
        "LaunchEvent", "MigrationEvent", "PreemptionEvent",
        "RequestReroutedEvent", "RequestShedEvent", "ShardAdmissionEvent",
        "ShardDownEvent", "ShardRecoveredEvent", "SlotTransitionEvent",
        "TelemetryEvent", "canonical_line", "event_from_dict", "event_kinds",
    ),
    "sinks": (
        "FingerprintSink", "JsonlEventLogSink", "RecorderEventSink",
        "StreamingAggregationSink",
    ),
    "replay": (
        "iter_jsonl_payloads", "load_events", "read_event_log",
        "replay_aggregation", "replay_notifications", "sniff_event_log",
        "summarize_event_log",
    ),
})

__all__ = [
    "ArrivalEvent",
    "CompletionEvent",
    "DIGEST_VERSION",
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "FingerprintSink",
    "GAMMA",
    "JsonlEventLogSink",
    "LaunchEvent",
    "MAX_TRACK_MS",
    "MIN_TRACK_MS",
    "MigrationEvent",
    "N_BUCKETS",
    "PreemptionEvent",
    "QUANTILE_REL_ERROR",
    "RecorderEventSink",
    "RequestReroutedEvent",
    "RequestShedEvent",
    "ResponseDigest",
    "ShardAdmissionEvent",
    "ShardDownEvent",
    "ShardRecoveredEvent",
    "SlotTransitionEvent",
    "StreamingAggregationSink",
    "TelemetryBus",
    "TelemetryEvent",
    "TelemetrySink",
    "bucket_bounds",
    "bucket_representative",
    "canonical_line",
    "digest_of",
    "event_from_dict",
    "event_kinds",
    "iter_jsonl_payloads",
    "load_events",
    "merge_digests",
    "read_event_log",
    "replay_aggregation",
    "replay_notifications",
    "sniff_event_log",
    "summarize_event_log",
]
