"""Notifications: the globally ordered unit of the SQLite event store.

Everything a SQLite store persists — campaign :class:`~repro.campaign
.results.RunRecord` rows and typed telemetry events — flows through one
monotonically numbered *notification log*.  A :class:`Notification` is a
``(id, kind, payload)`` triple: ``id`` is assigned at append time and is
dense and strictly increasing, so any consumer can resume from a
watermark with ``select(start, limit)`` and never re-read what it
already folded.  Readers skip kinds they do not fold, so rows of kinds
no longer written (the ``snapshot`` rows of older stores) stay readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: A persisted campaign run record (payload = ``RunRecord.to_dict()``).
KIND_RECORD = "record"
#: A typed telemetry event (payload = ``TelemetryEvent.to_dict()``).
KIND_EVENT = "event"

#: The closed set of notification kinds a store will append.
NOTIFICATION_KINDS = (KIND_RECORD, KIND_EVENT)


@dataclass(frozen=True)
class Notification:
    """One globally ordered entry of the notification log."""

    id: int
    kind: str
    payload: Dict[str, object]


__all__ = [
    "KIND_EVENT",
    "KIND_RECORD",
    "NOTIFICATION_KINDS",
    "Notification",
]
