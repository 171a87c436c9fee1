"""Store audit: log shape, snapshot consistency, projections vs rebuild.

:func:`check_store` is the integrity oracle behind ``repro store verify``
and ``repro verify --store``; :func:`run_store_audit` is that command's
body (message and exit code).  Both need only the store and the record
schema, so an audit never loads the simulator.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

from ..campaign.results import RunRecord
from .campaign_store import as_campaign_store
from .notification import KIND_RECORD, KIND_SNAPSHOT
from .projections import verify_store_projections
from .snapshot import CampaignSnapshot, cell_key


def check_store(store_or_path) -> List[str]:
    """Audit a durable event store's integrity and projections.

    Three layers of checks, each reported as a human-readable finding
    string (empty list = clean):

    * **log shape** — notification ids must be dense and strictly
      increasing from 1 (the recorder contract; a gap means a torn or
      hand-edited log);
    * **snapshot consistency** — every snapshot's completed-cell keys
      must be backed by a successful record at or before its watermark;
    * **projection oracle** — every built-in projection's persisted
      incremental state must equal a from-scratch rebuild of the whole
      log (:func:`repro.store.projections.verify_store_projections`).
    """
    store = as_campaign_store(store_or_path)
    findings: List[str] = []

    notifications = store.select()
    expected = 1
    for notification in notifications:
        if notification.id != expected:
            findings.append(
                f"notification log gap: expected id {expected}, "
                f"found {notification.id}"
            )
            expected = notification.id
        expected += 1

    completed_by_id: dict = {}
    seen_keys: set = set()
    for notification in notifications:
        if notification.kind == KIND_RECORD:
            record = RunRecord.from_dict(notification.payload)
            if not record.failed:
                seen_keys.add(cell_key(record))
            completed_by_id[notification.id] = set(seen_keys)
        elif notification.kind == KIND_SNAPSHOT:
            snapshot = CampaignSnapshot.from_dict(notification.payload)
            covered = completed_by_id.get(
                max(
                    (i for i in completed_by_id if i <= snapshot.covered_id),
                    default=0,
                ),
                set(),
            )
            missing = [k for k in snapshot.completed if k not in covered]
            if missing:
                findings.append(
                    f"snapshot (notification {notification.id}) claims "
                    f"{len(missing)} completed cell(s) with no backing "
                    f"record at or before id {snapshot.covered_id}: "
                    + ", ".join(missing[:3])
                    + ("..." if len(missing) > 3 else "")
                )

    findings.extend(verify_store_projections(store))
    return findings


def run_store_audit(path: str) -> int:
    """Audit the store at ``path`` and report: exit 0 clean, 1 findings, 2 unusable."""
    if not Path(path).exists():
        print(f"error: store {path} does not exist", file=sys.stderr)
        return 2
    try:
        findings = check_store(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if findings:
        print(f"verify: store {path}: {len(findings)} finding(s)")
        for finding in findings:
            print(f"  FAIL {finding}", file=sys.stderr)
        return 1
    print(
        f"verify: store {path}: notification log dense, snapshots "
        "consistent, all projections equal a full rebuild"
    )
    return 0
