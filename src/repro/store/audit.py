"""Store audit: log shape and projections vs rebuild.

:func:`check_store` is the integrity oracle behind ``repro store verify``
and ``repro verify --store``; :func:`run_store_audit` is that command's
body (message and exit code).  Both need only the store and the record
schema, so an audit never loads the simulator, and both only read.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Tuple

from .campaign_store import CampaignStore, read_store
from .projections import default_projections, verify_store_projections


def check_store(store_or_path) -> List[str]:
    """Audit a store; returns human-readable findings (empty = clean).

    A JSONL results file holds records only: every line must parse (a
    malformed one raises :class:`ValueError`).  A SQLite store gets two
    layers of checks:

    * **log shape** — notification ids must be dense and strictly
      increasing from 1 (a gap means a torn or hand-edited log);
    * **projection oracle** — every built-in projection's persisted
      incremental state must equal a from-scratch rebuild of the whole
      log (:func:`repro.store.projections.verify_store_projections`).
    """
    if isinstance(store_or_path, (str, Path)):
        with read_store(store_or_path) as store:
            return _audit(store)[0]
    return _audit(store_or_path)[0]


def _audit(store) -> Tuple[List[str], str]:
    """The findings of :func:`check_store`, plus what was checked."""
    if not isinstance(store, CampaignStore):
        checked = f"{len(store.load())} record(s) parsed"
        if store.skipped_lines:
            checked += (
                f", {store.skipped_lines} truncated trailing line(s) skipped"
            )
        return [], checked + " (JSONL results file: no log or projections)"
    findings: List[str] = []
    expected = 1
    for notification in store.select():
        if notification.id != expected:
            findings.append(
                f"notification log gap: expected id {expected}, "
                f"found {notification.id}"
            )
            expected = notification.id
        expected += 1
    findings.extend(verify_store_projections(store))
    checked = (
        f"notification log dense ({store.max_id()} notification(s)), "
        f"all {len(default_projections())} projections equal a full rebuild"
    )
    return findings, checked


def run_store_audit(path: str) -> int:
    """Audit the store at ``path`` and report: exit 0 clean, 1 findings, 2 unusable."""
    try:
        with read_store(path) as store:
            findings, checked = _audit(store)
    except FileNotFoundError:
        print(f"error: store {path} does not exist", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if findings:
        print(f"verify: store {path}: {len(findings)} finding(s)")
        for finding in findings:
            print(f"  FAIL {finding}", file=sys.stderr)
        return 1
    print(f"verify: store {path}: {checked}")
    return 0
