"""Chunked, resumable campaign execution over any store.

:func:`execute_with_store` is the one orchestration path between "a list
of campaign cells" and "records durably in a store".  It appends results
in cell order in chunks of ``snapshot_every`` cells and — under
``resume`` — skips every cell the store already holds a successful
record for.  It talks to a store through ``extend`` and ``load`` only,
so a JSONL results file and a SQLite store behave alike.  Because cells
are deterministic and independent, and records are always appended in
cell order, an interrupted-then-resumed campaign produces a
byte-identical results file (and equal rollups/reports) to an
uninterrupted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from .. import DEFAULT_SNAPSHOT_EVERY  # re-exported: the cadence --resume implies


def cell_key(cell) -> str:
    """The stable identity of one campaign cell within its campaign.

    ``(scenario, system, sequence_index, seed, shard)`` uniquely names a
    cell in every campaign enumeration (fleet cells vary seed × shard;
    registry campaigns vary system × sequence × seed), and every
    persisted record carries the same five fields — so completed work is
    matched to pending cells without touching arrivals or RNG state.
    """
    return (
        f"{cell.scenario}|{cell.system}|seq{cell.sequence_index}"
        f"|seed{cell.seed}|shard{cell.shard}"
    )


@dataclass
class ExecutionOutcome:
    """What :func:`execute_with_store` did."""

    #: One record per input cell, in cell order (resumed cells carry the
    #: previously persisted record).
    records: List
    #: Cells skipped because the store already held their record.
    resumed: int
    #: Cells actually executed by the backend this call.
    executed: int


def execute_with_store(
    backend,
    cells: Sequence,
    store=None,
    snapshot_every: int = 0,
    resume: bool = False,
) -> ExecutionOutcome:
    """Run ``cells`` through ``backend`` with durable, resumable persistence.

    ``store`` may be None (no persistence), a store object (anything with
    ``extend`` and ``load``) or a path, opened by
    :func:`~repro.store.campaign_store.open_store`.  ``snapshot_every``
    appends records every N cells instead of once at the end; ``resume``
    first reads the store's records (a JSONL file not written yet holds
    none) and skips every cell with a successful one (failure records are
    re-executed).  Both need a store;
    asking for them without one is an error rather than a silent no-op.
    """
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
    cells = list(cells)
    if (resume or snapshot_every > 0) and store is None:
        raise ValueError(
            "--resume/--snapshot-every need a persistent store (pass --out)"
        )
    if isinstance(store, (str, Path)):
        from .campaign_store import open_store

        with open_store(store) as opened:
            return execute_with_store(
                backend, cells, opened, snapshot_every, resume
            )

    keys = [cell_key(cell) for cell in cells]
    completed: Dict[str, object] = {}
    if resume:
        if len(set(keys)) != len(keys):
            raise ValueError(
                "cannot resume: the campaign enumerates duplicate cells "
                "(same scenario/system/sequence/seed/shard); matching "
                "persisted records to cells would be ambiguous"
            )
        try:
            persisted = store.load()
        except FileNotFoundError:
            # A first run, or a crash before the first append: a JSONL
            # results file that does not exist yet holds no records.
            persisted = []
        completed = {
            cell_key(record): record
            for record in persisted
            if not record.failed
        }

    results: Dict[int, object] = {}
    pending: List[int] = []
    for index, key in enumerate(keys):
        if key in completed:
            results[index] = completed[key]
        else:
            pending.append(index)

    chunk_size = snapshot_every or len(pending)
    for at in range(0, len(pending), max(chunk_size, 1)):
        chunk = pending[at : at + chunk_size]
        chunk_records = backend.run([cells[i] for i in chunk])
        for index, record in zip(chunk, chunk_records):
            results[index] = record
        if store is not None:
            store.extend(chunk_records)

    return ExecutionOutcome(
        records=[results[i] for i in range(len(cells))],
        resumed=len(cells) - len(pending),
        executed=len(pending),
    )


__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "ExecutionOutcome",
    "cell_key",
    "execute_with_store",
]
