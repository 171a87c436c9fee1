"""The SQLite event store, and the one path -> store mapping.

A results path names one of two formats, picked by :func:`is_sqlite_path`:

* a JSONL results file — a plain :class:`~repro.campaign.results
  .ResultsStore` holding records only;
* a SQLite database — a :class:`CampaignStore`: one notification log of
  records and telemetry events plus the persisted projection states.

:func:`open_store` opens either for writing (creating it);
:func:`read_store` opens an existing one and never creates a file.

A :class:`CampaignStore` is single-file SQLite in WAL mode.  Batch
appends are one transaction, so a killed writer leaves a clean prefix at
transaction granularity: either the whole batch is visible after reopen
or none of it is, never a torn record.  It assumes one writer (the
campaign orchestrator); readers may open the same store concurrently.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..campaign.results import ResultsStore, RunRecord
from .notification import (
    KIND_EVENT,
    KIND_RECORD,
    NOTIFICATION_KINDS,
    Notification,
)

#: File suffixes recognized as SQLite stores without sniffing content.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")
#: The 16-byte magic prefix of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


def is_sqlite_path(path: Union[str, Path]) -> bool:
    """True when ``path`` names an (existing or intended) SQLite store."""
    path = Path(path)
    if path.suffix.lower() in SQLITE_SUFFIXES:
        return True
    try:
        with path.open("rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


class CampaignStore:
    """Records, telemetry events and projection states in one SQLite file.

    ``extend`` / ``load`` / ``path`` / ``skipped_lines`` match
    :class:`~repro.campaign.results.ResultsStore`, so the campaign runner
    and the readers treat both formats alike; ``extend`` also folds the
    built-in projections up to the log head.
    """

    #: Parity with the JSONL results store: SQLite cannot tear lines.
    skipped_lines = 0

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS notifications ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " kind TEXT NOT NULL,"
            " payload TEXT NOT NULL)"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS projections ("
            " name TEXT PRIMARY KEY,"
            " watermark INTEGER NOT NULL,"
            " state TEXT NOT NULL)"
        )

    # -- ResultsStore-compatible surface ---------------------------------
    def extend(self, records: Iterable[RunRecord]) -> Path:
        """Durably append records and fold the projections over them."""
        from .projections import update_projections

        self.append_records(records)
        update_projections(self)
        return self.path

    def load(self) -> List[RunRecord]:
        """Every persisted :class:`RunRecord`, in notification order."""
        return [
            RunRecord.from_dict(json.loads(row[0]))
            for row in self._conn.execute(
                "SELECT payload FROM notifications WHERE kind = ? "
                "ORDER BY id",
                (KIND_RECORD,),
            )
        ]

    # -- notification log ------------------------------------------------
    def append(
        self, entries: Iterable[Tuple[str, Dict[str, object]]]
    ) -> List[int]:
        """Durably append ``(kind, payload)`` entries as one atomic batch.

        Returns the assigned notification ids, in entry order.  Ids are
        dense and strictly increasing across the log's whole lifetime.
        """
        rows = []
        for kind, payload in entries:
            if kind not in NOTIFICATION_KINDS:
                raise ValueError(
                    f"unknown notification kind {kind!r}; "
                    f"known: {', '.join(NOTIFICATION_KINDS)}"
                )
            rows.append((kind, json.dumps(payload, sort_keys=True)))
        if not rows:
            return []
        cur = self._conn.cursor()
        cur.execute("BEGIN IMMEDIATE")
        try:
            # One batched statement per append: the transaction already
            # holds the write lock, so ids stay dense and the batch lands
            # (or rolls back) as a unit.  AUTOINCREMENT guarantees the
            # new ids follow the pre-insert maximum.
            row = cur.execute(
                "SELECT COALESCE(MAX(id), 0) FROM notifications"
            ).fetchone()
            first = int(row[0]) + 1
            cur.executemany(
                "INSERT INTO notifications (kind, payload) VALUES (?, ?)",
                rows,
            )
            cur.execute("COMMIT")
        except BaseException:
            cur.execute("ROLLBACK")
            raise
        return list(range(first, first + len(rows)))

    def append_records(self, records: Iterable[RunRecord]) -> List[int]:
        return self.append(
            (KIND_RECORD, record.to_dict()) for record in records
        )

    def append_events(self, events: Iterable) -> List[int]:
        """Flow typed telemetry events through the notification log."""
        return self.append((KIND_EVENT, event.to_dict()) for event in events)

    def select(
        self, start: int = 1, limit: Optional[int] = None
    ) -> List[Notification]:
        """Notifications with ``id >= start``, oldest first."""
        sql = (
            "SELECT id, kind, payload FROM notifications "
            "WHERE id >= ? ORDER BY id"
        )
        args: Tuple = (start,)
        if limit is not None:
            sql += " LIMIT ?"
            args = (start, limit)
        return [
            Notification(id=row[0], kind=row[1], payload=json.loads(row[2]))
            for row in self._conn.execute(sql, args)
        ]

    def max_id(self) -> int:
        """The newest notification id (0 when the log is empty)."""
        row = self._conn.execute(
            "SELECT COALESCE(MAX(id), 0) FROM notifications"
        ).fetchone()
        return int(row[0])

    def counts(self) -> Dict[str, int]:
        """Notification counts per kind."""
        return {
            row[0]: row[1]
            for row in self._conn.execute(
                "SELECT kind, COUNT(*) FROM notifications "
                "GROUP BY kind ORDER BY kind"
            )
        }

    # -- projection states -----------------------------------------------
    def get_projection(
        self, name: str
    ) -> Tuple[int, Optional[Dict[str, object]]]:
        """A projection's persisted ``(watermark, state)`` (``(0, None)``
        when it has never been saved)."""
        row = self._conn.execute(
            "SELECT watermark, state FROM projections WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return 0, None
        return int(row[0]), json.loads(row[1])

    def set_projection(
        self, name: str, watermark: int, state: Dict[str, object]
    ) -> None:
        """Persist a projection's watermark and folded state."""
        self._conn.execute(
            "INSERT INTO projections (name, watermark, state) "
            "VALUES (?, ?, ?) ON CONFLICT(name) DO UPDATE SET "
            "watermark = excluded.watermark, state = excluded.state",
            (name, watermark, json.dumps(state, sort_keys=True)),
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_store(
    path: Union[str, Path]
) -> Union[ResultsStore, CampaignStore]:
    """Open (or create) the store at ``path``; the path picks the format.

    A ``.sqlite``/``.db`` suffix or SQLite file magic gives a
    :class:`CampaignStore`; anything else a plain :class:`ResultsStore`.
    """
    return CampaignStore(path) if is_sqlite_path(path) else ResultsStore(path)


def read_store(
    path: Union[str, Path]
) -> Union[ResultsStore, CampaignStore]:
    """Open the existing store at ``path`` for reading.

    Raises :class:`FileNotFoundError` when nothing is there, so a read
    never leaves a new file behind.
    """
    if not Path(path).is_file():
        raise FileNotFoundError(2, "No such file or directory", str(path))
    return open_store(path)


__all__ = [
    "CampaignStore",
    "SQLITE_MAGIC",
    "SQLITE_SUFFIXES",
    "is_sqlite_path",
    "open_store",
    "read_store",
]
