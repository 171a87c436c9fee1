"""Persisted per-run records: the campaign subsystem's results layer.

Every campaign cell produces one :class:`RunRecord` — response samples,
scheduler counters, makespan and a parameter fingerprint — serialized as
one JSON object per line (JSONL) under ``results/``.  Records are the
contract between simulation and reporting: the figure modules and
``python -m repro replay`` consume records, so any plot can be re-rendered
without re-simulating.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import MISSING, asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..config import SystemParameters
from ..telemetry.digest import ResponseDigest

#: Bumped whenever the on-disk record shape changes incompatibly.
SCHEMA_VERSION = 1

#: Header line tag for results files.  A *string* (vs the integer record
#: ``schema`` field) so a header can never be mistaken for a record and a
#: handwritten ``{"schema": 1}`` line still fails record validation with
#: its line number, as pinned by the store tests.
RESULTS_FILE_SCHEMA = "repro-results/1"


def results_header() -> Dict[str, object]:
    """The header payload both :meth:`ResultsStore.write` and
    :meth:`ResultsStore.extend` put on line 1 of a brand-new file."""
    return {"schema": RESULTS_FILE_SCHEMA}


def is_results_header(payload: object) -> bool:
    """True when a parsed line-1 payload is the file header, not a record."""
    return (
        isinstance(payload, dict)
        and payload.get("schema") == RESULTS_FILE_SCHEMA
    )

#: Counter names copied off ``SchedulerStats`` into every record.
COUNTER_FIELDS = (
    "arrivals",
    "completions",
    "pr_count",
    "pr_blocked",
    "pr_wait_ms",
    "launches",
    "launch_blocked",
    "launch_wait_ms",
    "preemptions",
    "migrations_out",
)


def fingerprint_parameters(params: SystemParameters) -> str:
    """A short stable digest of a full parameter set.

    Two records compare as "same configuration" iff their fingerprints
    match, so aggregation across files can refuse to mix incompatible runs.
    """
    payload = json.dumps(asdict(params), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


@dataclass
class RunRecord:
    """Outcome of one simulated (system × sequence × seed) campaign cell."""

    scenario: str
    system: str
    condition: str
    sequence_index: int
    seed: int
    n_apps: int
    makespan_ms: float
    response_times_ms: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""
    #: Fleet shard that produced this record; -1 for non-fleet cells.
    shard: int = -1
    #: Time-weighted utilization aggregates of the run (occupied-slot and
    #: whole-fabric LUT/FF means plus the elapsed weight for rollups).
    utilization: Dict[str, float] = field(default_factory=dict)
    #: Serialized :class:`~repro.telemetry.digest.ResponseDigest` — the
    #: compact default representation of the run's response distribution.
    #: Raw ``response_times_ms`` are only persisted with ``--raw-samples``.
    response_digest: Dict[str, object] = field(default_factory=dict)
    #: Empty for successful runs.  A non-empty string marks a cell whose
    #: worker crashed or timed out past the backend's retry budget; such
    #: records carry no samples and are excluded from aggregation.
    error: str = ""
    schema: int = SCHEMA_VERSION

    @property
    def failed(self) -> bool:
        """True when the cell's execution failed instead of simulating."""
        return bool(self.error)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunRecord":
        schema = payload.get("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"record schema {schema} not supported (expected {SCHEMA_VERSION})"
            )
        fields = cls.__dataclass_fields__
        required = {
            name
            for name, f in fields.items()
            if f.default is MISSING and f.default_factory is MISSING
        }
        missing = sorted(required - payload.keys())
        if missing:
            raise ValueError(f"record is missing fields: {', '.join(missing)}")
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def digest(self) -> Optional[ResponseDigest]:
        """The record's response digest, or None when it carries none."""
        if not self.response_digest:
            return None
        return ResponseDigest.from_dict(self.response_digest)

    def response_summary(self) -> ResponseDigest:
        """One digest over whatever response data the record has.

        Returns the stored digest when present (for records that also
        carry raw samples it is bit-identical to a digest built from
        them — both fold the same completion stream); raw-only records
        build one on the fly.  Callers needing *exact* percentiles should
        branch on ``response_times_ms`` themselves, as
        ``record_to_run_result`` does.
        """
        digest = self.digest()
        if digest is not None:
            return digest
        pooled = ResponseDigest()
        pooled.extend(self.response_times_ms)
        return pooled

    def mean_response_ms(self) -> float:
        if self.response_times_ms:
            return sum(self.response_times_ms) / len(self.response_times_ms)
        digest = self.digest()
        if digest is not None and digest.count:
            # The digest's running sum adds samples in the same order the
            # raw list would, so this mean is bit-identical to the raw
            # computation above.
            return digest.mean()
        raise ValueError(f"record {self.scenario}/{self.system} has no samples")


#: Files whose truncated trailing line has already been warned about this
#: process — re-loading the same damaged file (replay, aggregation, tests)
#: warns once, not on every read.
_TRUNCATION_WARNED: set = set()


class ResultsStore:
    """Crash-safe, append-oriented JSONL store for :class:`RunRecord` files.

    * :meth:`write` replaces the file atomically (write-to-temp +
      ``os.replace``), so a reader never observes a half-written file.
    * :meth:`extend` flushes and fsyncs the whole batch before returning,
      so a killed worker can lose at most its *own* unflushed batch — and
      only as a truncated final line, never a corrupted interior one.
    * :meth:`load` detects a truncated trailing line, skips it (warning
      once per file per process), and keeps every intact record before
      it; malformed *interior* lines still raise (those are corruption,
      not a crash).  ``skipped_lines`` holds the most recent load's skip
      count so callers can surface it in their summaries.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: Lines the most recent :meth:`load` skipped as truncated.
        self.skipped_lines = 0

    # A context manager like the SQLite store, so readers can hold either
    # format in one ``with``; every call opens and closes its own file.
    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def write(self, records: Iterable[RunRecord]) -> Path:
        """Atomically replace the file's contents with ``records``."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(results_header(), sort_keys=True) + "\n")
            for record in records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return self.path

    def extend(self, records: Iterable[RunRecord]) -> Path:
        """Durably append ``records`` to the file, creating it if needed.

        If a previous writer died mid-line (file not newline-terminated),
        the partial trailing line is repaired *before* appending —
        otherwise the new first record would merge into it and corrupt
        the file for every later read.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_truncated_tail()
        # A brand-new (or empty) file gets the same header line ``write``
        # emits, so the two creation paths produce identical files.
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        with self.path.open("a", encoding="utf-8") as handle:
            if fresh:
                handle.write(
                    json.dumps(results_header(), sort_keys=True) + "\n"
                )
            for record in records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return self.path

    def _repair_truncated_tail(self) -> None:
        """Make an existing file newline-terminated before appending.

        A trailing fragment that parses as JSON (e.g. a hand-edited file
        merely missing its final newline) is kept and terminated; one
        that does not — the crash artifact ``load`` would skip — is cut.
        """
        if not self.path.exists():
            return
        with self.path.open("rb+") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
            cut = data.rfind(b"\n") + 1
            fragment = data[cut:]
            try:
                json.loads(fragment.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                warnings.warn(
                    f"{self.path}: dropping truncated trailing record "
                    "before append (interrupted writer?)",
                    stacklevel=3,
                )
                handle.truncate(cut)
            else:
                handle.write(b"\n")

    def load(self) -> List[RunRecord]:
        """All records in file order (tolerating a truncated final line).

        Streams through :func:`~repro.telemetry.replay.iter_jsonl_payloads`,
        the shared crash-tolerant reader: malformed interior lines raise
        with their location, a truncated trailing line (interrupted
        writer) is skipped with a warning.
        """
        from ..telemetry.replay import iter_jsonl_payloads

        self.skipped_lines = 0

        def on_skip(line_no: int) -> None:
            self.skipped_lines += 1
            key = str(self.path.resolve())
            if key not in _TRUNCATION_WARNED:
                _TRUNCATION_WARNED.add(key)
                warnings.warn(
                    f"{self.path}:{line_no}: truncated trailing record "
                    "skipped (interrupted writer?)",
                    stacklevel=3,
                )

        records: List[RunRecord] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for line_no, payload in iter_jsonl_payloads(
                handle, self.path, what="record", on_skip=on_skip
            ):
                if line_no == 1 and is_results_header(payload):
                    continue
                try:
                    records.append(RunRecord.from_dict(payload))
                except ValueError as exc:
                    raise ValueError(
                        f"{self.path}:{line_no}: malformed record ({exc})"
                    ) from None
        return records


def load_records(path: Union[str, Path]) -> List[RunRecord]:
    """Every record of the results file or SQLite store at ``path``.

    Raises :class:`FileNotFoundError` for a missing path in either format.
    """
    from ..store import read_store  # lazy: avoids a cycle

    with read_store(path) as store:
        return store.load()


def merged_response_summary(records: Iterable[RunRecord]):
    """Pooled response summary of many records.

    When *every* record carries raw samples the pool is an exact
    :class:`~repro.metrics.response.ResponseStats`; otherwise the shards'
    digests merge into one :class:`ResponseDigest` — O(1) memory instead
    of concatenating per-request lists.  Both expose the same ``count`` /
    ``mean()`` / ``percentile()`` surface.
    """
    records = list(records)
    # A record is "raw-carrying" when it has samples — or nothing at all
    # (a shard that completed zero requests constrains neither mode).
    # Only a digest-without-samples record forces the digest path, so
    # --raw-samples runs stay exact even when one shard came up empty.
    if records and all(
        r.response_times_ms or not r.response_digest for r in records
    ):
        from ..metrics.response import ResponseStats  # lazy: avoids a cycle

        pooled = ResponseStats()
        for record in records:
            pooled.extend(record.response_times_ms)
        return pooled
    merged = ResponseDigest()
    for record in records:
        if record.response_times_ms:
            merged.extend(record.response_times_ms)
        else:
            digest = record.digest()
            if digest is not None:
                merged.merge(digest)
    return merged


def group_by_system(records: Iterable[RunRecord]) -> Dict[str, List[RunRecord]]:
    """Records keyed by system, each list ordered by (seed, sequence)."""
    grouped: Dict[str, List[RunRecord]] = {}
    for record in records:
        grouped.setdefault(record.system, []).append(record)
    for runs in grouped.values():
        runs.sort(key=lambda r: (r.condition, r.seed, r.sequence_index))
    return grouped
