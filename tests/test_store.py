"""The stores: JSONL results files, the SQLite event store, resume,
projections.

The store contract under test, end to end:

* a results path picks its format: a JSONL path is a plain
  ``ResultsStore`` holding records only (no sidecar files, ever); a
  SQLite path is the one notification log of records and telemetry
  events, read back identically after a reopen;
* ``ResultsStore.extend`` on a brand-new path writes the same header line
  ``write`` does, so every results file is self-describing (pinned by a
  byte-level round trip);
* an interrupted campaign resumed with ``resume=True`` skips the cells
  the store already holds, re-executes the rest, and ends bit-identical
  to an uninterrupted run — serial and process backends, both formats;
* reports fold as *incremental* projections (only past-watermark
  notifications are consumed, counted and asserted) and match both a
  full rebuild and the batch reference implementations exactly;
* every read path (``load_records``, ``replay``, ``store inspect``,
  ``store verify``, ``verify --store``) leaves its directory unchanged,
  and a SQLite store holding the ``snapshot`` rows older versions wrote
  still loads, resumes and verifies.
"""

import json
import sqlite3

import pytest

from repro.campaign import (
    CampaignRunner,
    ProcessBackend,
    ResultsStore,
    Scenario,
    SerialBackend,
    load_records,
)
from repro.campaign.results import results_header
from repro.experiments import Fig5Result, fig6_from_records
from repro.experiments.fig5 import reductions_from_records
from repro.fleet import Fleet, get_fleet_scenario
from repro.metrics.report import summarize_records
from repro.store import (
    CampaignStore,
    DEFAULT_SNAPSHOT_EVERY,
    FigureProjection,
    FleetRollupProjection,
    KIND_EVENT,
    KIND_RECORD,
    NOTIFICATION_KINDS,
    RecordSummaryProjection,
    TelemetryCounterProjection,
    execute_with_store,
    is_sqlite_path,
    open_store,
    update_projections,
    verify_store_projections,
)
from repro.telemetry import load_events, replay_aggregation, replay_notifications
from repro.telemetry.sinks import RecorderEventSink
from repro.workloads.generator import Condition, WorkloadSpec

BACKENDS = ("jsonl", "sqlite")
#: The formats that hold a notification log (JSONL holds records only).
LOG_BACKENDS = ("sqlite",)


def _suffix(backend: str) -> str:
    return "sqlite" if backend == "sqlite" else "jsonl"


def _scenario(name: str = "storecase", sequences: int = 2) -> Scenario:
    return Scenario(
        name=name,
        workload=WorkloadSpec(
            Condition.STRESS, n_apps=3, sequence_count=sequences
        ),
        systems=("Baseline", "VersaSlot-OL"),
    )


@pytest.fixture(scope="module")
def campaign_records():
    """(cells, records) of one small deterministic campaign (4 cells)."""
    cells = CampaignRunner().cells_for(_scenario())
    return cells, SerialBackend().run(cells)


@pytest.fixture(scope="module")
def event_log(tmp_path_factory):
    """One cell's telemetry event-log path (typed JSONL stream)."""
    events_dir = tmp_path_factory.mktemp("events")
    runner = CampaignRunner(events_dir=events_dir)
    scenario = Scenario(
        name="storeevents",
        workload=WorkloadSpec(Condition.LOOSE, n_apps=2, sequence_count=1),
        systems=("FCFS",),
    )
    runner.run(scenario)
    (path,) = list(events_dir.glob("*.jsonl"))
    return path


class InterruptingBackend:
    """Wraps a backend; simulates a crash after ``fail_after`` cells."""

    def __init__(self, inner, fail_after: int) -> None:
        self.inner = inner
        self.fail_after = fail_after
        self.executed = 0

    def run(self, cells):
        if self.executed >= self.fail_after:
            raise RuntimeError("simulated crash")
        self.executed += len(cells)
        return self.inner.run(cells)


class RecordingBackend(SerialBackend):
    """A serial backend that remembers the size of every ``run`` call."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def run(self, cells):
        self.calls.append(len(cells))
        return super().run(cells)


def _listing(directory):
    """Every file under ``directory`` with its bytes (sidecars included)."""
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _legacy_store(path, records):
    """A SQLite store as older versions wrote it with ``--snapshot-every 1``:
    each record followed by a ``snapshot`` row, projections folded over
    both."""
    with open_store(path):
        pass  # creates the schema
    conn = sqlite3.connect(str(path), isolation_level=None)
    for index, record in enumerate(records, start=1):
        snapshot = {"schema": 1, "completed": [], "digest": {},
                    "cells": [], "covered_id": 2 * index - 1}
        conn.executemany(
            "INSERT INTO notifications (kind, payload) VALUES (?, ?)",
            [("record", json.dumps(record.to_dict(), sort_keys=True)),
             ("snapshot", json.dumps(snapshot, sort_keys=True))],
        )
    conn.close()
    with open_store(path) as store:
        update_projections(store)
    return path


class TestRecorders:
    """The two store formats a results path can name."""

    @pytest.mark.parametrize("backend", LOG_BACKENDS)
    def test_mixed_kind_roundtrip_survives_reopen(
        self, tmp_path, backend, campaign_records, event_log
    ):
        _, records = campaign_records
        events = load_events(event_log)[:1]
        path = tmp_path / f"log.{_suffix(backend)}"
        with open_store(path) as store:
            ids = store.append_records(records[:2])
            assert ids == [1, 2]
            assert store.append_events(events) == [3]
            ids = store.append_records(records[2:])
            assert ids == [4, 5]
            before = [(n.id, n.kind, n.payload) for n in store.select()]
        with open_store(path) as store:
            after = [(n.id, n.kind, n.payload) for n in store.select()]
            assert after == before
            assert [n.id for n in store.select()] == [1, 2, 3, 4, 5]
            assert store.max_id() == 5
            assert store.counts() == {"event": 1, "record": 4}
            # select honors (start, limit) over the global order
            window = store.select(start=2, limit=2)
            assert [n.id for n in window] == [2, 3]
            loaded = store.load()
            assert [r.to_dict() for r in loaded] == \
                [r.to_dict() for r in records]

    @pytest.mark.parametrize("backend", LOG_BACKENDS)
    def test_unknown_kind_rejected(self, tmp_path, backend):
        with open_store(tmp_path / f"log.{_suffix(backend)}") as store:
            with pytest.raises(ValueError, match="unknown notification kind"):
                store.append([("bogus", {})])
            # nothing writes the snapshot rows older stores hold
            with pytest.raises(ValueError, match="unknown notification kind"):
                store.append([("snapshot", {})])
            assert store.max_id() == 0

    def test_sqlite_sniffing(self, tmp_path):
        assert is_sqlite_path("results/x.sqlite")
        assert is_sqlite_path("results/x.db")
        assert not is_sqlite_path("results/x.jsonl")
        # no suffix hint: the file magic decides
        magic = tmp_path / "mystery"
        magic.write_bytes(b"SQLite format 3\x00" + b"\x00" * 16)
        assert is_sqlite_path(magic)

    def test_jsonl_path_opens_a_plain_results_store(
        self, tmp_path, campaign_records
    ):
        _, records = campaign_records
        legacy = ResultsStore(tmp_path / "legacy.jsonl")
        legacy.write(records)
        before = _listing(tmp_path)
        with open_store(legacy.path) as store:
            assert type(store) is ResultsStore
            assert [r.to_dict() for r in store.load()] == \
                [r.to_dict() for r in records]
        # opening and reading a results file writes nothing beside it
        assert _listing(tmp_path) == before
        with open_store(tmp_path / "sub" / "x.db") as store:
            assert isinstance(store, CampaignStore)


class TestResultsFileHeader:
    def test_extend_on_fresh_path_writes_the_same_header_as_write(
        self, tmp_path, campaign_records
    ):
        _, records = campaign_records
        written = ResultsStore(tmp_path / "written.jsonl")
        written.write(records)
        extended = ResultsStore(tmp_path / "extended.jsonl")
        extended.extend(records)
        assert written.path.read_bytes() == extended.path.read_bytes()
        first = json.loads(extended.path.read_text().splitlines()[0])
        assert first == results_header()
        assert [r.to_dict() for r in ResultsStore(extended.path).load()] == \
            [r.to_dict() for r in records]

    def test_appending_to_existing_file_writes_no_second_header(
        self, tmp_path, campaign_records
    ):
        _, records = campaign_records
        store = ResultsStore(tmp_path / "r.jsonl")
        store.extend(records[:1])
        store.extend(records[1:])
        lines = store.path.read_text().splitlines()
        headers = [ln for ln in lines if json.loads(ln) == results_header()]
        assert len(headers) == 1
        assert len(lines) == 1 + len(records)


class TestSnapshotsAndResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_every_sets_the_append_cadence(
        self, tmp_path, backend, campaign_records
    ):
        cells, records = campaign_records
        path = tmp_path / f"cadence.{_suffix(backend)}"
        backend_calls = RecordingBackend()
        with open_store(path) as store:
            outcome = execute_with_store(
                backend_calls, cells, store=store, snapshot_every=3
            )
        assert backend_calls.calls == [3, 1]
        assert (outcome.resumed, outcome.executed) == (0, len(cells))
        assert [r.to_dict() for r in load_records(path)] == \
            [r.to_dict() for r in records]
        # the cadence changes when records land, never what lands
        once = tmp_path / f"once.{_suffix(backend)}"
        execute_with_store(SerialBackend(), cells, store=once)
        if backend == "jsonl":
            assert path.read_bytes() == once.read_bytes()
        assert [r.to_dict() for r in load_records(once)] == \
            [r.to_dict() for r in records]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_interrupted_then_resumed_is_bit_identical(
        self, tmp_path, backend, jobs, campaign_records
    ):
        cells, clean_records = campaign_records
        clean_path = tmp_path / f"clean.{_suffix(backend)}"
        with open_store(clean_path) as store:
            execute_with_store(
                SerialBackend(), cells, store=store, snapshot_every=2
            )

        resumed_path = tmp_path / f"resumed.{_suffix(backend)}"
        crash = InterruptingBackend(SerialBackend(), fail_after=2)
        with open_store(resumed_path) as store, \
                pytest.raises(RuntimeError, match="simulated crash"):
            execute_with_store(
                crash, cells, store=store, snapshot_every=2
            )
        assert len(load_records(resumed_path)) == 2

        resume_backend = (
            SerialBackend() if jobs == 1 else ProcessBackend(jobs=jobs)
        )
        with open_store(resumed_path) as store:
            outcome = execute_with_store(
                resume_backend, cells, store=store,
                snapshot_every=2, resume=True,
            )
        assert outcome.resumed == 2
        assert outcome.executed == 2
        assert [r.to_dict() for r in outcome.records] == \
            [r.to_dict() for r in clean_records]
        if backend == "jsonl":
            # the results file (records + header) is byte-identical to
            # the uninterrupted run's, and no sidecar appeared
            assert resumed_path.read_bytes() == clean_path.read_bytes()
            assert sorted(p.name for p in tmp_path.iterdir()) == \
                sorted([clean_path.name, resumed_path.name])
        else:
            assert [r.to_dict() for r in load_records(resumed_path)] == \
                [r.to_dict() for r in load_records(clean_path)]
            # projections converge to the same state on both stores
            for path in (clean_path, resumed_path):
                with open_store(path) as store:
                    assert verify_store_projections(store) == []

    def test_resume_skips_everything_on_a_complete_store(
        self, tmp_path, campaign_records
    ):
        cells, _ = campaign_records
        path = tmp_path / "done.jsonl"
        runner = CampaignRunner(store=str(path), snapshot_every=2)
        runner.run_cells(cells)
        before = path.read_bytes()
        again = CampaignRunner(store=str(path), resume=True)
        again.run_cells(cells)
        assert again.last_outcome.resumed == len(cells)
        assert again.last_outcome.executed == 0
        assert path.read_bytes() == before

    def test_resume_reexecutes_failed_cells(self, tmp_path, campaign_records):
        from repro.campaign import failure_record

        cells, _ = campaign_records
        path = tmp_path / "failed.sqlite"
        with open_store(path) as store:
            store.append_records(
                [failure_record(cells[0], "worker crashed")]
            )
            outcome = execute_with_store(
                SerialBackend(), cells, store=store, resume=True
            )
        assert outcome.resumed == 0
        assert outcome.executed == len(cells)
        assert not any(r.failed for r in outcome.records)

    def test_resume_rejects_duplicate_cells(self, tmp_path, campaign_records):
        cells, _ = campaign_records
        with open_store(tmp_path / "dup.jsonl") as store:
            with pytest.raises(ValueError, match="duplicate cells"):
                execute_with_store(
                    SerialBackend(), [cells[0], cells[0]],
                    store=store, resume=True,
                )

    def test_durability_features_require_a_store(self, campaign_records):
        cells, _ = campaign_records
        with pytest.raises(ValueError, match="need a persistent store"):
            execute_with_store(SerialBackend(), cells, resume=True)
        with pytest.raises(ValueError, match="snapshot_every"):
            execute_with_store(SerialBackend(), cells, snapshot_every=-1)

    def test_plain_path_stays_legacy_jsonl(self, tmp_path, campaign_records):
        # A JSONL path is a plain ResultsStore whatever the flags: no
        # sidecar files appear next to campaign output, resumed or not.
        cells, _ = campaign_records
        path = tmp_path / "legacy.jsonl"
        assert type(open_store(path)) is ResultsStore
        CampaignRunner(store=str(path)).run_cells(cells[:1])
        resumed = CampaignRunner(store=str(path), resume=True)
        resumed.run_cells(cells)
        assert resumed.last_outcome.resumed == 1
        assert [p.name for p in tmp_path.iterdir()] == ["legacy.jsonl"]
        with open_store(tmp_path / "s.sqlite") as store:
            assert isinstance(store, CampaignStore)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_on_a_fresh_path_runs_everything(
        self, tmp_path, backend, campaign_records
    ):
        # A first --resume run (or one after a crash before the first
        # append) finds no store yet: every cell runs, and the file equals
        # a run without resume.
        cells, _ = campaign_records
        plain = tmp_path / f"plain.{_suffix(backend)}"
        fresh = tmp_path / f"fresh.{_suffix(backend)}"
        CampaignRunner(store=str(plain)).run_cells(cells)
        runner = CampaignRunner(store=str(fresh), resume=True)
        runner.run_cells(cells)
        assert runner.last_outcome.resumed == 0
        assert runner.last_outcome.executed == len(cells)
        if backend == "jsonl":
            assert fresh.read_bytes() == plain.read_bytes()
        else:
            assert [r.to_dict() for r in load_records(fresh)] == \
                [r.to_dict() for r in load_records(plain)]

    def test_default_snapshot_cadence_is_sane(self):
        assert DEFAULT_SNAPSHOT_EVERY >= 1

    def test_legacy_snapshot_rows_load_resume_and_verify(
        self, tmp_path, capsys, campaign_records
    ):
        from repro.cli import main

        cells, records = campaign_records
        path = _legacy_store(tmp_path / "legacy.sqlite", records)
        fresh = tmp_path / "fresh.sqlite"
        with open_store(fresh) as store:
            store.extend(records)
        with open_store(path) as store:
            assert store.counts() == {
                "record": len(records), "snapshot": len(records)
            }
        assert [r.to_dict() for r in load_records(path)] == \
            [r.to_dict() for r in records]
        assert main(["store", "verify", str(path)]) == 0
        capsys.readouterr()
        replays = []
        for store_path in (path, fresh):
            assert main(["replay", str(store_path), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("path")
            replays.append(payload)
        assert replays[0] == replays[1]
        with open_store(path) as store:
            outcome = execute_with_store(
                SerialBackend(), cells, store=store, resume=True
            )
        assert outcome.resumed == len(cells)
        assert main(["store", "verify", str(path)]) == 0


class TestProjections:
    @pytest.mark.parametrize("backend", LOG_BACKENDS)
    def test_incremental_fold_consumes_only_the_tail(
        self, tmp_path, backend, campaign_records
    ):
        _, records = campaign_records
        path = tmp_path / f"proj.{_suffix(backend)}"
        with open_store(path) as store:
            store.append_records(records[:3])
            first = RecordSummaryProjection().load(store)
            assert first.apply(store) == 3
            assert first.watermark == 3

            store.append_records(records[3:])
            second = RecordSummaryProjection().load(store)
            assert second.watermark == 3  # persisted state restored
            folded = second.apply(store)
            assert folded == len(records) - 3  # tail only, never the prefix
            assert second.last_fold_count == folded

            rebuilt = RecordSummaryProjection()
            rebuilt.rebuild(store)
            assert second.state_dict() == rebuilt.state_dict()
            assert second.render() == rebuilt.render()
            assert verify_store_projections(store) == []

    def test_summary_projection_matches_batch_renderer(self, campaign_records):
        _, records = campaign_records
        projection = RecordSummaryProjection()
        for record in records:
            projection.fold_record(record)
        assert projection.render() == summarize_records(records)

    def test_summary_projection_state_survives_json(self, campaign_records):
        _, records = campaign_records
        projection = RecordSummaryProjection()
        for record in records:
            projection.fold_record(record)
        state = json.loads(json.dumps(projection.state_dict()))
        restored = RecordSummaryProjection()
        restored.restore_state(state)
        assert restored.render() == projection.render()

    def test_figure_projection_matches_batch_figures(self, campaign_records):
        _, records = campaign_records
        projection = FigureProjection()
        for record in records:
            projection.fold_record(record)
        assert projection.render_fig5() == \
            Fig5Result.from_records(records).reductions
        assert projection.render_fig6() == \
            fig6_from_records(records).relative_tails

    def test_figure_projection_matches_batch_error_paths(
        self, campaign_records
    ):
        _, records = campaign_records
        no_baseline = [r for r in records if r.system != "Baseline"]
        projection = FigureProjection()
        for record in no_baseline:
            projection.fold_record(record)
        with pytest.raises(KeyError) as from_projection:
            projection.render_fig5()
        with pytest.raises(KeyError) as from_batch:
            reductions_from_records(no_baseline)
        assert str(from_projection.value) == str(from_batch.value)

    def test_fleet_rollup_projection_matches_fleet_run(self, tmp_path):
        scenario = get_fleet_scenario("fleet-smoke")
        path = tmp_path / "fleet.sqlite"
        result = Fleet(scenario).run(store=str(path), snapshot_every=1)
        with open_store(path) as store:
            assert verify_store_projections(store) == []
            projection = FleetRollupProjection()
            projection.rebuild(store)
            per_shard, overall = projection.render_rollups()
        assert per_shard == result.rollup.per_shard
        assert overall == result.rollup.overall

    def test_telemetry_projection_matches_jsonl_replay(
        self, tmp_path, event_log
    ):
        events = load_events(event_log)
        assert events
        path = tmp_path / "events.sqlite"
        with open_store(path) as store:
            sink = RecorderEventSink(store, batch_size=16)
            for event in events:
                sink.handle(event)
            sink.close()
            assert sink.events_written == len(events)
            assert store.counts() == {"event": len(events)}

            projection = TelemetryCounterProjection()
            projection.rebuild(store)
            _, reference = replay_aggregation(event_log)
            assert projection.counters() == reference.counters()
            assert projection.digest.to_dict() == reference.digest.to_dict()
            # the replay helper folds the same stream off the store
            replayed = replay_notifications(store)
            assert replayed.counters() == reference.counters()

    def test_update_projections_reports_folded_counts(
        self, tmp_path, campaign_records
    ):
        _, records = campaign_records
        with open_store(tmp_path / "u.sqlite") as store:
            store.append_records(records)
            folded = update_projections(store)
            assert set(folded) == {
                "summary", "fleet-rollup", "figures", "telemetry"
            }
            assert all(n == len(records) for n in folded.values())
            # idempotent: a second pass folds nothing
            assert all(
                n == 0 for n in update_projections(store).values()
            )
            # extend folds as it appends: a catch-up pass finds nothing
            store.extend(records)
            assert all(
                n == 0 for n in update_projections(store).values()
            )


READERS = {
    "load_records": load_records,
    "replay": lambda path: _cli(["replay", str(path)]),
    "store inspect": lambda path: _cli(["store", "inspect", str(path)]),
    "store verify": lambda path: _cli(["store", "verify", str(path)]),
    "verify --store": lambda path: _cli(["verify", "--store", str(path)]),
}


def _cli(argv):
    from repro.cli import main

    return main(argv)


class TestStoreCli:
    def _build_store(self, tmp_path, records, backend="sqlite"):
        path = tmp_path / f"cli.{_suffix(backend)}"
        with open_store(path) as store:
            store.extend(records)
        return path

    @pytest.mark.parametrize("present", (True, False),
                             ids=("present", "missing"))
    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_read_paths_leave_the_directory_unchanged(
        self, tmp_path, backend, reader, present, campaign_records
    ):
        _, records = campaign_records
        if present:
            path = self._build_store(tmp_path, records, backend)
        else:
            path = tmp_path / f"missing.{_suffix(backend)}"
        before = _listing(tmp_path)
        if present:
            result = READERS[reader](path)
            if reader == "load_records":
                assert len(result) == len(records)
            else:
                assert result == 0
        elif reader == "load_records":
            with pytest.raises(FileNotFoundError):
                READERS[reader](path)
        else:
            assert READERS[reader](path) == 2
        assert _listing(tmp_path) == before

    def test_inspect_json(self, tmp_path, capsys, campaign_records):
        from repro.cli import main

        _, records = campaign_records
        path = self._build_store(tmp_path, records)
        assert main(["store", "inspect", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "sqlite"
        assert payload["counts"] == {"record": len(records)}
        assert payload["projections"]["summary"] == len(records)
        jsonl = self._build_store(tmp_path, records, backend="jsonl")
        assert main(["store", "inspect", str(jsonl), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["format"] == "jsonl"
        assert payload["records"] == len(records)

    def test_verify_clean_and_corrupted(self, tmp_path, capsys,
                                        campaign_records):
        from repro.cli import main

        _, records = campaign_records
        path = self._build_store(tmp_path, records)
        assert main(["store", "verify", str(path)]) == 0
        assert main(["verify", "--store", str(path)]) == 0
        # a stale projection (right watermark, wrong state) must be caught
        with open_store(path) as store:
            store.set_projection(
                "summary", store.max_id(),
                RecordSummaryProjection().state_dict(),
            )
        assert main(["store", "verify", str(path)]) == 1
        assert "summary" in capsys.readouterr().err

    def test_verify_says_what_it_checked(self, tmp_path, capsys,
                                         campaign_records):
        from repro.cli import main

        _, records = campaign_records
        jsonl = self._build_store(tmp_path, records, backend="jsonl")
        assert main(["store", "verify", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert f"{len(records)} record(s) parsed" in out
        assert "projections equal" not in out
        sqlite = self._build_store(tmp_path, records)
        assert main(["store", "verify", str(sqlite)]) == 0
        out = capsys.readouterr().out
        assert f"log dense ({len(records)} notification(s))" in out
        assert "projections equal a full rebuild" in out
        # a malformed record line makes the file unusable (exit 2)
        with jsonl.open("a") as handle:
            handle.write('{"not": "a record"}\n')
        assert main(["store", "verify", str(jsonl)]) == 2

    def test_export_converts_between_backends(self, tmp_path, capsys,
                                              campaign_records, event_log):
        from repro.cli import main

        _, records = campaign_records
        source = self._build_store(tmp_path, records, backend="jsonl")
        dest = tmp_path / "converted.sqlite"
        assert main(["store", "export", str(source), str(dest)]) == 0
        events = load_events(event_log)
        with open_store(dest) as store:
            assert isinstance(store, CampaignStore)
            assert [r.to_dict() for r in store.load()] == \
                [r.to_dict() for r in records]
            assert verify_store_projections(store) == []
            store.append_events(events)
        # back to JSONL: the records, byte-identical; the events stay behind
        back = tmp_path / "back.jsonl"
        capsys.readouterr()
        assert main(["store", "export", str(dest), str(back)]) == 0
        out = capsys.readouterr().out
        assert f"{len(events)} event(s) not carried" in out
        assert back.read_bytes() == source.read_bytes()

    def test_ingest_events(self, tmp_path, capsys, event_log):
        from repro.cli import main

        path = tmp_path / "ingest.sqlite"
        with open_store(path):
            pass
        assert main(["store", "ingest", str(path), str(event_log)]) == 0
        with open_store(path) as store:
            assert store.counts()["event"] == len(load_events(event_log))
        # a JSONL results file holds records only
        jsonl = tmp_path / "r.jsonl"
        capsys.readouterr()
        assert main(["store", "ingest", str(jsonl), str(event_log)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "SQLite" in err[0]
        assert not jsonl.exists()

    def test_replay_reads_sqlite_stores(self, tmp_path, capsys,
                                        campaign_records):
        from repro.cli import main

        _, records = campaign_records
        path = self._build_store(tmp_path, records)
        assert main(["replay", str(path)]) == 0
        assert "Campaign records" in capsys.readouterr().out
        assert main(["replay", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == len(records)
        assert payload["skipped_lines"] == 0

    def test_replay_missing_store_is_operator_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["replay", str(tmp_path / "absent.sqlite")]) == 2
        assert main(["store", "inspect", str(tmp_path / "nope.sqlite")]) == 2
        assert list(tmp_path.iterdir()) == []


class TestEventNotificationKinds:
    def test_kind_constants_are_the_wire_values(self):
        assert KIND_RECORD == "record"
        assert KIND_EVENT == "event"
        assert NOTIFICATION_KINDS == (KIND_RECORD, KIND_EVENT)
