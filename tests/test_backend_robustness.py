"""Campaign backend robustness: crashed workers, hung cells, retries.

A bare process-pool ``map`` hangs forever when a worker dies mid-task;
the process backend must instead detect the death, retry only that
worker's cell deterministically in isolation, and surface a persistent
failure as a failure record so the healthy records survive.  The
crash/hang cells here override ``resolve_arrivals`` — the first
cell-specific code a worker runs — to simulate a worker dying inside the
simulation.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRunner,
    ProcessBackend,
    ResultsStore,
    RunRecord,
    Scenario,
    SerialBackend,
    failure_record,
)
from repro.campaign.backend import CampaignCell
from repro.cli import build_parser, main, usable_cpus
from repro.metrics.report import summarize_records
from repro.store import execute_with_store
from repro.workloads.generator import Condition, WorkloadSpec

#: Flag-file path shared with forked workers (set per-test before the
#: pool forks; workers inherit the module state).
_FLAG = {"path": ""}


def _clone_as(cls, cell: CampaignCell):
    kwargs = {
        f.name: getattr(cell, f.name)
        for f in dataclasses.fields(cell)
        if f.init
    }
    return cls(**kwargs)


class CrashOnceCell(CampaignCell):
    """Dies abruptly on first execution, succeeds on the retry."""

    def resolve_arrivals(self):
        if not os.path.exists(_FLAG["path"]):
            open(_FLAG["path"], "w").close()
            os._exit(1)
        return super().resolve_arrivals()


class AlwaysCrashCell(CampaignCell):
    def resolve_arrivals(self):
        os._exit(1)


class HangCell(CampaignCell):
    def resolve_arrivals(self):
        time.sleep(300)
        return super().resolve_arrivals()


class RaisingCell(CampaignCell):
    def resolve_arrivals(self):
        raise ValueError("simulation-level error")


class TwoArgError(Exception):
    """Pickles, but unpickling replays one arg into a two-arg __init__."""

    def __init__(self, system, detail):
        super().__init__(f"{system}: {detail}")


class UnpicklableRaisingCell(CampaignCell):
    def resolve_arrivals(self):
        raise TwoArgError(self.system, "cannot be rebuilt")


class SlowRaisingCell(CampaignCell):
    def resolve_arrivals(self):
        time.sleep(0.5)
        raise ValueError("first failing cell")


def _count_run(cell) -> None:
    """Append one mark to this cell's marker file under ``_FLAG``."""
    marker = Path(_FLAG["path"]) / str(cell.sequence_index)
    with marker.open("a") as handle:
        handle.write("x")


def _runs(sequence_index: int) -> int:
    marker = Path(_FLAG["path"]) / str(sequence_index)
    return len(marker.read_text()) if marker.exists() else 0


class CountingCell(CampaignCell):
    def resolve_arrivals(self):
        _count_run(self)
        return super().resolve_arrivals()


class CountingCrashCell(CampaignCell):
    def resolve_arrivals(self):
        _count_run(self)
        os._exit(1)


def _cells(n_sequences: int = 3):
    return CampaignRunner().cells_for(Scenario(
        name="robustness",
        workload=WorkloadSpec(
            Condition.LOOSE, n_apps=2, sequence_count=n_sequences
        ),
        systems=("FCFS",),
    ))


class TestProcessBackendRobustness:
    def test_crashed_worker_retries_and_matches_serial(self, tmp_path):
        cells = _cells()
        serial = SerialBackend().run(cells)
        _FLAG["path"] = str(tmp_path / "crashed-once")
        mixed = [_clone_as(CrashOnceCell, cells[0])] + cells[1:]
        records = ProcessBackend(jobs=2).run(mixed)
        assert [r.to_dict() for r in records] == [r.to_dict() for r in serial]

    def test_persistent_crash_surfaces_failure_record(self):
        cells = _cells()
        serial = SerialBackend().run(cells)
        mixed = [_clone_as(AlwaysCrashCell, cells[0])] + cells[1:]
        records = ProcessBackend(jobs=2).run(mixed)
        assert records[0].failed
        assert "crashed" in records[0].error
        assert records[0].response_times_ms == []
        # Sibling cells caught in the pool breakage still complete,
        # bit-identical to the serial reference.
        assert [r.to_dict() for r in records[1:]] == \
            [r.to_dict() for r in serial[1:]]

    def test_hung_worker_times_out_instead_of_hanging(self):
        cells = _cells()
        serial = SerialBackend().run(cells)
        mixed = [_clone_as(HangCell, cells[0])] + cells[1:]
        start = time.monotonic()
        records = ProcessBackend(jobs=2, timeout_s=2.0).run(mixed)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0  # pool.map would wait on the sleep forever
        assert records[0].failed
        assert "timed out" in records[0].error
        assert [r.to_dict() for r in records[1:]] == \
            [r.to_dict() for r in serial[1:]]

    def test_simulation_exception_still_propagates(self):
        cells = _cells()
        mixed = [_clone_as(RaisingCell, cells[0])] + cells[1:]
        with pytest.raises(ValueError, match="simulation-level error") as info:
            ProcessBackend(jobs=2).run(mixed)
        # The worker's traceback rides along as the cause.
        assert "in resolve_arrivals" in str(info.value.__cause__)

    def test_unrebuildable_exception_keeps_type_and_message(self):
        cells = _cells()
        mixed = [_clone_as(UnpicklableRaisingCell, cells[0])] + cells[1:]
        with pytest.raises(RuntimeError,
                           match="TwoArgError: FCFS: cannot be rebuilt"):
            ProcessBackend(jobs=2).run(mixed)

    def test_lowest_index_exception_wins(self):
        # The serial backend raises the first failing cell's exception;
        # the pool must raise the same one even though cell 1's worker
        # reports its own exception first.
        cells = _cells(3)
        mixed = [
            _clone_as(SlowRaisingCell, cells[0]),
            _clone_as(RaisingCell, cells[1]),
            cells[2],
        ]
        with pytest.raises(ValueError) as serial:
            SerialBackend().run(mixed)
        with pytest.raises(ValueError) as pooled:
            ProcessBackend(jobs=2).run(mixed)
        assert str(pooled.value) == str(serial.value) == "first failing cell"

    def test_crash_fails_over_only_its_cell(self, tmp_path):
        _FLAG["path"] = str(tmp_path)
        cells = _cells(6)
        serial = SerialBackend().run(cells)
        mixed = [
            _clone_as(CountingCrashCell if i == 2 else CountingCell, cell)
            for i, cell in enumerate(cells)
        ]
        records = ProcessBackend(jobs=2).run(mixed)
        assert records[2].failed and "crashed" in records[2].error
        # The crash cell runs once plus one isolation retry; every
        # healthy sibling runs exactly once, however the crash fell.
        healthy = [0, 1, 3, 4, 5]
        assert _runs(2) == 2
        assert [_runs(i) for i in healthy] == [1] * 5
        assert [records[i].to_dict() for i in healthy] == \
            [serial[i].to_dict() for i in healthy]

    def test_lone_hung_cell_times_out(self):
        # A single cell still runs in a worker: no in-process shortcut
        # may drop the timeout.
        hang = _clone_as(HangCell, _cells(1)[0])
        records = ProcessBackend(jobs=2, timeout_s=2.0, max_retries=0).run(
            [hang]
        )
        assert len(records) == 1
        assert records[0].failed
        assert "timed out after 2s" in records[0].error

    def test_lone_hung_cell_times_out_under_snapshot_every_1(self, tmp_path):
        # snapshot_every=1 hands the backend one cell per chunk.
        cells = _cells(2)
        mixed = [_clone_as(HangCell, cells[0])] + cells[1:]
        outcome = execute_with_store(
            ProcessBackend(jobs=2, timeout_s=2.0, max_retries=0),
            mixed,
            store=tmp_path / "store.jsonl",
            snapshot_every=1,
        )
        assert outcome.records[0].failed
        assert "timed out" in outcome.records[0].error
        assert outcome.records[1].to_dict() == \
            SerialBackend().run(cells[1:])[0].to_dict()

    def test_killed_orchestrator_leaves_no_workers(self, tmp_path):
        if not Path("/proc/self/stat").exists():
            pytest.skip("needs /proc to find worker pids")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        orchestrator = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "run", "fleet-chaos",
             "--shards", "4", "--apps", "2000", "--seed", "1",
             "--jobs", "2", "--out", "fleet.sqlite"],
            cwd=tmp_path, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and orchestrator.poll() is None:
                assert time.monotonic() < deadline, "workers never started"
                workers = _children(orchestrator.pid)
                time.sleep(0.01)
            assert len(workers) == 2, "the run ended before it was killed"
            orchestrator.send_signal(signal.SIGKILL)
            orchestrator.wait()
            # A worker finishes its in-flight cell, then reads EOF on its
            # task pipe (or EPIPE on its result pipe) and exits.
            deadline = time.monotonic() + 30
            while any(_alive(pid) for pid in workers):
                assert time.monotonic() < deadline, \
                    f"workers outlived their orchestrator: {workers}"
                time.sleep(0.05)
        finally:
            for pid in [orchestrator.pid] + workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            orchestrator.wait()

    def test_retry_budget_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ProcessBackend(jobs=2, max_retries=-1)
        with pytest.raises(ValueError, match="jobs"):
            ProcessBackend(jobs=0)


def _stat(pid: int):
    """``(state, ppid)`` of a process from /proc, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _children(pid: int):
    return [
        int(name) for name in os.listdir("/proc")
        if name.isdigit() and (_stat(int(name)) or ("", -1))[1] == pid
    ]


def _alive(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


class TestJobsDefault:
    def test_parser_default_is_usable_cpu_count(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count()
        assert usable_cpus() == cpus
        for argv in (["fig5"], ["fig8"], ["campaign", "run", "smoke"],
                     ["fleet", "run", "fleet-smoke"]):
            assert build_parser().parse_args(argv).jobs == cpus

    def test_without_fork_default_is_serial_and_pool_refused(
        self, monkeypatch, capsys
    ):
        monkeypatch.delattr(os, "fork")
        assert build_parser().parse_args(["fig5"]).jobs == 1
        with pytest.raises(SystemExit) as exit_info:
            main(["fig5", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "needs os.fork" in capsys.readouterr().err
        with pytest.raises(RuntimeError, match="os.fork"):
            ProcessBackend(jobs=2)

    def test_default_jobs_records_match_serial(self, tmp_path, capsys):
        pooled, serial = tmp_path / "pooled.jsonl", tmp_path / "serial.jsonl"
        base = ["fig5", "--sequences", "1", "--apps", "6"]
        assert main(base + ["--out", str(pooled)]) == 0
        assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()


class TestFailureRecords:
    def test_failure_record_round_trips_through_store(self, tmp_path):
        cell = _cells(1)[0]
        record = failure_record(cell, "worker process crashed")
        store = ResultsStore(tmp_path / "failed.jsonl")
        store.extend([record])
        loaded = store.load()
        assert len(loaded) == 1
        assert loaded[0].failed
        assert loaded[0].error == "worker process crashed"
        assert loaded[0].to_dict() == record.to_dict()

    def test_failure_record_never_resolves_arrivals(self):
        # Regenerating the sequence re-runs the code that crashed the
        # worker — this time in the orchestrator.  The record must be
        # built from spec metadata alone.
        cell = _clone_as(AlwaysCrashCell, _cells(1)[0])
        record = failure_record(cell, "boom")
        assert record.failed
        assert record.n_apps == cell.workload.n_apps

    def test_summary_excludes_failed_cells(self):
        cells = _cells(2)
        records = SerialBackend().run(cells)
        failed = failure_record(cells[0], "worker process crashed")
        table = summarize_records(records + [failed])
        assert "1 failed cell(s) excluded" in table
        clean = summarize_records(records)
        assert "failed" not in clean
        assert summarize_records([failed]) == \
            "no usable records (1 failed cell(s))"

    def test_default_records_are_not_failed(self):
        record = RunRecord(
            scenario="s", system="FCFS", condition="Loose",
            sequence_index=0, seed=1, n_apps=2, makespan_ms=1.0,
        )
        assert not record.failed


class TestTruncatedTailAccounting:
    def _store_with_truncated_tail(self, tmp_path):
        cells = _cells(1)
        store = ResultsStore(tmp_path / "records.jsonl")
        store.write(SerialBackend().run(cells))
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"scenario": "robustness", "trunc')
        return store

    def test_skipped_line_count_exposed(self, tmp_path):
        store = self._store_with_truncated_tail(tmp_path)
        with pytest.warns(UserWarning, match="truncated trailing record"):
            records = store.load()
        assert len(records) == 1
        assert store.skipped_lines == 1
        # An intact file resets the count.
        store.write(records)
        store.load()
        assert store.skipped_lines == 0

    def test_truncation_warns_once_per_file(self, tmp_path):
        import warnings as warnings_module

        store = self._store_with_truncated_tail(tmp_path)
        with pytest.warns(UserWarning, match="truncated trailing record"):
            store.load()
        # Re-loading the same damaged file skips silently but still counts.
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            ResultsStore(store.path).load()
        fresh = ResultsStore(store.path)
        fresh.load()
        assert fresh.skipped_lines == 1

    def test_replay_cli_reports_skipped_lines(self, tmp_path, capsys):
        from repro.cli import main

        store = self._store_with_truncated_tail(tmp_path)
        # Dropped lines are an exit-code-visible condition (3), not just a
        # note: automation must not mistake a damaged replay for a clean one.
        with pytest.warns(UserWarning):
            assert main(["campaign", "replay", str(store.path)]) == 3
        out = capsys.readouterr().out
        assert "1 truncated trailing line(s) skipped" in out

    def test_replay_cli_reports_skipped_lines_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        store = self._store_with_truncated_tail(tmp_path)
        with pytest.warns(UserWarning):
            assert main(
                ["campaign", "replay", str(store.path), "--json"]
            ) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 1
        assert payload["skipped_lines"] == 1
        assert "rendered" in payload
