"""Campaign execution backends: the simulation core, serial and parallel.

:func:`simulate_run` is the single place a (system, arrivals) pair is
turned into a finished simulation — ``experiments.runner.run_sequence``
and both campaign backends are thin wrappers over it.  Each campaign
*cell* carries everything a worker needs (workload spec, seed, resolved
parameters); the parallel backend's forked workers inherit the cell list
and each cell rebuilds its own engine, RNG streams and
application-instance-id counter — no cross-run global state.

The serial backend is the reference for determinism tests: for the same
cells, :class:`ProcessBackend` must return bit-identical records.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..apps.application import reset_instance_ids
from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..fpga.board import FPGABoard
from ..metrics.utilization import UtilizationTracker
from ..schedulers.base import SchedulerStats
from ..sim import DEFAULT_ENGINE, Engine, Tracer
from ..telemetry import (
    JsonlEventLogSink,
    StreamingAggregationSink,
    TelemetryBus,
)
from ..workloads.generator import Arrival, WorkloadSpec, drive
from .results import COUNTER_FIELDS, RunRecord, fingerprint_parameters
from .scenario import get_system

#: Callback invoked with ``(engine, board, scheduler)`` right after the
#: simulation is assembled and before the workload starts driving it;
#: the verify layer uses these to attach tracers and invariant monitors.
Instrument = Callable[[Engine, FPGABoard, object], None]

#: Safety horizon: every sequence must drain well before this (ms).
DEFAULT_HORIZON_MS = 500_000_000.0


class DrainError(RuntimeError):
    """A simulation ended with undrained applications.

    The message names the stuck applications and the engine clock so a
    hang is diagnosable from the exception alone.
    """

    def __init__(
        self,
        system: str,
        completions: int,
        expected: int,
        undrained: Sequence[str],
        clock_ms: float,
    ) -> None:
        self.system = system
        self.completions = completions
        self.expected = expected
        self.undrained = list(undrained)
        self.clock_ms = clock_ms
        shown = ", ".join(self.undrained[:8])
        if len(self.undrained) > 8:
            shown += f", ... ({len(self.undrained)} total)"
        super().__init__(
            f"{system} finished {completions}/{expected} apps at "
            f"t={clock_ms:.0f} ms — the simulation did not drain; "
            f"undrained: {shown or 'unknown'}"
        )

    def __reduce__(self):
        # A worker's DrainError crosses the result pipe by pickle; the
        # default reduction would replay ``args`` (the message) into the
        # 5-argument ``__init__`` and lose the diagnostic, so rebuild
        # from the structured fields instead.
        return (
            type(self),
            (
                self.system,
                self.completions,
                self.expected,
                self.undrained,
                self.clock_ms,
            ),
        )


@dataclass
class SimulationOutcome:
    """Raw outcome of one simulation: live stats object plus makespan."""

    system: str
    stats: SchedulerStats
    makespan_ms: float


def simulate_run(
    system: str,
    arrivals: Sequence[Arrival],
    params: Optional[SystemParameters] = None,
    horizon_ms: float = DEFAULT_HORIZON_MS,
    engine_factory: Optional[Callable[[], Engine]] = None,
    tracer: Optional[Tracer] = None,
    instruments: Iterable[Instrument] = (),
    telemetry: Optional[TelemetryBus] = None,
) -> SimulationOutcome:
    """Simulate ``system`` serving ``arrivals`` on a fresh board.

    ``engine_factory`` swaps the simulation kernel (the verify layer runs
    the same cell on the optimized and the reference kernel); when omitted
    the production default (:data:`repro.sim.DEFAULT_ENGINE`, the timing
    wheel) is used.  ``tracer``, ``telemetry`` and ``instruments`` attach
    observability before the workload starts.  Attach every sink to the
    bus before passing it in: slot observation is only installed when a
    sink wants slot events.
    """
    spec = get_system(system)
    resolved = params if params is not None else DEFAULT_PARAMETERS
    reset_instance_ids()
    engine = engine_factory() if engine_factory is not None else DEFAULT_ENGINE()
    board = FPGABoard(engine, spec.board_config, resolved, name="eval")
    if tracer is not None:
        # Keyword, not positional: OnBoardScheduler subclasses registered
        # without their own __init__ take dual_core third — a positional
        # tracer would silently flip that.
        scheduler = spec.factory(board, resolved, tracer=tracer)
    else:
        scheduler = spec.factory(board, resolved)
    if telemetry is not None:
        scheduler.telemetry = telemetry
        telemetry.observe_board(board)
    for instrument in instruments:
        instrument(engine, board, scheduler)
    engine.process(drive(engine, scheduler, arrivals))
    engine.run(until=horizon_ms)
    stats: SchedulerStats = scheduler.stats
    if stats.completions != len(arrivals):
        # ``inst.name`` already embeds the instance id ("IC#3").
        undrained = [app.inst.name for app in scheduler.active_apps()]
        raise DrainError(
            system, stats.completions, len(arrivals), undrained, engine.now
        )
    # ``engine.run(until=...)`` parks the clock at the horizon; the last
    # completion is the simulation's actual makespan (an empty arrival
    # list — a fleet shard the router sent nothing to — has makespan 0).
    return SimulationOutcome(
        system=system, stats=stats, makespan_ms=stats.last_finish_ms
    )


#: Worker-resident cache of regenerated arrival sequences, keyed by the
#: deterministic (workload spec, seed, sequence index) value.  Arrivals
#: are frozen, so sharing one tuple across cells cannot leak state
#: between runs; the cap bounds memory on unbounded fuzz sweeps (cleared
#: wholesale — the cache is an amortization, not a correctness feature).
_SEQUENCE_CACHE: Dict[Tuple[object, int, int], Tuple[Arrival, ...]] = {}
_SEQUENCE_CACHE_MAX = 256


@dataclass(frozen=True)
class CampaignCell:
    """One independently simulatable (system × sequence × seed) unit.

    Cells are frozen and picklable: either ``arrivals`` is given
    explicitly (ad-hoc campaigns over a concrete workload) or the worker
    regenerates the sequence deterministically from
    ``workload.sequence(seed, sequence_index)``.
    """

    scenario: str
    system: str
    sequence_index: int
    seed: int
    params: SystemParameters = DEFAULT_PARAMETERS
    workload: Optional[WorkloadSpec] = None
    arrivals: Optional[Tuple[Arrival, ...]] = None
    horizon_ms: float = DEFAULT_HORIZON_MS
    #: Simulation kernel to run on (a ``repro.verify.reference.KERNELS``
    #: name); "default" is the production wheel kernel, and the verify
    #: layer runs the same cell on several kernels and diffs the outcomes.
    kernel: str = "default"
    #: Fleet shard index this cell simulates; -1 for non-fleet cells.
    shard: int = -1
    #: Condition label for explicit-arrival cells (a cell regenerating
    #: from ``workload`` derives the label from the spec instead).
    condition_label: str = ""
    #: Persist raw per-request response samples on the record (opt-in via
    #: ``--raw-samples``); the default keeps only the O(1)-memory digest.
    keep_raw_samples: bool = False
    #: When set, the worker writes this cell's full typed event stream as
    #: a replayable JSONL log at this path.
    events_path: Optional[str] = None

    def engine_factory(self) -> Optional[Callable[[], Engine]]:
        """Engine factory for this cell's kernel (None = default kernel)."""
        if self.kernel == "default":
            return None
        from ..verify.reference import resolve_kernel  # lazy: avoids a cycle

        return resolve_kernel(self.kernel)

    def resolve_arrivals(self) -> List[Arrival]:
        if self.arrivals is not None:
            return list(self.arrivals)
        if self.workload is None:
            raise ValueError(
                f"cell {self.scenario}/{self.system} has neither a workload "
                "spec nor explicit arrivals"
            )
        # Worker-resident reuse: every system evaluated over the same
        # (spec, seed, index) cell replays the identical sequence, so the
        # regeneration cost is paid once per worker, not once per cell.
        # The key is the frozen spec's *value* (dataclass equality over
        # condition/n_apps/batch_range/apps), never object identity —
        # id() would silently miss across pickled worker boundaries.
        key = (self.workload, self.seed, self.sequence_index)
        cached = _SEQUENCE_CACHE.get(key)
        if cached is None:
            if len(_SEQUENCE_CACHE) >= _SEQUENCE_CACHE_MAX:
                _SEQUENCE_CACHE.clear()
            cached = tuple(self.workload.sequence(self.seed, self.sequence_index))
            _SEQUENCE_CACHE[key] = cached
        return list(cached)


def execute_cell(cell: CampaignCell) -> RunRecord:
    """Run one cell to completion and flatten it into a :class:`RunRecord`.

    This is the unit of work both backends schedule.
    """
    arrivals = cell.resolve_arrivals()
    trackers = {}

    def attach_tracker(engine, board, scheduler) -> None:
        # Observability only: the tracker subscribes to slot observers and
        # schedules nothing, so the simulation trace is unchanged.
        trackers["utilization"] = UtilizationTracker(board)

    def configure_retention(engine, board, scheduler) -> None:
        # Digest-only cells never materialize per-request records: the
        # completion stream feeds the digest sink instead, so memory per
        # cell is O(1) in the number of requests.
        scheduler.stats.retain_responses = cell.keep_raw_samples

    # The telemetry spine: a completion-only aggregation sink builds the
    # record's response digest online (zero launch-path overhead), and an
    # optional event-log sink persists the full replayable stream.
    bus = TelemetryBus()
    aggregate = StreamingAggregationSink(kinds=("completion",))
    bus.attach(aggregate)
    if cell.events_path:
        bus.attach(
            JsonlEventLogSink(
                cell.events_path,
                meta={
                    "scenario": cell.scenario,
                    "system": cell.system,
                    "sequence_index": cell.sequence_index,
                    "seed": cell.seed,
                    "kernel": cell.kernel,
                    "shard": cell.shard,
                    "n_apps": len(arrivals),
                },
            )
        )
    try:
        outcome = simulate_run(
            cell.system,
            arrivals,
            cell.params,
            horizon_ms=cell.horizon_ms,
            engine_factory=cell.engine_factory(),
            instruments=(attach_tracker, configure_retention),
            telemetry=bus,
        )
    finally:
        bus.close()
    stats = outcome.stats
    if cell.workload is not None:
        condition = cell.workload.condition.label
    else:
        condition = cell.condition_label or "explicit"
    tracker = trackers["utilization"]
    occupied = tracker.mean_occupied_utilization()
    fabric = tracker.mean_fabric_utilization()
    # ``engine.run(until=...)`` parks the clock at the horizon, so the
    # tracker's elapsed span covers a huge idle tail; renormalize the
    # whole-fabric means over the run's active span (the makespan).
    makespan = outcome.makespan_ms
    if makespan > 0:
        scale = tracker.elapsed_ms() / makespan
        utilization = {
            "occupied_lut": occupied.lut,
            "occupied_ff": occupied.ff,
            "fabric_lut": fabric.lut * scale,
            "fabric_ff": fabric.ff * scale,
            "elapsed_ms": makespan,
        }
    else:
        utilization = {
            "occupied_lut": 0.0, "occupied_ff": 0.0,
            "fabric_lut": 0.0, "fabric_ff": 0.0, "elapsed_ms": 0.0,
        }
    digest = aggregate.digest
    return RunRecord(
        scenario=cell.scenario,
        system=cell.system,
        condition=condition,
        sequence_index=cell.sequence_index,
        seed=cell.seed,
        n_apps=len(arrivals),
        makespan_ms=outcome.makespan_ms,
        response_times_ms=(
            stats.response_times_ms() if cell.keep_raw_samples else []
        ),
        counters={name: getattr(stats, name) for name in COUNTER_FIELDS},
        fingerprint=fingerprint_parameters(cell.params),
        shard=cell.shard,
        utilization=utilization,
        response_digest=digest.to_dict() if digest.count else {},
    )


class SerialBackend:
    """Reference backend: cells run in order, in this process.

    Backend contract (both backends, relied on by
    :func:`repro.store.resume.execute_with_store`): ``run`` returns one
    record per input cell, in input order, and each record depends only
    on its own cell — never on which other cells shared the call.  That
    is what lets the store layer dispatch cells in snapshot-sized chunks
    (and re-dispatch only the unfinished ones on ``--resume``) with
    results bit-identical to one monolithic ``run``.
    """

    name = "serial"

    def run(self, cells: Sequence[CampaignCell]) -> List[RunRecord]:
        return [execute_cell(cell) for cell in cells]


def failure_record(cell: CampaignCell, error: str) -> RunRecord:
    """A sample-free :class:`RunRecord` marking a cell whose worker failed.

    Surfacing the failure as a record (``record.failed`` is True) instead
    of raising keeps one crashed or hung cell from discarding the whole
    campaign: every healthy record still persists, and the failed cell is
    identifiable and individually re-runnable from the store.
    """
    # Never resolve_arrivals() here: regenerating the sequence re-runs the
    # very code that may have crashed or hung the worker, this time in the
    # orchestrating process.  The cheap spec metadata is enough.
    if cell.arrivals is not None:
        n_apps = len(cell.arrivals)
    elif cell.workload is not None:
        n_apps = cell.workload.n_apps
    else:
        n_apps = 0
    if cell.workload is not None:
        condition = cell.workload.condition.label
    else:
        condition = cell.condition_label or "explicit"
    return RunRecord(
        scenario=cell.scenario,
        system=cell.system,
        condition=condition,
        sequence_index=cell.sequence_index,
        seed=cell.seed,
        n_apps=n_apps,
        makespan_ms=0.0,
        fingerprint=fingerprint_parameters(cell.params),
        shard=cell.shard,
        error=error,
    )


#: Task message: the index of the next cell a worker runs.
_TASK = struct.Struct("<q")
#: Result message header: the byte length of the pickle that follows.
_HEADER = struct.Struct("<Q")
#: What :meth:`_Worker.receive` returns on EOF: the worker died.
_CRASHED = object()


def _serve(cells: Sequence[CampaignCell], task_fd: int, result_fd: int) -> None:
    """Worker loop: run the cells the task pipe names until it closes.

    EOF on the task pipe means the orchestrator is done, or dead; either
    way the worker returns, so no worker outlives its orchestrator by
    more than the cell it is running.
    """
    while True:
        # Task messages are far below PIPE_BUF, so each arrives whole.
        message = os.read(task_fd, _TASK.size)
        if len(message) < _TASK.size:
            return
        (index,) = _TASK.unpack(message)
        try:
            payload = pickle.dumps(
                (True, execute_cell(cells[index])), pickle.HIGHEST_PROTOCOL
            )
        except Exception as exc:
            import traceback  # only failing cells pay for it

            trace = traceback.format_exc()
            try:
                payload = pickle.dumps(
                    (False, (exc, trace)), pickle.HIGHEST_PROTOCOL
                )
                pickle.loads(payload)  # the orchestrator must rebuild it
            except Exception:
                # An exception that cannot cross the pipe still names its
                # type and message.
                stand_in = RuntimeError(f"{type(exc).__name__}: {exc}")
                payload = pickle.dumps((False, (stand_in, trace)))
        view = memoryview(_HEADER.pack(len(payload)) + payload)
        while view:
            view = view[os.write(result_fd, view):]


class _WorkerTraceback(Exception):
    """A worker's traceback, chained as the ``__cause__`` of the simulation
    exception the orchestrator re-raises."""


class _Worker:
    """One forked worker: its pid, pipe ends and the cell it is running."""

    def __init__(self, cells: Sequence[CampaignCell], siblings: List[int]) -> None:
        task_read, self.task_fd = os.pipe()
        self.result_fd, result_write = os.pipe()
        # Flush first so the child inherits no pending output.
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                # Keep only this worker's own ends: a sibling holding
                # another worker's result pipe would hide that worker's
                # crash, and one holding a task pipe would keep that
                # worker alive after the orchestrator died.
                for fd in [self.task_fd, self.result_fd] + siblings:
                    os.close(fd)
                _serve(cells, task_read, result_write)
                code = 0
            finally:
                # Never unwind into the orchestrator's stack, atexit
                # hooks, sqlite handles or stdio buffers.
                os._exit(code)
        os.close(task_read)
        os.close(result_write)
        self.buffer = bytearray()
        self.index: Optional[int] = None
        self.deadline: Optional[float] = None

    def assign(self, index: int, timeout_s: Optional[float]) -> None:
        self.index = index
        self.deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        try:
            os.write(self.task_fd, _TASK.pack(index))
        except BrokenPipeError:
            pass  # the dead worker's result pipe reports EOF: a crash

    def receive(self):
        """Read what is ready: ``(ok, value)`` once the message is whole,
        None while it is partial, :data:`_CRASHED` on EOF."""
        chunk = os.read(self.result_fd, 1 << 16)
        if not chunk:
            return _CRASHED
        self.buffer += chunk
        if len(self.buffer) < _HEADER.size:
            return None
        (length,) = _HEADER.unpack_from(self.buffer)
        if len(self.buffer) < _HEADER.size + length:
            return None
        outcome = pickle.loads(self.buffer[_HEADER.size:])
        self.buffer.clear()
        return outcome

    def stop(self) -> None:
        os.close(self.task_fd)
        os.close(self.result_fd)
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)


@dataclass
class ProcessBackend:
    """Fan cells out over forked workers, surviving crashed workers.

    Each round forks ``min(jobs, cells)`` workers that inherit the cell
    list, so no cell is pickled on the way out.  A worker takes one cell
    index at a time from its task pipe (dynamic load balance) and writes
    back a length-prefixed pickled ``(ok, record | exception)``.
    Results come back in cell order, so aggregate statistics are
    independent of worker completion order and bit-identical to the
    serial backend.  Every call runs its cells in workers, a lone cell
    included, so this backend always:

    * detects a crashed worker at once: EOF on its result pipe fails
      over only the cell it was running, and a fresh worker replaces it
      while the others keep running;
    * bounds each cell's wall-clock with ``timeout_s``, counted from the
      cell's dispatch: a hung worker is killed and replaced, and only its
      cell fails over;
    * re-executes every failed-over cell deterministically in its own
      single-worker round, up to ``max_retries`` isolation rounds — a
      transiently killed worker (OOM reaper, operator signal) costs a
      retry, not the campaign;
    * surfaces cells that still fail as :func:`failure_record` entries
      instead of raising, so the healthy records survive.

    Exceptions raised *by the simulation itself* (``DrainError``, bad
    specs) are real results, not infrastructure faults: the lowest-index
    failing cell's exception is raised, the one the serial backend would
    raise.  The backend needs ``os.fork`` (POSIX).
    """

    jobs: int = 2
    #: Per-cell wall-clock bound in seconds (None = unbounded), counted
    #: from the cell's dispatch to a worker.
    timeout_s: Optional[float] = None
    #: Isolation rounds re-running crashed/timed-out cells before they
    #: are surfaced as failure records.
    max_retries: int = 1
    name: str = field(init=False, default="process")

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not hasattr(os, "fork"):
            raise RuntimeError(
                "ProcessBackend forks its workers, and os.fork is not "
                "available on this platform; run with jobs=1"
            )

    def run(self, cells: Sequence[CampaignCell]) -> List[RunRecord]:
        cells = list(cells)
        records, failures = self._round(cells, range(len(cells)), self.jobs)
        for _ in range(self.max_retries):
            if not failures:
                break
            # Isolation mode: each failed cell retries in its own fresh
            # single-worker round, so a poison cell can only fail itself.
            still_failing: Dict[int, str] = {}
            for index in sorted(failures):
                retried, failed = self._round(cells, [index], 1)
                records.update(retried)
                still_failing.update(failed)
            failures = still_failing
        for index, error in failures.items():
            records[index] = failure_record(
                cells[index], f"{error} (after {self.max_retries} retries)"
            )
        return [records[index] for index in range(len(cells))]

    def _round(
        self,
        cells: Sequence[CampaignCell],
        indices: Iterable[int],
        workers: int,
    ) -> Tuple[Dict[int, RunRecord], Dict[int, str]]:
        """One worker generation: records collected and failures to retry."""
        pending = deque(indices)
        records: Dict[int, RunRecord] = {}
        failures: Dict[int, str] = {}
        errors: Dict[int, BaseException] = {}
        live: Dict[int, _Worker] = {}  # keyed by result fd

        def spawn() -> None:
            # The other workers' pipe ends (``live`` keys are result fds).
            siblings = [w.task_fd for w in live.values()] + list(live)
            worker = _Worker(cells, siblings)
            live[worker.result_fd] = worker
            worker.assign(pending.popleft(), self.timeout_s)

        def finish(worker: _Worker) -> None:
            # Dispatch stops at the first simulation exception: every
            # undispatched cell has a higher index than it.
            if pending and not errors:
                worker.assign(pending.popleft(), self.timeout_s)
            else:
                worker.index = worker.deadline = None

        def replace(worker: _Worker, error: str) -> None:
            failures[worker.index] = error
            del live[worker.result_fd]
            worker.stop()
            if pending and not errors:
                spawn()

        try:
            for _ in range(min(workers, len(pending))):
                spawn()
            while True:
                # Cells above the lowest failing one cannot change what
                # is raised, so they are not waited for.
                horizon = min(errors, default=len(cells))
                waiting = [
                    w for w in live.values()
                    if w.index is not None and w.index < horizon
                ]
                if not waiting:
                    break
                deadlines = [w.deadline for w in waiting if w.deadline is not None]
                timeout = (
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines else None
                )
                ready, _, _ = select.select(
                    [w.result_fd for w in waiting], [], [], timeout
                )
                for fd in ready:
                    worker = live[fd]
                    outcome = worker.receive()
                    if outcome is _CRASHED:
                        replace(worker, "worker process crashed")
                    elif outcome is not None:
                        ok, value = outcome
                        if ok:
                            records[worker.index] = value
                        else:
                            error, trace = value
                            error.__cause__ = _WorkerTraceback(trace)
                            errors[worker.index] = error
                        finish(worker)
                now = time.monotonic()
                for worker in waiting:
                    if (
                        live.get(worker.result_fd) is worker
                        and worker.deadline is not None
                        and worker.deadline <= now
                    ):
                        replace(
                            worker, f"cell timed out after {self.timeout_s:g}s"
                        )
        finally:
            for worker in live.values():
                worker.stop()
        if errors:
            raise errors[min(errors)]
        return records, failures


def make_backend(
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 1,
):
    """The backend matching a ``--jobs N [--cell-timeout S]`` request."""
    if jobs <= 1:
        return SerialBackend()
    return ProcessBackend(jobs=jobs, timeout_s=timeout_s, max_retries=max_retries)
