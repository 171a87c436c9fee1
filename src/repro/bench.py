"""Micro-benchmark harness behind ``repro bench``.

Times the simulation-kernel and scheduler hot paths with plain
``time.perf_counter`` loops (no pytest dependency, so it runs anywhere the
package does) and records the measurements as a *trajectory*: every
invocation appends one entry to ``BENCH_kernel.json``, so the file
accumulates the throughput history of the kernel across commits.

The committed trajectory doubles as the regression baseline: CI runs
``repro bench --quick --baseline BENCH_kernel.json`` and fails when any
benchmark's throughput drops more than ``--max-regression`` (default 30%)
below the newest committed entry.  Absolute numbers are hardware-dependent
— the gate is deliberately loose so it catches algorithmic regressions
(accidentally quadratic scans, per-event allocation storms) rather than
runner jitter.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_SCHEMA = "repro-bench/1"


@dataclass(frozen=True)
class BenchSpec:
    """One registered micro-benchmark.

    ``payload`` runs one complete measurement and returns the number of
    work units it performed (events dispatched, batch items completed...);
    throughput is ``units / best_round_seconds``.
    """

    name: str
    unit: str
    payload: Callable[[], int]
    #: Payload repetitions per timed round (amortizes timer overhead).
    iters: int = 1
    #: Included in ``--quick`` runs?
    quick: bool = True


@dataclass(frozen=True)
class BenchResult:
    name: str
    unit: str
    units_per_iter: int
    iters: int
    rounds: int
    best_s: float
    mean_s: float

    @property
    def throughput(self) -> float:
        """Work units per second, from the best (least-noisy) round."""
        return self.units_per_iter / self.best_s if self.best_s > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "unit": self.unit,
            "units_per_iter": self.units_per_iter,
            "iters": self.iters,
            "rounds": self.rounds,
            "best_s": self.best_s,
            "mean_s": self.mean_s,
            "throughput": self.throughput,
        }


# ----------------------------------------------------------------------
# Benchmark payloads
# ----------------------------------------------------------------------
def _bench_event_throughput(engine_factory=None) -> int:
    """Dispatch rate of chained delay events through the kernel hot lane.

    Post-overhaul kernels dispatch bare-delay yields (``yield 1.0``) — the
    pooled fast lane every model loop schedules through.  Kernels that
    predate ``Engine.sleep`` get the same 5000-chained-delays workload via
    their only delay primitive, the allocating ``Engine.timeout``.
    """
    from .sim import Engine

    engine = (engine_factory or Engine)()
    n = 5000

    if hasattr(engine, "sleep"):
        def ticker():
            for _ in range(n):
                yield 1.0
    else:
        def ticker():
            for _ in range(n):
                yield engine.timeout(1.0)

    engine.process(ticker())
    engine.run()
    assert engine.now == float(n)
    return n


def _bench_timeout_alloc(engine_factory=None) -> int:
    """Dispatch rate of chained ``Engine.timeout`` events.

    Unlike the pooled hot lane, every event here allocates a fresh
    ``Timeout`` — the trajectory keeps both visible.
    """
    from .sim import Engine

    engine = (engine_factory or Engine)()
    n = 5000

    def ticker():
        for _ in range(n):
            yield engine.timeout(1.0)

    engine.process(ticker())
    engine.run()
    assert engine.now == float(n)
    return n


def _bench_resource_contention(engine_factory=None) -> int:
    """Grant/queue throughput of a contended FIFO mutex."""
    from .sim import Engine, Resource

    engine = (engine_factory or Engine)()
    resource = Resource(engine, capacity=2)

    def worker():
        for _ in range(50):
            request = resource.acquire()
            yield request
            yield engine.timeout(1.0)
            resource.release()

    for _ in range(20):
        engine.process(worker())
    engine.run()
    assert resource.total_grants == 1000
    return resource.total_grants


def _bench_condition_fanout(engine_factory=None) -> int:
    """AllOf/AnyOf composition over wide fan-ins."""
    from .sim import Engine

    engine = (engine_factory or Engine)()
    rounds, width = 100, 20
    fired = 0

    def waiter():
        nonlocal fired
        for _ in range(rounds):
            yield engine.all_of([engine.timeout(1.0) for _ in range(width)])
            yield engine.any_of([engine.timeout(2.0) for _ in range(width)])
            fired += 1

    engine.process(waiter())
    engine.run()
    assert fired == rounds
    return rounds * width * 2


def _bench_deep_pending(engine_factory=None) -> int:
    """5000 scattered pre-scheduled timeouts, then one drain.

    Inserts land across the whole horizon, so every push and pop pays the
    heap's O(log n).  Chained benches never hold more than a handful of
    entries, so this is the only spec where queue *depth* dominates.
    """
    from .sim import Engine

    engine = (engine_factory or Engine)()
    n = 5000
    fired = [0]

    def count(event, fired=fired):
        fired[0] += 1

    for i in range(n):
        # Deterministic scatter: coprime stride spreads times across
        # [0, 997) with fractional offsets breaking same-time ties.
        engine.timeout(float((i * 7919) % 997) + (i % 13) * 0.125).callbacks.append(count)
    engine.run()
    assert fired[0] == n
    return n


def _bench_scheduler_single_app() -> int:
    """One application end-to-end on the VersaSlot Big.Little scheduler.

    Image Compression (the paper's flagship 3-in-1 example) at batch 100:
    large enough that the steady-state per-item path — launch gate,
    bundle pipeline, slot bookkeeping — dominates the one-time PR loads.
    """
    from .apps import ApplicationInstance, BENCHMARKS, reset_instance_ids
    from .config import DEFAULT_PARAMETERS
    from .core import VersaSlotBigLittle
    from .fpga import BoardConfig, FPGABoard
    from .sim import Engine

    reset_instance_ids()
    spec = BENCHMARKS["IC"]
    batch = 100
    engine = Engine()
    board = FPGABoard(engine, BoardConfig.BIG_LITTLE, DEFAULT_PARAMETERS)
    scheduler = VersaSlotBigLittle(board, DEFAULT_PARAMETERS)
    # Production memory config: campaigns aggregate digests online and
    # never retain per-request records (see ``execute_cell``).
    scheduler.stats.retain_responses = False
    scheduler.submit(ApplicationInstance(spec, batch, 0.0))
    engine.run(until=50_000_000)
    assert scheduler.stats.completions == 1
    return spec.task_count * batch


def _bench_scheduler_telemetry() -> int:
    """The single-app scheduler bench with the telemetry bus enabled.

    Identical workload to ``scheduler_single_app_run`` with exactly the
    telemetry configuration every campaign cell runs in production: a
    completion-only streaming-aggregation sink building the response
    digest online (see ``execute_cell``).  The per-item launch lane stays
    unsubscribed — launch aggregates already live in ``SchedulerStats``,
    and per-item launch *events* only materialize for the opt-in
    event-log/fingerprint sinks — so this pair measures the always-on
    observability overhead; ``--telemetry-gate`` fails the run when it
    exceeds the allowed fraction.
    """
    from .apps import ApplicationInstance, BENCHMARKS, reset_instance_ids
    from .config import DEFAULT_PARAMETERS
    from .core import VersaSlotBigLittle
    from .fpga import BoardConfig, FPGABoard
    from .sim import Engine
    from .telemetry import StreamingAggregationSink, TelemetryBus

    reset_instance_ids()
    spec = BENCHMARKS["IC"]
    batch = 100
    engine = Engine()
    board = FPGABoard(engine, BoardConfig.BIG_LITTLE, DEFAULT_PARAMETERS)
    scheduler = VersaSlotBigLittle(board, DEFAULT_PARAMETERS)
    scheduler.stats.retain_responses = False
    bus = TelemetryBus()
    sink = StreamingAggregationSink(kinds=("completion",))
    bus.attach(sink)
    scheduler.telemetry = bus
    bus.observe_board(board)  # no-op here, mirrors simulate_run's wiring
    scheduler.submit(ApplicationInstance(spec, batch, 0.0))
    engine.run(until=50_000_000)
    assert scheduler.stats.completions == 1
    assert sink.completions == 1 and sink.digest.count == 1
    return spec.task_count * batch


def _bench_scheduler_stress_sequence() -> int:
    """A full stress sequence (8 apps) through VersaSlot Big.Little.

    Runs the production digest-only telemetry config (``digest_only``):
    what campaigns actually ship, not the exact-sample debug retention.
    """
    from .apps import BENCHMARKS
    from .experiments.runner import run_sequence
    from .workloads import Condition, WorkloadGenerator

    arrivals = WorkloadGenerator(7).sequence(Condition.STRESS, n_apps=8)
    result = run_sequence("VersaSlot-BL", arrivals, digest_only=True)
    assert result.stats.completions == len(arrivals)
    assert result.responses.count == len(arrivals)
    return sum(BENCHMARKS[a.app_name].task_count * a.batch_size
               for a in arrivals)


def _bench_fig5_micro() -> int:
    """Reduced Fig. 5 matrix (every system, one sequence)."""
    from .experiments import run_fig5

    result = run_fig5(seed=1, sequence_count=1, n_apps=6)
    return len(result.reductions) * 6


def _kernel_name(engine_factory) -> str:
    """Registry name of a compare-gate engine factory.

    The campaign/fleet layers select kernels by registry name (cells must
    stay picklable), while the compare gate hands payloads a factory — so
    the full-run payloads map the factory back to its name.
    """
    if engine_factory is None:
        return "default"
    from .sim import Engine
    from .verify.reference import ReferenceEngine

    if engine_factory is Engine:
        return "optimized"
    if engine_factory is ReferenceEngine:
        return "reference"
    raise KeyError(f"no registered kernel name for {engine_factory!r}")


def _bench_campaign_cell_overhead(engine_factory=None) -> int:
    """Twelve short same-spec cells through the serial campaign backend.

    The cells share one :class:`WorkloadSpec` across seeds, sequence
    indices, and systems, so the measurement is dominated by the fixed
    per-cell costs campaigns pay at scale: arrival-sequence
    materialization (served from the worker-resident sequence cache after
    the first cell per ``(spec, seed, index)``), board/scheduler
    construction, and digest-only record assembly.
    """
    from .campaign.backend import CampaignCell, SerialBackend
    from .config import DEFAULT_PARAMETERS
    from .workloads import Condition, WorkloadSpec

    kernel = _kernel_name(engine_factory)
    workload = WorkloadSpec(condition=Condition.LOOSE, n_apps=2, sequence_count=2)
    cells = [
        CampaignCell(
            scenario="bench-cell-overhead",
            system=system,
            sequence_index=index,
            seed=seed,
            params=DEFAULT_PARAMETERS,
            workload=workload,
            kernel=kernel,
        )
        for seed in (0, 1, 2)
        for index in (0, 1)
        for system in ("Baseline", "VersaSlot-BL")
    ]
    records = SerialBackend().run(cells)
    assert len(records) == len(cells)
    assert not any(record.failed for record in records)
    return len(records)


def _bench_fleet_short_cells(engine_factory=None) -> int:
    """A small fleet deployment end-to-end through the orchestrator.

    Shrinks the smoke fleet to short shard cells so routing, dispatch
    planning, and record rollup — the fleet layer's own overhead — stay
    visible next to the simulation itself.
    """
    from .fleet import Fleet, get_fleet_scenario

    kernel = _kernel_name(engine_factory)
    scenario = get_fleet_scenario("fleet-smoke").scaled(n_apps=4, seeds=(0, 1))
    result = Fleet(scenario).run(jobs=1, kernel=kernel)
    assert len(result.records) == scenario.cell_count()
    assert not any(record.failed for record in result.records)
    return scenario.cell_count()


#: Registry, in reporting order.  The first two names are the PR-2
#: acceptance gates and must keep their pytest-benchmark counterparts'
#: names (see benchmarks/bench_kernel.py).
BENCHES: Tuple[BenchSpec, ...] = (
    BenchSpec("kernel_event_throughput", "events", _bench_event_throughput, iters=4),
    BenchSpec("scheduler_single_app_run", "items", _bench_scheduler_single_app, iters=4),
    BenchSpec("kernel_timeout_alloc", "events", _bench_timeout_alloc, iters=4),
    BenchSpec("kernel_resource_contention", "grants", _bench_resource_contention, iters=4),
    BenchSpec("kernel_condition_fanout", "events", _bench_condition_fanout, iters=2),
    BenchSpec("kernel_deep_pending", "events", _bench_deep_pending, iters=4),
    BenchSpec("scheduler_run_telemetry", "items", _bench_scheduler_telemetry, iters=4),
    BenchSpec("scheduler_stress_sequence", "items", _bench_scheduler_stress_sequence),
    BenchSpec("campaign_cell_overhead", "cells", _bench_campaign_cell_overhead, iters=2),
    BenchSpec("fleet_short_cells", "cells", _bench_fleet_short_cells),
    BenchSpec("fig5_micro", "runs", _bench_fig5_micro, quick=False),
)

#: Kernel payloads the ``--compare`` gate runs on both kernels.
COMPARE_BENCHES: Tuple[Tuple[str, Callable[..., int]], ...] = (
    ("kernel_event_throughput", _bench_event_throughput),
    ("kernel_timeout_alloc", _bench_timeout_alloc),
    ("kernel_resource_contention", _bench_resource_contention),
    ("kernel_condition_fanout", _bench_condition_fanout),
    ("kernel_deep_pending", _bench_deep_pending),
    ("campaign_cell_overhead", _bench_campaign_cell_overhead),
    ("fleet_short_cells", _bench_fleet_short_cells),
)

#: Minimum candidate/base throughput ratio per compare bench, sized for
#: the CI pair ``optimized,reference``.  ``kernel_event_throughput`` runs
#: exactly the code the reference omits — the inlined fast lane and pooled
#: sleeps — and measures 2.2–2.3x there, so below 1.5x the hand-inlined
#: copies in ``Engine.run`` no longer pay for keeping them in sync.  On
#: allocation- and callback-bound benches the inlining is a minority of
#: the cycle budget, so those floors only exclude real regressions, not
#: noise.
COMPARE_FLOORS: Dict[str, float] = {
    "kernel_event_throughput": 1.5,
    "kernel_timeout_alloc": 0.90,
    "kernel_deep_pending": 0.90,
    # Full-run payloads: the kernel is one cost among many (scheduler,
    # campaign bookkeeping), so the true ratio sits near 1.0 and the
    # per-round noise floor is wider than on the kernel micro-benches —
    # the floor only excludes a kernel change that drags whole campaign
    # cells down, not runner jitter.
    "campaign_cell_overhead": 0.85,
    "fleet_short_cells": 0.85,
}
DEFAULT_COMPARE_FLOOR = 0.80

def _measure_overhead_inprocess(pairs: int = 64) -> float:
    """One interpreter's estimate of the enabled-bus overhead.

    Alternates single executions of ``scheduler_single_app_run`` (bus
    detached) and ``scheduler_run_telemetry`` (production streaming bus
    attached) — so drift exposes both sides equally — and compares each
    side's *best single run*.  Best-of-N is the standard least-noise
    estimator used by every other bench here: a clean window reflects the
    true runtime, and a real overhead shifts the enabled side's clean
    windows by exactly that fraction.  (A min of per-pair *ratios* would
    instead pair a stalled baseline window with a clean enabled one and
    systematically underestimate.)
    """
    _bench_scheduler_single_app()  # warm-up both payloads
    _bench_scheduler_telemetry()
    best_base = best_enabled = float("inf")
    for _ in range(pairs):
        start = time.perf_counter()
        _bench_scheduler_single_app()
        best_base = min(best_base, time.perf_counter() - start)
        start = time.perf_counter()
        _bench_scheduler_telemetry()
        best_enabled = min(best_enabled, time.perf_counter() - start)
    return best_enabled / best_base - 1.0


def measure_telemetry_overhead(pairs: int = 64, processes: int = 5) -> float:
    """Fractional cost of the enabled telemetry bus.

    Takes the *median* of :func:`_measure_overhead_inprocess` across
    fresh interpreter processes: within one interpreter the paired
    best-of ratio is stable, but allocation/layout luck (ASLR, heap
    addresses) biases any single process by several percent in either
    direction — a bias no amount of in-process sampling removes.
    Sampling whole interpreters washes it out; a real overhead shifts
    every process's estimate, so the median tracks it faithfully.  Can
    come out slightly negative under residual noise; the gate only cares
    about the upper side.
    """
    if processes <= 1:
        return _measure_overhead_inprocess(pairs)
    import os
    import subprocess
    from pathlib import Path

    package_root = str(Path(__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    ratios = []
    for _ in range(processes):
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.bench import _measure_overhead_inprocess as m; "
                f"print(m({pairs}))",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        ratios.append(float(result.stdout.strip()))
    ratios.sort()
    return ratios[len(ratios) // 2]


def run_benches(
    quick: bool = False,
    rounds: Optional[int] = None,
    names: Optional[Sequence[str]] = None,
) -> List[BenchResult]:
    """Run the registered benchmarks and return their measurements.

    ``names`` overrides the ``quick`` selection: an explicitly requested
    benchmark always runs (``quick`` still shortens rounds/iterations).
    """
    if names is not None:
        unknown = set(names) - {spec.name for spec in BENCHES}
        if unknown:
            raise KeyError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"available: {[spec.name for spec in BENCHES]}"
            )
        selected = [spec for spec in BENCHES if spec.name in names]
    else:
        selected = [spec for spec in BENCHES if not quick or spec.quick]
    # 12 full rounds, pinned: the PR-5 entry was recorded at 5 rounds
    # while seed/PR-2 used 12, which made best_s comparisons noisier than
    # they needed to be.  The default is now the trajectory's round count.
    n_rounds = rounds if rounds is not None else (2 if quick else 12)
    results = []
    for spec in selected:
        iters = max(1, spec.iters // 2) if quick else spec.iters
        spec.payload()  # warm-up: imports, allocator, branch caches
        timings = []
        units = 0
        for _ in range(n_rounds):
            start = time.perf_counter()
            for _ in range(iters):
                units = spec.payload()
            timings.append((time.perf_counter() - start) / iters)
        results.append(BenchResult(
            name=spec.name,
            unit=spec.unit,
            units_per_iter=units,
            iters=iters,
            rounds=n_rounds,
            best_s=min(timings),
            mean_s=sum(timings) / len(timings),
        ))
    return results


#: Hotspot lines printed per payload in ``--profile`` mode (the written
#: report keeps the full sorted listing).
PROFILE_TOP = 25


def run_profile(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    out_dir: str = "results",
    top: int = PROFILE_TOP,
) -> List[Tuple[str, Path, str]]:
    """Profile the selected payloads with :mod:`cProfile`.

    One warm-up call (imports, allocator, branch caches) precedes one
    profiled call per payload — deterministic workloads make a single
    instrumented pass representative, and instrumentation overhead makes
    the *timings* advisory anyway: profiles are for finding where the
    cycles go, the bench rounds are for measuring them.  Each payload's
    full cumulative-sorted listing is written to
    ``<out_dir>/profile_<name>.txt``; returns ``(name, path, top_text)``
    triples where ``top_text`` is the first ``top`` hotspot lines.
    """
    import cProfile
    import io
    import pstats

    if names is not None:
        unknown = set(names) - {spec.name for spec in BENCHES}
        if unknown:
            raise KeyError(
                f"unknown benchmark(s) {sorted(unknown)}; "
                f"available: {[spec.name for spec in BENCHES]}"
            )
        selected = [spec for spec in BENCHES if spec.name in names]
    else:
        selected = [spec for spec in BENCHES if not quick or spec.quick]
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    reports = []
    for spec in selected:
        spec.payload()  # warm-up
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            spec.payload()
        finally:
            profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("cumulative").print_stats()
        full = stream.getvalue()
        path = out_path / f"profile_{spec.name}.txt"
        path.write_text(full)
        lines = full.splitlines()
        try:
            # The column-title row starts the entry listing; keep ``top``
            # rows of hotspots after it for the terminal summary.
            header = next(
                i for i, line in enumerate(lines)
                if line.lstrip().startswith("ncalls")
            )
            head = lines[header:header + 1 + top]
        except StopIteration:
            head = lines[:top]
        reports.append((spec.name, path, "\n".join(head)))
    return reports


@dataclass(frozen=True)
class CompareResult:
    """One kernel-vs-kernel measurement of a compare bench."""

    name: str
    candidate: str
    base: str
    candidate_throughput: float
    base_throughput: float
    floor: float
    #: Paired rounds both sides were measured at (recorded so a gate
    #: report is never silently compared across different round counts).
    rounds: int = 0

    @property
    def ratio(self) -> float:
        if self.base_throughput <= 0:
            return 0.0
        return self.candidate_throughput / self.base_throughput

    @property
    def ok(self) -> bool:
        return self.ratio >= self.floor


def run_compare(
    candidate: str = "optimized",
    base: str = "reference",
    rounds: Optional[int] = None,
    quick: bool = False,
) -> List[CompareResult]:
    """Run the kernel benches on two kernels and compute ratios.

    Rounds are *paired* — each timed round runs the base then the
    candidate back-to-back — so slow container windows hit both sides,
    and the best-of-N ratio reflects the kernels rather than the noise.
    """
    from .verify.reference import resolve_kernel

    candidate_factory = resolve_kernel(candidate)
    base_factory = resolve_kernel(base)
    n_rounds = rounds if rounds is not None else (3 if quick else 12)
    results = []
    for name, payload in COMPARE_BENCHES:
        payload(base_factory)  # warm-up both kernels
        payload(candidate_factory)
        best = {candidate: float("inf"), base: float("inf")}
        units = 0
        for _ in range(n_rounds):
            for kernel, factory in ((base, base_factory), (candidate, candidate_factory)):
                start = time.perf_counter()
                units = payload(factory)
                elapsed = time.perf_counter() - start
                if elapsed < best[kernel]:
                    best[kernel] = elapsed
        results.append(CompareResult(
            name=name,
            candidate=candidate,
            base=base,
            candidate_throughput=units / best[candidate],
            base_throughput=units / best[base],
            floor=COMPARE_FLOORS.get(name, DEFAULT_COMPARE_FLOOR),
            rounds=n_rounds,
        ))
    return results


def format_compare_table(results: Sequence[CompareResult]) -> str:
    lines = []
    if results:
        candidate, base = results[0].candidate, results[0].base
        lines.append(
            f"paired compare ({results[0].rounds} rounds, best-of): "
            f"{candidate} vs {base}"
        )
        lines.append(
            f"{'benchmark':<28s} {base:>14s} {candidate:>14s} "
            f"{'ratio':>8s} {'floor':>7s}"
        )
    for result in results:
        status = "" if result.ok else "  REGRESSION"
        lines.append(
            f"{result.name:<28s} {result.base_throughput:>12,.0f}/s "
            f"{result.candidate_throughput:>12,.0f}/s "
            f"{result.ratio:>7.2f}x {result.floor:>6.2f}x{status}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trajectory file
# ----------------------------------------------------------------------
def load_trajectory(path: Path) -> Dict[str, object]:
    """Read a trajectory file; an empty shell if it does not exist."""
    if not path.exists():
        return {"schema": BENCH_SCHEMA, "history": []}
    data = json.loads(path.read_text())
    if data.get("schema") != BENCH_SCHEMA or not isinstance(data.get("history"), list):
        raise ValueError(f"{path} is not a {BENCH_SCHEMA} trajectory file")
    return data


def make_entry(results: Sequence[BenchResult], note: str, quick: bool) -> Dict[str, object]:
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "note": note,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": {result.name: result.to_dict() for result in results},
    }


def append_entry(path: Path, entry: Dict[str, object]) -> Dict[str, object]:
    """Append ``entry`` to the trajectory at ``path`` (creating it)."""
    data = load_trajectory(path)
    data["history"].append(entry)
    path.write_text(json.dumps(data, indent=1) + "\n")
    return data


def latest_entry(data: Dict[str, object]) -> Optional[Dict[str, object]]:
    history = data.get("history") or []
    return history[-1] if history else None


def rounds_mismatches(
    results: Sequence[BenchResult],
    baseline: Dict[str, object],
) -> List[str]:
    """Benchmarks measured at a different round count than the baseline.

    ``best_s`` tightens with the number of rounds (more chances at a
    clean window), so gating a 2-round quick run against a 12-round
    entry — or vice versa — compares noise profiles, not code.  The
    caller refuses the comparison instead of gating on it.
    """
    mismatches = []
    base_results: Dict[str, Dict] = baseline.get("results", {})  # type: ignore[assignment]
    for result in results:
        base = base_results.get(result.name)
        if not base:
            continue
        base_rounds = base.get("rounds")
        if base_rounds is not None and int(base_rounds) != result.rounds:
            mismatches.append(
                f"{result.name}: measured at {result.rounds} rounds but the "
                f"baseline entry was recorded at {base_rounds}; rerun with "
                f"--rounds {base_rounds} (or re-pin the baseline)"
            )
    return mismatches


def compare_to_baseline(
    results: Sequence[BenchResult],
    baseline: Dict[str, object],
    max_regression: float,
) -> List[str]:
    """Throughput regressions of ``results`` vs a trajectory entry.

    Only benchmarks present in both are compared; returns one message per
    benchmark whose throughput fell below ``(1 - max_regression)`` of the
    baseline's.
    """
    failures = []
    base_results: Dict[str, Dict] = baseline.get("results", {})  # type: ignore[assignment]
    for result in results:
        base = base_results.get(result.name)
        if not base:
            continue
        base_tp = float(base["throughput"])
        floor = base_tp * (1.0 - max_regression)
        if result.throughput < floor:
            failures.append(
                f"{result.name}: {result.throughput:,.0f} {result.unit}/s is "
                f"{(1 - result.throughput / base_tp) * 100.0:.1f}% below the "
                f"baseline {base_tp:,.0f} (allowed: {max_regression * 100.0:.0f}%)"
            )
    return failures


def format_table(results: Sequence[BenchResult],
                 baseline: Optional[Dict[str, object]] = None) -> str:
    """Human-readable report, with a vs-baseline column when available."""
    base_results: Dict[str, Dict] = (baseline or {}).get("results", {})  # type: ignore[assignment]
    lines = [f"{'benchmark':<28s} {'throughput':>16s} {'best':>10s} {'vs baseline':>12s}"]
    for result in results:
        base = base_results.get(result.name)
        if base and float(base["throughput"]) > 0:
            ratio = result.throughput / float(base["throughput"])
            vs = f"{ratio:10.2f}x"
        else:
            vs = "-"
        lines.append(
            f"{result.name:<28s} {result.throughput:>11,.0f} {result.unit + '/s':<5s}"
            f" {result.best_s * 1e3:>8.2f}ms {vs:>12s}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# CLI entry point (wired into ``repro bench``)
# ----------------------------------------------------------------------
def run_bench_command(args: argparse.Namespace) -> int:
    if getattr(args, "profile", False):
        # Profiling answers "where do the cycles go", not "how fast is
        # it" — it neither reads nor writes the trajectory.
        try:
            reports = run_profile(
                names=args.only, quick=args.quick, out_dir=args.profile_dir
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        for name, path, top_text in reports:
            print(f"== {name} (full listing: {path})")
            print(top_text)
            print()
        print(f"profiled {len(reports)} payload(s) under {args.profile_dir}/")
        return 0
    if args.compare is not None:
        # Compare mode is a standalone gate: it measures ratios, not
        # absolute throughputs, so it neither reads nor writes the
        # trajectory.
        parts = [part.strip() for part in args.compare.split(",")]
        if len(parts) != 2 or not all(parts):
            print(
                f"error: --compare wants CANDIDATE,BASE (e.g. optimized,reference), "
                f"got {args.compare!r}",
                file=sys.stderr,
            )
            return 2
        try:
            comparisons = run_compare(
                parts[0], parts[1], rounds=args.rounds, quick=args.quick
            )
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(format_compare_table(comparisons))
        failures = [result for result in comparisons if not result.ok]
        if failures:
            print(
                f"\ncompare gate: {parts[0]} below floor on "
                f"{', '.join(result.name for result in failures)}",
                file=sys.stderr,
            )
            return 1
        print(f"\ncompare gate green: {parts[0]} within floors vs {parts[1]}")
        return 0
    try:
        results = run_benches(quick=args.quick, rounds=args.rounds, names=args.only)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    baseline_entry = None
    if args.baseline is not None:
        try:
            baseline_entry = latest_entry(load_trajectory(Path(args.baseline)))
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if baseline_entry is None:
            print(f"error: {args.baseline} has no history entries", file=sys.stderr)
            return 2
    print(format_table(results, baseline_entry))
    if baseline_entry is not None:
        # Refuse before recording: an off-protocol measurement would
        # pollute the trajectory with entries no later gate can use.
        mismatches = rounds_mismatches(results, baseline_entry)
        if mismatches:
            print("error: round-count mismatch vs baseline:", file=sys.stderr)
            for mismatch in mismatches:
                print(f"  {mismatch}", file=sys.stderr)
            return 2
    if not args.no_write:
        entry = make_entry(results, note=args.note, quick=args.quick)
        data = append_entry(Path(args.out), entry)
        print(f"\nappended entry #{len(data['history'])} to {args.out}")
    if baseline_entry is not None:
        failures = compare_to_baseline(results, baseline_entry, args.max_regression)
        if failures:
            print("\nthroughput regression vs baseline:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs baseline (tolerance "
              f"{args.max_regression * 100.0:.0f}%)")
    if args.telemetry_gate is not None:
        # Fixed sampling, independent of --rounds: the gate's paired
        # measurement has its own convergence needs (and cost).
        overhead = measure_telemetry_overhead()
        if overhead > args.telemetry_gate:
            print(
                f"\ntelemetry overhead gate: enabled bus costs "
                f"{overhead * 100.0:.1f}% of scheduler throughput "
                f"(allowed: {args.telemetry_gate * 100.0:.1f}%)",
                file=sys.stderr,
            )
            return 1
        print(
            f"telemetry overhead {overhead * 100.0:.1f}% within gate "
            f"({args.telemetry_gate * 100.0:.1f}%)"
        )
    return 0
