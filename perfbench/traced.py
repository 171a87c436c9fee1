"""Traced runs: spans recorded at layer boundaries from the benchmark's side.

``run.py --trace 1`` starts this file in fresh interpreters (the checkout's
``src`` on ``PYTHONPATH``) in two modes:

``replica WORKLOAD``
    Re-executes the workload in-process through each layer's public
    functions (cell enumeration, ``execute_cell``, the process-pool
    backend, store appends, report functions, admission planning), with a
    span around every call.  The spans inside ``wall`` mirror the CLI
    command; spans named ``probe.*`` come after it and measure layers the
    command does not isolate (the serial or pooled twin of the cell run,
    store reads and verification, arrival generation).  One more serial
    pass runs the cells under cProfile to split their time by package.

``command -- ARGV``
    One ``repro`` command in a fresh interpreter, with a span around
    ``import repro.cli`` and one around ``repro.cli.main(ARGV)``; with
    ``--profile`` the command runs under cProfile instead.

Spans are kept in memory and written as JSON to ``--out`` when the run
ends.  Nothing here imports ``repro`` at module level, so ``run.py`` can
import the aggregation helpers without loading the program.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import pstats
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

from workloads import SCALES

#: Attribution layers, in report order; ``other`` is whatever no span or
#: package accounts for (interpreter boot, stdlib glue, the CLI layer).
LAYERS = ("startup", "admission", "sim", "model", "measurement", "campaign",
          "store", "other")

#: Top-level ``repro`` package (or module) -> attribution layer.
PACKAGE_LAYER = {
    "sim": "sim",
    "schedulers": "model", "core": "model", "fpga": "model",
    "cluster": "model", "apps": "model", "config": "model",
    "telemetry": "measurement", "metrics": "measurement",
    "campaign": "campaign",
    "fleet": "admission", "workloads": "admission", "chaos": "admission",
    "store": "store",
}

#: Packages whose estimated self time is reported one by one.
REPORTED_PACKAGES = ("sim", "schedulers", "core", "fpga", "cluster", "apps",
                     "telemetry")

#: Optional heavy dependencies whose import ``startup.heavy_deps`` counts.
HEAVY_DEPS = ("numpy", "scipy", "networkx", "matplotlib")

#: Pool size of the ``--jobs 2`` workloads and of the pooled probe.
POOL_JOBS = 2

#: Per-layer metrics the traced run cannot take from outside the program,
#: with the reason; ``run.py`` prints them.
UNMEASURED = {
    "sim.events": "the kernel's event loop is inlined; simulate_run's "
                  "tracer/instruments hooks see scheduler actions, not "
                  "kernel events",
    "campaign.retries": "ProcessBackend re-runs failed cells internally "
                        "and exposes no retry count",
}


class Tracer:
    """In-memory spans: name, start, end and the id of the enclosing span."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


def package_of(filename: str) -> Optional[str]:
    """Top-level ``repro`` package of a source file (None outside repro)."""
    parts = Path(filename).parts
    if "repro" not in parts:
        return None
    last = len(parts) - 1 - parts[::-1].index("repro")
    if last + 1 == len(parts):
        return None
    head = parts[last + 1]
    return head[:-3] if head.endswith(".py") else head


def package_times(profile: cProfile.Profile) -> Dict[str, float]:
    """cProfile self time grouped by ``repro`` package.

    Self time of code outside ``repro`` (builtins, the standard library)
    is charged to the nearest ``repro`` caller, split by each caller's
    share of the calls' cumulative time; what no caller within four hops
    claims is ``other``.
    """
    stats = pstats.Stats(profile).stats
    totals: Dict[str, float] = defaultdict(float)

    def charge(func, amount: float, depth: int) -> None:
        package = package_of(func[0])
        if package is not None:
            totals[package] += amount
            return
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        if depth == 0 or not callers:
            totals["other"] += amount
            return
        weights = {caller: edge[3] for caller, edge in callers.items()}
        weight_sum = sum(weights.values())
        if weight_sum <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
            weight_sum = sum(weights.values())
        for caller, weight in weights.items():
            charge(caller, amount * weight / weight_sum, depth - 1)

    for func, (_, _, tottime, _, _) in stats.items():
        if tottime > 0:
            charge(func, tottime, 4)
    return dict(totals)


def split_by_package(seconds: float, packages: Dict[str, float]) -> Dict[str, float]:
    """Scale profiled package times so they sum to ``seconds`` (unprofiled)."""
    profiled = sum(packages.values())
    if profiled <= 0:
        return {}
    return {name: seconds * value / profiled for name, value in packages.items()}


def layers_of(package_seconds: Dict[str, float]) -> Dict[str, float]:
    layers: Dict[str, float] = defaultdict(float)
    for package, seconds in package_seconds.items():
        layers[PACKAGE_LAYER.get(package, "other")] += seconds
    return dict(layers)


def tail_percentile(samples: List[float]):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it.

    Returns ``(percent, value)``; with fewer than 20 samples the maximum
    stands in, reported as percent 100.
    """
    ordered = sorted(samples)
    for percent in (99, 95, 90, 75, 50):
        if len(ordered) * (100 - percent) / 100 >= 10:
            return percent, statistics.quantiles(ordered, n=100)[percent - 1]
    return 100, ordered[-1] if ordered else 0.0


# ----------------------------------------------------------------------
# replica mode


def _fig5_cells(seed: int, knobs: Dict[str, int]):
    from repro.campaign import CampaignRunner, Scenario
    from repro.experiments.fig5 import CONDITIONS
    from repro.experiments.runner import SYSTEMS
    from repro.workloads.generator import WorkloadSpec

    runner = CampaignRunner(jobs=1)
    systems = list(SYSTEMS)
    if "Baseline" not in systems:
        systems = ["Baseline"] + systems
    cells = []
    for condition in CONDITIONS:
        scenario = Scenario(
            name=f"fig5-{condition.label.lower()}",
            workload=WorkloadSpec(
                condition, n_apps=knobs["apps"],
                sequence_count=knobs["sequences"],
            ),
            systems=tuple(systems),
            seeds=(seed,),
        )
        cells.extend(runner.cells_for(scenario))
    return cells


def replica(workload: str, seed: int, scale: str, workdir: Path) -> dict:
    knobs = SCALES[scale]
    tracer = Tracer()
    workdir.mkdir(parents=True, exist_ok=True)
    fleet_plans = {}
    serving_plans = {}
    pooled_in_wall = workload == "fleet-chaos-jobs2"
    with tracer.span("wall"):
        with tracer.span("startup"):
            import repro.cli  # noqa: F401  (the import every command pays)
        startup = {
            "modules": len(sys.modules),
            "heavy_deps": sum(name in sys.modules for name in HEAVY_DEPS),
        }
        from repro.campaign import (
            CampaignRunner, ResultsStore, execute_cell, get_scenario,
            make_backend,
        )
        from repro.fleet import Fleet, get_fleet_scenario, load_imbalance, rollup_records
        from repro.metrics.report import summarize_records
        from repro.store import open_store, update_projections

        fleet = None
        if workload != "paper-fig5":
            name, shards, apps = (
                ("fleet-chaos", knobs["shards"], knobs["fleet_apps"])
                if workload == "fleet-chaos-jobs2" else ("fleet-smoke", None, None)
            )
            fleet = Fleet(get_fleet_scenario(name).scaled(
                n_shards=shards, n_apps=apps, seeds=(seed,),
            ))
            with tracer.span("fleet.plan"):
                fleet_plans, serving_plans = fleet.plan_bundle()
        with tracer.span("campaign.enumerate"):
            if workload == "paper-fig5":
                cells = _fig5_cells(seed, knobs)
            elif workload == "cli-turnaround":
                smoke = get_scenario("smoke").scaled(seeds=(seed,))
                cells = CampaignRunner(jobs=1).cells_for(smoke)
                cells += fleet.cells(plans=fleet_plans)
            else:
                cells = fleet.cells(plans=fleet_plans)
        if pooled_in_wall:
            with tracer.span("campaign.pool"):
                records = make_backend(POOL_JOBS).run(cells)
        else:
            records = []
            with tracer.span("campaign.serial"):
                for cell in cells:
                    with tracer.span("campaign.cell"):
                        records.append(execute_cell(cell))
        store_path = workdir / (
            "fig5.jsonl" if workload == "paper-fig5" else "fleet.sqlite"
        )
        with tracer.span("store.append"):
            if workload == "paper-fig5":
                ResultsStore(store_path).extend(records)
            else:
                with open_store(store_path) as store:
                    store.append_records(records)
                    update_projections(store)
        with tracer.span("metrics.report"):
            if workload == "paper-fig5":
                from repro.experiments.fig5 import Fig5Result

                Fig5Result.from_records(records).table()
            else:
                fleet_records = [r for r in records if r.shard >= 0]
                imbalances = [load_imbalance(p) for p in fleet_plans.values()]
                rollup_records(
                    fleet.scenario, fleet_records,
                    sum(imbalances) / len(imbalances),
                    serving_plans=serving_plans,
                ).table()
                if workload == "cli-turnaround":
                    summarize_records([r for r in records if r.shard < 0])

    # Probes: after the traced wall, never inside it.
    from repro.campaign import load_records
    from repro.verify.oracle import check_store

    if fleet is not None:
        with tracer.span("probe.workloads.arrivals"):
            fleet.scenario.workload.arrivals(seed)
    if pooled_in_wall:
        with tracer.span("probe.serial"):
            for cell in cells:
                with tracer.span("probe.cell"):
                    execute_cell(cell)
    else:
        with tracer.span("probe.pool"):
            make_backend(POOL_JOBS).run(cells)
    with tracer.span("probe.store.read"):
        load_records(store_path)
    with tracer.span("probe.store.verify"):
        findings = check_store(store_path)
    profile = cProfile.Profile()
    for cell in cells:
        profile.enable()
        execute_cell(cell)
        profile.disable()

    cell_spans = "probe.cell" if pooled_in_wall else "campaign.cell"
    return {
        "mode": "replica",
        "workload": workload,
        "spans": tracer.spans,
        "startup": startup,
        "cells": len(cells),
        "cell_s": tracer.durations(cell_spans),
        "packages": package_times(profile),
        "records": [r.to_dict() for r in records],
        "store_bytes": _store_bytes(store_path),
        "store_findings": findings,
        "fleet": _fleet_counts(fleet_plans, serving_plans, seed),
    }


def _store_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))


def _fleet_counts(plans, serving_plans, seed: int) -> Dict[str, int]:
    if not plans:
        return {"routed": 0, "rerouted": 0, "shed": 0}
    plan = serving_plans.get(seed)
    return {
        "routed": sum(len(stream) for stream in plans[seed]),
        "rerouted": plan.reroute_count if plan is not None else 0,
        "shed": plan.shed_count if plan is not None else 0,
    }


# ----------------------------------------------------------------------
# command mode


def command(argv: List[str], profiled: bool) -> dict:
    tracer = Tracer()
    with tracer.span("startup"):
        import repro.cli
    profile = cProfile.Profile() if profiled else None
    with tracer.span("command"):
        if profile is not None:
            profile.enable()
        try:
            code = repro.cli.main(argv)
        finally:
            if profile is not None:
                profile.disable()
        sys.stdout.flush()
    return {
        "mode": "command",
        "argv": argv,
        "code": code,
        "spans": tracer.spans,
        "packages": package_times(profile) if profile is not None else {},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    rep = sub.add_parser("replica")
    rep.add_argument("workload")
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--scale", default="paper")
    rep.add_argument("--dir", type=Path, required=True)
    rep.add_argument("--out", type=Path, required=True)
    cmd = sub.add_parser("command")
    cmd.add_argument("--profile", action="store_true")
    cmd.add_argument("--out", type=Path, required=True)
    cmd.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "replica":
        doc = replica(args.workload, args.seed, args.scale, args.dir)
        code = 0
    else:
        repro_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        doc = command(repro_argv, args.profile)
        code = doc["code"]
    args.out.write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
