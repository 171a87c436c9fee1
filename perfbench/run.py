#!/usr/bin/env python3
"""The repository's benchmark of record: the ``repro`` CLI, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-fig5 --seed 1 --seconds 20 --trace 0

Each workload is a fixed script of ``python -m repro ...`` commands
(``workloads.py``), launched one at a time from this process, each
iteration in a fresh temporary directory under ``.perfbench/``.  One run:

1. one untimed warm-up iteration (compiles the bytecode caches);
2. ``setup_s``: fresh interpreters timed running ``import repro.cli``;
3. timed iterations until ``--seconds`` have passed;
4. probes and checks, untimed: exit codes, record counts, failure
   records, the store verifier, a digest of every record that must be
   identical across iterations and runs of one seed, and the accuracy of
   the Fig. 5 and Fig. 8 reductions against the paper's values;
5. with ``--trace 1``, a separate traced pass (``traced.py``) whose spans
   attribute the wall time to layers.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import proc  # noqa: E402
import traced  # noqa: E402
from workloads import (  # noqa: E402
    SCALES,
    WORKLOADS,
    expected_records,
    fig5_command,
    fig8_command,
    script,
)

#: Every run must end within 180 s; this leaves a margin.
RUN_BUDGET_S = 170.0
#: Fresh interpreters timed importing ``repro.cli``; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Seconds kept back after the timed loop for probes, checks and, with
#: ``--trace 1``, the traced pass.
RESERVE_S = {0: 25.0, 1: 80.0}
#: Fig. 8 accuracy averages the reductions of this many consecutive seeds.
#: The paper averages three workloads; over ten consecutive seeds, eight keep the
#: interquartile range of fig8_err_pct under 7% of its median (three: 16%).
FIG8_WORKLOADS = 8
#: Working state of the benchmark inside the checkout (ignored by git).
STATE_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cmd_p50_s": "s",
    "peak_rss_mb": "MB",
    "fig5_err_pct": "%",
    "fig8_err_pct": "%",
}

PER_LAYER_UNITS = {
    "startup.import_s": "s",
    "startup.modules": "count",
    "startup.heavy_deps": "count",
    "workloads.arrivals_s": "s",
    "fleet.plan_s": "s",
    "fleet.routed": "count",
    "fleet.rerouted": "count",
    "fleet.shed": "count",
    "sim.self_s": "s",
    "sim.share": "ratio",
    "sim.launches_per_s": "1/s",
    "schedulers.self_s": "s",
    "core.self_s": "s",
    "fpga.self_s": "s",
    "cluster.self_s": "s",
    "apps.self_s": "s",
    "model.launches": "count",
    "model.completions": "count",
    "model.pr_count": "count",
    "model.pr_wait_ms": "ms",
    "model.launch_blocked": "count",
    "model.preemptions": "count",
    "model.migrations_out": "count",
    "telemetry.self_s": "s",
    "metrics.report_s": "s",
    "telemetry.event_log_bytes": "bytes",
    "campaign.cells": "count",
    "campaign.cell_p50_s": "s",
    "campaign.cell_tail_s": "s",
    "campaign.serial_s": "s",
    "campaign.pool_s": "s",
    "campaign.parallel_eff": "ratio",
    "campaign.failed_cells": "count",
    "store.append_s": "s",
    "store.appended": "count",
    "store.bytes": "bytes",
    "store.read_s": "s",
    "store.verify_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    **{f"layer.{name}_s": "s" for name in traced.LAYERS},
}

#: Model counters reported per layer (``model.<name>``).
MODEL_COUNTERS = ("launches", "completions", "pr_count", "pr_wait_ms",
                  "launch_blocked", "preemptions", "migrations_out")

#: cli-turnaround commands whose span is a store read / verification.
STORE_READ_COMMANDS = ("replay", "store-inspect")
STORE_VERIFY_COMMANDS = ("store-verify",)


class Ledger:
    """Operations attempted and failed, each failure with a one-line reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[Tuple[int, str]] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1) -> None:
        self.failures.append((count, reason))

    @property
    def failed(self) -> int:
        return sum(count for count, _ in self.failures)

    def spawned(self, spawn: proc.Spawn, label: str) -> bool:
        self.attempt()
        if not spawn.ok:
            self.fail(f"{label}: `{spawn.name}` exited {spawn.returncode}: "
                      f"{proc.tail(spawn.stderr_path, 2)}")
        return spawn.ok


class History:
    """Deterministic results of earlier runs in this checkout (a JSON file).

    Keys name the source digest, so editing the program starts afresh.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.entries = json.loads(path.read_text())
        except (OSError, ValueError):
            self.entries = {}

    def get(self, key: str):
        return self.entries.get(key)

    def put(self, key: str, value) -> None:
        self.entries[key] = value
        self.path.write_text(json.dumps(self.entries, indent=1, sort_keys=True))


@dataclass
class Iteration:
    """One pass over a workload's script."""

    label: str
    directory: Path
    spawns: List[proc.Spawn]

    @property
    def wall_s(self) -> float:
        """First spawn to last exit."""
        return self.spawns[-1].end - self.spawns[0].start

    def spawn_named(self, name: str) -> Optional[proc.Spawn]:
        return next((s for s in self.spawns if s.name == name), None)


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int,
                 scale: str) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.scale = trace, scale
        self.started = time.perf_counter()
        self.deadline = self.started + RUN_BUDGET_S
        self.ledger = Ledger()
        tmp_root = STATE_DIR / "tmp"
        tmp_root.mkdir(parents=True, exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(
            prefix=f"{workload}-seed{seed}-", dir=tmp_root))
        self.env = proc.child_env(ROOT, self.directory)
        self.source = source_hash()
        self.history = History(STATE_DIR / "history.json")
        #: Spans of the traced pass, written out with the results.
        self.spans: Optional[dict] = None

    # -- spawning -------------------------------------------------------
    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, name: str, argv: Sequence[str], cwd: Path) -> proc.Spawn:
        return proc.spawn(name, argv, cwd, self.env, timeout_s=self.remaining())

    def iteration(self, label: str) -> Iteration:
        directory = self.directory / label
        spawns = [
            self.spawn(command.name, proc.repro_argv(command.argv), directory)
            for command in script(self.workload, self.seed, self.scale)
        ]
        return Iteration(label, directory, spawns)

    # -- phases ---------------------------------------------------------
    def measure(self) -> Tuple[Iteration, List[float], List[Iteration]]:
        warmup = self.iteration("warmup")
        setup = []
        for index in range(SETUP_SAMPLES):
            spawn = self.spawn(
                "setup", [sys.executable, "-c", "import repro.cli"],
                self.directory / "setup",
            )
            if self.ledger.spawned(spawn, f"setup {index}"):
                setup.append(spawn.wall_s)
        timed: List[Iteration] = []
        loop_start = time.perf_counter()
        reserve = RESERVE_S[self.trace]
        while not timed or time.perf_counter() - loop_start < self.seconds:
            if timed and self.remaining() - timed[-1].wall_s < reserve:
                break
            timed.append(self.iteration(f"iter{len(timed)}"))
        return warmup, setup, timed

    def load_checked(self, check, path: Path, expected: int, label: str) -> list:
        """Load a store's records; each expected record is one operation,
        and a SQLite store's verification one more."""
        self.ledger.attempt(expected)
        try:
            records = check.load_records(path)
        except (OSError, ValueError, sqlite3.Error) as exc:
            self.ledger.fail(f"{label}: cannot load {path.name}: {exc}", expected)
            return []
        bad = sum(record.failed for record in records)
        wrong = bad + abs(expected - len(records))
        if wrong:
            self.ledger.fail(
                f"{label}: {path.name} holds {len(records)} records "
                f"(expected {expected}), {bad} with error set", wrong)
        if path.suffix == ".sqlite":
            self.ledger.attempt()
            try:
                findings = check.check_store(path)
            except ValueError as exc:
                findings = [str(exc)]
            if findings:
                self.ledger.fail(f"{label}: store verify {path.name}: {findings[0]}")
        return records

    def check_iteration(self, check, it: Iteration) -> Tuple[str, list]:
        """Count the iteration's operations; return its output digest and records."""
        for spawn in it.spawns:
            self.ledger.spawned(spawn, it.label)
        parts, records_all = [], []
        for store, expected in expected_records(self.workload, self.scale).items():
            records = self.load_checked(check, it.directory / store, expected, it.label)
            parts.append(check.records_digest(records))
            records_all.extend(records)
        # Deterministic printed output joins the digest (fig7/fig8 tables).
        for name in ("fig7", "fig8"):
            spawn = it.spawn_named(name)
            if spawn is not None and spawn.ok:
                parts.append(hashlib.sha256(spawn.stdout().encode()).hexdigest())
        return hashlib.sha256("|".join(parts).encode()).hexdigest(), records_all

    def probe(self, check, argv: Sequence[str]) -> Optional[str]:
        """Run an untimed extra command in this process; return its standard
        output, or None (a counted failure) when it fails."""
        self.ledger.attempt()
        try:
            code, stdout = check.run_cli(argv)
        except (Exception, SystemExit):
            code, stdout = traceback.format_exc().strip().splitlines()[-1], ""
        if code != 0:
            self.ledger.fail(f"probe `repro {' '.join(argv)}`: {code}")
            return None
        return stdout

    def execute(self) -> dict:
        warmup, setup, timed = self.measure()
        sys.path.insert(0, str(ROOT / "src"))
        import check

        reference, _ = self.check_iteration(check, warmup)
        first_records = None
        for it in timed:
            digest, records = self.check_iteration(check, it)
            first_records = records if first_records is None else first_records
            self.ledger.attempt()
            if digest != reference:
                self.ledger.fail(f"{it.label}: outputs differ from the warm-up "
                                 "run of the same seed")
        self.compare_history(reference)
        fig5_err, fig8_err = self.accuracy(check, first_records)

        walls = [it.wall_s for it in timed]
        wall = statistics.median(walls)
        counters = check.model_counters(first_records or [])
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup) if setup else None,
            "sim_launches_per_s": counters["launches"] / wall,
            "cmd_p50_s": statistics.median(s.wall_s for it in timed for s in it.spawns),
            "peak_rss_mb": max(s.maxrss_kb for it in timed for s in it.spawns) / 1024.0,
            "fig5_err_pct": fig5_err,
            "fig8_err_pct": fig8_err,
        }
        report = {
            "iterations": len(timed),
            "walls_s": walls,
            "setup_samples_s": setup,
            "records_digest": reference,
            "sim_digest": (check.sim_digest(counters, fig5_err, fig8_err)
                           if None not in (fig5_err, fig8_err) else None),
            "counters": counters,
        }
        layer_metrics = None
        if self.trace:
            layer_metrics = self.traced(check, wall, counters, first_records or [])
        return {"metrics": metrics, "per_layer": layer_metrics, "report": report}

    def accuracy(self, check, first_records) -> Tuple[Optional[float], Optional[float]]:
        """``fig5_err_pct`` and ``fig8_err_pct`` for this seed, untimed.

        Both are deterministic functions of the source and the seed, so
        they are kept in the checkout's history and computed only when
        missing: Fig. 5 by running the ``fig5`` command as a probe, Fig. 8
        over ``FIG8_WORKLOADS`` consecutive seeds from S.  paper-fig5
        always scores its own records and must agree with any earlier
        value.
        """
        key = f"accuracy seed={self.seed} scale={self.scale} src={self.source}"
        known = self.history.get(key) or {}
        fig5_err, fig8_err = known.get("fig5_err_pct"), known.get("fig8_err_pct")
        fig5_records = None
        if self.workload == "paper-fig5":
            fig5_records = first_records
        elif fig5_err is None:
            path = self.directory / "probe" / "fig5.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            argv = fig5_command(self.seed, self.scale, str(path)).argv
            if self.probe(check, argv) is not None:
                expected = expected_records("paper-fig5", self.scale)["fig5.jsonl"]
                fig5_records = self.load_checked(check, path, expected, "probe")
        if fig5_records is not None:
            try:
                scored = check.fig5_err_pct(fig5_records)
            except (KeyError, ValueError) as exc:
                self.ledger.fail(f"fig5_err_pct: {exc}")
            else:
                self.ledger.attempt()
                if fig5_err is not None and scored != fig5_err:
                    self.ledger.fail("fig5_err_pct differs from an earlier run "
                                     "of the same seed on the same source")
                fig5_err = scored
        if fig8_err is None:
            outputs = [
                self.probe(check, fig8_command(self.seed + offset, self.scale).argv)
                for offset in range(FIG8_WORKLOADS)
            ]
            if None not in outputs:
                try:
                    fig8_err = check.fig8_err_pct(outputs)
                except ValueError as exc:
                    self.ledger.fail(f"fig8_err_pct: {exc}")
        if not known and None not in (fig5_err, fig8_err):
            self.history.put(key, {"fig5_err_pct": fig5_err, "fig8_err_pct": fig8_err})
        return fig5_err, fig8_err

    def compare_history(self, digest: str) -> None:
        """The output digest must match earlier runs of this seed on the same source."""
        key = f"{self.workload} seed={self.seed} scale={self.scale} src={self.source}"
        earlier = self.history.get(key)
        if earlier is None:
            self.history.put(key, digest)
            return
        self.ledger.attempt()
        if earlier != digest:
            self.ledger.fail("outputs differ from an earlier run of the same "
                             "seed on the same source")

    # -- traced pass ----------------------------------------------------
    def traced(self, check, untraced_wall: float, counters: Dict[str, float],
               records: list) -> Optional[Dict[str, float]]:
        directory = self.directory / "traced"
        tracer_script = str(HERE / "traced.py")
        out = directory / "replica.json"
        spawn = self.spawn("replica", [
            sys.executable, tracer_script, "replica", self.workload,
            "--seed", str(self.seed), "--scale", self.scale,
            "--dir", str(directory / "work"), "--out", str(out),
        ], directory)
        if not self.ledger.spawned(spawn, "traced"):
            return None
        replica = json.loads(out.read_text())
        replica["spawn_start"] = spawn.start
        from repro.campaign import RunRecord

        replica_records = [RunRecord.from_dict(d) for d in replica["records"]]
        self.ledger.attempt()
        if check.records_digest(replica_records) != check.records_digest(records):
            self.ledger.fail("traced replica records differ from the CLI's")
        if replica["store_findings"]:
            self.ledger.fail(f"traced: store verify: {replica['store_findings'][0]}")
        commands = None
        if self.workload == "cli-turnaround":
            commands = []
            for mode in ("plain", "profiled"):
                run_dir = directory / mode
                for command in script(self.workload, self.seed, self.scale):
                    doc_path = run_dir / f".{command.name}.json"
                    argv = [sys.executable, tracer_script, "command",
                            "--out", str(doc_path)]
                    argv += ["--profile"] if mode == "profiled" else []
                    spawn = self.spawn(command.name, argv + ["--", *command.argv], run_dir)
                    if not self.ledger.spawned(spawn, f"traced {mode}"):
                        return None
                    doc = json.loads(doc_path.read_text())
                    doc.update(name=command.name, wall_s=spawn.wall_s,
                               profiled=mode == "profiled")
                    commands.append(doc)
            events = directory / "plain" / "events"
            replica["event_log_bytes"] = sum(
                p.stat().st_size for p in events.glob("*.jsonl"))
        self.spans = {"replica": replica["spans"],
                      "commands": [{"name": c["name"], "spans": c["spans"]}
                                   for c in commands or []]}
        return layer_metrics(replica, commands, untraced_wall, counters)

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def layer_metrics(replica: dict, commands: Optional[List[dict]],
                  untraced_wall: float, counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from a replica document (and, for cli-turnaround,
    the per-command span documents, plain then profiled)."""

    def total(name: str, spans=replica["spans"]) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    packages = replica["packages"]
    cell_s = replica["cell_s"]
    serial_s = sum(cell_s)
    pooled = total("campaign.pool") > 0
    pool_s = total("campaign.pool") or total("probe.pool")
    package_s = traced.split_by_package(serial_s, packages)
    profiled = sum(packages.values()) or 1.0

    layers = dict.fromkeys(traced.LAYERS, 0.0)
    layers["startup"] = total("startup")
    layers["admission"] = total("fleet.plan")
    layers["campaign"] = total("campaign.enumerate")
    if pooled:
        work = min(serial_s / traced.POOL_JOBS, pool_s)
        layers["campaign"] += pool_s - work
    else:
        work = serial_s
        layers["campaign"] += total("campaign.serial") - serial_s
    for layer, seconds in traced.layers_of(traced.split_by_package(work, packages)).items():
        layers[layer] += seconds
    layers["store"] += total("store.append")
    layers["measurement"] += total("metrics.report")
    # From the spawn, so interpreter start-up counts as it does untraced.
    wall = max(s["end"] for s in replica["spans"] if s["name"] == "wall") \
        - replica["spawn_start"]
    metrics = {
        "startup.import_s": total("startup"),
        "startup.modules": replica["startup"]["modules"],
        "startup.heavy_deps": replica["startup"]["heavy_deps"],
        "store.read_s": total("probe.store.read"),
        "store.verify_s": total("probe.store.verify"),
        "sim.share": packages.get("sim", 0.0) / profiled,
    }
    if commands is not None:
        # cli-turnaround: the traced wall is the plain command children;
        # their profiled twins split each command's span by package.
        plain = [c for c in commands if not c["profiled"]]
        by_name = {c["name"]: c for c in commands if c["profiled"]}
        layers = dict.fromkeys(traced.LAYERS, 0.0)
        package_s, package_profiled = {}, {}
        wall = sum(c["wall_s"] for c in plain)
        for doc in plain:
            layers["startup"] += total("startup", doc["spans"])
            command_s = total("command", doc["spans"])
            split = traced.split_by_package(command_s, by_name[doc["name"]]["packages"])
            for package, seconds in split.items():
                package_s[package] = package_s.get(package, 0.0) + seconds
            for package, seconds in by_name[doc["name"]]["packages"].items():
                package_profiled[package] = package_profiled.get(package, 0.0) + seconds
            for layer, seconds in traced.layers_of(split).items():
                layers[layer] += seconds
        metrics.update({
            "startup.import_s": statistics.median(
                total("startup", c["spans"]) for c in plain),
            "store.read_s": sum(total("command", c["spans"]) for c in plain
                                if c["name"] in STORE_READ_COMMANDS),
            "store.verify_s": sum(total("command", c["spans"]) for c in plain
                                  if c["name"] in STORE_VERIFY_COMMANDS),
            "sim.share": package_profiled.get("sim", 0.0)
            / (sum(package_profiled.values()) or 1.0),
        })
    layers["other"] = wall - sum(v for k, v in layers.items() if k != "other")
    tail_percent, tail_s = traced.tail_percentile(cell_s)
    metrics.update({
        "workloads.arrivals_s": total("probe.workloads.arrivals"),
        "fleet.plan_s": total("fleet.plan"),
        "fleet.routed": replica["fleet"]["routed"],
        "fleet.rerouted": replica["fleet"]["rerouted"],
        "fleet.shed": replica["fleet"]["shed"],
        "sim.launches_per_s": counters["launches"] / untraced_wall,
        **{f"{p}.self_s": package_s.get(p, 0.0) for p in traced.REPORTED_PACKAGES},
        **{f"model.{name}": counters[name] for name in MODEL_COUNTERS},
        "metrics.report_s": total("metrics.report"),
        "telemetry.event_log_bytes": replica.get("event_log_bytes", 0),
        "campaign.cells": replica["cells"],
        "campaign.cell_p50_s": statistics.median(cell_s),
        "campaign.cell_tail_s": tail_s,
        "campaign.serial_s": serial_s,
        "campaign.pool_s": pool_s,
        "campaign.parallel_eff": serial_s / (traced.POOL_JOBS * pool_s),
        "campaign.failed_cells": sum(1 for r in replica["records"] if r.get("error")),
        "store.append_s": total("store.append"),
        "store.appended": len(replica["records"]),
        "store.bytes": replica["store_bytes"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        **{f"layer.{name}_s": seconds for name, seconds in layers.items()},
    })
    metrics["campaign.cell_tail_pct"] = tail_percent
    return metrics


def source_hash() -> str:
    """Digest of the program's source files and the interpreter version
    (keys the cross-run history)."""
    digest = hashlib.sha256(sys.version.encode())
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def manifest(args: argparse.Namespace, argv: Sequence[str], source: str) -> dict:
    describe = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "describe", "--always",
                 "--dirty"], cwd=ROOT, capture_output=True, text=True,
                timeout=10).stdout.strip() or describe
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_describe": describe,
        "source": source,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "argv": list(argv),
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the repro CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced pass")
    parser.add_argument("--scale", choices=tuple(SCALES), default="paper",
                        help="'tiny' shrinks every script (self-test only)")
    return parser.parse_args(argv)


def format_value(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw_argv = list(sys.argv[1:] if argv is None else argv)
    args = parse_args(raw_argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    try:
        outcome = run.execute()
    finally:
        run.close()
    ledger, report = run.ledger, outcome["report"]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    chosen = outcome["per_layer"] if args.trace else outcome["metrics"]
    chosen = {k: v for k, v in (chosen or {}).items() if k in units and v is not None}

    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"iterations {report['iterations']}")
    print("end-to-end metrics (host time unless marked):")
    for name, unit in END_TO_END_UNITS.items():
        value = outcome["metrics"].get(name)
        print(f"  {name:<22s} {format_value(value) if value is not None else 'n/a':>14s} {unit}")
    # Printed, not bounded: error_rate is 0 on a healthy run, and the launch
    # count of cli-turnaround's small campaigns swings with the seed.
    error_rate = ledger.failed / max(ledger.attempted, 1)
    print(f"  {'error_rate':<22s} {error_rate:>14.6g} ratio "
          f"({ledger.failed} failed / {ledger.attempted} attempted)")
    print(f"  {'sim_launches_per_s':<22s} "
          f"{format_value(outcome['metrics']['sim_launches_per_s']):>14s} 1/s "
          f"(simulated launches per host second of wall_s)")
    if outcome["per_layer"] is not None:
        print("per-layer metrics (traced pass):")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<26s} {format_value(outcome['per_layer'].get(name)):>14s} {unit}")
        print(f"  campaign.cell_tail_s is p{outcome['per_layer']['campaign.cell_tail_pct']}"
              f" of {outcome['per_layer']['campaign.cells']} cells")
        for name, reason in traced.UNMEASURED.items():
            print(f"  {name:<26s} {'not measured':>14s}  ({reason})")
    print(f"sim_digest {report['sim_digest']}  (simulated counters + both *_err_pct)")
    for count, reason in ledger.failures:
        print(f"FAILED x{count}: {reason}")

    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = {
        "manifest": manifest(args, raw_argv, run.source),
        "metrics": outcome["metrics"],
        "per_layer": outcome["per_layer"],
        "error_rate": error_rate,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "run_s": time.perf_counter() - run.started,
        **report,
    }
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(doc, indent=1))
    if run.spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(run.spans))
    print(f"manifest and results: {stem.relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": ledger.failed == 0 and len(chosen) == len(units),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": chosen[name], "unit": units[name]}
                    for name in units if name in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
