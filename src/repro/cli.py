"""Command-line interface: ``python -m repro <command> [options]``.

Regenerates any of the paper's figures, runs registered campaigns over a
parallel backend, and replays persisted results:

.. code-block:: sh

    python -m repro fig5 --sequences 3 --jobs 4 --out results/fig5.jsonl
    python -m repro fig6
    python -m repro fig7
    python -m repro fig8 --apps 80 --seed 2 --jobs 2
    python -m repro campaign list
    python -m repro campaign run fig5-standard --jobs 4
    python -m repro campaign replay results/repros/repro-smoke-3.json
    python -m repro fleet list
    python -m repro fleet run fleet-diurnal --shards 4 --jobs 4
    python -m repro replay results/fig5.jsonl --figure fig5
    python -m repro campaign run smoke --events-dir results/events
    python -m repro telemetry summarize results/events/smoke-FCFS-seed1-seq0.jsonl
    python -m repro verify --fuzz 50 --seed 0
    python -m repro bench --quick --baseline BENCH_kernel.json
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import DEFAULT_SNAPSHOT_EVERY

# The parser needs nothing beyond the standard library and the package
# root.  Every subsystem is imported inside the handler of the command
# that uses it, so a short command pays at startup only for its own
# import chain.


def usable_cpus() -> int:
    """Default ``--jobs``: the CPUs this process may run on.

    1 where ``os.fork`` is missing, since the parallel backend forks.
    """
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS)
        return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VersaSlot (DAC 2025) reproduction: regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parallel_options(p: argparse.ArgumentParser) -> None:
        jobs = usable_cpus()
        p.add_argument(
            "--jobs", type=int, default=jobs,
            help="forked worker processes for the campaign backend "
                 f"(default: all usable CPUs, here {jobs}; 1 is the serial "
                 "reference)",
        )
        p.add_argument(
            "--cell-timeout", type=float, default=None, metavar="S",
            help="with --jobs N > 1: wall-clock bound per campaign cell in "
                 "seconds, counted from the cell's dispatch to a worker; a "
                 "hung worker is killed and replaced, only its cell is "
                 "retried once in isolation, and a persistent failure is "
                 "surfaced as a failure record instead of hanging the "
                 "campaign (a crashed worker is handled the same way)",
        )
        p.add_argument(
            "--out", type=str, default=None, metavar="PATH",
            help="append per-run JSONL records to PATH (replayable via `replay`)",
        )

    def add_durability_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--resume", action="store_true",
            help="skip cells the store already holds a successful record "
                 "for (continue an interrupted run; the resumed results are "
                 "bit-identical to an uninterrupted run)",
        )
        p.add_argument(
            "--snapshot-every", type=int, default=None, metavar="N",
            help="append records to the store every N completed cells, so "
                 "an interrupted run keeps them for --resume (default: once "
                 f"at the end; --resume implies {DEFAULT_SNAPSHOT_EVERY})",
        )

    fig5 = sub.add_parser("fig5", help="relative response-time reduction")
    fig5.add_argument("--sequences", type=int, default=2)
    fig5.add_argument("--apps", type=int, default=20)
    fig5.add_argument("--seed", type=int, default=1)
    add_parallel_options(fig5)

    fig6 = sub.add_parser("fig6", help="tail latency (P95/P99)")
    fig6.add_argument("--sequences", type=int, default=2)
    fig6.add_argument("--seed", type=int, default=1)
    add_parallel_options(fig6)

    sub.add_parser("fig7", help="3-in-1 utilization gains")

    fig8 = sub.add_parser("fig8", help="cross-board switching")
    fig8.add_argument("--apps", type=int, default=60)
    fig8.add_argument("--seed", type=int, default=1)
    add_parallel_options(fig8)

    campaign = sub.add_parser("campaign", help="run registered scenario campaigns")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_list = campaign_sub.add_parser("list", help="list registered scenarios")
    campaign_list.add_argument("--json", action="store_true",
                               help="machine-readable JSON instead of a table")
    run = campaign_sub.add_parser("run", help="run one registered scenario")
    run.add_argument("scenario", help="registered scenario name")
    run.add_argument("--sequences", type=int, default=None,
                     help="override the scenario's sequence count")
    run.add_argument("--apps", type=int, default=None,
                     help="override the scenario's per-sequence app count")
    run.add_argument("--seed", type=int, default=None,
                     help="replace the scenario's seed set with one seed")
    run.add_argument("--raw-samples", action="store_true",
                     help="persist raw per-request response samples on each "
                          "record (default: compact bounded-memory digest)")
    run.add_argument("--events-dir", type=str, default=None, metavar="DIR",
                     help="write each cell's typed telemetry event stream as "
                          "a replayable JSONL log under DIR")
    add_parallel_options(run)
    add_durability_options(run)
    campaign_replay = campaign_sub.add_parser(
        "replay",
        help="replay persisted results or a fuzzer repro file",
    )
    campaign_replay.add_argument(
        "path",
        help="JSONL records file, SQLite event store, or a verify-repro "
             "JSON file",
    )
    campaign_replay.add_argument(
        "--figure", choices=("summary", "fig5", "fig6"), default="summary",
        help="rendering for records files (ignored for repro files)",
    )
    campaign_replay.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON (records/skipped-line counts included) "
             "instead of a table",
    )

    fleet = sub.add_parser(
        "fleet", help="run sharded multi-cluster fleet scenarios"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_list = fleet_sub.add_parser("list", help="list registered fleet scenarios")
    fleet_list.add_argument("--json", action="store_true",
                            help="machine-readable JSON instead of a table")
    fleet_run = fleet_sub.add_parser("run", help="run one fleet scenario")
    fleet_run.add_argument("scenario", help="registered fleet scenario name")
    fleet_run.add_argument("--shards", type=int, default=None,
                           help="override the scenario's shard count")
    fleet_run.add_argument("--apps", type=int, default=None,
                           help="override the global arrival-stream size")
    fleet_run.add_argument("--seed", type=int, default=None,
                           help="replace the scenario's seed set with one seed")
    fleet_run.add_argument("--raw-samples", action="store_true",
                           help="persist raw per-request samples per shard "
                                "record (default: mergeable digests)")
    fleet_run.add_argument("--events-dir", type=str, default=None, metavar="DIR",
                           help="write admission + per-shard telemetry event "
                                "logs under DIR")
    add_parallel_options(fleet_run)
    add_durability_options(fleet_run)

    store = sub.add_parser(
        "store",
        help="inspect and maintain record stores (JSONL results files, "
             "SQLite event logs with incremental projections)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_inspect = store_sub.add_parser(
        "inspect",
        help="summarize a store: record count of a JSONL file; "
             "notification counts and projection watermarks of a SQLite store",
    )
    store_inspect.add_argument("path", help="results JSONL file or SQLite store")
    store_inspect.add_argument("--json", action="store_true",
                               help="machine-readable JSON instead of a table")
    store_verify = store_sub.add_parser(
        "verify",
        help="audit a store: every record of a JSONL file parses; a SQLite "
             "store's log is dense and every incremental projection equals "
             "a full rebuild",
    )
    store_verify.add_argument("path", help="results JSONL file or SQLite store")
    store_export = store_sub.add_parser(
        "export",
        help="copy one store into another, the format following the "
             "destination path (a .jsonl destination takes the records "
             "only; a .sqlite one also the events)",
    )
    store_export.add_argument("path", help="source store")
    store_export.add_argument("dest", help="destination store path")
    store_ingest = store_sub.add_parser(
        "ingest",
        help="append the events of telemetry JSONL log(s) to a SQLite "
             "store's notification log",
    )
    store_ingest.add_argument("path", help="destination SQLite store")
    store_ingest.add_argument(
        "events", nargs="+", help="telemetry event log(s) written by --events-dir"
    )

    telemetry = sub.add_parser(
        "telemetry",
        help="inspect and replay typed telemetry event logs",
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command", required=True)
    summarize = telemetry_sub.add_parser(
        "summarize",
        help="re-derive response statistics and counters from an event log",
    )
    summarize.add_argument("path", help="JSONL event log written by --events-dir")
    summarize.add_argument("--json", action="store_true",
                           help="machine-readable JSON instead of a table")
    schema = telemetry_sub.add_parser(
        "schema", help="list the typed event kinds and their fields"
    )
    schema.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of a table")

    verify = sub.add_parser(
        "verify",
        help="differential oracle: run scenarios on the reference and the "
             "optimized kernel and demand bit-identical outcomes",
    )
    verify.add_argument(
        "--fuzz", type=int, default=None, metavar="N",
        help="fuzz N sampled cases instead of sweeping a scenario's cells",
    )
    verify.add_argument(
        "--chaos", action="store_true",
        help="fault-aware fuzzing: sample only fleet deployments and "
             "inject a deterministic fault schedule (shard kills, drains, "
             "degradation, latency skew) into every case",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="root seed of the fuzz sampler (default: 0)",
    )
    verify.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="registered scenario to sweep (default: smoke), or to restrict "
             "fuzzing to",
    )
    verify.add_argument(
        "--system", action="append", default=None, metavar="NAME",
        help="restrict checking to this system (repeatable)",
    )
    verify.add_argument(
        "--repro-dir", default="results/repros", metavar="DIR",
        help="directory failing cases are persisted under "
             "(default: results/repros)",
    )
    verify.add_argument(
        "--max-shrink", type=int, default=48, metavar="N",
        help="oracle-run budget for shrinking one failing case (default: 48)",
    )
    verify.add_argument(
        "--keep-going", action="store_true",
        help="check every case even after a failure (default: stop at first)",
    )
    verify.add_argument(
        "--store", default=None, metavar="PATH",
        help="audit a record store instead of sweeping: every record of a "
             "JSONL file parses; a SQLite store's notification log is dense "
             "and every persisted incremental projection equals a full "
             "rebuild",
    )

    bench = sub.add_parser(
        "bench",
        help="run the kernel/scheduler micro-benchmarks and update the "
             "BENCH_kernel.json throughput trajectory",
    )
    bench.add_argument("--quick", action="store_true",
                       help="fewer rounds and only the fast benchmarks (CI smoke)")
    bench.add_argument("--rounds", type=int, default=None,
                       help="override the number of timed rounds per benchmark")
    bench.add_argument("--only", action="append", default=None, metavar="NAME",
                       help="run only the named benchmark (repeatable)")
    bench.add_argument("--out", type=str, default="BENCH_kernel.json",
                       metavar="PATH",
                       help="trajectory file to append to "
                            "(default: BENCH_kernel.json)")
    bench.add_argument("--no-write", action="store_true",
                       help="measure and report only; do not touch the trajectory")
    bench.add_argument("--baseline", type=str, default=None, metavar="PATH",
                       help="trajectory file whose newest entry gates regressions")
    bench.add_argument("--max-regression", type=float, default=0.30,
                       help="allowed fractional throughput drop vs the baseline "
                            "(default: 0.30)")
    bench.add_argument("--note", type=str, default="",
                       help="free-form label stored with the trajectory entry")
    bench.add_argument("--profile", action="store_true",
                       help="cProfile the selected payloads instead of timing "
                            "them: prints the top hotspots and writes the "
                            "full listing to results/profile_<name>.txt")
    bench.add_argument("--profile-dir", type=str, default="results",
                       metavar="DIR",
                       help="directory --profile reports are written under "
                            "(default: results)")
    bench.add_argument("--compare", type=str, default=None,
                       metavar="CANDIDATE,BASE",
                       help="run the kernel benches on two kernels (e.g. "
                            "optimized,reference) and fail if the candidate "
                            "falls below the per-bench ratio floors")
    bench.add_argument("--telemetry-gate", type=float, default=None,
                       metavar="FRACTION",
                       help="fail when the enabled telemetry bus costs more "
                            "than FRACTION of scheduler_single_app_run "
                            "throughput (a separate paired measurement with "
                            "its own fixed sampling; --rounds does not "
                            "apply)")

    replay = sub.add_parser("replay", help="re-render results from persisted records")
    replay.add_argument(
        "path", help="records file (JSONL or SQLite store) written by --out"
    )
    replay.add_argument(
        "--figure", choices=("summary", "fig5", "fig6"), default="summary",
        help="rendering: raw summary table or a figure recomputation",
    )
    replay.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON (records/skipped-line counts included) "
             "instead of a table",
    )

    sub.add_parser("list", help="list the evaluated systems")
    return parser


def _operator_error(exc: Exception) -> int:
    """Print a clean one-line message for a user-input error (exit 2).

    Reserved for lookup/load failures (unknown scenario, missing or
    malformed records file) — simulation errors propagate with their
    traceback so internal bugs stay debuggable.
    """
    if isinstance(exc, FileNotFoundError):
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
    else:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
    return 2


def _bad_count(args: argparse.Namespace, *flags: str) -> bool:
    """Report the first count flag below 1 as an operator error.

    Checked before any work starts, so a zero or negative count exits 2
    with one ``error:`` line instead of failing deep inside a run.  Flags
    the command does not define are skipped.
    """
    for flag in flags:
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            print(f"error: --{flag} must be >= 1, got {value}", file=sys.stderr)
            return True
    return False


def _effective_snapshot_every(args: argparse.Namespace) -> int:
    """Resolve ``--snapshot-every`` (``--resume`` implies the default)."""
    if args.snapshot_every is not None:
        if args.snapshot_every < 1:
            raise ValueError(
                f"--snapshot-every must be >= 1, got {args.snapshot_every}"
            )
        return args.snapshot_every
    return DEFAULT_SNAPSHOT_EVERY if args.resume else 0


def _default_out(scenario_name: str, args: argparse.Namespace) -> str:
    """The results path: ``--out``, else ``results/<scenario>.jsonl``."""
    return args.out or f"results/{scenario_name}.jsonl"


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "replay":
        return _cmd_replay(args)
    from .campaign.scenario import get_scenario, scenario_names

    if args.campaign_command == "list":
        if args.json:
            entries = []
            for name in scenario_names():
                scenario = get_scenario(name)
                entries.append({
                    "name": name,
                    "systems": list(scenario.system_names()),
                    "sequences": scenario.workload.sequence_count,
                    "seeds": list(scenario.seeds),
                    "condition": scenario.workload.condition.label,
                    "n_apps": scenario.workload.n_apps,
                    "description": scenario.description,
                })
            print(json.dumps(entries, indent=1))
            return 0
        for name in scenario_names():
            scenario = get_scenario(name)
            workload = scenario.workload
            print(
                f"{name:<20s} {len(scenario.system_names())} systems x "
                f"{workload.sequence_count} seq x {len(scenario.seeds)} seeds "
                f"({workload.condition.label}, {workload.n_apps} apps)"
                + (f"  — {scenario.description}" if scenario.description else "")
            )
        return 0
    try:
        scenario = get_scenario(args.scenario).scaled(
            sequence_count=args.sequences,
            n_apps=args.apps,
            seeds=(args.seed,) if args.seed is not None else None,
        )
    except (KeyError, ValueError) as exc:
        # Unknown scenario name, or scale flags the workload rejects
        # (e.g. --sequences 0).
        return _operator_error(exc)
    try:
        snapshot_every = _effective_snapshot_every(args)
    except ValueError as exc:
        return _operator_error(exc)
    from .campaign.runner import CampaignRunner
    from .metrics.report import summarize_records

    out = _default_out(scenario.name, args)
    runner = CampaignRunner(
        jobs=args.jobs,
        store=out,
        raw_samples=args.raw_samples,
        events_dir=args.events_dir,
        timeout_s=getattr(args, "cell_timeout", None),
        snapshot_every=snapshot_every,
        resume=args.resume,
    )
    records = runner.run(scenario)
    print(summarize_records(records))
    outcome = runner.last_outcome
    if outcome is not None and outcome.resumed:
        print(
            f"\nresume: {outcome.resumed} cell(s) already persisted, "
            f"{outcome.executed} executed this run"
        )
    print(f"\n{len(records)} records appended to {out}")
    if args.events_dir:
        print(f"telemetry event logs written under {args.events_dir}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet import Fleet, fleet_scenario_names, get_fleet_scenario, policy_names

    if args.fleet_command == "list":
        if args.json:
            entries = []
            for name in fleet_scenario_names():
                scenario = get_fleet_scenario(name)
                entries.append({
                    "name": name,
                    "system": scenario.system,
                    "n_shards": scenario.n_shards,
                    "policy": scenario.policy,
                    "policies": policy_names(),
                    "cell_count": scenario.cell_count(),
                    "faults": len(scenario.faults),
                    "seeds": list(scenario.seeds),
                    "workload": scenario.workload.kind,
                    "condition": scenario.workload.condition.label,
                    "n_apps": scenario.workload.n_apps,
                    "description": scenario.description,
                })
            print(json.dumps(entries, indent=1))
            return 0
        for name in fleet_scenario_names():
            scenario = get_fleet_scenario(name)
            workload = scenario.workload
            print(
                f"{name:<20s} {scenario.n_shards} shards x "
                f"{len(scenario.seeds)} seeds, policy {scenario.policy:<12s} "
                f"({workload.kind}, {workload.condition.label}, "
                f"{workload.n_apps} apps, {scenario.system})"
                + (f"  — {scenario.description}" if scenario.description else "")
            )
        return 0
    try:
        scenario = get_fleet_scenario(args.scenario).scaled(
            n_shards=args.shards,
            n_apps=args.apps,
            seeds=(args.seed,) if args.seed is not None else None,
        )
    except (KeyError, ValueError) as exc:
        return _operator_error(exc)
    try:
        snapshot_every = _effective_snapshot_every(args)
    except ValueError as exc:
        return _operator_error(exc)
    out = _default_out(scenario.name, args)
    result = Fleet(scenario).run(
        jobs=args.jobs,
        store=out,
        keep_raw_samples=args.raw_samples,
        events_dir=args.events_dir,
        timeout_s=getattr(args, "cell_timeout", None),
        snapshot_every=snapshot_every,
        resume=args.resume,
    )
    print(result.rollup.table())
    if result.resumed_cells:
        print(
            f"\nresume: {result.resumed_cells} shard cell(s) already "
            f"persisted, {len(result.records) - result.resumed_cells} "
            "executed this run"
        )
    print(f"\n{len(result.records)} shard records appended to {out}")
    if args.events_dir:
        print(f"telemetry event logs written under {args.events_dir}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .metrics.report import format_table
    from .telemetry import EVENT_TYPES, summarize_event_log

    if args.telemetry_command == "schema":
        if args.json:
            print(json.dumps(
                {kind: list(cls._fields) for kind, cls in EVENT_TYPES.items()},
                indent=1,
            ))
            return 0
        print(format_table(
            ["kind", "fields"],
            [[kind, ", ".join(cls._fields)] for kind, cls in EVENT_TYPES.items()],
            title="Telemetry event schema (every event also carries `t`, ms)",
        ))
        return 0
    try:
        summary = summarize_event_log(args.path)
    except (ValueError, FileNotFoundError) as exc:
        return _operator_error(exc)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    meta = summary.get("meta") or {}
    if meta:
        print("event log:", ", ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    counters = summary["counters"]
    print(format_table(
        ["counter", "value"],
        [[name, value] for name, value in counters.items()],
        title=f"Telemetry counters — {args.path}",
    ))
    response = summary.get("response")
    if response:
        print()
        print(format_table(
            ["count", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)",
             "min (ms)", "max (ms)"],
            [[response["count"], response["mean_ms"], response["p50_ms"],
              response["p95_ms"], response["p99_ms"], response["min_ms"],
              response["max_ms"]]],
            title="Response distribution (streaming digest)",
        ))
    return 0


def _load_replay_records(path: str):
    """Load RunRecords + skipped-line count from a JSONL file or SQLite store.

    A dropped (truncated) line in a JSONL file is surfaced in the count
    rather than hidden behind a warning.
    """
    from .store import read_store

    with read_store(path) as store:
        return store.load(), store.skipped_lines


def _cmd_replay(args: argparse.Namespace) -> int:
    # A fuzzer-found repro replays as a fresh oracle comparison — the
    # one-command reproduction of a persisted kernel divergence.  All
    # other inputs are RunRecord files and replay without simulating, so
    # their failures are input problems (missing/malformed file, records
    # that don't form the figure).  Exit codes: 0 clean, 1 empty/failed
    # replay, 2 operator error, 3 rendered but with dropped line(s).
    from .store import is_sqlite_path
    from .telemetry import sniff_event_log
    from .verify.repro_file import sniff_repro_file

    as_json = bool(getattr(args, "json", False))
    try:
        if not is_sqlite_path(args.path):
            repro_payload = sniff_repro_file(args.path)
            if repro_payload is not None:
                from .verify.fuzz import parse_repro_payload, replay_case

                case, _ = parse_repro_payload(repro_payload, source=args.path)
                report = replay_case(case)
                print(report.summary())
                return 0 if report.ok else 1
            if sniff_event_log(args.path):
                # A telemetry event log: re-derive the report from the
                # typed event stream alone (no records, no simulation).
                if getattr(args, "figure", "summary") != "summary":
                    print(
                        f"error: {args.path} is a telemetry event log (one "
                        "run's stream); --figure needs a multi-run records "
                        "file — replay it without --figure for the stream "
                        "summary",
                        file=sys.stderr,
                    )
                    return 2
                telemetry_args = argparse.Namespace(
                    telemetry_command="summarize", path=args.path,
                    json=as_json,
                )
                return _cmd_telemetry(telemetry_args)
        records, skipped = _load_replay_records(args.path)
        figure = getattr(args, "figure", "summary")
        payload = {
            "path": str(args.path),
            "figure": figure,
            "records": len(records),
            "skipped_lines": skipped,
        }
        if not records:
            if as_json:
                print(json.dumps(payload, indent=1, sort_keys=True))
            else:
                print(f"no records in {args.path}")
                if skipped:
                    print(
                        f"note: {skipped} truncated trailing line(s) "
                        f"skipped while loading {args.path}"
                    )
            return 3 if skipped else 1
        if figure == "fig5":
            from .experiments import Fig5Result

            result = Fig5Result.from_records(records)
            rendered = result.table()
            payload["reductions"] = result.reductions
        elif figure == "fig6":
            from .experiments import fig6_from_records

            result = fig6_from_records(records)
            rendered = result.table()
            payload["relative_tails"] = result.relative_tails
        else:
            from .metrics.report import summarize_records

            rendered = summarize_records(records)
        if as_json:
            payload["rendered"] = rendered
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            print(rendered)
            if skipped:
                print(
                    f"note: {skipped} truncated trailing line(s) "
                    f"skipped while loading {args.path}"
                )
        return 3 if skipped else 0
    except (KeyError, ValueError, FileNotFoundError) as exc:
        return _operator_error(exc)


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "verify":
        from .store.audit import run_store_audit

        return run_store_audit(args.path)
    from .metrics.report import format_table
    from .store import (
        KIND_EVENT, KIND_RECORD, CampaignStore, default_projections,
        open_store, read_store, update_projections,
    )

    try:
        if args.store_command == "inspect":
            with read_store(args.path) as store:
                if isinstance(store, CampaignStore):
                    summary = {
                        "path": str(args.path),
                        "format": "sqlite",
                        "notifications": store.max_id(),
                        "counts": store.counts(),
                        "projections": {},
                    }
                    for projection in default_projections():
                        watermark, state = store.get_projection(projection.name)
                        if state is not None:
                            summary["projections"][projection.name] = watermark
                else:
                    summary = {
                        "path": str(args.path),
                        "format": "jsonl",
                        "records": len(store.load()),
                        "skipped_lines": store.skipped_lines,
                    }
            if args.json:
                print(json.dumps(summary, indent=1, sort_keys=True))
                return 0
            if summary["format"] == "jsonl":
                rows = [["records", summary["records"]],
                        ["truncated lines skipped", summary["skipped_lines"]]]
            else:
                rows = [["notifications", summary["notifications"]]]
                rows += [[f"kind:{kind}", n]
                         for kind, n in sorted(summary["counts"].items())]
                rows += [[f"projection:{name}", f"watermark {watermark}"]
                         for name, watermark
                         in sorted(summary["projections"].items())]
            print(format_table(
                ["field", "value"], rows,
                title=f"{summary['format']} store — {args.path}",
            ))
            return 0
        if args.store_command == "export":
            with read_store(args.path) as source:
                if isinstance(source, CampaignStore):
                    # Rows of kinds no longer written (old snapshot rows)
                    # are not carried.
                    entries = [
                        (n.kind, n.payload) for n in source.select()
                        if n.kind in (KIND_RECORD, KIND_EVENT)
                    ]
                else:
                    entries = [
                        (KIND_RECORD, r.to_dict()) for r in source.load()
                    ]
            records = sum(kind == KIND_RECORD for kind, _ in entries)
            events = len(entries) - records
            with open_store(args.dest) as dest:
                if isinstance(dest, CampaignStore):
                    dest.append(entries)
                    update_projections(dest)
                    carried = f"{records} record(s), {events} event(s)"
                else:
                    from .campaign import RunRecord

                    dest.extend(
                        RunRecord.from_dict(payload)
                        for kind, payload in entries if kind == KIND_RECORD
                    )
                    carried = (
                        f"{records} record(s); {events} event(s) not "
                        "carried (a JSONL results file holds records only)"
                    )
            print(f"exported {carried}: {args.path} -> {args.dest}")
            return 0
        if args.store_command == "ingest":
            from .telemetry import load_events

            with open_store(args.path) as store:
                if not isinstance(store, CampaignStore):
                    raise ValueError(
                        f"store ingest needs a SQLite store (.sqlite/.db); "
                        f"{args.path} names a JSONL results file, which "
                        "holds records only"
                    )
                total = 0
                for events_path in args.events:
                    events = load_events(events_path)
                    store.append_events(events)
                    total += len(events)
                    print(f"  {events_path}: {len(events)} event(s)")
            print(f"ingested {total} event(s) into {args.path}")
            return 0
    except (KeyError, ValueError, FileNotFoundError) as exc:
        return _operator_error(exc)
    return 2  # pragma: no cover - argparse enforces the choices


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) > 1 and not hasattr(os, "fork"):
        parser.error(
            f"--jobs {args.jobs} needs os.fork, which this platform lacks; "
            "use --jobs 1"
        )
    return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        from .experiments.runner import SYSTEMS

        for name, (cls, config) in SYSTEMS.items():
            print(f"{name:<14s} {cls.__name__:<22s} board={config.value}")
        return 0
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "verify":
        from .verify.cli import run_verify_command

        return run_verify_command(args)
    if args.command == "bench":
        if _bad_count(args, "rounds"):
            return 2
        from .bench import run_bench_command

        return run_bench_command(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command in ("fig5", "fig6", "fig8") and _bad_count(
        args, "sequences", "apps"
    ):
        return 2
    if args.command == "fig5":
        from .experiments import run_fig5

        result = run_fig5(
            seed=args.seed, sequence_count=args.sequences, n_apps=args.apps,
            jobs=args.jobs, store=args.out,
        )
        print(result.table())
        return 0
    if args.command == "fig6":
        from .experiments import run_fig6

        print(run_fig6(
            seed=args.seed, sequence_count=args.sequences,
            jobs=args.jobs, store=args.out,
        ).table())
        return 0
    if args.command == "fig7":
        from .experiments import run_fig7

        print(run_fig7().table())
        return 0
    if args.command == "fig8":
        from .campaign import ResultsStore
        from .config import DEFAULT_PARAMETERS
        from .experiments import PAPER_FIG8, PAPER_SWITCH_OVERHEAD_MS, run_fig8
        from .metrics.plots import bar_chart, trace_plot

        result = run_fig8(
            seed=args.seed, n_apps=args.apps, jobs=args.jobs,
            store=ResultsStore(args.out) if args.out else None,
        )
        print(trace_plot(
            [s.value for s in result.samples],
            title="D_switch trajectory",
            thresholds={
                "T1": DEFAULT_PARAMETERS.switch_threshold_up,
                "T2": DEFAULT_PARAMETERS.switch_threshold_down,
            },
        ))
        print()
        print(bar_chart(
            result.reductions,
            title="Response reduction vs Only.Little",
            reference=PAPER_FIG8,
        ))
        print(f"\nmean switching overhead: {result.mean_switch_overhead_ms:.2f} ms "
              f"(paper: {PAPER_SWITCH_OVERHEAD_MS:.2f} ms)")
        return 0
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
