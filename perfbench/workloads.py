"""The benchmark's workloads: fixed scripts of ``repro`` CLI invocations.

Every command is a ``python -m repro`` argument list run in a fresh
interpreter whose working directory is a fresh temporary directory, so the
relative output paths below never collide and never touch the repository's
own ``results/``.  The workload seed is passed to every ``--seed``.

Two scales exist: ``paper`` (the benchmark of record) and ``tiny`` (the
same scripts shrunk so the self-test finishes in seconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

WORKLOADS = ("paper-fig5", "fleet-chaos-jobs2", "cli-turnaround")

#: Scale knobs per scale; ``paper`` is Fig. 5 at the paper's 10 sequences
#: of 20 applications and the Fig. 8 CLI default of 60 applications.
SCALES: Dict[str, Dict[str, int]] = {
    "paper": {"sequences": 10, "apps": 20, "shards": 64, "fleet_apps": 2000,
              "fig8_apps": 60},
    "tiny": {"sequences": 1, "apps": 6, "shards": 8, "fleet_apps": 120,
             "fig8_apps": 16},
}

#: Systems x conditions of one Fig. 5 sequence (6 systems, 4 conditions).
FIG5_CELLS_PER_SEQUENCE = 24


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a short label and its ``repro`` arguments."""

    name: str
    argv: Tuple[str, ...]


def fig5_command(seed: int, scale: str, out: str) -> Command:
    knobs = SCALES[scale]
    return Command("fig5", (
        "fig5", "--sequences", str(knobs["sequences"]),
        "--apps", str(knobs["apps"]), "--seed", str(seed), "--out", out,
    ))


def fig8_command(seed: int, scale: str) -> Command:
    return Command("fig8", (
        "fig8", "--apps", str(SCALES[scale]["fig8_apps"]), "--seed", str(seed),
    ))


def script(workload: str, seed: int, scale: str) -> List[Command]:
    """The commands one iteration of ``workload`` runs, in order."""
    knobs = SCALES[scale]
    s = str(seed)
    if workload == "paper-fig5":
        return [fig5_command(seed, scale, "fig5.jsonl")]
    if workload == "fleet-chaos-jobs2":
        return [Command("fleet-chaos", (
            "fleet", "run", "fleet-chaos", "--shards", str(knobs["shards"]),
            "--apps", str(knobs["fleet_apps"]), "--seed", s, "--jobs", "2",
            "--out", "fleet.sqlite",
        ))]
    if workload == "cli-turnaround":
        return [
            Command("fig7", ("fig7",)),
            fig8_command(seed, scale),
            Command("campaign-smoke", (
                "campaign", "run", "smoke", "--seed", s,
                "--events-dir", "events", "--out", "smoke.jsonl",
            )),
            Command("telemetry-summarize", (
                "telemetry", "summarize", f"events/smoke-Baseline-seed{s}-seq0.jsonl",
            )),
            Command("fleet-smoke", (
                "fleet", "run", "fleet-smoke", "--seed", s, "--jobs", "2",
                "--out", "fleet.sqlite",
            )),
            Command("replay", ("replay", "smoke.jsonl")),
            Command("store-verify", ("store", "verify", "fleet.sqlite")),
            Command("store-inspect", ("store", "inspect", "fleet.sqlite")),
        ]
    raise KeyError(workload)


def expected_records(workload: str, scale: str) -> Dict[str, int]:
    """Record stores an iteration writes, with the record count each must hold."""
    knobs = SCALES[scale]
    if workload == "paper-fig5":
        return {"fig5.jsonl": FIG5_CELLS_PER_SEQUENCE * knobs["sequences"]}
    if workload == "fleet-chaos-jobs2":
        return {"fleet.sqlite": knobs["shards"]}
    if workload == "cli-turnaround":
        # smoke: 3 systems x 1 sequence; fleet-smoke: 2 shards.
        return {"smoke.jsonl": 3, "fleet.sqlite": 2}
    raise KeyError(workload)
