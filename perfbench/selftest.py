#!/usr/bin/env python3
"""Fast self-test of the benchmark, at tiny scale (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every workload's result line carries exactly the metric names and units
  ``BENCHMARK.json`` declares (end-to-end with ``--trace 0``, per-layer with
  ``--trace 1``), each also printed by name with its unit;
* a deliberately failing command (an unknown fleet scenario) is counted
  as a failed operation, so it shows in ``error_rate``;
* ``fig5_err_pct`` and ``fig8_err_pct`` equal hand-computed values on
  small fixtures.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, Command  # noqa: E402

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def check_result_lines() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(declared[0] == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end matches run.py's metrics")
    expect(declared[1] == run.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer matches run.py's metrics")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json names run.py's workloads")
    cases = [(workload, 0) for workload in WORKLOADS] + [("paper-fig5", 1)]
    for workload, trace in cases:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace),
             "--scale", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        label = f"{workload} --trace {trace}"
        lines = done.stdout.strip().splitlines()
        expect(done.returncode == 0 and bool(lines), f"{label}: exits 0")
        if not lines:
            continue
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{label}: result line has exactly the four result keys")
        expect(result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1, f"{label}: correct, nothing failed")
        metrics = result["metrics"]
        expect({k: v["unit"] for k, v in metrics.items()} == declared[trace],
               f"{label}: every declared metric present with its unit")
        text = "\n".join(lines[:-1])
        expect(all(f" {name} " in text and f" {unit}" in text
                   for name, unit in declared[trace].items()),
               f"{label}: every metric printed by name with its unit")


def check_failure_counted() -> None:
    bad = Command("bad-scenario", ("fleet", "run", "no-such-scenario",
                                   "--out", "bad.sqlite"))
    original = run.script
    run.script = lambda workload, seed, scale: original(workload, seed, scale) + [bad]
    bench = run.Run("paper-fig5", 1, 0.1, 0, "tiny")
    try:
        outcome = bench.execute()
    finally:
        run.script = original
        bench.close()
    iterations = outcome["report"]["iterations"]
    failed_spawns = [reason for _, reason in bench.ledger.failures
                     if "bad-scenario" in reason]
    expect(len(failed_spawns) == 1 + iterations,
           "an unknown scenario fails once per iteration (warm-up included)")
    expect(bench.ledger.failed == len(failed_spawns),
           "nothing but the failing command is counted as failed")
    error_rate = bench.ledger.failed / bench.ledger.attempted
    expect(error_rate > 0, f"error_rate counts it ({error_rate:.4f})")


def check_accuracy_fixtures() -> None:
    import check
    from repro.campaign import RunRecord
    from repro.experiments import PAPER_FIG5

    # One sequence per condition; every system's reduction equals the
    # paper's value except FCFS/Standard at twice it (100 % error) and
    # RR/Loose at half of it (50 % error): (100 + 50) / 20 = 7.5 %.
    records = []
    for condition in ("Loose", "Standard", "Stress", "Real-Time"):
        records.append(RunRecord("fixture", "Baseline", condition, 0, 1, 1,
                                 1.0, response_times_ms=[1000.0]))
        for system, paper in PAPER_FIG5.items():
            reduction = paper[condition]
            if (system, condition) == ("FCFS", "Standard"):
                reduction *= 2
            if (system, condition) == ("RR", "Loose"):
                reduction /= 2
            records.append(RunRecord("fixture", system, condition, 0, 1, 1, 1.0,
                                     response_times_ms=[1000.0 / reduction]))
    value = check.fig5_err_pct(records)
    expect(abs(value - 7.5) < 1e-9, f"fig5_err_pct fixture = 7.5 % (got {value!r})")

    # Switching at half the paper's 2.98x, Only Big.Little exact: 25 %.
    stdout = ("Response reduction vs Only.Little\n"
              "Only.Little      ###### 1.00x\n"
              "Switching        ###### 1.49x  (paper: 2.98x)\n"
              "Only Big.Little  ###### 6.65x  (paper: 6.65x)\n")
    value = check.fig8_err_pct([stdout])
    expect(abs(value - 25.0) < 1e-9, f"fig8_err_pct fixture = 25 % (got {value!r})")


def main() -> int:
    check_accuracy_fixtures()
    check_failure_counted()
    check_result_lines()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
