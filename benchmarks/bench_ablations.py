"""Ablation benches for VersaSlot's design choices.

* **Dual-core decoupling** — the VersaSlot allocation policy run single-
  core (i.e. Nimblock) vs dual-core (VersaSlot-OL): isolates the PR-server
  contribution.
* **Bundle size** — idle sub-slot cycles and batch latency for bundle
  sizes 2/3/4, supporting the paper's choice of 3.
* **Schmitt hysteresis** — switch count on a noisy D_switch sequence with
  and without the buffer zone (T1 = T2 degenerate trigger), showing the
  buffer zone prevents oscillation.
"""

import random

import pytest

from repro.campaign import CampaignRunner, Scenario, group_by_system
from repro.core.bundling import idle_subslot_cycles, parallel_time_ms
from repro.core.switching import SchmittTrigger, SwitchDecision
from repro.experiments.runner import record_to_run_result
from repro.fpga import BoardConfig
from repro.workloads import Condition, WorkloadSpec


def _paired_runs(records, first, second):
    """Per-sequence (first, second) RunResult pairs from campaign records."""
    grouped = group_by_system(records)
    return [
        (record_to_run_result(a), record_to_run_result(b))
        for a, b in zip(grouped[first], grouped[second])
    ]


def test_ablation_dual_core(benchmark, sequence_count):
    """Dual-core decoupling is the Nimblock -> VersaSlot-OL delta."""
    scenario = Scenario(
        name="ablation-dual-core",
        workload=WorkloadSpec(Condition.STRESS, sequence_count=sequence_count),
        systems=("Nimblock", "VersaSlot-OL"),
    )

    records = benchmark.pedantic(
        CampaignRunner().run, args=(scenario,), rounds=1, iterations=1
    )
    pairs = _paired_runs(records, "Nimblock", "VersaSlot-OL")
    gains = [s.responses.mean() / d.responses.mean() for s, d in pairs]
    blocked = [(s.stats.launch_blocked, d.stats.launch_blocked) for s, d in pairs]
    print(f"\nAblation dual-core: mean-response gain per sequence: "
          f"{[f'{g:.2f}x' for g in gains]}")
    print(f"  blocked launches (single -> dual): {blocked}")
    assert all(g > 1.0 for g in gains)
    assert all(d < s for s, d in blocked)


@pytest.mark.parametrize("batch", [5, 15, 30])
def test_ablation_bundle_size(benchmark, batch):
    """Size 3 balances slot granularity against idle sub-slot cycles."""
    rng = random.Random(42)

    def evaluate():
        sizes = {}
        for size in (2, 3, 4):
            idle, latency = 0.0, 0.0
            for _ in range(200):
                times = [rng.uniform(5.0, 80.0) for _ in range(size)]
                idle += idle_subslot_cycles(times, batch)
                latency += parallel_time_ms(times, batch)
            sizes[size] = (idle / 200, latency / 200)
        return sizes

    sizes = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print(f"\nAblation bundle size (batch={batch}):")
    for size, (idle, latency) in sizes.items():
        print(f"  size={size}: idle={idle:9.1f} ms  batch latency={latency:8.1f} ms")
    # Idle waste grows monotonically with bundle size.
    assert sizes[2][0] < sizes[3][0] < sizes[4][0]


def test_ablation_schmitt_hysteresis(benchmark):
    """The buffer zone suppresses oscillation on a noisy metric."""
    rng = random.Random(7)
    noisy = [min(0.99, max(0.001, 0.06 + rng.gauss(0.0, 0.04))) for _ in range(400)]

    def evaluate():
        with_buffer = SchmittTrigger(threshold_up=0.1, threshold_down=0.0125)
        degenerate = SchmittTrigger(threshold_up=0.0626, threshold_down=0.0625)
        for i, value in enumerate(noisy):
            with_buffer.update(float(i), value)
            degenerate.update(float(i), value)
        return with_buffer.switch_count, degenerate.switch_count

    buffered, degenerate = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    print(f"\nAblation hysteresis: buffered switches={buffered}, "
          f"degenerate (T1~T2) switches={degenerate}")
    assert buffered < degenerate
    assert degenerate > 10


def test_ablation_big_little_vs_only_little_boards(benchmark, sequence_count):
    """The Big.Little static layout is the VersaSlot-OL -> -BL delta."""
    scenario = Scenario(
        name="ablation-big-little",
        workload=WorkloadSpec(Condition.STRESS, sequence_count=sequence_count),
        systems=("VersaSlot-OL", "VersaSlot-BL"),
        seeds=(2,),
    )

    records = benchmark.pedantic(
        CampaignRunner().run, args=(scenario,), rounds=1, iterations=1
    )
    pairs = _paired_runs(records, "VersaSlot-OL", "VersaSlot-BL")
    gains = [ol.responses.mean() / bl.responses.mean() for ol, bl in pairs]
    prs = [(ol.stats.pr_count, bl.stats.pr_count) for ol, bl in pairs]
    print(f"\nAblation Big.Little: gains={[f'{g:.2f}x' for g in gains]}  PRs (OL->BL)={prs}")
    assert all(g > 1.0 for g in gains)
    assert all(bl < ol for ol, bl in prs)
