"""Wheel-as-default regression suite.

PR 10 promoted the bucketed timing-wheel kernel to the production
default for ``simulate_run``, campaigns, the fleet, and fuzzing.  The
promotion is only legal because the wheel is bit-identical to the heap
kernel by construction; this suite pins that contract:

* the default engine registry entries actually name the wheel;
* a default ``simulate_run`` matches an explicit heap run sample for
  sample;
* the default verify sweep diffs reference vs wheel vs heap with the
  wheel as the candidate-of-record;
* the worker-resident arrival-sequence cache (cell reuse) is invisible:
  cold-start and warm-cache campaigns, serial and parallel, produce
  byte-identical records over a 25-seed mini-fuzz.
"""

import json

from repro.campaign.backend import (
    _SEQUENCE_CACHE,
    CampaignCell,
    SerialBackend,
    make_backend,
    simulate_run,
)
from repro.config import DEFAULT_PARAMETERS
from repro.sim import DEFAULT_ENGINE, Engine, WheelEngine
from repro.verify.cli import DEFAULT_KERNELS
from repro.verify.oracle import DifferentialOracle
from repro.verify.reference import KERNELS
from repro.workloads import Condition, WorkloadGenerator, WorkloadSpec


class TestDefaultRegistry:
    def test_default_engine_is_the_wheel(self):
        assert DEFAULT_ENGINE is WheelEngine
        assert KERNELS["default"] is WheelEngine

    def test_heap_stays_selectable(self):
        assert KERNELS["heap"] is Engine
        assert KERNELS["optimized"] is Engine

    def test_default_cell_kernel_resolves_to_default_engine(self):
        cell = CampaignCell(
            scenario="t", system="FCFS", sequence_index=0, seed=0,
            params=DEFAULT_PARAMETERS,
            workload=WorkloadSpec(condition=Condition.LOOSE, n_apps=1),
        )
        assert cell.kernel == "default"
        assert cell.engine_factory() is None  # None = DEFAULT_ENGINE


class TestGoldenParity:
    def test_default_simulate_run_matches_explicit_heap(self):
        arrivals = WorkloadGenerator(3).sequence(Condition.STRESS, n_apps=6)
        default = simulate_run("VersaSlot-BL", arrivals)
        heap = simulate_run("VersaSlot-BL", arrivals, engine_factory=Engine)
        assert default.stats.response_times_ms() == heap.stats.response_times_ms()
        assert default.makespan_ms == heap.makespan_ms
        assert default.stats.completions == heap.stats.completions
        assert default.stats.pr_count == heap.stats.pr_count
        assert default.stats.launches == heap.stats.launches


class TestDefaultVerifySweep:
    def test_wheel_is_the_candidate_of_record(self):
        assert DEFAULT_KERNELS[0] == "wheel"
        assert "optimized" in DEFAULT_KERNELS

    def test_kernel_help_names_the_defaults(self):
        """The parser spells the defaults out so startup never imports
        the verify package; this keeps the two in step."""
        from repro.cli import build_parser

        parser = build_parser()
        verify = parser._subparsers._group_actions[0].choices["verify"]
        (kernel,) = [a for a in verify._actions if "--kernel" in a.option_strings]
        assert f"default: {' and '.join(DEFAULT_KERNELS)})" in kernel.help

    def test_three_way_oracle_is_green_with_wheel_headline(self):
        arrivals = WorkloadGenerator(5).sequence(Condition.STANDARD, n_apps=4)
        oracle = DifferentialOracle(kernels=DEFAULT_KERNELS)
        report = oracle.check("VersaSlot-BL", arrivals, DEFAULT_PARAMETERS)
        assert report.ok, report.summary()
        # ``report.optimized`` (the headline fingerprint) is the wheel.
        assert report.optimized.kernel == "wheel"
        assert [fp.kernel for fp in report.candidates] == ["wheel", "optimized"]


def _mini_fuzz_cells():
    """25 seeds x 2 systems over one shared spec (the cell-reuse shape)."""
    spec = WorkloadSpec(condition=Condition.LOOSE, n_apps=2, sequence_count=1)
    return [
        CampaignCell(
            scenario="mini-fuzz", system=system, sequence_index=0, seed=seed,
            params=DEFAULT_PARAMETERS, workload=spec,
        )
        for seed in range(25)
        for system in ("Baseline", "VersaSlot-BL")
    ]


def _record_bytes(records):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in records]


class TestCellReuse:
    def test_cold_start_and_warm_cache_are_bit_identical(self):
        _SEQUENCE_CACHE.clear()
        cold = SerialBackend().run(_mini_fuzz_cells())
        assert _SEQUENCE_CACHE  # the run populated the cache...
        warm = SerialBackend().run(_mini_fuzz_cells())  # ...and reuses it
        assert _record_bytes(cold) == _record_bytes(warm)

    def test_serial_and_parallel_are_bit_identical_with_reuse(self):
        cells = _mini_fuzz_cells()
        serial = SerialBackend().run(cells)
        parallel = make_backend(2).run(cells)
        assert _record_bytes(serial) == _record_bytes(parallel)

    def test_cache_is_keyed_by_value_not_identity(self):
        _SEQUENCE_CACHE.clear()
        spec_a = WorkloadSpec(condition=Condition.LOOSE, n_apps=2)
        spec_b = WorkloadSpec(condition=Condition.LOOSE, n_apps=2)
        assert spec_a is not spec_b
        cell_a = CampaignCell(
            scenario="t", system="FCFS", sequence_index=0, seed=7,
            params=DEFAULT_PARAMETERS, workload=spec_a,
        )
        cell_b = CampaignCell(
            scenario="t", system="FCFS", sequence_index=0, seed=7,
            params=DEFAULT_PARAMETERS, workload=spec_b,
        )
        first = cell_a.resolve_arrivals()
        assert len(_SEQUENCE_CACHE) == 1
        second = cell_b.resolve_arrivals()
        # Equal specs share one entry: the fingerprint is the spec's
        # value, never its id().
        assert len(_SEQUENCE_CACHE) == 1
        assert first == second
