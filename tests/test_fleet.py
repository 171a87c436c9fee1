"""The fleet subsystem: routing, workloads, sharded execution, rollups.

The load-bearing property throughout is *cross-process determinism*: the
dispatch plan is a pure function of (stream, shards, policy, seed), so the
serial backend, the multiprocessing backend and any verify worker all see
bit-identical per-shard work.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import reset_instance_ids
from repro.campaign.backend import SerialBackend
from repro.campaign.results import load_records
from repro.chaos import FaultSchedule
from repro.cli import main
from repro.fleet import (
    ADMISSION_BATCH,
    FLEET_SCENARIOS,
    Fleet,
    FleetScenario,
    FleetWorkload,
    get_fleet_scenario,
    get_policy,
    load_imbalance,
    policy_names,
    stable_digest,
    supervised_partition,
)
from repro.fleet.workload import FLEET_WORKLOAD_KINDS
from repro.sim import SeededStreams
from repro.telemetry.bus import TelemetryBus, TelemetrySink
from repro.verify import DifferentialOracle, FuzzCase, cases_from_fleet_scenario, shrink_case
from repro.workloads import Condition

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


def smoke_stream(n_apps=12, condition=Condition.STRESS, kind="uniform"):
    return FleetWorkload(kind=kind, condition=condition, n_apps=n_apps).arrivals(1)


def fault_free_plan(arrivals, n_shards, policy, seed):
    return supervised_partition(
        arrivals, n_shards, policy, seed, FaultSchedule()
    ).streams


# ----------------------------------------------------------------------
# Routing policies
# ----------------------------------------------------------------------
class TestRouting:
    def test_stable_digest_is_pinned(self):
        """Freeze the digest: the ring layout and every persisted fleet
        artifact depend on it."""
        assert stable_digest("app/IC") == 4371189670463695966
        assert stable_digest("") != stable_digest("x")

    def test_consistent_hash_keys_by_app(self):
        arrivals = smoke_stream(24)
        shards = fault_free_plan(arrivals, 4, "hash", seed=1)
        app_to_shard = {}
        for shard, sub in enumerate(shards):
            for arrival in sub:
                assert app_to_shard.setdefault(arrival.app_name, shard) == shard

    def test_consistent_hash_remaps_a_fraction_on_scale_out(self):
        arrivals = smoke_stream(24)
        four = fault_free_plan(arrivals, 4, "hash", seed=1)
        five = fault_free_plan(arrivals, 5, "hash", seed=1)

        def shard_of(plan):
            return {
                arrival.app_name: shard
                for shard, sub in enumerate(plan)
                for arrival in sub
            }

        before, after = shard_of(four), shard_of(five)
        moved = sum(1 for app in before if after[app] != before[app])
        assert moved < len(before)  # most keys stay put

    def test_least_loaded_balances_estimated_work(self):
        arrivals = smoke_stream(32)
        balanced = load_imbalance(
            fault_free_plan(arrivals, 4, "least-loaded", seed=1)
        )
        hashed = load_imbalance(fault_free_plan(arrivals, 4, "hash", seed=1))
        assert balanced <= hashed
        assert balanced < 1.5

    def test_p2c_draws_from_seeded_streams(self):
        arrivals = smoke_stream(16)
        first = fault_free_plan(arrivals, 3, "p2c", seed=5)
        second = fault_free_plan(arrivals, 3, "p2c", seed=5)
        assert first == second
        assert fault_free_plan(arrivals, 3, "p2c", seed=6) != first

    def test_partition_is_exact_and_order_preserving(self):
        arrivals = smoke_stream(20)
        for policy in policy_names():
            shards = fault_free_plan(arrivals, 3, policy, seed=2)
            flat = [arrival for sub in shards for arrival in sub]
            assert sorted(flat, key=lambda a: a.time_ms) == arrivals
            for sub in shards:
                assert [a.time_ms for a in sub] == sorted(a.time_ms for a in sub)

    def test_unknown_policy_names_alternatives(self):
        with pytest.raises(KeyError, match="least-loaded"):
            get_policy("round-robin", 2, SeededStreams(1))

    def test_admission_batching_freezes_snapshots(self):
        """Within one admission batch, least-loaded routes against the
        batch-start snapshot (stale loads), not per-arrival accounting."""
        arrivals = smoke_stream(ADMISSION_BATCH)
        shards = fault_free_plan(arrivals, 2, "least-loaded", seed=1)
        # Snapshot all-zero for the whole first batch: ties go to shard 0.
        assert len(shards[0]) == ADMISSION_BATCH
        assert shards[1] == []

    def test_partition_stable_across_hash_randomization(self):
        """The front-end reproduces the identical dispatch plan in fresh
        interpreters regardless of PYTHONHASHSEED (the spawn regression)."""
        script = (
            "from repro.chaos import FaultSchedule\n"
            "from repro.fleet import supervised_partition\n"
            "from repro.fleet.workload import FleetWorkload\n"
            "from repro.workloads import Condition\n"
            "s = FleetWorkload(kind='hot-skew', condition=Condition.STRESS,"
            " n_apps=16).arrivals(3)\n"
            "for policy in ('hash', 'least-loaded', 'p2c'):\n"
            "    plan = supervised_partition("
            "s, 3, policy, 3, FaultSchedule()).streams\n"
            "    print(policy, [[a.app_name for a in sub] for sub in plan])\n"
        )
        outputs = set()
        for hashseed in ("0", "77", "random"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


# ----------------------------------------------------------------------
# Pinned fault-free plans
# ----------------------------------------------------------------------
#: sha256 prefixes of (per-shard streams, admission-event log) of the
#: fault-free plan of a 240-arrival uniform STRESS stream, keyed by
#: (policy, seed, shards).  Recorded from the frozen batch front-end that
#: planned fault-free fleets before the supervisor became the only
#: admission path; any drift in routing decisions, RNG draws, the
#: admission batch or event emission changes a digest.
FAULT_FREE_PLAN_DIGESTS = {
    ('hash', 1, 1): ('bc796e7ba879edc4', '5a2411f5dd4ab3b3'),
    ('hash', 1, 4): ('49fd1be03ad9a4aa', 'ac1f9068681939ac'),
    ('hash', 1, 16): ('e985540062352067', 'c4a725f478823e6e'),
    ('hash', 7, 1): ('bf722dfe7f24d6ec', '68c90a6953e57d79'),
    ('hash', 7, 4): ('82410583eeeff116', 'aed1c20db5f398cb'),
    ('hash', 7, 16): ('8d4b1d9c0f84b5ba', 'b1a0daff98ff1e48'),
    ('hash', 42, 1): ('657878d59f509996', '4a814c88b473eea4'),
    ('hash', 42, 4): ('b955e169fdcdcc5f', 'c86832d2c639cf5b'),
    ('hash', 42, 16): ('a1ed85a50770b17e', '39a5cf020de780bb'),
    ('least-loaded', 1, 1): ('bc796e7ba879edc4', '5a2411f5dd4ab3b3'),
    ('least-loaded', 1, 4): ('bc0d10627b2207b6', 'd788098dcd44344e'),
    ('least-loaded', 1, 16): ('4fa7c3ead8db1486', '852ff7fde5c83d8c'),
    ('least-loaded', 7, 1): ('bf722dfe7f24d6ec', '68c90a6953e57d79'),
    ('least-loaded', 7, 4): ('51f6ea8f2b81997e', '1a7aacf460545733'),
    ('least-loaded', 7, 16): ('1f2e7d063df26891', 'b9a0198ea9e10eec'),
    ('least-loaded', 42, 1): ('657878d59f509996', '4a814c88b473eea4'),
    ('least-loaded', 42, 4): ('536f333bee01a3cd', '4ea08f2526ee247a'),
    ('least-loaded', 42, 16): ('d6c361e7264c2545', 'b0ad6aab389fb1fc'),
    ('p2c', 1, 1): ('bc796e7ba879edc4', '5a2411f5dd4ab3b3'),
    ('p2c', 1, 4): ('2ee87aa7af0213e3', '12ac6c671d952651'),
    ('p2c', 1, 16): ('ab78b65f4425c5df', '89d38d4624169950'),
    ('p2c', 7, 1): ('bf722dfe7f24d6ec', '68c90a6953e57d79'),
    ('p2c', 7, 4): ('4f62f6f6f48faeca', 'e5e132de3bdb5c6d'),
    ('p2c', 7, 16): ('4288476f822405d6', 'b3d16874d009ba87'),
    ('p2c', 42, 1): ('657878d59f509996', '4a814c88b473eea4'),
    ('p2c', 42, 4): ('bf3adc6926c38c33', '2646c4eb766dfbb5'),
    ('p2c', 42, 16): ('226a48004997663a', '8c99dd60f27bac5b'),
}


class _AdmissionLog(TelemetrySink):
    kinds = ("admission",)

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)


def _sha16(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestFaultFreePlanPins:
    @pytest.mark.parametrize("key", sorted(FAULT_FREE_PLAN_DIGESTS))
    def test_plan_and_admission_log_match_pinned_digests(self, key):
        policy, seed, n_shards = key
        arrivals = FleetWorkload(
            kind="uniform", condition=Condition.STRESS, n_apps=240
        ).arrivals(seed)
        bus = TelemetryBus()
        log = bus.attach(_AdmissionLog())
        plan = supervised_partition(
            arrivals, n_shards, policy, seed, FaultSchedule(), telemetry=bus
        )
        streams = _sha16(
            f"{shard}|{a.app_name}|{a.batch_size}|{a.time_ms!r}"
            for shard, sub in enumerate(plan.streams)
            for a in sub
        )
        events = _sha16(
            f"{e.time_ms!r}|{e.app}|{e.batch}|{e.shard}" for e in log.events
        )
        assert (streams, events) == FAULT_FREE_PLAN_DIGESTS[key]
        assert plan.served_count == len(arrivals)
        assert plan.events == log.events


# ----------------------------------------------------------------------
# Fleet workload families
# ----------------------------------------------------------------------
class TestFleetWorkloads:
    @pytest.mark.parametrize("kind", FLEET_WORKLOAD_KINDS)
    def test_streams_are_well_formed_and_deterministic(self, kind):
        workload = FleetWorkload(kind=kind, condition=Condition.STANDARD, n_apps=20)
        stream = workload.arrivals(7)
        assert stream == workload.arrivals(7)
        assert stream != workload.arrivals(8)
        assert len(stream) == 20
        times = [arrival.time_ms for arrival in stream]
        assert times == sorted(times)
        assert times[0] == 0.0
        lo, hi = workload.batch_range
        assert all(lo <= arrival.batch_size <= hi for arrival in stream)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet workload kind"):
            FleetWorkload(kind="tsunami")

    def test_hot_skew_concentrates_popularity(self):
        stream = FleetWorkload(
            kind="hot-skew", condition=Condition.STRESS, n_apps=60
        ).arrivals(1)
        counts = {}
        for arrival in stream:
            counts[arrival.app_name] = counts.get(arrival.app_name, 0) + 1
        top = max(counts.values())
        assert top > 60 / len(counts) * 1.5  # visibly above uniform share

    def test_diurnal_rate_varies(self):
        stream = FleetWorkload(
            kind="diurnal", condition=Condition.STANDARD, n_apps=40
        ).arrivals(1)
        gaps = [b.time_ms - a.time_ms for a, b in zip(stream, stream[1:])]
        assert max(gaps) > 2 * min(gap for gap in gaps if gap > 0)

    def test_multi_tenant_mixes_regimes(self):
        stream = FleetWorkload(
            kind="multi-tenant", condition=Condition.STANDARD, n_apps=30
        ).arrivals(1)
        assert len(stream) == 30
        gaps = [b.time_ms - a.time_ms for a, b in zip(stream, stream[1:])]
        # Stress-tenant gaps (~175 ms) and loose-tenant gaps (5000 ms)
        # both appear in the merged stream.
        assert min(gaps) < 1000 < max(gaps)


# ----------------------------------------------------------------------
# Scenarios and the Fleet orchestrator
# ----------------------------------------------------------------------
class TestFleetScenarios:
    def test_builtins_are_registered(self):
        assert {"fleet-smoke", "fleet-diurnal", "fleet-bursty",
                "fleet-hot-shard", "fleet-multi-tenant"} <= set(FLEET_SCENARIOS)

    def test_validation(self):
        workload = FleetWorkload()
        with pytest.raises(KeyError, match="unknown system"):
            FleetScenario("x", "NoSuch", 2, "hash", workload)
        with pytest.raises(KeyError, match="unknown routing policy"):
            FleetScenario("x", "FCFS", 2, "warp", workload)
        with pytest.raises(ValueError, match=">= 1 shard"):
            FleetScenario("x", "FCFS", 0, "hash", workload)

    def test_scaled_overrides_shape(self):
        scenario = get_fleet_scenario("fleet-smoke").scaled(
            n_shards=3, n_apps=6, seeds=(9,)
        )
        assert scenario.n_shards == 3
        assert scenario.workload.n_apps == 6
        assert scenario.seeds == (9,)
        assert scenario.cell_count() == 3


class TestFleetExecution:
    def test_serial_and_parallel_records_are_bit_identical(self):
        """The acceptance criterion: a >= 4-shard fleet produces identical
        per-shard and global aggregates on both backends."""
        scenario = get_fleet_scenario("fleet-hot-shard")
        assert scenario.n_shards >= 4
        fleet = Fleet(scenario)
        serial = fleet.run(jobs=1)
        parallel = fleet.run(jobs=2)
        assert [r.to_dict() for r in serial.records] == [
            r.to_dict() for r in parallel.records
        ]
        assert serial.rollup.table() == parallel.rollup.table()

    def test_records_are_tagged_per_shard(self, tmp_path):
        store = tmp_path / "fleet.jsonl"
        result = Fleet(get_fleet_scenario("fleet-smoke")).run(store=store)
        assert [r.shard for r in result.records] == [0, 1]
        loaded = load_records(store)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in result.records]
        assert all(r.condition == "Stress" for r in loaded)

    def test_shards_union_to_the_global_stream(self):
        scenario = get_fleet_scenario("fleet-smoke")
        fleet = Fleet(scenario)
        plan = fleet.shard_plan(scenario.seeds[0])
        flat = sorted(
            (a for sub in plan for a in sub), key=lambda a: a.time_ms
        )
        assert flat == scenario.workload.arrivals(scenario.seeds[0])

    def test_rollup_is_conserving(self):
        scenario = get_fleet_scenario("fleet-smoke")
        result = Fleet(scenario).run()
        rollup = result.rollup
        assert rollup.overall.n_apps == scenario.workload.n_apps * len(scenario.seeds)
        assert rollup.overall.n_apps == sum(r.n_apps for r in rollup.per_shard)
        assert rollup.overall.pr_count == sum(r.pr_count for r in rollup.per_shard)
        assert rollup.imbalance >= 1.0
        assert "fleet-smoke" in rollup.table()

    def test_both_kernels_produce_identical_shard_records(self):
        fleet = Fleet(get_fleet_scenario("fleet-smoke"))
        optimized = SerialBackend().run(fleet.cells(kernel="optimized"))
        reference = SerialBackend().run(fleet.cells(kernel="reference"))
        assert [r.to_dict() for r in optimized] == [r.to_dict() for r in reference]

    def test_empty_shard_records_are_benign(self):
        """A shard the router starved records 0 apps and makespan 0."""
        scenario = get_fleet_scenario("fleet-diurnal")
        result = Fleet(scenario).run()
        empty = [r for r in result.records if r.n_apps == 0]
        for record in empty:
            assert record.makespan_ms == 0.0
            assert record.response_times_ms == []
            assert record.utilization["elapsed_ms"] == 0.0


# ----------------------------------------------------------------------
# Verify-layer integration
# ----------------------------------------------------------------------
class TestFleetVerify:
    def test_oracle_passes_on_every_shard_of_a_fleet_scenario(self):
        oracle = DifferentialOracle()
        cases = cases_from_fleet_scenario(get_fleet_scenario("fleet-smoke"))
        assert len(cases) == 2
        for case in cases:
            report = oracle.check(case.system, case.arrivals(), case.params())
            assert report.ok, report.summary()

    def test_fleet_cases_match_fleet_cells(self):
        """verify --scenario fleet-X checks exactly what fleet run X runs."""
        scenario = get_fleet_scenario("fleet-smoke")
        cases = cases_from_fleet_scenario(scenario)
        cells = Fleet(scenario).cells()
        assert len(cases) == len(cells)
        for case, cell in zip(cases, cells):
            assert case.arrivals() == list(cell.arrivals)
            assert case.shard == cell.shard

    def test_fleet_case_round_trips_through_json(self):
        case = FuzzCase(
            case_id=0, system="FCFS", condition="STRESS", n_apps=8,
            batch_lo=2, batch_hi=6, seed=3, n_shards=3, policy="p2c",
            shard=2, fleet_kind="bursty",
        )
        payload = json.loads(json.dumps(case.to_dict()))
        assert FuzzCase.from_dict(payload) == case

    def test_shard_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FuzzCase(
                case_id=0, system="FCFS", condition="STRESS", n_apps=4,
                batch_lo=1, batch_hi=2, seed=1, n_shards=2, shard=2,
            )

    def test_shrinking_drops_the_fleet_wrapping_first(self):
        case = FuzzCase(
            case_id=0, system="FCFS", condition="STRESS", n_apps=6,
            batch_lo=1, batch_hi=4, seed=1, n_shards=4, policy="p2c",
            shard=3, fleet_kind="bursty",
        )
        shrunk, _ = shrink_case(case, lambda c: True, budget=32)
        assert not shrunk.is_fleet
        assert shrunk.n_apps == 1

    def test_shrinking_can_keep_fleet_but_simplify_it(self):
        case = FuzzCase(
            case_id=0, system="FCFS", condition="LOOSE", n_apps=1,
            batch_lo=2, batch_hi=2, seed=1, n_shards=4, policy="p2c",
            shard=3, fleet_kind="bursty",
        )
        shrunk, _ = shrink_case(
            case, lambda c: c.is_fleet, budget=32
        )
        assert shrunk.is_fleet
        assert shrunk.n_shards == 2
        assert shrunk.shard == 0
        assert shrunk.fleet_kind == "uniform"
        assert shrunk.policy == "hash"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFleetCLI:
    def test_fleet_list(self, capsys):
        assert main(["fleet", "list"]) == 0
        out = capsys.readouterr().out
        assert "fleet-diurnal" in out
        assert "least-loaded" in out

    def test_fleet_run_persists_and_reports(self, capsys, tmp_path):
        store = tmp_path / "smoke.jsonl"
        code = main(["fleet", "run", "fleet-smoke", "--out", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet fleet-smoke" in out
        assert "shard0" in out and "shard1" in out
        assert store.exists()
        capsys.readouterr()
        assert main(["campaign", "replay", str(store)]) == 0
        assert "fleet-smoke" in capsys.readouterr().out

    def test_fleet_run_resume_on_a_fresh_path(self, capsys, tmp_path):
        # --resume before any record exists runs every shard and writes
        # the same file as a run without it.
        plain, fresh = tmp_path / "plain.jsonl", tmp_path / "fresh.jsonl"
        assert main(["fleet", "run", "fleet-smoke", "--out", str(plain)]) == 0
        assert main([
            "fleet", "run", "fleet-smoke", "--out", str(fresh), "--resume",
        ]) == 0
        assert "already persisted" not in capsys.readouterr().out
        assert fresh.read_bytes() == plain.read_bytes()

    def test_fleet_run_scaling_flags(self, capsys, tmp_path):
        store = tmp_path / "scaled.jsonl"
        code = main([
            "fleet", "run", "fleet-smoke", "--shards", "3",
            "--apps", "6", "--seed", "2", "--out", str(store),
        ])
        assert code == 0
        records = load_records(store)
        assert len(records) == 3
        assert sum(r.n_apps for r in records) == 6
        assert all(r.seed == 2 for r in records)

    def test_fleet_run_unknown_scenario_is_operator_error(self, capsys):
        assert main(["fleet", "run", "missing"]) == 2
        assert "unknown fleet scenario" in capsys.readouterr().err

    def test_verify_sweeps_fleet_scenarios(self, capsys, tmp_path):
        code = main([
            "verify", "--scenario", "fleet-smoke",
            "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet-smoke" in out
        assert "shard 0/2" in out and "shard 1/2" in out
        assert "bit-identical" in out

    def test_verify_fuzz_accepts_fleet_scenario(self, capsys, tmp_path):
        code = main([
            "verify", "--fuzz", "3", "--seed", "1",
            "--scenario", "fleet-smoke", "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet" in out
        assert "all 3 cases bit-identical" in out
