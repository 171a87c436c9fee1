"""The ``repro bench`` harness: trajectory file, baseline gate, CLI wiring."""

import json

import pytest

from repro import bench
from repro.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def quick_args(tmp_path):
    """Fast harness invocation: one round, only the cheapest benchmark."""
    out = tmp_path / "BENCH_kernel.json"
    return out, [
        "bench", "--quick", "--rounds", "1",
        "--only", "kernel_event_throughput",
        "--out", str(out),
    ]


class TestHarness:
    def test_run_benches_measures_registered_names(self):
        results = bench.run_benches(
            quick=True, rounds=1, names=["kernel_event_throughput"]
        )
        assert [r.name for r in results] == ["kernel_event_throughput"]
        result = results[0]
        assert result.unit == "events"
        assert result.units_per_iter == 5000
        assert result.best_s > 0
        assert result.throughput > 0

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            bench.run_benches(names=["bogus"])

    def test_quick_excludes_slow_benches(self):
        quick_names = {
            spec.name for spec in bench.BENCHES if spec.quick
        }
        assert "fig5_micro" not in quick_names
        assert "kernel_event_throughput" in quick_names

    def test_only_overrides_quick_selection(self):
        # An explicitly named benchmark runs even when --quick would
        # normally exclude it (quick still shortens rounds).
        results = bench.run_benches(quick=True, rounds=1, names=["fig5_micro"])
        assert [r.name for r in results] == ["fig5_micro"]


class TestTrajectoryFile:
    def test_append_creates_and_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_kernel.json"
        results = bench.run_benches(
            quick=True, rounds=1, names=["kernel_event_throughput"]
        )
        bench.append_entry(path, bench.make_entry(results, note="one", quick=True))
        data = bench.append_entry(
            path, bench.make_entry(results, note="two", quick=True)
        )
        assert data["schema"] == bench.BENCH_SCHEMA
        notes = [entry["note"] for entry in data["history"]]
        assert notes == ["one", "two"]
        on_disk = json.loads(path.read_text())
        assert on_disk == data
        entry = on_disk["history"][-1]
        assert "kernel_event_throughput" in entry["results"]
        assert entry["results"]["kernel_event_throughput"]["throughput"] > 0

    def test_malformed_trajectory_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other", "history": []}')
        with pytest.raises(ValueError, match="trajectory"):
            bench.load_trajectory(path)


class TestBaselineGate:
    def _entry_with_throughput(self, name, throughput):
        return {
            "note": "synthetic", "quick": True,
            "results": {name: {"throughput": throughput, "unit": "events"}},
        }

    def _result(self, name, throughput):
        return bench.BenchResult(
            name=name, unit="events", units_per_iter=1000, iters=1,
            rounds=1, best_s=1000 / throughput, mean_s=1000 / throughput,
        )

    def test_within_tolerance_passes(self):
        baseline = self._entry_with_throughput("k", 1000.0)
        failures = bench.compare_to_baseline(
            [self._result("k", 800.0)], baseline, max_regression=0.30
        )
        assert failures == []

    def test_large_regression_fails(self):
        baseline = self._entry_with_throughput("k", 1000.0)
        failures = bench.compare_to_baseline(
            [self._result("k", 600.0)], baseline, max_regression=0.30
        )
        assert len(failures) == 1
        assert "k:" in failures[0]

    def test_unknown_benchmarks_ignored(self):
        baseline = self._entry_with_throughput("other", 1000.0)
        failures = bench.compare_to_baseline(
            [self._result("k", 1.0)], baseline, max_regression=0.30
        )
        assert failures == []


class TestCLI:
    def test_bench_writes_trajectory(self, quick_args, capsys):
        out, argv = quick_args
        assert run_cli(*argv) == 0
        data = json.loads(out.read_text())
        assert len(data["history"]) == 1
        assert "kernel_event_throughput" in data["history"][0]["results"]
        assert "appended entry #1" in capsys.readouterr().out

    def test_bench_gates_against_baseline(self, quick_args, tmp_path, capsys):
        out, argv = quick_args
        # Record a first entry, then gate a second run against it: the
        # same machine moments apart is comfortably inside 30%.
        assert run_cli(*argv) == 0
        assert run_cli(*argv, "--baseline", str(out)) == 0
        assert "no regression" in capsys.readouterr().out
        # An inflated synthetic baseline must fail the gate (exit 1).
        inflated = tmp_path / "inflated.json"
        data = json.loads(out.read_text())
        entry = data["history"][-1]
        entry["results"]["kernel_event_throughput"]["throughput"] *= 100
        inflated.write_text(json.dumps({"schema": bench.BENCH_SCHEMA,
                                        "history": [entry]}))
        assert run_cli(*argv, "--baseline", str(inflated)) == 1
        assert "throughput regression" in capsys.readouterr().err

    def test_no_write_leaves_trajectory_alone(self, quick_args):
        out, argv = quick_args
        assert run_cli(*argv, "--no-write") == 0
        assert not out.exists()

    def test_missing_baseline_is_an_operator_error(self, quick_args, tmp_path):
        out, argv = quick_args
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema": bench.BENCH_SCHEMA, "history": []}))
        assert run_cli(*argv, "--baseline", str(empty)) == 2

    def test_unknown_only_is_an_operator_error(self, tmp_path):
        assert run_cli(
            "bench", "--only", "bogus", "--no-write",
            "--out", str(tmp_path / "x.json"),
        ) == 2


class TestRoundsMismatchRefusal:
    def _entry(self, name, throughput, rounds):
        return {
            "note": "synthetic", "quick": True,
            "results": {name: {
                "throughput": throughput, "unit": "events", "rounds": rounds,
            }},
        }

    def _result(self, name, rounds):
        return bench.BenchResult(
            name=name, unit="events", units_per_iter=1000, iters=1,
            rounds=rounds, best_s=1.0, mean_s=1.0,
        )

    def test_mismatched_rounds_reported(self):
        mismatches = bench.rounds_mismatches(
            [self._result("k", 2)], self._entry("k", 1000.0, 12)
        )
        assert len(mismatches) == 1
        assert "--rounds 12" in mismatches[0]

    def test_matching_rounds_pass(self):
        assert bench.rounds_mismatches(
            [self._result("k", 12)], self._entry("k", 1000.0, 12)
        ) == []

    def test_legacy_entries_without_rounds_pass(self):
        # Pre-refusal trajectory entries lack per-result rounds; they
        # stay comparable (the loose ratio gate is all we have for them).
        entry = self._entry("k", 1000.0, 12)
        del entry["results"]["k"]["rounds"]
        assert bench.rounds_mismatches([self._result("k", 2)], entry) == []

    def test_cli_refuses_mismatched_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernel.json"
        argv = ["bench", "--quick", "--only", "kernel_event_throughput",
                "--out", str(out)]
        assert run_cli(*argv, "--rounds", "2") == 0
        assert run_cli(*argv, "--rounds", "1", "--no-write",
                       "--baseline", str(out)) == 2
        assert "round-count mismatch" in capsys.readouterr().err

    def test_cli_refusal_never_appends(self, tmp_path):
        # A refused comparison must not record its off-protocol
        # measurement: the trajectory would accumulate entries no later
        # gate could use.
        out = tmp_path / "BENCH_kernel.json"
        argv = ["bench", "--quick", "--only", "kernel_event_throughput",
                "--out", str(out)]
        assert run_cli(*argv, "--rounds", "2") == 0
        before = out.read_bytes()
        assert run_cli(*argv, "--rounds", "1", "--baseline", str(out)) == 2
        assert out.read_bytes() == before


class TestCampaignPayloads:
    def test_new_payloads_registered(self):
        names = {spec.name for spec in bench.BENCHES}
        assert {"campaign_cell_overhead", "fleet_short_cells"} <= names
        compare_names = {name for name, _ in bench.COMPARE_BENCHES}
        assert {"campaign_cell_overhead", "fleet_short_cells"} <= compare_names
        assert bench.COMPARE_FLOORS["campaign_cell_overhead"] >= 0.8
        assert bench.COMPARE_FLOORS["fleet_short_cells"] >= 0.8

    def test_campaign_cell_overhead_counts_cells(self):
        assert bench._bench_campaign_cell_overhead() == 12

    def test_fleet_short_cells_counts_cells(self):
        assert bench._bench_fleet_short_cells() > 0

    def test_kernel_name_round_trips_registry_factories(self):
        from repro.sim import Engine
        from repro.verify.reference import ReferenceEngine

        assert bench._kernel_name(None) == "default"
        assert bench._kernel_name(Engine) == "optimized"
        assert bench._kernel_name(ReferenceEngine) == "reference"
        with pytest.raises(KeyError):
            bench._kernel_name(object)

    def test_compare_result_records_rounds(self):
        results = bench.run_compare("optimized", "reference", rounds=1)
        assert results and all(r.rounds == 1 for r in results)
        table = bench.format_compare_table(results)
        assert "1 rounds" in table


class TestProfileMode:
    def test_profile_writes_report(self, tmp_path):
        reports = bench.run_profile(
            names=["kernel_event_throughput"], out_dir=str(tmp_path)
        )
        assert len(reports) == 1
        name, path, top_text = reports[0]
        assert name == "kernel_event_throughput"
        assert path == tmp_path / "profile_kernel_event_throughput.txt"
        full = path.read_text()
        assert "cumulative" in full
        # The terminal summary leads with the hotspot column header.
        assert top_text.lstrip().startswith("ncalls")
        assert "_bench_event_throughput" in top_text

    def test_profile_cli_is_side_effect_free(self, tmp_path, capsys):
        out = tmp_path / "BENCH_kernel.json"
        assert run_cli(
            "bench", "--profile", "--only", "kernel_event_throughput",
            "--profile-dir", str(tmp_path / "profiles"), "--out", str(out),
        ) == 0
        captured = capsys.readouterr()
        assert "profiled 1 payload(s)" in captured.out
        assert not out.exists()  # profiling never touches the trajectory
        assert (tmp_path / "profiles"
                / "profile_kernel_event_throughput.txt").exists()

    def test_profile_unknown_name_is_an_operator_error(self, tmp_path):
        assert run_cli(
            "bench", "--profile", "--only", "bogus",
            "--profile-dir", str(tmp_path),
        ) == 2
