"""Tests for workload generation, traces, and the metrics layer."""

import pytest

from repro.apps import BENCHMARKS
from repro.fpga import ResourceVector
from repro.metrics import (
    ResponseStats,
    bundling_gain,
    format_series,
    format_table,
    geometric_mean,
    ic_detail,
    relative_reduction,
    relative_tail,
    sparkline,
    summarize_runs,
)
from repro.workloads import (
    Arrival,
    BATCH_RANGE,
    Condition,
    WorkloadGenerator,
    dumps,
    loads,
    total_work_ms,
)


class TestWorkloadGenerator:
    def test_sequence_length_and_fields(self):
        arrivals = WorkloadGenerator(1).sequence(Condition.STANDARD, n_apps=20)
        assert len(arrivals) == 20
        for arrival in arrivals:
            assert arrival.app_name in BENCHMARKS
            assert BATCH_RANGE[0] <= arrival.batch_size <= BATCH_RANGE[1]

    def test_arrival_times_monotone(self):
        arrivals = WorkloadGenerator(2).sequence(Condition.STRESS)
        times = [a.time_ms for a in arrivals]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_interval_ranges_respected(self):
        for condition in Condition:
            arrivals = WorkloadGenerator(3).sequence(condition, n_apps=50)
            lo, hi = condition.interval_range
            gaps = [b.time_ms - a.time_ms for a, b in zip(arrivals, arrivals[1:])]
            assert all(lo - 1e-9 <= g <= hi + 1e-9 for g in gaps)

    def test_seeded_determinism(self):
        a = WorkloadGenerator(7).sequence(Condition.STANDARD)
        b = WorkloadGenerator(7).sequence(Condition.STANDARD)
        assert a == b

    def test_different_seeds_differ(self):
        a = WorkloadGenerator(7).sequence(Condition.STANDARD)
        b = WorkloadGenerator(8).sequence(Condition.STANDARD)
        assert a != b

    def test_sequences_are_independent(self):
        seqs = WorkloadGenerator(1).sequences(Condition.STANDARD, count=3)
        assert len(seqs) == 3
        assert seqs[0] != seqs[1]

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            WorkloadGenerator(1, apps=["nope"])

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(1).sequence(Condition.LOOSE, n_apps=0)
        with pytest.raises(ValueError):
            WorkloadGenerator(1).sequence(Condition.LOOSE, batch_range=(0, 5))

    def test_total_work_positive(self):
        arrivals = WorkloadGenerator(1).sequence(Condition.LOOSE, n_apps=5)
        assert total_work_ms(arrivals) > 0


class TestTraceFormat:
    def test_roundtrip(self):
        arrivals = WorkloadGenerator(5).sequence(Condition.STRESS, n_apps=10)
        assert loads(dumps(arrivals)) == arrivals

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            loads("time app batch\n1.0 IC 5")

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            loads("# versaslot-trace v1\n1.0 IC")

    def test_decreasing_time_rejected(self):
        text = "# versaslot-trace v1\n5.0 IC 5\n1.0 AN 5"
        with pytest.raises(ValueError, match="non-decreasing"):
            loads(text)

    def test_file_roundtrip(self, tmp_path):
        from repro.workloads import load, save

        arrivals = WorkloadGenerator(5).sequence(Condition.LOOSE, n_apps=4)
        path = tmp_path / "trace.txt"
        save(arrivals, path)
        assert load(path) == arrivals


class TestResponseStats:
    def test_mean_and_percentiles(self):
        stats = ResponseStats()
        stats.extend(float(i) for i in range(1, 101))
        assert stats.mean() == pytest.approx(50.5)
        assert stats.p95() == pytest.approx(95.05, abs=0.1)
        assert stats.p99() == pytest.approx(99.01, abs=0.1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResponseStats().extend([-1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ResponseStats().mean()

    def test_percentile_range_validated(self):
        stats = ResponseStats([1.0])
        with pytest.raises(ValueError):
            stats.percentile(150.0)

    def test_relative_reduction(self):
        base = ResponseStats([100.0, 100.0])
        system = ResponseStats([50.0, 50.0])
        assert relative_reduction(base, system) == pytest.approx(2.0)

    def test_relative_tail(self):
        base = ResponseStats(list(map(float, range(1, 101))))
        system = ResponseStats([v / 2 for v in base.samples_ms])
        assert relative_tail(base, system, 95.0) == pytest.approx(0.5)

    def test_summarize_runs(self):
        runs = [ResponseStats([10.0, 20.0]), ResponseStats([30.0, 40.0])]
        summary = summarize_runs(runs)
        assert summary["mean_ms"] == pytest.approx(25.0)
        assert summary["samples"] == 4.0

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])
        with pytest.raises(ValueError):
            geometric_mean([])


class TestNumpyFreeParity:
    """The pure-python mean/percentile must be bit-identical to numpy's
    (the fig5 golden pins exact floats; numpy is only the reference
    here, never a runtime dependency).  Sizes straddle numpy's
    pairwise-sum regimes: plain loop (<8), 8-way unrolled block (<=128),
    recursive halving (>128)."""

    def test_fallback_matches_numpy_bit_exact(self):
        np = pytest.importorskip("numpy")
        import random as random_module

        rng = random_module.Random("metrics-parity")
        for n in (1, 2, 7, 8, 9, 100, 127, 128, 129, 300, 1000):
            values = [rng.uniform(0.0, 1e4) for _ in range(n)]
            stats = ResponseStats(list(values))
            assert stats.mean() == float(np.mean(values))
            for q in (0.0, 37.5, 95.0, 99.0, 100.0):
                assert stats.percentile(q) == float(np.percentile(values, q))


class TestUtilizationMetrics:
    def test_bundling_gain_matches_tables(self):
        gain = bundling_gain(BENCHMARKS["IC"])
        assert gain.lut_increase_pct == pytest.approx(42.2, abs=0.3)
        assert gain.ff_increase_pct == pytest.approx(48.0, abs=0.3)

    def test_bundling_gain_requires_bundles(self):
        from repro.apps import ApplicationSpec, TaskSpec

        plain = ApplicationSpec(
            "p", tuple(TaskSpec(f"t{i}", i, 5.0, ResourceVector(0.5, 0.5)) for i in range(2))
        )
        with pytest.raises(ValueError):
            bundling_gain(plain)

    def test_ic_detail(self):
        tasks, mean, bundle = ic_detail(BENCHMARKS["IC"])
        assert tasks == [0.57, 0.38, 0.28]
        assert mean == pytest.approx(0.41, abs=0.005)
        assert bundle == pytest.approx(0.60)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], [10, 20.25]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "2.50" in table
        assert "20.25" in table

    def test_format_table_validates_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series_with_reference(self):
        text = format_series("S", {"x": 2.0}, reference={"x": 3.0})
        assert "paper: 3.00" in text

    def test_sparkline_bounds(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert sparkline([]) == ""

    def test_sparkline_downsamples(self):
        line = sparkline(list(range(200)), width=50)
        assert len(line) == 50
