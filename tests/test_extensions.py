"""Tests for the extension modules: RNG streams, plots, phased workloads,
PCAP fault injection, ablation flags, CLI, Algorithm-2 introspection."""

import pytest

from repro.apps import ApplicationInstance, BENCHMARKS, reset_instance_ids
from repro.cli import main as cli_main
from repro.config import DEFAULT_PARAMETERS
from repro.core import (
    VersaSlotBigLittle,
    dispatch_order,
    pending_pr_payloads,
    ready_task_queue,
)
from repro.fpga import BitstreamLibrary, BoardConfig, FPGABoard, PCAP, PRVerificationError, SlotKind
from repro.metrics import bar_chart, grouped_bar_chart, trace_plot
from repro.sim import Engine, SeededStreams
from repro.workloads import Phase, PhasedWorkload, poisson_sequence, ramp_workload


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


class TestSeededStreams:
    def test_streams_deterministic(self):
        a = SeededStreams(7).stream("pcap")
        b = SeededStreams(7).stream("pcap")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_independent(self):
        streams = SeededStreams(7)
        first = streams.stream("a").random()
        # Drawing from another stream must not perturb the first.
        fresh = SeededStreams(7)
        fresh.stream("b").random()
        assert fresh.stream("a").random() == first

    def test_stream_cached(self):
        streams = SeededStreams(1)
        assert streams.stream("x") is streams.stream("x")
        assert "x" in streams

    def test_spawn_deterministic(self):
        a = SeededStreams(7).spawn("child").stream("s").random()
        b = SeededStreams(7).spawn("child").stream("s").random()
        assert a == b


class TestPCAPFaultInjection:
    def _pcap(self, failure_rate, retries=3):
        engine = Engine()
        params = DEFAULT_PARAMETERS.with_overrides(
            pr_failure_rate=failure_rate, pr_max_retries=retries
        )
        pcap = PCAP(engine, params, seed=1)
        library = BitstreamLibrary(params)
        stream = library.register("t", SlotKind.LITTLE)
        return engine, pcap, stream

    def test_ideal_hardware_no_retries(self):
        engine, pcap, stream = self._pcap(0.0)

        def loader():
            yield from pcap.load(stream)

        engine.process(loader())
        engine.run()
        assert pcap.verification_retries == 0

    def test_failures_cost_retransfers(self):
        # Generous retry budget: this test exercises the retransfer
        # accounting, not the hard-failure path.
        engine, pcap, stream = self._pcap(0.3, retries=10)

        def loader():
            for _ in range(20):
                yield from pcap.load(stream)

        engine.process(loader())
        engine.run()
        assert pcap.verification_retries > 0
        # Each retry re-transfers the full bitstream.
        expected = (20 + pcap.verification_retries) * stream.load_time_ms(pcap.params)
        assert pcap.total_transfer_ms == pytest.approx(expected)

    def test_hard_failure_raises(self):
        engine, pcap, stream = self._pcap(1.0, retries=2)

        def loader():
            yield from pcap.load(stream)

        process = engine.process(loader())

        def watcher():
            try:
                yield process
            except PRVerificationError:
                return "failed"
            return "ok"

        watch = engine.process(watcher())
        engine.run()
        assert watch.value == "failed"

    def test_scheduler_survives_flaky_pcap(self):
        engine = Engine()
        params = DEFAULT_PARAMETERS.with_overrides(pr_failure_rate=0.2)
        board = FPGABoard(engine, BoardConfig.BIG_LITTLE, params)
        scheduler = VersaSlotBigLittle(board, params)
        scheduler.submit(ApplicationInstance(BENCHMARKS["IC"], 8, 0.0))
        scheduler.submit(ApplicationInstance(BENCHMARKS["OF"], 8, 0.0))
        engine.run(until=100_000_000)
        assert scheduler.stats.completions == 2


class TestPlots:
    def test_bar_chart_renders(self):
        text = bar_chart({"a": 2.0, "b": 4.0}, title="T", reference={"b": 3.0})
        assert "T" in text
        assert "paper: 3.00" in text
        assert text.count("█") > 0

    def test_bar_chart_validates(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0})
        with pytest.raises(ValueError):
            bar_chart({"a": 1.0}, width=2)

    def test_grouped_bar_chart(self):
        text = grouped_bar_chart({"g1": {"a": 1.0}, "g2": {"a": 2.0}})
        assert "[g1]" in text and "[g2]" in text

    def test_trace_plot_with_thresholds(self):
        text = trace_plot([0.01, 0.05, 0.12, 0.06], thresholds={"T1": 0.1})
        assert "T1" in text
        assert "#" in text

    def test_trace_plot_validates(self):
        with pytest.raises(ValueError):
            trace_plot([])
        with pytest.raises(ValueError):
            trace_plot([1.0], height=1)


class TestPhasedWorkloads:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Phase(0, 10.0, 20.0)
        with pytest.raises(ValueError):
            Phase(5, 30.0, 20.0)

    def test_phased_workload_counts(self):
        workload = PhasedWorkload([Phase(5, 100.0, 200.0), Phase(3, 10.0, 20.0)], seed=1)
        arrivals = workload.generate()
        assert len(arrivals) == workload.total_apps == 8
        times = [a.time_ms for a in arrivals]
        assert times == sorted(times)

    def test_phased_workload_deterministic(self):
        phases = [Phase(6, 50.0, 100.0)]
        assert PhasedWorkload(phases, 3).generate() == PhasedWorkload(phases, 3).generate()

    def test_ramp_workload_shape(self):
        arrivals = ramp_workload(1, 30, relaxed_ms=(800.0, 1000.0), dense_ms=(100.0, 200.0))
        gaps = [b.time_ms - a.time_ms for a, b in zip(arrivals, arrivals[1:])]
        assert sum(gaps[10:19]) < sum(gaps[:9])

    def test_poisson_sequence(self):
        arrivals = poisson_sequence(1, 50, mean_interval_ms=100.0)
        assert len(arrivals) == 50
        gaps = [b.time_ms - a.time_ms for a, b in zip(arrivals, arrivals[1:])]
        assert 30.0 < sum(gaps) / len(gaps) < 300.0

    def test_poisson_validates(self):
        with pytest.raises(ValueError):
            poisson_sequence(1, 0, 100.0)
        with pytest.raises(ValueError):
            poisson_sequence(1, 5, 0.0)


class TestAblationFlags:
    def _run(self, **flags):
        engine = Engine()
        board = FPGABoard(engine, BoardConfig.BIG_LITTLE, DEFAULT_PARAMETERS)
        scheduler = VersaSlotBigLittle(board, DEFAULT_PARAMETERS, **flags)
        for name in ("IC", "AN", "OF", "3DR"):
            scheduler.submit(ApplicationInstance(BENCHMARKS[name], 12, 0.0))
        engine.run(until=100_000_000)
        assert scheduler.stats.completions == 4
        return scheduler

    def test_all_flag_combinations_complete(self):
        for rebinding in (True, False):
            for redistribution in (True, False):
                self._run(rebinding=rebinding, redistribution=redistribution)

    def test_defaults_enabled(self):
        engine = Engine()
        board = FPGABoard(engine, BoardConfig.BIG_LITTLE, DEFAULT_PARAMETERS)
        scheduler = VersaSlotBigLittle(board)
        assert scheduler.rebinding and scheduler.redistribution


class TestAlgorithm2Introspection:
    def _scheduler(self):
        engine = Engine()
        board = FPGABoard(engine, BoardConfig.BIG_LITTLE, DEFAULT_PARAMETERS)
        scheduler = VersaSlotBigLittle(board, DEFAULT_PARAMETERS)
        scheduler.submit(ApplicationInstance(BENCHMARKS["IC"], 10, 0.0))
        scheduler.submit(ApplicationInstance(BENCHMARKS["OF"], 10, 0.0))
        scheduler.submit(ApplicationInstance(BENCHMARKS["AN"], 10, 0.0))
        return engine, scheduler

    def test_ready_queue_orders_big_first(self):
        engine, scheduler = self._scheduler()
        engine.run(until=50.0)
        queue = ready_task_queue(scheduler)
        if queue:
            big_seen_after_little = False
            seen_little = False
            for app, payload in queue:
                if not app.in_big:
                    seen_little = True
                elif seen_little:
                    big_seen_after_little = True
            assert not big_seen_after_little

    def test_dispatch_order_prioritizes_big(self):
        engine, scheduler = self._scheduler()
        engine.run(until=50.0)
        order = dispatch_order(scheduler)
        kinds = [app.in_big for app in order]
        assert kinds == sorted(kinds, reverse=True)

    def test_pending_pr_payloads(self):
        engine, scheduler = self._scheduler()
        engine.run(until=50.0)
        pending = pending_pr_payloads(scheduler)
        assert isinstance(pending, list)


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "VersaSlot-BL" in out

    def test_fig7(self, capsys):
        assert cli_main(["fig7"]) == 0
        assert "42.2" in capsys.readouterr().out.replace("42.17", "42.2")

    def test_fig5_tiny(self, capsys):
        assert cli_main(["fig5", "--sequences", "1", "--apps", "4"]) == 0
        assert "VersaSlot-BL" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["bench", "--rounds", "0"],
        ["bench", "--rounds", "-1"],
        ["bench", "--compare", "optimized,reference", "--rounds", "0"],
        ["fig5", "--sequences", "0"],
        ["fig6", "--sequences", "0"],
        ["fig5", "--apps", "0"],
        ["fig8", "--apps", "0"],
    ])
    def test_zero_count_is_an_operator_error(self, argv, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.count("\n") == 1
        assert "Traceback" not in err
