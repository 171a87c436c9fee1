"""Figure 7: resource-utilization improvement of 3-in-1 tasks.

Left panel: per-application LUT/FF utilization increase of bundles in Big
slots over the same tasks in Little slots.  Right panel: the Image
Compression detail — the first three task utilizations, their average,
and the bundled utilization.

Both panels derive from the synthesis tables; :func:`run_fig7_dynamic`
additionally verifies the gain on a live simulation via the time-weighted
utilization tracker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..apps.benchmarks import BENCHMARKS, FIG7_APPS, IC_DETAIL_TASKS
from ..config import DEFAULT_PARAMETERS, SystemParameters
from typing import Optional
from ..core.versaslot import VersaSlotBigLittle
from ..fpga.board import FPGABoard
from ..fpga.slots import BoardConfig
from ..fpga.resvec import ResourceVector
from ..metrics.report import format_table
from ..metrics.utilization import UtilizationTracker, bundling_gain, ic_detail
from ..apps.application import ApplicationInstance, reset_instance_ids
from ..schedulers.nimblock import NimblockScheduler
from ..sim import Engine

#: Fig. 7 left-panel values from the paper (percent increase).
PAPER_FIG7: Dict[str, Tuple[float, float]] = {
    "IC": (42.2, 48.0),
    "AN": (36.4, 41.4),
    "3DR": (9.9, 17.7),
    "OF": (9.6, 14.1),
}

#: Fig. 7 right-panel values (LUT utilizations).
PAPER_IC_DETAIL: Tuple[Tuple[float, ...], float, float] = ((0.57, 0.38, 0.28), 0.41, 0.6)


@dataclass
class Fig7Result:
    """Static bundling gains plus the IC detail panel."""

    gains: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    detail_tasks: List[float] = field(default_factory=list)
    detail_mean: float = 0.0
    detail_bundle: float = 0.0

    @property
    def mean_lut_pct(self) -> float:
        return sum(v[0] for v in self.gains.values()) / len(self.gains)

    @property
    def mean_ff_pct(self) -> float:
        return sum(v[1] for v in self.gains.values()) / len(self.gains)

    def table(self) -> str:
        headers = ["app", "LUT +%", "FF +%", "paper LUT", "paper FF"]
        rows = []
        for app in FIG7_APPS:
            lut, ff = self.gains[app]
            paper_lut, paper_ff = PAPER_FIG7[app]
            rows.append([app, lut, ff, paper_lut, paper_ff])
        rows.append(["mean", self.mean_lut_pct, self.mean_ff_pct, 24.5, 30.3])
        body = format_table(
            headers, rows,
            title="Fig. 7 — utilization increase of 3-in-1 tasks",
        )
        names = ", ".join(IC_DETAIL_TASKS)
        detail = (
            f"IC detail ({names}): tasks="
            + "/".join(f"{u:.2f}" for u in self.detail_tasks)
            + f" mean={self.detail_mean:.2f} bundle={self.detail_bundle:.2f}"
            f"  (paper: 0.57/0.38/0.28 mean=0.41 bundle=0.60)"
        )
        return body + "\n" + detail


def run_fig7() -> Fig7Result:
    """Regenerate Fig. 7 from the synthesis tables."""
    result = Fig7Result()
    for name in FIG7_APPS:
        gain = bundling_gain(BENCHMARKS[name])
        result.gains[name] = (gain.lut_increase_pct, gain.ff_increase_pct)
    tasks, mean, bundle = ic_detail(BENCHMARKS["IC"])
    result.detail_tasks = tasks
    result.detail_mean = mean
    result.detail_bundle = bundle
    return result


def run_fig7_dynamic(
    app_name: str = "IC",
    batch_size: int = 20,
    params: Optional[SystemParameters] = None,
) -> Tuple[ResourceVector, ResourceVector]:
    """Verify the static gain on a live run: (little_util, big_util).

    Runs one application to completion under Nimblock (all tasks in Little
    slots) and under VersaSlot Big.Little (bundled), and returns the
    time-weighted occupied-slot utilizations of both runs.
    """
    spec = BENCHMARKS[app_name]
    if params is None:
        params = DEFAULT_PARAMETERS
    utils = []
    for scheduler_cls, config in (
        (NimblockScheduler, BoardConfig.ONLY_LITTLE),
        (VersaSlotBigLittle, BoardConfig.BIG_LITTLE),
    ):
        reset_instance_ids()
        engine = Engine()
        board = FPGABoard(engine, config, params, name="fig7")
        tracker = UtilizationTracker(board)
        scheduler = scheduler_cls(board, params)
        scheduler.submit(ApplicationInstance(spec, batch_size, 0.0))
        engine.run(until=60_000_000)
        if scheduler.stats.completions != 1:
            raise RuntimeError(f"{scheduler_cls.__name__} did not finish {app_name}")
        utils.append(tracker.mean_occupied_utilization())
    return utils[0], utils[1]


def main() -> None:  # pragma: no cover - CLI entry
    print(run_fig7().table())


if __name__ == "__main__":  # pragma: no cover
    main()
