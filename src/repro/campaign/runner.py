"""The campaign runner: scenario -> cells -> backend -> persisted records."""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..config import SystemParameters
from .backend import CampaignCell, make_backend
from .results import ResultsStore, RunRecord
from .scenario import Scenario, get_scenario


class CampaignRunner:
    """Execute campaigns over a serial or forked-worker backend.

    ``jobs=1`` selects the deterministic serial reference backend;
    ``jobs=N`` fans cells out over N worker processes.  When a ``store``
    (or path) is given, every produced record is appended there so figures
    can later be replayed without re-simulating.  Paths keep their legacy
    JSONL behavior unless durability features are requested:
    ``snapshot_every`` checkpoints a resumable
    :class:`~repro.store.snapshot.CampaignSnapshot` into the store every N
    completed cells, ``resume`` skips cells the store already holds a
    successful record for, and ``store_backend`` selects the recorder
    (``"jsonl"`` / ``"sqlite"``; paths with a SQLite suffix or file magic
    auto-select SQLite).
    """

    def __init__(
        self,
        jobs: int = 1,
        backend=None,
        store=None,
        base_params: Optional[SystemParameters] = None,
        raw_samples: bool = False,
        events_dir: Optional[Union[str, Path]] = None,
        timeout_s: Optional[float] = None,
        snapshot_every: int = 0,
        resume: bool = False,
        store_backend: Optional[str] = None,
    ) -> None:
        self.backend = (
            backend
            if backend is not None
            else make_backend(jobs, timeout_s=timeout_s)
        )
        self.snapshot_every = snapshot_every
        self.resume = resume
        #: Outcome of the most recent :meth:`run_cells` (resumed/executed
        #: counts) — the CLI surfaces it after a ``--resume`` run.
        self.last_outcome = None
        self.store = self._resolve_store(store, store_backend)
        self.base_params = base_params
        #: Persist raw per-request samples on records (``--raw-samples``);
        #: off by default — records carry the bounded-memory digest.
        self.raw_samples = raw_samples
        #: When set, every cell writes its typed event stream under here.
        self.events_dir = Path(events_dir) if events_dir is not None else None

    def _resolve_store(self, store, store_backend: Optional[str]):
        """Map the ``store`` argument onto a concrete store object.

        Store objects pass through untouched.  A path stays a plain
        :class:`ResultsStore` (the legacy, bit-identical default) unless
        snapshots/resume/an explicit or sniffed non-JSONL backend ask for
        the event store.
        """
        if store is None or not isinstance(store, (str, Path)):
            return store
        from ..store import is_sqlite_path, open_store

        wants_event_store = (
            self.resume
            or self.snapshot_every > 0
            or store_backend is not None
            or is_sqlite_path(store)
        )
        if wants_event_store:
            return open_store(store, backend=store_backend)
        return ResultsStore(store)

    def cells_for(self, scenario: Scenario) -> List[CampaignCell]:
        """Enumerate a scenario into cells, sequence-major then system.

        The ordering mirrors the historical ``run_matrix`` loop (sequences
        outer, systems inner) so serial campaigns visit simulations in the
        same order the old harness did.
        """
        params = scenario.parameters(self.base_params)
        cells: List[CampaignCell] = []
        for seed in scenario.seeds:
            for index in range(scenario.workload.sequence_count):
                for system in scenario.system_names():
                    events_path = None
                    if self.events_dir is not None:
                        events_path = str(
                            self.events_dir
                            / f"{scenario.name}-{system}-seed{seed}-seq{index}.jsonl"
                        )
                    cells.append(
                        CampaignCell(
                            scenario=scenario.name,
                            system=system,
                            sequence_index=index,
                            seed=seed,
                            params=params,
                            workload=scenario.workload,
                            keep_raw_samples=self.raw_samples,
                            events_path=events_path,
                        )
                    )
        return cells

    def run(self, scenario: Union[str, Scenario]) -> List[RunRecord]:
        """Run a scenario (by name or spec) and persist its records."""
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        return self.run_cells(self.cells_for(scenario))

    def run_cells(self, cells: Sequence[CampaignCell]) -> List[RunRecord]:
        """Run pre-built cells (ad-hoc campaigns over explicit arrivals)."""
        from ..store.resume import execute_with_store

        outcome = execute_with_store(
            self.backend,
            list(cells),
            store=self.store,
            snapshot_every=self.snapshot_every,
            resume=self.resume,
        )
        self.last_outcome = outcome
        return outcome.records
