"""Application, task and bundle specifications.

An *application* is partitioned offline into an ordered list of *tasks*
(the basic execution unit of a slot).  Each task processes the
application's batch item by item; item ``b`` of task ``k`` depends on item
``b`` of task ``k-1``, which is the cross-slot pipeline the paper relies on.

A *bundle* is a 3-in-1 task: three consecutive tasks synthesized together
into a single Big-slot bitstream.  Bundles carry their own implementation
resource usage (synthesis of the merged module differs from the sum of the
parts — this is what Fig. 7 measures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import List, Optional, Sequence, Tuple

from ..fpga.resvec import ResourceVector

#: The paper fixes the bundle size at three tasks per Big slot.
BUNDLE_SIZE = 3


@dataclass(frozen=True)
class TaskSpec:
    """One task of an application, sized for a Little slot."""

    #: Application-local name, e.g. ``"IC/t2"``.
    name: str
    #: Position in the application pipeline (0-based).
    index: int
    #: Execution latency of one batch item in this task (ms).
    exec_time_ms: float
    #: Implementation resource usage, as a fraction of a Little slot.
    usage: ResourceVector

    def __post_init__(self) -> None:
        if self.exec_time_ms <= 0:
            raise ValueError(f"task {self.name!r} has non-positive latency")
        if not self.usage.fits_within(ResourceVector(1.0, 1.0)):
            raise ValueError(
                f"task {self.name!r} usage {self.usage} exceeds a Little slot; "
                "re-partition the application"
            )


@dataclass(frozen=True)
class BundleSpec:
    """A 3-in-1 task synthesized for a Big slot."""

    #: Name, e.g. ``"IC/bundle0"``.
    name: str
    #: Bundle position (0-based); bundle ``j`` covers tasks ``3j..3j+2``.
    index: int
    #: Indices of the member tasks, in pipeline order.
    task_indices: Tuple[int, int, int]
    #: Implementation usage as a fraction of a *Big* slot.
    usage_big: ResourceVector

    def __post_init__(self) -> None:
        if len(self.task_indices) != BUNDLE_SIZE:
            raise ValueError(f"bundle {self.name!r} must cover exactly {BUNDLE_SIZE} tasks")
        first, mid, last = self.task_indices
        if not (mid == first + 1 and last == mid + 1):
            raise ValueError(f"bundle {self.name!r} tasks must be consecutive")


@dataclass(frozen=True)
class ApplicationSpec:
    """A benchmark application: its tasks and (optionally) its bundles."""

    name: str
    tasks: Tuple[TaskSpec, ...]
    bundles: Tuple[BundleSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError(f"application {self.name!r} has no tasks")
        for position, task in enumerate(self.tasks):
            if task.index != position:
                raise ValueError(f"task indices of {self.name!r} must be 0..N-1 in order")
        if self.bundles:
            covered = [i for bundle in self.bundles for i in bundle.task_indices]
            if covered != list(range(len(self.tasks))):
                raise ValueError(
                    f"bundles of {self.name!r} must tile the task list exactly"
                )
        # Per-bundle member latencies, precomputed once: bundle runs and
        # the bundling decision ask for these on the scheduling hot path.
        # (object.__setattr__ because the dataclass is frozen; positional
        # by bundle index — an id()-keyed cache goes stale the moment a
        # spec crosses a pickle boundary into another process, silently
        # recomputing on every hot-path lookup.)
        object.__setattr__(self, "_bundle_times", tuple(
            tuple(self.tasks[i].exec_time_ms for i in bundle.task_indices)
            for bundle in self.bundles
        ))

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    @property
    def can_bundle(self) -> bool:
        """True if the offline flow produced 3-in-1 bundles for this app."""
        return bool(self.bundles)

    def task(self, index: int) -> TaskSpec:
        return self.tasks[index]

    def bundle_for_task(self, task_index: int) -> BundleSpec:
        """The bundle containing ``task_index``."""
        if not self.bundles:
            raise ValueError(f"application {self.name!r} has no bundles")
        return self.bundles[task_index // BUNDLE_SIZE]

    def bundle_exec_times(self, bundle: BundleSpec) -> Tuple[float, ...]:
        """Per-item latencies of a bundle's member tasks (precomputed)."""
        index = bundle.index
        if not 0 <= index < len(self._bundle_times):
            raise ValueError(
                f"bundle {bundle.name!r} does not belong to "
                f"application {self.name!r}"
            )
        own = self.bundles[index]
        # Identity first: on the scheduling hot path the bundle always IS
        # this spec's bundle.  Equality covers equal-but-not-identical
        # bundles after a pickle boundary; anything else is a model bug,
        # not a cache miss — no silent recompute fallback.
        if own is not bundle and own != bundle:
            raise ValueError(
                f"bundle {bundle.name!r} does not belong to "
                f"application {self.name!r}"
            )
        return self._bundle_times[index]

    def mean_little_utilization(self) -> ResourceVector:
        """Mean per-task utilization of a Little slot (Fig. 7 left basis)."""
        total = ResourceVector.total(task.usage for task in self.tasks)
        return total.scale(1.0 / self.task_count)

    def mean_big_utilization(self) -> ResourceVector:
        """Mean per-bundle utilization of a Big slot (Fig. 7 left basis)."""
        if not self.bundles:
            raise ValueError(f"application {self.name!r} has no bundles")
        total = ResourceVector.total(bundle.usage_big for bundle in self.bundles)
        return total.scale(1.0 / len(self.bundles))


_instance_ids = count()


@dataclass
class ApplicationInstance:
    """A runtime arrival of an application with a concrete batch size."""

    spec: ApplicationSpec
    batch_size: int
    arrival_time: float
    app_id: int = field(default_factory=lambda: next(_instance_ids))

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.arrival_time < 0:
            raise ValueError(f"arrival time must be >= 0, got {self.arrival_time}")

    @property
    def name(self) -> str:
        return f"{self.spec.name}#{self.app_id}"

    @property
    def task_count(self) -> int:
        return self.spec.task_count

    def __hash__(self) -> int:
        return self.app_id

    def __repr__(self) -> str:
        return f"<App {self.name} B={self.batch_size} t0={self.arrival_time}>"


def reset_instance_ids() -> None:
    """Restart the global app-id counter (test isolation)."""
    global _instance_ids
    _instance_ids = count()


def sequential_exec_time(tasks: Sequence[TaskSpec], batch_size: int) -> float:
    """Total latency of running ``tasks`` back-to-back with no pipelining."""
    return sum(task.exec_time_ms for task in tasks) * batch_size


def pipelined_exec_time(tasks: Sequence[TaskSpec], batch_size: int) -> float:
    """Latency of an ideal item-level pipeline across loaded ``tasks``.

    Fill with one item per stage, then the bottleneck stage paces the
    remaining ``batch_size - 1`` items.
    """
    if not tasks:
        return 0.0
    fill = sum(task.exec_time_ms for task in tasks)
    bottleneck = max(task.exec_time_ms for task in tasks)
    return fill + (batch_size - 1) * bottleneck
