"""Task dependency pipelines and analytic makespan estimators.

Applications execute as item-level pipelines across slots: item ``b`` of
task ``k`` waits for item ``b`` of task ``k-1``.  The default dependency
graph is the linear chain the paper uses; :class:`TaskGraph` also accepts
general DAGs (an extension exercised by the property tests).

The analytic estimators answer "how long would this application take with
``s`` slots?" — the quantity the ILP-based optimal slot allocation of
Nimblock/DML (and hence Algorithm 1's ``O_Ai``) optimizes.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .application import ApplicationSpec, TaskSpec, pipelined_exec_time


class TaskGraph:
    """A DAG of task dependencies for one application.

    Adjacency, the DAG check and the topological order are all computed
    once at construction; duplicate edges collapse.
    """

    def __init__(self, app: ApplicationSpec, edges: Iterable[Tuple[int, int]] = ()) -> None:
        self.app = app
        n = app.task_count
        edge_list = list(edges)
        if not edge_list:
            edge_list = [(i, i + 1) for i in range(n - 1)]
        for src, dst in edge_list:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ({src}, {dst}) references a missing task")
        #: The distinct dependency edges ``(src, dst)``.
        self.edges: FrozenSet[Tuple[int, int]] = frozenset(
            (src, dst) for src, dst in edge_list
        )
        successors: List[List[int]] = [[] for _ in range(n)]
        self._predecessors: Dict[int, List[int]] = {node: [] for node in range(n)}
        for src, dst in sorted(self.edges):
            successors[src].append(dst)
            self._predecessors[dst].append(src)
        # Kahn's algorithm with a min-heap of ready tasks: the smallest
        # ready index always goes next (lexicographic order), and tasks
        # left unordered sit on a cycle.
        indegree = [len(self._predecessors[node]) for node in range(n)]
        ready = [node for node in range(n) if not indegree[node]]
        order: List[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for child in successors[node]:
                indegree[child] -= 1
                if not indegree[child]:
                    heapq.heappush(ready, child)
        if len(order) < n:
            raise ValueError(f"task graph of {app.name!r} contains a cycle")
        self._order = order

    @property
    def is_linear_chain(self) -> bool:
        """True for the paper's default linear pipeline."""
        expected = {(i, i + 1) for i in range(self.app.task_count - 1)}
        return self.edges == expected

    def predecessors(self, task_index: int) -> List[int]:
        """Tasks whose per-item output task ``task_index`` consumes."""
        return list(self._predecessors[task_index])

    def topological_order(self) -> List[int]:
        """The lexicographically smallest topological ordering of the tasks."""
        return list(self._order)

    def critical_path_ms(self, batch_size: int = 1) -> float:
        """Latency lower bound: longest path weighted by task latencies."""
        finish: Dict[int, float] = {}
        for node in self._order:
            start = max((finish[p] for p in self._predecessors[node]), default=0.0)
            finish[node] = start + self.app.tasks[node].exec_time_ms * batch_size
        return max(finish.values())


def wave_partition(task_count: int, slot_count: int) -> List[Tuple[int, int]]:
    """Split ``task_count`` pipeline stages into waves of ``slot_count``.

    With fewer slots than tasks, slots rotate: wave ``w`` loads tasks
    ``[w*s, min(N, (w+1)*s))``.  Returns the half-open index ranges.
    """
    if slot_count < 1:
        raise ValueError(f"slot count must be >= 1, got {slot_count}")
    waves = []
    start = 0
    while start < task_count:
        end = min(task_count, start + slot_count)
        waves.append((start, end))
        start = end
    return waves


def estimate_makespan_ms(
    app: ApplicationSpec,
    batch_size: int,
    slot_count: int,
    pr_time_ms: float,
) -> float:
    """Estimated completion time of ``app`` given ``slot_count`` Little slots.

    Model: slots rotate through the pipeline in waves.  Each wave pays its
    serialized PCAP loads plus an ideal item-level pipeline over the loaded
    stages.  The estimate is intentionally simple — it is used only to
    *rank* slot counts when computing the optimal allocation ``O_Ai``, not
    to predict wall-clock times (the simulator does that).
    """
    total = 0.0
    for start, end in wave_partition(app.task_count, slot_count):
        wave_tasks: Sequence[TaskSpec] = app.tasks[start:end]
        total += pr_time_ms * len(wave_tasks)
        total += pipelined_exec_time(wave_tasks, batch_size)
    return total


def estimate_big_makespan_ms(
    app: ApplicationSpec,
    batch_size: int,
    big_slot_count: int,
    big_pr_time_ms: float,
) -> float:
    """Estimated completion time using 3-in-1 bundles in Big slots.

    Bundles rotate through ``big_slot_count`` Big slots the same way tasks
    rotate through Little slots; each loaded bundle internally pipelines its
    three member tasks.
    """
    if not app.can_bundle:
        raise ValueError(f"application {app.name!r} has no bundles")
    total = 0.0
    bundle_count = len(app.bundles)
    for start, end in wave_partition(bundle_count, big_slot_count):
        wave = app.bundles[start:end]
        total += big_pr_time_ms * len(wave)
        stage_times = [
            max(app.bundle_exec_times(bundle)) for bundle in wave
        ]
        fill = sum(
            sum(app.bundle_exec_times(bundle)) for bundle in wave
        )
        bottleneck = max(stage_times)
        total += fill + (batch_size - 1) * bottleneck
    return total
