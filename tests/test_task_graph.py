"""Differential property test: :class:`TaskGraph` against networkx.

networkx is only the reference here, never a runtime dependency: the
stdlib graph must give the same lexicographic topological order,
predecessors, linear-chain flag, critical path and validation errors on
arbitrary edge lists (duplicates, cycles, self-loops, missing tasks).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ApplicationSpec, TaskGraph, TaskSpec
from repro.fpga import ResourceVector

nx = pytest.importorskip("networkx")


def make_app(exec_times):
    return ApplicationSpec(
        "g",
        tuple(
            TaskSpec(f"t{i}", i, exec_ms, ResourceVector(0.1, 0.1))
            for i, exec_ms in enumerate(exec_times)
        ),
    )


def reference(app, edges):
    """The networkx graph the old implementation built, or its error."""
    n = app.task_count
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    for src, dst in edges or [(i, i + 1) for i in range(n - 1)]:
        if not (0 <= src < n and 0 <= dst < n):
            return "missing task"
        graph.add_edge(src, dst)
    if not nx.is_directed_acyclic_graph(graph):
        return "cycle"
    return graph


@st.composite
def graph_cases(draw):
    exec_times = draw(st.lists(
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        min_size=1, max_size=9,
    ))
    n = len(exec_times)
    # Endpoints one past either end exercise the missing-task check.
    endpoint = st.integers(min_value=-1, max_value=n)
    edges = draw(st.lists(st.tuples(endpoint, endpoint), max_size=3 * n))
    if draw(st.booleans()):
        # Bias towards valid DAGs: forward edges only (duplicates allowed).
        edges = [(min(s, d), max(s, d)) for s, d in edges
                 if s != d and 0 <= s < n and 0 <= d < n]
    return make_app(exec_times), edges, draw(st.integers(min_value=1, max_value=8))


@given(case=graph_cases())
@settings(max_examples=300, deadline=None)
def test_task_graph_matches_networkx(case):
    app, edges, batch_size = case
    expected = reference(app, edges)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            TaskGraph(app, edges)
        return
    graph = TaskGraph(app, edges)
    n = app.task_count
    order = list(nx.lexicographical_topological_sort(expected))
    assert graph.topological_order() == order
    for node in range(n):
        assert graph.predecessors(node) == sorted(expected.predecessors(node))
    chain = {(i, i + 1) for i in range(n - 1)}
    assert graph.is_linear_chain == (set(expected.edges) == chain)
    finish = {}
    for node in order:
        start = max((finish[p] for p in expected.predecessors(node)), default=0.0)
        finish[node] = start + app.tasks[node].exec_time_ms * batch_size
    assert graph.critical_path_ms(batch_size) == max(finish.values())


def test_duplicate_edges_collapse():
    app = make_app([1.0, 2.0, 3.0])
    graph = TaskGraph(app, [(0, 2), (0, 2), (1, 2)])
    assert graph.edges == {(0, 2), (1, 2)}
    assert graph.predecessors(2) == [0, 1]


def test_self_loop_is_a_cycle():
    with pytest.raises(ValueError, match="cycle"):
        TaskGraph(make_app([1.0, 2.0]), [(1, 1)])
