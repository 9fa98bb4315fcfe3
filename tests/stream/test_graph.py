"""Unit tests for the task dependency graph."""

import pytest

from repro.errors import TaskGraphError
from repro.stream.graph import TaskGraph
from repro.stream.task import Task, TaskKind, compute_task, memory_task


def chain(n: int):
    """M[0] <- C[0] <- M[1] <- C[1] ... a strict dependency chain."""
    tasks = []
    previous = None
    for i in range(n):
        mem_deps = (previous,) if previous else ()
        mem = memory_task(f"M{i}", requests=10, depends_on=mem_deps)
        comp = compute_task(f"C{i}", cpu_seconds=1e-3, depends_on=(f"M{i}",))
        tasks.extend([mem, comp])
        previous = f"C{i}"
    return tasks


class TestConstruction:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(TaskGraphError):
            TaskGraph([memory_task("m", requests=1), memory_task("m", requests=2)])

    def test_rejects_unknown_dependency(self):
        with pytest.raises(TaskGraphError):
            TaskGraph([compute_task("c", cpu_seconds=1e-3, depends_on=("ghost",))])

    def test_rejects_self_dependency(self):
        with pytest.raises(TaskGraphError):
            TaskGraph([compute_task("c", cpu_seconds=1e-3, depends_on=("c",))])

    def test_rejects_cycle(self):
        a = Task(task_id="a", kind=TaskKind.COMPUTE, cpu_seconds=1e-3, depends_on=("b",))
        b = Task(task_id="b", kind=TaskKind.COMPUTE, cpu_seconds=1e-3, depends_on=("a",))
        with pytest.raises(TaskGraphError) as exc:
            TaskGraph([a, b])
        assert "cycle" in str(exc.value)

    def test_len_and_contains(self):
        graph = TaskGraph(chain(3))
        assert len(graph) == 6
        assert "M0" in graph
        assert "ghost" not in graph


class TestQueries:
    def test_task_lookup(self):
        graph = TaskGraph(chain(2))
        assert graph.task("M1").is_memory
        with pytest.raises(TaskGraphError):
            graph.task("ghost")


class TestOrdering:
    def test_topological_order_respects_dependencies(self):
        graph = TaskGraph(chain(4))
        order = [t.task_id for t in graph.topological_order()]
        position = {tid: i for i, tid in enumerate(order)}
        for task in graph:
            for dep in task.depends_on:
                assert position[dep] < position[task.task_id]

    def test_empty_graph(self):
        graph = TaskGraph([])
        assert len(graph) == 0
        assert graph.topological_order() == []
