"""Task dependency graph.

The main thread of the paper's runtime "enqueues all the memory and
compute tasks into the work queue, and sets up the dependency between
tasks" (Section V).  :class:`TaskGraph` is that dependency structure:
a validated DAG over :class:`~repro.stream.task.Task` objects with the
queries a scheduler needs — which tasks are ready given a completed
set, and a topological order for sequential (functional) execution.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Dict, Iterable, Iterator, List

from repro.errors import TaskGraphError
from repro.stream.task import Task

__all__ = ["TaskGraph"]


class TaskGraph:
    """A validated DAG of stream tasks.

    Construction validates that task ids are unique, every dependency
    names an existing task, and the graph is acyclic; a malformed graph
    raises :class:`~repro.errors.TaskGraphError` immediately rather
    than failing mid-simulation.
    """

    def __init__(self, tasks: Iterable[Task]) -> None:
        self._tasks: Dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self._tasks:
                raise TaskGraphError(f"duplicate task id {task.task_id!r}")
            self._tasks[task.task_id] = task

        self._dependents: Dict[str, List[str]] = {tid: [] for tid in self._tasks}
        for task in self._tasks.values():
            for dep in task.depends_on:
                if dep not in self._tasks:
                    raise TaskGraphError(
                        f"task {task.task_id!r} depends on unknown task {dep!r}"
                    )
                if dep == task.task_id:
                    raise TaskGraphError(
                        f"task {task.task_id!r} depends on itself"
                    )
                self._dependents[dep].append(task.task_id)

        self._order = self._topological_order()
        # Completion handling asks for dependents once per task per
        # run, and one graph is reused across many runs (a program
        # keeps its graph: the offline search sweeps every MTL over
        # it, and consecutive sweep points of one workload share it) —
        # so resolve the id lists to task lists once, up front.
        self._dependent_tasks: Dict[str, List[Task]] = {
            tid: [self._tasks[t] for t in ids]
            for tid, ids in self._dependents.items()
        }
        # Work-queue seeds, cached for the same reason: every run
        # builds a fresh queue over this graph, and both of these are
        # pure functions of it.
        self._initial_dep_counts: Dict[str, int] = {
            tid: len(task.depends_on) for tid, task in self._tasks.items()
        }
        self._roots: List[Task] = [
            task for task in self._order if not task.depends_on
        ]

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def task(self, task_id: str) -> Task:
        """Look up a task by id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TaskGraphError(f"unknown task id {task_id!r}") from None

    def dependents(self, task_id: str) -> List[Task]:
        """Tasks that list ``task_id`` as a dependency."""
        try:
            return self._dependent_tasks[task_id]
        except KeyError:
            raise TaskGraphError(f"unknown task id {task_id!r}") from None

    def ready_tasks(self, completed: AbstractSet[str]) -> List[Task]:
        """Tasks whose dependencies are all in ``completed``.

        Already-completed tasks are excluded.  The result preserves
        insertion (enqueue) order, matching the FIFO work queue of the
        paper's runtime.
        """
        ready = []
        for task in self._tasks.values():
            if task.task_id in completed:
                continue
            if all(dep in completed for dep in task.depends_on):
                ready.append(task)
        return ready

    def initial_dependency_counts(self) -> Dict[str, int]:
        """Fresh ``task_id -> len(depends_on)`` map (a new dict each
        call; work queues decrement their copy as tasks complete)."""
        return dict(self._initial_dep_counts)

    def root_tasks(self) -> List[Task]:
        """Dependency-free tasks in topological (enqueue) order.

        The returned list is shared — callers must not mutate it.
        """
        return self._roots

    def topological_order(self) -> List[Task]:
        """Tasks in an order consistent with all dependencies."""
        return list(self._order)

    def _topological_order(self) -> List[Task]:
        in_degree = {tid: len(t.depends_on) for tid, t in self._tasks.items()}
        queue = deque(tid for tid, deg in in_degree.items() if deg == 0)
        order: List[Task] = []
        while queue:
            tid = queue.popleft()
            order.append(self._tasks[tid])
            for dependent in self._dependents[tid]:
                in_degree[dependent] -= 1
                if in_degree[dependent] == 0:
                    queue.append(dependent)
        if len(order) != len(self._tasks):
            stuck = sorted(tid for tid, deg in in_degree.items() if deg > 0)
            raise TaskGraphError(f"dependency cycle involving tasks {stuck}")
        return order

    def critical_path_ids(self) -> List[str]:
        """Longest dependency chain, by task count.

        Useful for diagnosing workloads whose parallelism is too
        shallow to benefit from throttling.
        """
        depth: Dict[str, int] = {}
        parent: Dict[str, str] = {}
        for task in self._order:
            best_dep = None
            best = 0
            for dep in task.depends_on:
                if depth[dep] >= best:
                    best = depth[dep]
                    best_dep = dep
            depth[task.task_id] = best + 1
            if best_dep is not None:
                parent[task.task_id] = best_dep
        if not depth:
            return []
        tail = max(depth, key=lambda tid: depth[tid])
        path = [tail]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        path.reverse()
        return path
