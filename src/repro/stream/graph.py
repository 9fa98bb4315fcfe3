"""Task dependency graph.

The main thread of the paper's runtime "enqueues all the memory and
compute tasks into the work queue, and sets up the dependency between
tasks" (Section V).  :class:`TaskGraph` is that dependency structure:
a validated DAG over :class:`~repro.stream.task.Task` objects with what
a work queue needs to release tasks as their dependencies complete,
and a topological order for sequential (functional) execution.

Dependencies are held as *joins*, not edges.  Every task with the
same ``depends_on`` tuple becomes ready at the same moment, when the
tuple's last entry completes, so the graph keeps one :class:`Join`
per distinct tuple: a count of the tuple's entries and the tasks
waiting on it.  A phase barrier (every memory task of phase ``i+1``
waits on every compute task of phase ``i``) is then one counter with
``p`` members instead of ``p * p`` edges, and a completion costs one
decrement per join it feeds.  Orders stay exactly those of the
per-edge formulation: members are kept in insertion order, and when
one completion fires several joins their members are merged by
insertion index.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import AbstractSet, Dict, Iterable, Iterator, List, Tuple

from repro.errors import TaskGraphError
from repro.stream.task import Task

__all__ = ["Join", "TaskGraph"]


class Join:
    """The tasks sharing one ``depends_on`` tuple.

    ``count`` is the tuple's length (a duplicate entry counts twice),
    ``members`` the tasks listing that tuple in graph insertion order,
    and ``memory`` / ``compute`` the same tasks split by kind, which is
    how a work queue enqueues them.  ``index`` numbers the join within
    its graph, so a run keeps its counters in one list.
    """

    __slots__ = ("index", "count", "members", "memory", "compute")

    def __init__(self, index: int, count: int) -> None:
        self.index = index
        self.count = count
        self.members: Tuple[Task, ...] = ()
        self.memory: Tuple[Task, ...] = ()
        self.compute: Tuple[Task, ...] = ()


class TaskGraph:
    """A validated DAG of stream tasks.

    Construction validates that task ids are unique, every dependency
    names an existing task, and the graph is acyclic; a malformed graph
    raises :class:`~repro.errors.TaskGraphError` immediately rather
    than failing mid-simulation.

    The graph is read-only once built, and one graph serves many runs
    (each builds its own work queue over it), so what a queue needs is
    computed here once: :attr:`joins` with :attr:`join_counts`,
    :attr:`feeds` (the joins each task's completion decrements, once
    per occurrence in their tuple) and the dependency-free tasks split
    by kind (:attr:`root_memory`, :attr:`root_compute`).
    """

    def __init__(self, tasks: Iterable[Task]) -> None:
        self._tasks: Dict[str, Task] = {}
        for task in tasks:
            if task.task_id in self._tasks:
                raise TaskGraphError(f"duplicate task id {task.task_id!r}")
            self._tasks[task.task_id] = task

        by_tuple: Dict[Tuple[str, ...], Join] = {}
        # Per join, its members in insertion order, and split by kind.
        members: List[List[Task]] = []
        memory: List[List[Task]] = []
        compute: List[List[Task]] = []
        # Per join, its entries as a set, built for the join's second
        # member (most joins have one): the self-dependency check.
        entries: Dict[int, AbstractSet[str]] = {}
        feeds: Dict[str, List[Join]] = {tid: [] for tid in self._tasks}
        roots: List[Task] = []
        for task in self._tasks.values():
            deps = task.depends_on
            if not deps:
                roots.append(task)
                continue
            join = by_tuple.get(deps)
            if join is None:
                # The tuple's first task checks every entry, in the
                # order the per-task check always used.
                for dep in deps:
                    if dep not in feeds:
                        raise TaskGraphError(
                            f"task {task.task_id!r} depends on unknown task {dep!r}"
                        )
                    if dep == task.task_id:
                        raise TaskGraphError(
                            f"task {task.task_id!r} depends on itself"
                        )
                join = by_tuple[deps] = Join(len(members), len(deps))
                members.append([])
                memory.append([])
                compute.append([])
                for dep in deps:
                    feeds[dep].append(join)
            else:
                # Every entry is known; only this task's own id can
                # make the tuple invalid for it.
                index = join.index
                if index not in entries:
                    entries[index] = frozenset(deps)
                if task.task_id in entries[index]:
                    raise TaskGraphError(f"task {task.task_id!r} depends on itself")
            members[join.index].append(task)
            (memory if task.is_memory else compute)[join.index].append(task)

        self.joins: Tuple[Join, ...] = tuple(by_tuple.values())
        for join in self.joins:
            join.members = tuple(members[join.index])
            join.memory = tuple(memory[join.index])
            join.compute = tuple(compute[join.index])
        #: Initial value of every join's counter, by ``Join.index``.
        self.join_counts: Tuple[int, ...] = tuple(j.count for j in self.joins)
        #: task id -> the joins its completion decrements.
        self.feeds: Dict[str, Tuple[Join, ...]] = {
            tid: tuple(fed) for tid, fed in feeds.items()
        }
        self._roots: List[Task] = roots
        self.root_memory: Tuple[Task, ...] = tuple(t for t in roots if t.is_memory)
        self.root_compute: Tuple[Task, ...] = tuple(
            t for t in roots if not t.is_memory
        )
        self._order = self._topological_order()

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

    def in_insertion_order(self, joins: Iterable[Join]) -> List[Task]:
        """The members of ``joins`` merged by graph insertion index.

        This is the order in which the per-edge formulation releases
        the tasks one completion makes ready, whichever joins they
        sit in.
        """
        position = self._position
        return sorted(
            chain.from_iterable(join.members for join in joins),
            key=lambda task: position[task.task_id],
        )

    @cached_property
    def _position(self) -> Dict[str, int]:
        # Task id -> insertion index, built on first use: a phased
        # program's runs never merge joins (a completion there fires
        # at most one).
        return {tid: index for index, tid in enumerate(self._tasks)}

    def topological_order(self) -> List[Task]:
        """Tasks in an order consistent with all dependencies."""
        return list(self._order)

    def _topological_order(self) -> List[Task]:
        # Kahn's algorithm over the joins: a task is released when its
        # join's counter reaches zero, in the per-edge algorithm's
        # order (roots first, then each completion's releases by
        # insertion index).
        remaining = list(self.join_counts)
        feeds = self.feeds
        order: List[Task] = list(self._roots)
        cursor = 0
        while cursor < len(order):
            fired: List[Join] = []
            for join in feeds[order[cursor].task_id]:
                count = remaining[join.index] - 1
                remaining[join.index] = count
                if count == 0:
                    fired.append(join)
            cursor += 1
            if len(fired) == 1:
                order.extend(fired[0].members)
            elif fired:
                order.extend(self.in_insertion_order(fired))
        if len(order) != len(self._tasks):
            stuck = sorted(
                task.task_id
                for join in self.joins
                if remaining[join.index] > 0
                for task in join.members
            )
            raise TaskGraphError(f"dependency cycle involving tasks {stuck}")
        return order
