"""The join-based graph and work queue release tasks in per-edge order.

:class:`TaskGraph` keeps one join per distinct ``depends_on`` tuple and
:class:`WorkQueue` one counter per join.  Every order they produce must
equal what counting each dependency edge separately produces, because
the ready order decides dispatch order and with it every simulated
result.  The reference below is that per-edge formulation, kept here
as the oracle: a dependents list per task with one entry per edge and
one countdown per task.  A malformed graph must fail with the error
the per-edge validation raised first.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TaskGraphError
from repro.sim.scheduler import WorkQueue
from repro.stream.graph import TaskGraph
from repro.stream.task import compute_task, memory_task


class EdgeGraph:
    """Per-edge reference: ``dependents[t]`` lists a task once per
    occurrence of ``t`` in its ``depends_on``, in insertion order."""

    def __init__(self, tasks):
        self.tasks = {task.task_id: task for task in tasks}
        self.dependents = {tid: [] for tid in self.tasks}
        for task in self.tasks.values():
            for dep in task.depends_on:
                self.dependents[dep].append(task)

    def topological_order(self):
        in_degree = {tid: len(t.depends_on) for tid, t in self.tasks.items()}
        queue = deque(tid for tid, deg in in_degree.items() if deg == 0)
        order = []
        while queue:
            tid = queue.popleft()
            order.append(self.tasks[tid])
            for dependent in self.dependents[tid]:
                in_degree[dependent.task_id] -= 1
                if in_degree[dependent.task_id] == 0:
                    queue.append(dependent.task_id)
        return order

    def root_tasks(self):
        return [task for task in self.topological_order() if not task.depends_on]


class EdgeQueue:
    """Per-edge reference for :class:`WorkQueue`'s FIFO release."""

    def __init__(self, graph):
        self.graph = graph
        self.remaining = {tid: len(t.depends_on) for tid, t in graph.tasks.items()}
        self.memory = deque()
        self.compute = deque()
        for task in graph.root_tasks():
            self._enqueue(task)

    def _enqueue(self, task):
        (self.memory if task.is_memory else self.compute).append(task)

    def mark_complete(self, task):
        newly_ready = []
        for dependent in self.graph.dependents[task.task_id]:
            self.remaining[dependent.task_id] -= 1
            if self.remaining[dependent.task_id] == 0:
                self._enqueue(dependent)
                newly_ready.append(dependent)
        return newly_ready


def _task(task_id, is_memory, depends_on):
    if is_memory:
        return memory_task(task_id, requests=64.0, depends_on=depends_on)
    return compute_task(task_id, cpu_seconds=1e-4, depends_on=depends_on)


@st.composite
def dags(draw):
    """Random DAGs over ``t0..t{n-1}``, inserted in shuffled order.

    Task ``k`` depends only on tasks generated before it, so the graph
    is acyclic whatever the insertion order.  Its tuple is either an
    earlier task's (the same object or an equal copy: a shared join)
    or a fresh draw that may repeat an entry (a duplicate edge).  Few
    ids spread over many tuples make one task feed several joins, so
    one completion often fires more than one.
    """
    count = draw(st.integers(min_value=1, max_value=24))
    tuples = []
    tasks = []
    for k in range(count):
        deps = ()
        if k:
            if tuples and draw(st.booleans()):
                deps = draw(st.sampled_from(tuples))
                if draw(st.booleans()):
                    deps = tuple(list(deps))
            else:
                picks = draw(
                    st.lists(st.integers(min_value=0, max_value=k - 1), max_size=4)
                )
                deps = tuple(f"t{i}" for i in picks)
                if deps:
                    tuples.append(deps)
        tasks.append(_task(f"t{k}", draw(st.booleans()), deps))
    order = draw(st.permutations(range(count)))
    return [tasks[i] for i in order]


def edge_validation_error(tasks):
    """The message of the first error the per-edge graph raises, or
    ``None``: duplicate ids first, then each task's entries in order
    (unknown before self), then a cycle naming every stuck task."""
    by_id = {}
    for task in tasks:
        if task.task_id in by_id:
            return f"duplicate task id {task.task_id!r}"
        by_id[task.task_id] = task
    for task in by_id.values():
        for dep in task.depends_on:
            if dep not in by_id:
                return f"task {task.task_id!r} depends on unknown task {dep!r}"
            if dep == task.task_id:
                return f"task {task.task_id!r} depends on itself"
    ordered = {task.task_id for task in EdgeGraph(tasks).topological_order()}
    if len(ordered) != len(by_id):
        stuck = sorted(tid for tid in by_id if tid not in ordered)
        return f"dependency cycle involving tasks {stuck}"
    return None


@st.composite
def corrupted_dags(draw):
    """A DAG from :func:`dags` with one to three defects: an unknown
    entry, a self-dependency (alone, or by taking over a tuple that
    names the task, so the task joins an existing join), a duplicate
    id, or an extra entry that may close a cycle."""
    tasks = draw(dags())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        index = draw(st.integers(min_value=0, max_value=len(tasks) - 1))
        task = tasks[index]
        deps = list(task.depends_on)
        at = draw(st.integers(min_value=0, max_value=len(deps)))
        defect = draw(st.sampled_from(["unknown", "self", "takeover", "dup", "edge"]))
        if defect == "unknown":
            deps.insert(at, "ghost")
        elif defect == "self":
            deps.insert(at, task.task_id)
        elif defect == "edge":
            deps.insert(at, draw(st.sampled_from(tasks)).task_id)
        elif defect == "takeover":
            named = [t for t in tasks if t.task_id in task.depends_on]
            if not named:
                continue
            victim = draw(st.sampled_from(named))
            tasks[tasks.index(victim)] = victim.clone(
                victim.task_id, victim.pair_index, task.depends_on
            )
            continue
        else:
            where = draw(st.integers(min_value=0, max_value=len(tasks)))
            tasks.insert(where, _task(task.task_id, draw(st.booleans()), ()))
            continue
        tasks[index] = task.clone(task.task_id, task.pair_index, tuple(deps))
    return tasks


def _ids(tasks):
    return [task.task_id for task in tasks]


def _dependents(graph, task_id):
    """What completing ``task_id`` feeds, once per edge, in insertion
    order: the members of its joins, merged."""
    return graph.in_insertion_order(graph.feeds[task_id])


def assert_graph_matches(graph, reference):
    assert _ids(graph.topological_order()) == _ids(reference.topological_order())
    roots = reference.root_tasks()
    assert _ids(graph.root_memory) == _ids(t for t in roots if t.is_memory)
    assert _ids(graph.root_compute) == _ids(t for t in roots if not t.is_memory)
    for task_id in reference.tasks:
        assert _ids(_dependents(graph, task_id)) == _ids(
            reference.dependents[task_id]
        )


def assert_ready_matches(queue, reference):
    assert _ids(queue._ready_memory) == _ids(reference.memory)
    assert _ids(queue._ready_compute) == _ids(reference.compute)


def drive(tasks, choose):
    """Run a queue and its reference to exhaustion side by side.

    ``choose(n)`` picks one of ``n`` moves: dispatch the next ready
    memory or compute task, or complete one of the dispatched tasks,
    so completions happen in any order.  Both queues must agree after
    every move.
    """
    graph = TaskGraph(tasks)
    reference = EdgeGraph(tasks)
    assert_graph_matches(graph, reference)
    queue = WorkQueue(graph)
    expected = EdgeQueue(reference)
    assert_ready_matches(queue, expected)
    running = []
    while not queue.exhausted():
        moves = []
        if expected.memory:
            moves.append("memory")
        if expected.compute:
            moves.append("compute")
        moves.extend(range(len(running)))
        move = moves[choose(len(moves))]
        if move == "memory":
            task = queue.pop_memory()
            assert task is expected.memory.popleft()
            running.append(task)
        elif move == "compute":
            task = queue.pop_compute(0)
            assert task is expected.compute.popleft()
            running.append(task)
        else:
            task = running.pop(move)
            released = queue.mark_complete(task)
            assert _ids(released) == _ids(expected.mark_complete(task))
        assert_ready_matches(queue, expected)
    assert not running and queue.completed_count == len(tasks)


@settings(max_examples=150, deadline=None)
@given(tasks=dags(), rng=st.randoms(use_true_random=False))
def test_joins_release_in_per_edge_order(tasks, rng):
    drive(tasks, rng.randrange)


def test_one_completion_fires_two_interleaved_joins():
    # ``a`` is the last entry of two tuples, ("a",) and ("b", "a"),
    # whose members interleave in insertion order: completing it must
    # release x1, y1, x2, x3, y2, not one join's members (x1, x2, x3)
    # before the other's (y1, y2).
    tasks = [
        memory_task("a", requests=1.0),
        memory_task("b", requests=1.0),
        memory_task("x1", requests=1.0, depends_on=("a",)),
        memory_task("y1", requests=1.0, depends_on=("b", "a")),
        compute_task("x2", cpu_seconds=1e-4, depends_on=("a",)),
        memory_task("x3", requests=1.0, depends_on=("a",)),
        compute_task("y2", cpu_seconds=1e-4, depends_on=("b", "a")),
    ]
    graph = TaskGraph(tasks)
    assert len(graph.feeds["a"]) == 2
    queue = WorkQueue(graph)
    a = queue.pop_memory()
    b = queue.pop_memory()
    assert queue.mark_complete(b) == ()
    released = queue.mark_complete(a)
    assert _ids(released) == ["x1", "y1", "x2", "x3", "y2"]
    assert _ids(queue._ready_memory) == ["x1", "y1", "x3"]
    assert _ids(queue._ready_compute) == ["x2", "y2"]
    assert _ids(_dependents(graph, "a")) == ["x1", "y1", "x2", "x3", "y2"]
    # Dispatch everything before completing, and complete each task
    # as soon as it is dispatched.
    drive(tasks, lambda n: 0)
    drive(tasks, lambda n: n - 1)


def test_duplicate_entries_count_once_per_occurrence():
    tasks = [
        memory_task("a", requests=1.0),
        compute_task("c", cpu_seconds=1e-4, depends_on=("a", "a")),
        memory_task("m", requests=1.0, depends_on=("a", "c", "a")),
    ]
    graph = TaskGraph(tasks)
    assert _ids(_dependents(graph, "a")) == ["c", "c", "m", "m"]
    assert [join.count for join in graph.joins] == [2, 3]
    drive(tasks, lambda n: n - 1)


@settings(max_examples=150, deadline=None)
@given(tasks=corrupted_dags())
def test_validation_raises_the_per_edge_first_error(tasks):
    expected = edge_validation_error(tasks)
    if expected is None:
        assert_graph_matches(TaskGraph(tasks), EdgeGraph(tasks))
        return
    with pytest.raises(TaskGraphError) as error:
        TaskGraph(tasks)
    assert str(error.value) == expected
