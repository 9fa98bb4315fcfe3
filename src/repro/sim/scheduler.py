"""Work queue, MTL gate, and the throttling-policy base class.

This module is the simulated counterpart of the paper's application-
level runtime (Section V): the main thread enqueues all memory and
compute tasks with their dependencies into a work queue; child threads
(hardware contexts here) dequeue tasks; "a lock and a counter are used
to reinforce MTL restriction".  The lock-and-counter is the
:class:`MtlGate`; the queue is :class:`WorkQueue`, which counts
dependencies per join of the graph (a phase barrier is one counter,
as a ``pthread_join`` is one join).

Policies — the paper's dynamic throttler and its baselines — plug in
on top of this runtime by subclassing :class:`ThrottlePolicyPlugin`,
the one policy contract.  It lives here, with the runtime that drives
it, as Ramulator's controller layer owns ``IControllerPlugin``, and it
has a Ramulator plugin's moments: construction takes the policy's
parameters, :meth:`~ThrottlePolicyPlugin.setup` binds it to a machine,
and the hooks in :data:`POLICY_HOOKS` observe the run.  Each policy's
:class:`PolicyStats` snapshot travels back as
``PointResult.policy_stats`` into the point's telemetry record.  The
static policies (:class:`FixedMtlPolicy`, :func:`conventional_policy`)
live here too; the adaptive policies and the policy registry live in
:mod:`repro.core`, above the simulator.

Dispatch preference follows Section III: a context that cannot acquire
an MTL token "does not have to stall if it has compute work to do", so
ready compute tasks are always dispatchable; compute tasks prefer the
context that gathered their data (cache affinity, matching the paper's
thread pinning).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SchedulingError
from repro.sim.events import TaskRecord
from repro.sim.machine import Machine
from repro.stream.graph import Join, TaskGraph
from repro.stream.task import Task

__all__ = [
    "POLICY_HOOKS",
    "PolicyStats",
    "ThrottlePolicyPlugin",
    "FixedMtlPolicy",
    "conventional_policy",
    "MtlGate",
    "WorkQueue",
]

#: The machine-readable hook contract: every method through which the
#: simulator (or the policy's own machinery) drives a policy during a
#: run.  Hooks *observe* — they may mutate the policy instance, but
#: never the simulator-owned arguments they receive, may not retain
#: references to those arguments, and may not write module globals.
#: The lint plugin-contract family (RPR901–RPR903) discovers this
#: tuple the same way pool-safety discovers ``POOL_BOUNDARY`` and
#: enforces that contract over every policy class.
POLICY_HOOKS: Tuple[str, ...] = (
    "setup",
    "on_task_dispatch",
    "on_task_complete",
    "blocks_context",
    "on_window_close",
    "on_phase_change",
    "on_selection",
)


def _valid_identifier(name: str) -> bool:
    return bool(name) and all(c.isalnum() or c in "_-" for c in name)


class PolicyStats:
    """Ramulator-style per-plugin statistic registry.

    Stats must be registered (usually in the plugin's ``__init__``)
    before they can be bumped; this keeps snapshots structurally
    stable across runs, so two runs of the same policy always expose
    the same stat names — a property the conformance suite pins.
    """

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def register(self, name: str, initial: float = 0.0) -> None:
        if not _valid_identifier(name):
            raise ConfigurationError(f"invalid stat name {name!r}")
        if name in self._values:
            raise ConfigurationError(f"stat {name!r} registered twice")
        self._values[name] = float(initial)

    def add(self, name: str, delta: float = 1.0) -> None:
        if name not in self._values:
            raise ConfigurationError(f"stat {name!r} was never registered")
        self._values[name] += delta

    def snapshot(self) -> Dict[str, float]:
        """Name-sorted copy of every registered stat."""
        return {name: self._values[name] for name in sorted(self._values)}


class ThrottlePolicyPlugin:
    """Base class of every throttling policy.

    The simulator queries :meth:`current_mtl` at every dispatch and
    feeds every completion to :meth:`on_task_complete`; a policy
    changes the throttle simply by returning a different value from
    :meth:`current_mtl` afterwards.

    Subclasses implement :meth:`current_mtl` (and usually
    :meth:`on_task_complete`); everything else has a safe default so a
    minimal policy stays minimal.  The base class registers the stats
    common to every policy (``windows_closed``, ``phase_changes``,
    ``selections``); subclasses register their own in ``__init__`` and
    everything surfaces through :meth:`stats_snapshot`.
    """

    #: Stats every plugin carries, bumped by the default hook bodies.
    _BASE_STATS = ("windows_closed", "phase_changes", "selections")

    def __init__(self, name: str) -> None:
        if not _valid_identifier(name):
            raise ConfigurationError(f"invalid policy name {name!r}")
        self._plugin_name = name
        self.stats = PolicyStats()
        for stat in self._BASE_STATS:
            self.stats.register(stat)

    # -- identity ------------------------------------------------------

    @property
    def name(self) -> str:
        """Short policy name used in reports."""
        return self._plugin_name

    # -- what the dispatcher reads ------------------------------------

    def current_mtl(self) -> int:
        """The MTL constraint in force right now."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement current_mtl()"
        )

    def is_probing(self) -> bool:
        """Whether dispatched tasks currently belong to a monitoring
        window (recorded on :class:`TaskRecord.probe` for overhead
        accounting)."""
        return False

    # -- simulator-driven hooks ---------------------------------------

    def setup(self, machine: Machine) -> None:
        """Bind to the machine before a run (Ramulator's ``setup``).

        The default is a no-op; policies that size internal structures
        from the context count override it.  The simulator calls it
        exactly once per ``run_graph``.
        """
        return None

    def on_task_dispatch(self, task: Task, context_id: int, now: float) -> None:
        """A task was just dispatched to ``context_id``.

        The simulator only pays for this call when a subclass actually
        overrides it (the hot path checks the method identity once per
        run), so the default body must stay empty.
        """
        return None

    def on_task_complete(self, record: TaskRecord, now: float) -> None:
        """A task completed (the policy's monitoring hook)."""
        return None

    def blocks_context(self, context_id: int, now: float) -> bool:
        """Whether ``context_id`` may not acquire an MTL token now.

        Veto hook for blacklist-style policies (BlockHammer idiom);
        consulted by the dispatcher before the MTL gate.  Like
        :meth:`on_task_dispatch` it costs nothing unless overridden.
        """
        return False

    # -- policy-driven derived events ---------------------------------

    def on_window_close(self, now: float) -> None:
        """A monitoring or probe window completed."""
        self.stats.add("windows_closed")

    def on_phase_change(self, now: float) -> None:
        """The detector signalled a phase change (re-selection trigger)."""
        self.stats.add("phase_changes")

    def on_selection(self, now: float, selected_mtl: int) -> None:
        """An MTL selection committed."""
        self.stats.add("selections")

    # -- reporting -----------------------------------------------------

    def stats_snapshot(self) -> Dict[str, float]:
        """Name-sorted stat values for telemetry emission."""
        return self.stats.snapshot()


class FixedMtlPolicy(ThrottlePolicyPlugin):
    """A static MTL constraint — the paper's *S-MTL* runs."""

    def __init__(self, mtl: int, name: Optional[str] = None) -> None:
        if mtl < 1:
            raise ConfigurationError(f"mtl must be >= 1, got {mtl}")
        super().__init__(name if name is not None else f"static-mtl-{mtl}")
        self._mtl = mtl

    def current_mtl(self) -> int:
        return self._mtl


def conventional_policy(context_count: int) -> FixedMtlPolicy:
    """The interference-oblivious baseline: MTL equal to the thread
    count, i.e. no throttling at all.  All speedups in the paper are
    relative to this schedule."""
    return FixedMtlPolicy(mtl=context_count, name="conventional")


class MtlGate:
    """The lock-and-counter enforcing the MTL restriction.

    Tokens are acquired when a memory task is dispatched and released
    when it completes.  Lowering the limit below the in-use count does
    not preempt running memory tasks (neither does the paper's
    runtime); it only blocks new acquisitions until tasks drain.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(f"MTL limit must be >= 1, got {limit}")
        self._limit = limit
        self._in_use = 0

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def in_use(self) -> int:
        return self._in_use

    def set_limit(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError(f"MTL limit must be >= 1, got {limit}")
        self._limit = limit

    def try_acquire(self) -> bool:
        if self._in_use < self._limit:
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        if self._in_use <= 0:
            raise SchedulingError("MTL gate released more tokens than acquired")
        self._in_use -= 1


class WorkQueue:
    """FIFO work queue over a task graph, split by task kind.

    Tracks dependency counts and surfaces ready tasks in enqueue order,
    with a cache-affinity fast path for compute tasks: a context
    preferentially picks the compute task whose memory task it ran
    itself, since that data sits in its cache slice.

    The counts are the graph's joins (:class:`~repro.stream.graph.Join`,
    one per distinct ``depends_on`` tuple), copied into one list per
    queue: a completion decrements one counter per join it feeds, so a
    compute task finishing a phase costs one decrement, not one per
    memory task behind the barrier.  A join reaching zero releases its
    members, already split by kind, in insertion order.
    """

    def __init__(self, graph: TaskGraph) -> None:
        self._graph = graph
        self._feeds = graph.feeds
        self._remaining: List[int] = list(graph.join_counts)
        self._ready_memory: Deque[Task] = deque(graph.root_memory)
        self._ready_compute: Deque[Task] = deque(graph.root_compute)
        self._completed: set = set()
        self._dispatched: set = set()
        #: pair key -> context that ran the pair's memory task
        self._affinity: Dict[Tuple[int, int], int] = {}
        #: context -> number of pair keys it currently owns; an exact
        #: mirror of ``_affinity`` so :meth:`pop_compute` can skip the
        #: ready-queue scan for contexts that own no claim at all.
        self._affinity_counts: Dict[int, int] = {}

    @property
    def pending_memory(self) -> int:
        return len(self._ready_memory)

    @property
    def pending_compute(self) -> int:
        return len(self._ready_compute)

    @property
    def completed_count(self) -> int:
        return len(self._completed)

    def exhausted(self) -> bool:
        """All tasks completed."""
        return len(self._completed) == len(self._graph)

    def has_ready_work(self) -> bool:
        return bool(self._ready_memory or self._ready_compute)

    def pop_compute(self, context_id: int) -> Optional[Task]:
        """Dequeue a ready compute task, preferring cache affinity."""
        ready = self._ready_compute
        if not ready:
            return None
        if self._affinity_counts.get(context_id):
            affinity = self._affinity
            for index, task in enumerate(ready):
                if affinity.get((task.phase_index, task.pair_index)) == context_id:
                    del ready[index]
                    self._dispatched.add(task.task_id)
                    return task
        task = ready.popleft()
        self._dispatched.add(task.task_id)
        return task

    def pop_memory(self) -> Optional[Task]:
        """Dequeue the oldest ready memory task."""
        if not self._ready_memory:
            return None
        task = self._ready_memory.popleft()
        self._dispatched.add(task.task_id)
        return task

    def try_dispatch_memory(self, gate: "MtlGate", context_id: int) -> Optional[Task]:
        """Fused memory dispatch: the pending check, gate acquisition,
        dequeue, and affinity note of a successful
        ``pop_memory`` + ``note_memory_ran_on`` sequence in one call.

        Exactly equivalent to the unfused sequence (same checks, same
        order, token released on no other path), but the event loop
        pays one method call instead of four-plus per memory dispatch.
        A caller with a ``blocks_context`` veto consults it first, while
        memory work is pending, and calls this only when the context is
        not vetoed — the same call sequence the unfused path makes.
        """
        if not self._ready_memory:
            return None
        if not gate.try_acquire():
            return None
        task = self._ready_memory.popleft()
        self._dispatched.add(task.task_id)
        key = (task.phase_index, task.pair_index)
        previous = self._affinity.get(key)
        if previous != context_id:
            counts = self._affinity_counts
            if previous is not None:
                counts[previous] -= 1
            self._affinity[key] = context_id
            counts[context_id] = counts.get(context_id, 0) + 1
        return task

    def note_memory_ran_on(self, task: Task, context_id: int) -> None:
        """Record affinity for the pair's upcoming compute task."""
        key = (task.phase_index, task.pair_index)
        previous = self._affinity.get(key)
        if previous == context_id:
            return
        if previous is not None:
            self._affinity_counts[previous] -= 1
        self._affinity[key] = context_id
        self._affinity_counts[context_id] = (
            self._affinity_counts.get(context_id, 0) + 1
        )

    def mark_complete(self, task: Task) -> Sequence[Task]:
        """Mark a task complete; returns the tasks that just became
        ready, in insertion order (a read-only sequence)."""
        task_id = task.task_id
        if task_id in self._completed:
            raise SchedulingError(f"task {task_id!r} completed twice")
        if task_id not in self._dispatched:
            raise SchedulingError(
                f"task {task_id!r} completed without being dispatched"
            )
        self._completed.add(task_id)
        remaining = self._remaining
        fired: List[Join] = []
        for join in self._feeds[task_id]:
            index = join.index
            count = remaining[index] - 1
            remaining[index] = count
            if count == 0:
                fired.append(join)
            elif count < 0:
                raise SchedulingError(
                    f"dependency count of {join.members[0].task_id!r} went negative"
                )
        if not fired:
            return ()
        if len(fired) == 1:
            (join,) = fired
            self._ready_memory.extend(join.memory)
            self._ready_compute.extend(join.compute)
            return join.members
        # One completion fired several joins: release their members
        # merged by insertion index, as per-edge counting would.
        newly_ready = self._graph.in_insertion_order(fired)
        for ready in newly_ready:
            if ready.is_memory:
                self._ready_memory.append(ready)
            else:
                self._ready_compute.append(ready)
        return newly_ready
