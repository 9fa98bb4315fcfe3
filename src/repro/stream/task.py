"""Task model for decoupled stream programs.

A *task* is the scheduling unit of the whole system.  Following the
paper's terminology (Section II), a **memory task** performs the
gather/scatter half of a stream pair — it streams a footprint of data
between DRAM and the last-level cache and is characterised by its
off-chip request count.  A **compute task** performs the compute half —
it operates on cached data and is characterised by its CPU time.  When
the stream-programming footprint contract is violated (Figure 13(c) of
the paper), a compute task additionally carries off-chip requests of
its own, which is why both demand fields exist on every task.

Tasks are deliberately *descriptive*: they carry resource demands, not
behaviour.  The machine simulator turns demands into durations using
the memory system's contention state at run time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigurationError
from repro.memory.equilibrium import MemoryDemand

__all__ = ["TaskKind", "Task", "TaskPair", "memory_task", "compute_task"]


class TaskKind(enum.Enum):
    """Role of a task in its stream pair."""

    MEMORY = "memory"
    COMPUTE = "compute"


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    Attributes:
        task_id: Unique identifier within a program (e.g. ``"M[2.7]"``).
        kind: Memory or compute role; the MTL gate applies only to
            :attr:`TaskKind.MEMORY` tasks.
        cpu_seconds: Pure CPU time at full core speed (zero for memory
            tasks, whose streaming loop is memory-bound).
        memory_requests: Off-chip 64-byte requests the task issues.
            This is the footprint line count for a memory task and the
            spilled request count for an over-footprint compute task.
        footprint_bytes: Bytes of stream data the task touches; used by
            the LLC model and for reporting.
        pair_index: Index of the pair this task belongs to within its
            phase.
        phase_index: Index of the program phase the task belongs to.
        depends_on: Task ids that must complete before this one starts.
    """

    task_id: str
    kind: TaskKind
    cpu_seconds: float = 0.0
    memory_requests: float = 0.0
    footprint_bytes: int = 0
    pair_index: int = 0
    phase_index: int = 0
    depends_on: Tuple[str, ...] = field(default=())
    # Derived, write-once in __post_init__ (see there); declared as
    # non-init fields so the attributes are typed without entering
    # __init__, equality, or repr.  Deliberately plain attributes, not
    # properties: the simulator reads them at dispatch and completion
    # rate, and a property's descriptor call is measurable there.
    #: Whether this is a memory (gather/scatter) task; the MTL gate
    #: applies only to these.
    is_memory: bool = field(init=False, repr=False, compare=False)
    #: Total abstract work units the simulator must retire.  A task is
    #: a pipeline of unit-sized steps; each step costs
    #: ``cpu_seconds / work_units`` CPU time plus
    #: ``memory_requests / work_units`` off-chip requests at the
    #: prevailing latency.  The ``max`` in ``__post_init__`` keeps the
    #: unit granularity fine enough for both demand kinds.
    work_units: float = field(init=False, repr=False, compare=False)
    #: Per-work-unit resource demand — one shared (frozen) instance
    #: per task, so dispatching the same task repeatedly never
    #: rebuilds it.  :meth:`demand` returns this.
    unit_demand: MemoryDemand = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ConfigurationError("task_id must be non-empty")
        # One chained comparison per demand rejects negative, NaN and
        # infinite values alike: a non-finite demand would otherwise
        # reach the simulator as a NaN per-unit demand or an infinite
        # time step.
        if not 0.0 <= self.cpu_seconds < math.inf:
            raise ConfigurationError(
                f"task {self.task_id!r}: cpu_seconds must be finite and "
                f"non-negative, got {self.cpu_seconds}"
            )
        if not 0.0 <= self.memory_requests < math.inf:
            raise ConfigurationError(
                f"task {self.task_id!r}: memory_requests must be finite and "
                f"non-negative, got {self.memory_requests}"
            )
        if self.footprint_bytes < 0:
            raise ConfigurationError(
                f"footprint_bytes must be non-negative, got {self.footprint_bytes}"
            )
        if self.cpu_seconds == 0 and self.memory_requests == 0:
            raise ConfigurationError(
                f"task {self.task_id!r} has no work (zero CPU time and zero requests)"
            )
        # Every field is frozen, so the derived quantities the
        # simulator reads on each dispatch are computed exactly once
        # (attached behind the frozen dataclass's back; excluded from
        # equality and repr, consistent values under pickling).
        units = max(self.cpu_seconds * 1e9, self.memory_requests, 1.0)
        if units == math.inf:
            # A finite cpu_seconds above ~1.8e299 overflows the unit
            # count, and its per-unit CPU demand would become 0.0.
            raise ConfigurationError(
                f"task {self.task_id!r}: cpu_seconds {self.cpu_seconds} "
                "overflows the simulator's work units"
            )
        object.__setattr__(self, "is_memory", self.kind is TaskKind.MEMORY)
        object.__setattr__(self, "work_units", units)
        object.__setattr__(
            self,
            "unit_demand",
            MemoryDemand(
                cpu_seconds_per_unit=self.cpu_seconds / units,
                requests_per_unit=self.memory_requests / units,
            ),
        )

    def clone(
        self, task_id: str, pair_index: int, depends_on: Tuple[str, ...]
    ) -> "Task":
        """This task under another id, pair index and dependency tuple.

        Equal to the :class:`Task` constructed with the same fields,
        but it skips ``__post_init__``: the demands, kind and phase are
        this validated task's, so only the changed fields need checking
        (the id must be non-empty; pair indices and dependencies are
        never checked).  The derived fields are copied, so every clone
        shares this task's :attr:`unit_demand`.  A phase of identical
        pairs validates its first pair and clones the rest.
        """
        if not task_id:
            raise ConfigurationError("task_id must be non-empty")
        clone = object.__new__(type(self))
        fields = clone.__dict__
        # The template's dict order (the field order), so a clone
        # pickles exactly as a constructed task does.
        fields.update(self.__dict__)
        fields["task_id"] = task_id
        fields["pair_index"] = pair_index
        fields["depends_on"] = depends_on
        return clone

    @property
    def is_compute(self) -> bool:
        return not self.is_memory

    def demand(self) -> MemoryDemand:
        """Per-work-unit resource demand for the equilibrium solver.

        Returns :attr:`unit_demand`, one shared (frozen) instance per
        task, so dispatching the same task repeatedly never rebuilds
        it."""
        return self.unit_demand

    def duration_at_latency(self, request_latency: float) -> float:
        """Wall-clock duration if the request latency stayed constant.

        The simulator integrates this incrementally as contention
        changes; this closed form is what tests and the analytical
        model use for steady-state checks.
        """
        if request_latency < 0:
            raise ConfigurationError(
                f"request_latency must be non-negative, got {request_latency}"
            )
        return self.cpu_seconds + self.memory_requests * request_latency


@dataclass(frozen=True)
class TaskPair:
    """A gather/scatter memory task and its dependent compute task."""

    memory: Task
    compute: Task

    def __post_init__(self) -> None:
        if not self.memory.is_memory:
            raise ConfigurationError(
                f"pair's memory slot holds a {self.memory.kind.value} task"
            )
        if not self.compute.is_compute:
            raise ConfigurationError(
                f"pair's compute slot holds a {self.compute.kind.value} task"
            )
        if self.memory.task_id not in self.compute.depends_on:
            raise ConfigurationError(
                f"compute task {self.compute.task_id!r} does not depend on its "
                f"memory task {self.memory.task_id!r}"
            )

    @property
    def pair_index(self) -> int:
        return self.memory.pair_index

    @property
    def phase_index(self) -> int:
        return self.memory.phase_index


def memory_task(
    task_id: str,
    requests: float,
    footprint_bytes: int = 0,
    pair_index: int = 0,
    phase_index: int = 0,
    depends_on: Tuple[str, ...] = (),
) -> Task:
    """Create a pure memory (gather/scatter) task."""
    return Task(
        task_id=task_id,
        kind=TaskKind.MEMORY,
        cpu_seconds=0.0,
        memory_requests=requests,
        footprint_bytes=footprint_bytes,
        pair_index=pair_index,
        phase_index=phase_index,
        depends_on=depends_on,
    )


def compute_task(
    task_id: str,
    cpu_seconds: float,
    spilled_requests: float = 0.0,
    footprint_bytes: int = 0,
    pair_index: int = 0,
    phase_index: int = 0,
    depends_on: Tuple[str, ...] = (),
) -> Task:
    """Create a compute task, optionally with off-chip spill traffic.

    ``spilled_requests`` is non-zero only when the footprint contract
    is violated; the workload generators compute it from the LLC
    model's miss fraction.
    """
    return Task(
        task_id=task_id,
        kind=TaskKind.COMPUTE,
        cpu_seconds=cpu_seconds,
        memory_requests=spilled_requests,
        footprint_bytes=footprint_bytes,
        pair_index=pair_index,
        phase_index=phase_index,
        depends_on=depends_on,
    )
