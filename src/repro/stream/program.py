"""Phased stream programs.

A :class:`StreamProgram` is the unit the experiments run: an ordered
sequence of :class:`ProgramPhase` objects, each holding ``t``
independent memory/compute task pairs (Figure 3(b) of the paper).
Phases model the structure of real workloads — SIFT, for instance, is
a sequence of parallel functions with very different memory-to-compute
ratios (Table III), and each function is one phase.  A barrier
separates phases: no task of phase ``i+1`` may start before every task
of phase ``i`` completes, which is how ``pthread_join``-style parallel
sections behave.

A phase's pairs are identical but for their ids and pair indices, so
:func:`build_phase` validates pair 0 and clones the rest
(:meth:`~repro.stream.task.Task.clone`), and the graph gives every
memory task behind one barrier the same dependency tuple, which
:class:`~repro.stream.graph.TaskGraph` turns into one join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.stream.graph import TaskGraph
from repro.stream.task import Task, TaskPair, compute_task, memory_task

__all__ = ["ProgramPhase", "StreamProgram", "build_phase"]


@dataclass(frozen=True)
class ProgramPhase:
    """One parallel section: ``t`` independent task pairs.

    Attributes:
        name: Human-readable phase name (e.g. ``"ECONVOLVE"``).
        pairs: The phase's task pairs; all memory tasks are mutually
            independent, and each compute task depends only on its
            memory task (plus the implicit phase barrier).
    """

    name: str
    pairs: Tuple[TaskPair, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("phase name must be non-empty")
        if not self.pairs:
            raise ConfigurationError(f"phase {self.name!r} has no task pairs")

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    def mean_memory_requests(self) -> float:
        return sum(p.memory.memory_requests for p in self.pairs) / len(self.pairs)

    def mean_compute_seconds(self) -> float:
        return sum(p.compute.cpu_seconds for p in self.pairs) / len(self.pairs)


class StreamProgram:
    """An ordered sequence of phases forming one application."""

    def __init__(self, name: str, phases: Sequence[ProgramPhase]) -> None:
        if not name:
            raise ConfigurationError("program name must be non-empty")
        if not phases:
            raise ConfigurationError(f"program {name!r} has no phases")
        self.name = name
        self.phases: Tuple[ProgramPhase, ...] = tuple(phases)
        self._task_graph: Optional[TaskGraph] = None

    @property
    def total_pairs(self) -> int:
        return sum(phase.pair_count for phase in self.phases)

    def all_pairs(self) -> List[TaskPair]:
        return [pair for phase in self.phases for pair in phase.pairs]

    def to_task_graph(self) -> TaskGraph:
        """The program's validated task graph, with phase barriers.

        The barrier is encoded by making every memory task of phase
        ``i+1`` depend on every compute task of phase ``i``; this is
        exactly the join semantics of consecutive parallel sections.
        Those memory tasks are clones of the program's own, sharing one
        barrier tuple per phase, so the graph holds the barrier as one
        join with one counter.  Compute tasks and the first phase's
        memory tasks (no barrier before them) enter the graph as the
        program's own :class:`Task` objects.

        The graph is built on the first call, and every later call
        returns that same object: the phases are frozen dataclasses, so
        the graph cannot go stale.  It is shared by every run of this
        program (each run builds its own work queue over it) and is
        read-only.
        """
        if self._task_graph is None:
            tasks: List[Task] = []
            barrier: Tuple[str, ...] = ()
            for phase in self.phases:
                for pair in phase.pairs:
                    memory = pair.memory
                    if barrier:
                        own = memory.depends_on
                        memory = memory.clone(
                            memory.task_id,
                            memory.pair_index,
                            barrier + own if own else barrier,
                        )
                    tasks.append(memory)
                    tasks.append(pair.compute)
                barrier = tuple(pair.compute.task_id for pair in phase.pairs)
            self._task_graph = TaskGraph(tasks)
        return self._task_graph


def build_phase(
    name: str,
    phase_index: int,
    pair_count: int,
    requests_per_memory_task: float,
    compute_seconds_per_task: float,
    footprint_bytes: int = 0,
    compute_spill_requests: float = 0.0,
) -> ProgramPhase:
    """Construct a phase of ``pair_count`` equally-sized task pairs.

    This is the "equally-sized and cache-friendly" decomposition the
    paper's stream rewriting produces (Section I); all memory tasks of
    the phase are identical, as are all compute tasks.  So pair 0 is
    constructed (and validated) and pairs ``1..pair_count-1`` are its
    clones; each pair still goes through :class:`TaskPair`'s checks.
    """
    if pair_count <= 0:
        raise ConfigurationError(f"pair_count must be positive, got {pair_count}")
    memory_id = f"M[{phase_index}.0]"
    mem = memory_task(
        memory_id,
        requests=requests_per_memory_task,
        footprint_bytes=footprint_bytes,
        pair_index=0,
        phase_index=phase_index,
    )
    comp = compute_task(
        f"C[{phase_index}.0]",
        cpu_seconds=compute_seconds_per_task,
        spilled_requests=compute_spill_requests,
        footprint_bytes=footprint_bytes,
        pair_index=0,
        phase_index=phase_index,
        depends_on=(memory_id,),
    )
    pairs: List[TaskPair] = [TaskPair(memory=mem, compute=comp)]
    for i in range(1, pair_count):
        memory_id = f"M[{phase_index}.{i}]"
        pairs.append(
            TaskPair(
                memory=mem.clone(memory_id, i, ()),
                compute=comp.clone(f"C[{phase_index}.{i}]", i, (memory_id,)),
            )
        )
    return ProgramPhase(name=name, pairs=tuple(pairs))
