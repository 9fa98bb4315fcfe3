"""Simulation results and derived statistics.

:class:`SimulationResult` is the immutable outcome of one run.  All the
quantities the paper reports are derived from it: makespan (the basis
of every speedup), per-kind mean task durations grouped by the MTL in
force (``T_mk`` and ``T_c``), core utilisation, the MTL timeline of a
dynamic policy, and the share of execution spent in monitoring windows.
:meth:`SimulationResult.verify` checks the MTL gate and the barriers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import MeasurementError
from repro.sim.events import MtlChange, TaskRecord
from repro.stream.graph import TaskGraph
from repro.stream.task import TaskKind

__all__ = ["SimulationResult"]


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated program execution."""

    program_name: str
    machine_name: str
    policy_name: str
    context_count: int
    records: Tuple[TaskRecord, ...]
    mtl_changes: Tuple[MtlChange, ...]

    @property
    def makespan(self) -> float:
        """Total execution time (what the paper's speedups compare)."""
        if not self.records:
            return 0.0
        return max(record.end for record in self.records)

    @property
    def task_count(self) -> int:
        return len(self.records)

    def durations(
        self,
        kind: Optional[TaskKind] = None,
        mtl: Optional[int] = None,
        phase_index: Optional[int] = None,
    ) -> List[float]:
        """Durations of records matching the given filters."""
        out = []
        for record in self.records:
            if kind is not None and record.kind is not kind:
                continue
            if mtl is not None and record.mtl_at_dispatch != mtl:
                continue
            if phase_index is not None and record.phase_index != phase_index:
                continue
            out.append(record.duration)
        return out

    def mean_memory_duration(
        self, mtl: Optional[int] = None, phase_index: Optional[int] = None
    ) -> float:
        """Mean memory-task duration — ``T_mk`` when filtered by MTL."""
        samples = self.durations(
            kind=TaskKind.MEMORY, mtl=mtl, phase_index=phase_index
        )
        if not samples:
            raise MeasurementError(
                f"no memory-task samples for mtl={mtl!r}, phase={phase_index!r}"
            )
        return sum(samples) / len(samples)

    def mean_compute_duration(self, phase_index: Optional[int] = None) -> float:
        """Mean compute-task duration — ``T_c``."""
        samples = self.durations(kind=TaskKind.COMPUTE, phase_index=phase_index)
        if not samples:
            raise MeasurementError(
                f"no compute-task samples for phase={phase_index!r}"
            )
        return sum(samples) / len(samples)

    def busy_time(self) -> float:
        """Total task-execution time summed over contexts."""
        return sum(record.duration for record in self.records)

    def utilization(self) -> float:
        """Fraction of context-seconds spent executing tasks."""
        span = self.makespan
        if span <= 0:
            return 0.0
        return self.busy_time() / (span * self.context_count)

    def idle_time(self) -> float:
        """Context-seconds spent idle (the cost of over-throttling)."""
        return self.makespan * self.context_count - self.busy_time()

    def probe_task_time_fraction(self) -> float:
        """Share of task-execution time inside monitoring windows.

        The paper quantifies monitoring cost as a percentage of total
        execution time (0.04% for its mechanism vs 4.87% for Online
        Exhaustive on streamcluster); this is the simulated analogue.
        """
        busy = self.busy_time()
        if busy <= 0:
            return 0.0
        probe = sum(r.duration for r in self.records if r.probe)
        return probe / busy

    def final_mtl(self) -> int:
        """MTL in force at the end of the run."""
        if not self.mtl_changes:
            raise MeasurementError("no MTL timeline recorded")
        return self.mtl_changes[-1].new_mtl

    def mtl_profile(self) -> List[Tuple[float, float, int]]:
        """The MTL constraint as ``(start, end, mtl)`` steps, one per
        entry of :attr:`mtl_changes`, the last ending at the makespan."""
        changes = self.mtl_changes
        ends = [change.time for change in changes[1:]] + [self.makespan]
        return [(c.time, end, c.new_mtl) for c, end in zip(changes, ends)]

    def mtl_residency(self) -> Dict[int, float]:
        """Seconds spent under each MTL value.

        For a dynamic policy this shows where the run settled; the
        mode of this distribution is the *D-MTL* reported in the
        paper's per-workload figures.
        """
        residency: Dict[int, float] = {}
        for start, end, mtl in self.mtl_profile():
            residency[mtl] = residency.get(mtl, 0.0) + max(end - start, 0.0)
        return residency

    def dominant_mtl(self) -> int:
        """The MTL the run spent the most time under (the D-MTL)."""
        residency = self.mtl_residency()
        if not residency:
            raise MeasurementError("no MTL timeline recorded")
        return max(residency, key=lambda k: residency[k])

    @staticmethod
    def _sweep(
        records: Sequence[TaskRecord],
    ) -> Iterator[Tuple[float, int, list]]:
        """Walk ``records`` in time order, ends before starts at equal
        times, yielding ``(time, in_flight, started)`` per distinct time:
        the memory records running until the next time (never a
        zero-length one), and ``(record, occupant)`` for each record
        starting at ``time``, ``occupant`` being what its context runs
        across ``time`` (zero-length records start first) or ``None``."""
        events = []
        for index, record in enumerate(records):
            if record.end > record.start:
                events += [(record.start, 2, index), (record.end, 0, index)]
            else:
                events.append((record.start, 1, index))
        running: Dict[int, TaskRecord] = {}
        in_flight = 0
        for time, group in groupby(sorted(events), key=itemgetter(0)):
            started = []
            for _, rank, index in group:
                record = records[index]
                context = record.context_id
                if rank == 0:
                    running.pop(context, None)
                    in_flight -= record.is_memory
                    continue
                started.append((record, running.get(context)))
                if rank == 2:
                    running[context] = record
                    in_flight += record.is_memory
            yield time, in_flight, started

    def memory_concurrency_profile(self) -> List[Tuple[float, float, int]]:
        """Memory-task concurrency as ``(start, end, concurrent)`` steps
        from the first memory-task start to the last end, split at every
        memory-task start and end."""
        memory = [r for r in self.records if r.is_memory]
        steps = [(time, live) for time, live, _ in self._sweep(memory)]
        return [(t, end, n) for (t, n), (end, _) in zip(steps, steps[1:])]

    def peak_memory_concurrency(self) -> int:
        """Largest number of simultaneously running memory tasks."""
        memory = [r for r in self.records if r.is_memory]
        return max((live for _, live, _ in self._sweep(memory)), default=0)

    def verify(self, graph: TaskGraph) -> None:
        """Check this run of ``graph`` against the mechanism's invariants
        (``docs/simulator.md``, "Determinism and bounds"), raising
        :class:`MeasurementError` at the first record or MTL change to
        break coverage, a dependency, the MTL timeline, one core and one
        record per context, the gate (the memory tasks in flight at a
        memory task's start, itself included, at most its
        ``mtl_at_dispatch``) or that MTL being in force at the start."""
        by_id: Dict[str, TaskRecord] = {}
        cores: Dict[int, int] = {}
        for record in self.records:
            name = record.task_id
            if name in by_id or name not in graph:
                problem = "recorded twice" if name in by_id else "unknown"
                raise MeasurementError(f"task {name!r} {problem}")
            by_id[name] = record
            core = cores.setdefault(record.context_id, record.core_id)
            if record.core_id != core:
                raise MeasurementError(
                    f"task {name!r} ran on core {record.core_id}, not {core}"
                )
        for task in graph:
            if task.task_id not in by_id:
                raise MeasurementError(f"task {task.task_id!r} has no record")
        for join in graph.joins:
            # Every member lists the same tuple.
            ready = max(by_id[dep].end for dep in join.members[0].depends_on)
            for task in join.members:
                if by_id[task.task_id].start < ready:
                    raise MeasurementError(
                        f"task {task.task_id!r} started before its dependencies ended"
                    )

        changes = self.mtl_changes
        if not changes or changes[0].time != 0.0:
            raise MeasurementError("the MTL timeline does not open at time 0")
        mtls = range(1, self.context_count + 1)
        for change in changes:
            if change.old_mtl not in mtls or change.new_mtl not in mtls:
                raise MeasurementError(f"{change} leaves [1, {len(mtls)}]")
        for previous, change in zip(changes, changes[1:]):
            if change.old_mtl != previous.new_mtl or change.time < previous.time:
                raise MeasurementError(f"{change} does not follow {previous}")

        times = [change.time for change in changes]
        for time, in_flight, started in self._sweep(self.records):
            # The MTL just before ``time``, and every MTL set at it.
            first = max(bisect_left(times, time) - 1, 0)
            last = bisect_right(times, time)
            in_force = {change.new_mtl for change in changes[first:last]}
            for record, occupant in started:
                name, mtl = record.task_id, record.mtl_at_dispatch
                if occupant is not None:
                    raise MeasurementError(
                        f"context {record.context_id} ran "
                        f"{occupant.task_id!r} and {name!r} concurrently"
                    )
                live = in_flight + (record.end == record.start)
                if record.is_memory and live > mtl:
                    raise MeasurementError(
                        f"memory task {name!r} started with {live} memory "
                        f"tasks in flight, over its MTL {mtl}"
                    )
                if mtl not in in_force:
                    raise MeasurementError(
                        f"task {name!r} ran under MTL {mtl}, not in force "
                        f"at {time!r}"
                    )
