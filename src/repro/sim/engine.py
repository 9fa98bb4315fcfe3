"""Processor-sharing rate calculation.

Between two events nothing about the running-task population changes,
so every task progresses at a constant rate.  This module computes
those rates:

1. Count, per core, the contexts running CPU-demanding work and derive
   each context's execution rate (SMT sharing).
2. Build each task's per-work-unit memory demand (its CPU component
   slowed by the execution rate) and solve the contention equilibrium
   for the effective memory concurrency.
3. Each task's speed is the reciprocal of its per-unit cost
   ``cpu_per_unit / cpu_rate + requests_per_unit * L(c)``.

For a population of ``k`` pure memory tasks and any number of miss-free
compute tasks this reduces exactly to the paper's model: each memory
task retires one request per ``L(k)`` and each compute task runs at
full speed, so ``T_mk = requests * L(k)`` and ``T_c`` is MTL-invariant.

Hot-path structure (see ``docs/performance.md``): a snapshot is a pure
function of the population's *signature* — per position, in
population order, the number of CPU-active contexts on that task's
core and, in the work phase, the task's per-unit demand.  Nothing else
is read: no context id and no core id, so one signature serves a
population wherever it is placed, and :class:`RateSnapshot` lists its
rates by position.  :class:`RateCalculator` memoizes whole snapshots
keyed by the signature tuple; an unchanged population (the
overwhelmingly common case across a sweep's event pairs) costs one
dict lookup instead of an equilibrium solve.  Each machine owns one
calculator (:attr:`~repro.sim.machine.Machine.rate_calculator`), so
the memo outlives a run and serves every simulator on that machine.
Phase transitions and MTL changes need no explicit cache invalidation:
they change the population's signature, which simply selects a
different memo slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from repro.errors import SimulationError
from repro.memory.equilibrium import MemoryDemand
from repro.memory.system import MemorySystem
from repro.sim.cores import Processor
from repro.stream.task import Task

__all__ = ["RunningTask", "RateSnapshot", "RateCalculator", "snapshot_key"]

#: Relative work threshold below which a task counts as finished.
#: Historically lived in :mod:`repro.sim.simulator` (which re-exports
#: it); it moved here so :class:`RunningTask` can precompute each
#: task's absolute completion threshold at dispatch.
_COMPLETION_EPSILON = 1e-9

#: Snapshots a :class:`RateCalculator` keeps before it starts over.
#: The memo lives as long as its machine, across every point a process
#: runs on it, so it needs a bound.  On the SMT i7-860 one point of
#: the e2ebench ``policy-mix-smt`` workload needs up to 4,028 entries,
#: and its 70 points 10,348; at about 600 B an entry, 8,192 keeps most
#: of that reuse in about 5 MB (``docs/performance.md`` gives the
#: measurements).
MEMO_ENTRIES = 8192


class RunningTask:
    """Mutable execution state of one dispatched task.

    A plain ``__slots__`` class (not a dataclass): the event loop reads
    these attributes every event, and slots keep that access — and the
    per-dispatch allocation — cheap.  The derived fields (``demand``,
    ``total_units`` and ``work_uses_cpu``) are computed once at
    construction: the task is frozen, so they can never go stale.
    """

    #: The dispatch-fixed fields :func:`snapshot_key` and
    #: :meth:`RateCalculator.compute_snapshot` read.  The snapshot memo
    #: has no invalidation path, so these are never written after
    #: construction (lint rule RPR202 holds every module to that).
    #: ``overhead_remaining`` is read too, but it is state the loop
    #: tracks: its drain to 0 rewrites the task's signature entry.
    MEMO_KEY = ("core_id", "demand", "work_uses_cpu")

    __slots__ = (
        "task",
        "context_id",
        "core_id",
        "start",
        "remaining_units",
        "overhead_remaining",
        "mtl_at_dispatch",
        "probe",
        "demand",
        "total_units",
        "completion_threshold",
        "work_uses_cpu",
    )

    def __init__(
        self,
        task: Task,
        context_id: int,
        core_id: int,
        start: float,
        remaining_units: float,
        overhead_remaining: float,
        mtl_at_dispatch: int,
        probe: bool = False,
    ) -> None:
        self.task = task
        self.context_id = context_id
        self.core_id = core_id
        self.start = start
        self.remaining_units = remaining_units
        self.overhead_remaining = overhead_remaining
        self.mtl_at_dispatch = mtl_at_dispatch
        self.probe = probe
        #: Per-work-unit demand, shared with the (frozen) task.
        self.demand = task.unit_demand
        #: ``task.work_units``, cached for the per-event completion check.
        self.total_units = task.work_units
        #: ``_COMPLETION_EPSILON * total_units``, hoisted out of the
        #: event loop: the product of two per-task constants is itself
        #: constant, so precomputing it is bitwise-free.
        self.completion_threshold = _COMPLETION_EPSILON * self.total_units
        #: Whether the work phase keeps this task's context CPU-active
        #: (the overhead phase always does).  Read off the per-unit
        #: demand the signature holds, so a CPU time that underflows to
        #: 0.0 per unit counts exactly as it keys.
        self.work_uses_cpu = self.demand.cpu_seconds_per_unit > 0

    def __repr__(self) -> str:
        return (
            f"RunningTask(task={self.task.task_id!r}, "
            f"context_id={self.context_id}, core_id={self.core_id}, "
            f"start={self.start}, remaining_units={self.remaining_units}, "
            f"overhead_remaining={self.overhead_remaining}, "
            f"mtl_at_dispatch={self.mtl_at_dispatch}, probe={self.probe})"
        )

    def signature(self, cpu_active_on_core: int) -> object:
        """This task's signature entry, given the CPU-active contexts on
        its core (itself included): the bare count in the overhead
        phase, ``(count, cpu_seconds_per_unit, requests_per_unit)`` in
        the work phase.

        During the overhead phase the task is pure CPU: its demand never
        reaches the memory system and its speed is pinned to 0, so the
        entry deliberately omits the demand — overhead tasks with
        different demands produce identical snapshots.
        """
        if self.overhead_remaining > 0.0:
            return cpu_active_on_core
        demand = self.demand
        return (
            cpu_active_on_core,
            demand.cpu_seconds_per_unit,
            demand.requests_per_unit,
        )


def _cpu_active_per_core(running: Sequence[RunningTask]) -> Dict[int, int]:
    """CPU-active contexts per core id.

    A context is CPU-active when its task currently demands CPU: the
    pure-CPU dispatch-overhead phase, or real CPU work
    (:attr:`RunningTask.work_uses_cpu`).  Memory tasks past their
    overhead phase sit in prefetch stalls and do not pressure the core.
    """
    counts: Dict[int, int] = {}
    for rt in running:
        if rt.overhead_remaining > 0.0 or rt.work_uses_cpu:
            counts[rt.core_id] = counts.get(rt.core_id, 0) + 1
    return counts


def snapshot_key(running: Sequence[RunningTask]) -> Tuple:
    """The population's signature, the memo key of its snapshot.

    One entry per position, in population order
    (:meth:`RunningTask.signature`).  The simulator's default loop keeps
    the same tuple current incrementally instead of calling this.
    """
    active = _cpu_active_per_core(running)
    return tuple([rt.signature(active.get(rt.core_id, 0)) for rt in running])


@dataclass(frozen=True)
class RateSnapshot:
    """Rates for the current running population, by position.

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10),
    since a calculator's memo holds thousands of these.  A frozen
    slotted instance does not unpickle, and none needs to: a pickled
    machine drops its calculator.

    Attributes:
        speeds: Work units per second of each running task, in
            population order.
        cpu_rates: Execution rate of each running task's context (SMT
            sharing), in population order.
        request_latency: Per-request memory latency every running task
            currently sees.
        memory_concurrency: Effective memory concurrency behind that
            latency.
    """

    __slots__ = ("speeds", "cpu_rates", "request_latency", "memory_concurrency")

    speeds: Tuple[float, ...]
    cpu_rates: Tuple[float, ...]
    request_latency: float
    memory_concurrency: float


class RateCalculator:
    """Computes progress rates for a running-task population.

    Snapshots are memoized by population signature (see the module
    docstring); :meth:`snapshot` is the memoized entry point the
    simulator uses, :meth:`compute_snapshot` the always-cold path the
    memoization property tests compare against.  The memo clears when
    it reaches ``max_entries``.  ``hits`` / ``misses`` feed the engine
    section's ``snapshot_cache`` counters in ``BENCH_sim.json``
    (``python -m repro perfbench``).
    """

    def __init__(
        self,
        processor: Processor,
        memory: MemorySystem,
        max_entries: int = MEMO_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise SimulationError(f"max_entries must be >= 1, got {max_entries}")
        self._processor = processor
        self._memory = memory
        self._max_entries = max_entries
        self._memo: Dict[Tuple, RateSnapshot] = {}
        # One tuple per distinct ``cpu_rates`` value, shared by every
        # snapshot that has it; cleared with the memo.
        self._shared_rates: Dict[Tuple[float, ...], Tuple[float, ...]] = {}
        self.hits = 0
        self.misses = 0

    def cache_info(self) -> Dict[str, int]:
        """Lookup counters and table size, for telemetry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memo),
        }

    def snapshot(self, running: Iterable[RunningTask]) -> RateSnapshot:
        """Rates, latency, and concurrency for the current population.

        Memoized: a population whose signature was seen before returns
        the previously computed (frozen, shareable) snapshot object.
        """
        if not isinstance(running, (list, tuple)):
            running = list(running)
        return self.snapshot_keyed(snapshot_key(running), running)

    def snapshot_keyed(
        self, key: Tuple, running: Sequence[RunningTask]
    ) -> RateSnapshot:
        """Memoized snapshot for a caller-maintained signature key.

        The simulator's default event loop keeps the population
        signature current incrementally, skipping the rebuild
        :meth:`snapshot` performs.  ``key`` must equal
        ``snapshot_key(running)``; both entry points share one memo, so
        mixing them is safe.
        """
        cached = self._memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if len(self._memo) >= self._max_entries:
            # Populations recur in tight cycles; overflowing the table
            # means the working set outgrew it — start over rather than
            # track recency on the per-event path.
            self._memo.clear()
            self._shared_rates.clear()
        snap = self.compute_snapshot(running)
        self._memo[key] = snap
        return snap

    def compute_snapshot(self, running: Iterable[RunningTask]) -> RateSnapshot:
        """The cold path: compute a snapshot without touching the memo.

        Its ``cpu_rates`` tuple is the calculator's shared one for that
        value, so equal rates cost one tuple however many snapshots
        hold them."""
        if not isinstance(running, (list, tuple)):
            running = list(running)
        cpu_rates = self._cpu_rates(running)
        cpu_rates = self._shared_rates.setdefault(cpu_rates, cpu_rates)

        demands = []
        for rt, rate in zip(running, cpu_rates):
            if rt.overhead_remaining > 0.0:
                # Overhead is pure CPU; no memory demand yet.
                continue
            demand = rt.demand
            demands.append(
                MemoryDemand(
                    cpu_seconds_per_unit=demand.cpu_seconds_per_unit / rate,
                    requests_per_unit=demand.requests_per_unit,
                )
            )
        concurrency, latency = self._memory.resolve(demands)

        speeds = []
        for rt, rate in zip(running, cpu_rates):
            if rt.overhead_remaining > 0.0:
                speeds.append(0.0)  # work phase not started
                continue
            demand = rt.demand
            unit_cost = (
                demand.cpu_seconds_per_unit / rate
                + demand.requests_per_unit * latency
            )
            if unit_cost <= 0:
                raise SimulationError(
                    f"task {rt.task.task_id!r} has non-positive unit cost"
                )
            speeds.append(1.0 / unit_cost)
        return RateSnapshot(
            speeds=tuple(speeds),
            cpu_rates=cpu_rates,
            request_latency=latency,
            memory_concurrency=concurrency,
        )

    def _cpu_rates(self, running: Sequence[RunningTask]) -> Tuple[float, ...]:
        """Per-position execution rates under SMT sharing, from the
        CPU-active count on each position's core (which the key holds)."""
        active = _cpu_active_per_core(running)
        cpu_rate = self._processor.cpu_rate
        return tuple([cpu_rate(active.get(rt.core_id, 0)) for rt in running])
