"""Request-level machine simulation.

The main simulator (:mod:`repro.sim.simulator`) models memory time
through a contention law.  This module removes that abstraction for
validation purposes: every memory task issues its cache-line requests
*individually* into the bank-level FR-FCFS controller
(:class:`~repro.memory.dram.FrFcfsController`), so queueing, row
locality, bank conflicts, and bus serialisation **emerge** from
microarchitectural state instead of being postulated.  The scheduling
side (work queue, MTL token gate, policies, phase barriers) is shared
with the main simulator, so any policy — including the dynamic
throttler — runs unchanged.

Scope: the detailed mode supports pure memory tasks and miss-free
compute tasks on SMT-off machines (the configuration of the paper's
headline experiments).  Those restrictions keep the co-simulation
exact; the rate-based simulator covers the spill/SMT regimes.

Cost: one event per cache line.  A 0.5 MB tile is 8192 events, so use
smaller tiles (e.g. 32-64 KiB) for sweeps; the validation benchmark
shows the closed-form and request-level machines agree on speedups
and MTL decisions (``benchmarks/test_ablation_request_level.py``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.memory.dram import DramRequest, FrFcfsController
from repro.memory.timing import DDR3_1066, DramTiming
from repro.sim.events import MtlChange, TaskRecord
from repro.sim.noise import NoiseModel, ZeroNoise
from repro.sim.results import SimulationResult
from repro.sim.scheduler import MtlGate, ThrottlePolicyPlugin, WorkQueue
from repro.stream.program import StreamProgram
from repro.stream.task import Task
from repro.units import CACHE_LINE_BYTES

__all__ = ["DetailedSimulator"]

#: Hard ceiling on simulated requests per run — one event each; beyond
#: this the run would silently take minutes, so fail loudly instead.
_MAX_TOTAL_REQUESTS = 5_000_000


class _MemoryTaskState:
    """Progress of one in-flight memory task."""

    __slots__ = ("task", "context_id", "core_id", "start", "remaining",
                 "next_line", "mtl_at_dispatch", "probe")

    def __init__(self, task: Task, context_id: int, core_id: int,
                 start: float, requests: int, base_line: int,
                 mtl_at_dispatch: int, probe: bool) -> None:
        self.task = task
        self.context_id = context_id
        self.core_id = core_id
        self.start = start
        self.remaining = requests
        self.next_line = base_line
        self.mtl_at_dispatch = mtl_at_dispatch
        self.probe = probe


class DetailedSimulator:
    """Co-simulation of CPU scheduling and per-request DRAM timing.

    Args:
        core_count: Physical cores (one context each; SMT excluded).
        timing: DRAM device grade.
        channels: Memory channels.
        noise: Optional noise model applied to compute durations and
            dispatch overhead (memory jitter emerges from the DRAM
            model itself).
    """

    def __init__(
        self,
        core_count: int = 4,
        timing: DramTiming = DDR3_1066,
        channels: int = 1,
        noise: Optional[NoiseModel] = None,
    ) -> None:
        if core_count < 1:
            raise ConfigurationError(f"core_count must be >= 1, got {core_count}")
        self.core_count = core_count
        self.timing = timing
        self.channels = channels
        self.noise: NoiseModel = noise if noise is not None else ZeroNoise()

    def run(
        self, program: StreamProgram, policy: ThrottlePolicyPlugin
    ) -> SimulationResult:
        graph = program.to_task_graph()
        self._validate_graph(graph)

        queue = WorkQueue(graph)
        gate = MtlGate(self._validated_mtl(policy))
        controller = FrFcfsController(timing=self.timing, channels=self.channels)
        lines_per_region = max(
            self.timing.row_bytes // CACHE_LINE_BYTES * 4,
            max(int(t.memory_requests) for t in graph if t.is_memory) + 1,
        ) if any(t.is_memory for t in graph) else 1

        # Event heap: (time, sequence, kind, context_id).
        events: List[Tuple[float, int, str, int]] = []
        sequence = 0
        memory_states: Dict[int, _MemoryTaskState] = {}
        compute_running: Dict[int, Tuple[Task, float, int, bool]] = {}
        records: List[TaskRecord] = []
        mtl_changes = [MtlChange(0.0, gate.limit, gate.limit, "initial")]
        region_counter = 0
        now = 0.0

        def push(time: float, kind: str, context_id: int) -> None:
            nonlocal sequence
            heapq.heappush(events, (time, sequence, kind, context_id))
            sequence += 1

        def dispatch() -> None:
            nonlocal region_counter
            for context_id in range(self.core_count):
                if context_id in memory_states or context_id in compute_running:
                    continue
                task = queue.pop_compute(context_id)
                if task is None and queue.pending_memory > 0 and gate.try_acquire():
                    task = queue.pop_memory()
                    if task is None:  # pragma: no cover
                        gate.release()
                        continue
                    queue.note_memory_ran_on(task, context_id)
                if task is None:
                    continue
                overhead = self.noise.dispatch_overhead()
                probe = policy.is_probing()
                if task.is_memory:
                    requests = max(int(round(task.memory_requests)), 1)
                    state = _MemoryTaskState(
                        task=task, context_id=context_id,
                        core_id=context_id, start=now,
                        requests=requests,
                        base_line=region_counter * lines_per_region,
                        mtl_at_dispatch=gate.limit, probe=probe,
                    )
                    region_counter += 1
                    memory_states[context_id] = state
                    self._issue_next(controller, state, arrival=now + overhead)
                else:
                    duration = (
                        overhead
                        + task.cpu_seconds * self.noise.duration_factor()
                    )
                    compute_running[context_id] = (task, now, gate.limit, probe)
                    push(now + duration, "compute", context_id)

        def drain_controller() -> None:
            while controller.pending_count > 0:
                request, _ = controller.service_one()
                assert request.completion is not None
                push(request.completion, "request", request.stream_id)

        def complete(task: Task, context_id: int, start: float,
                     mtl: int, probe: bool) -> None:
            record = TaskRecord(
                task_id=task.task_id, kind=task.kind, context_id=context_id,
                core_id=context_id, start=start, end=now,
                mtl_at_dispatch=mtl, phase_index=task.phase_index,
                pair_index=task.pair_index, probe=probe,
            )
            records.append(record)
            queue.mark_complete(task)
            policy.on_task_complete(record, now)

        max_events = _MAX_TOTAL_REQUESTS
        processed = 0
        while not queue.exhausted():
            self._sync_mtl(policy, gate, mtl_changes, now)
            dispatch()
            drain_controller()
            if not events:
                raise SimulationError(
                    "detailed simulation wedged: work remains but no "
                    "events are scheduled"
                )
            processed += 1
            if processed > max_events:
                raise SimulationError(
                    f"detailed simulation exceeded {max_events} events; "
                    "shrink the memory-task footprints"
                )
            time, _, kind, context_id = heapq.heappop(events)
            now = time
            if kind == "compute":
                task, start, mtl, probe = compute_running.pop(context_id)
                complete(task, context_id, start, mtl, probe)
            else:
                state = memory_states[context_id]
                state.remaining -= 1
                if state.remaining > 0:
                    self._issue_next(controller, state, arrival=now)
                else:
                    del memory_states[context_id]
                    gate.release()
                    complete(state.task, context_id, state.start,
                             state.mtl_at_dispatch, state.probe)

        return SimulationResult(
            program_name=program.name,
            machine_name=(
                f"detailed-{self.core_count}core/{self.channels}ch"
            ),
            policy_name=policy.name,
            context_count=self.core_count,
            records=tuple(records),
            mtl_changes=tuple(mtl_changes),
        )

    def _issue_next(
        self,
        controller: FrFcfsController,
        state: _MemoryTaskState,
        arrival: float,
    ) -> None:
        address = controller.decode(state.next_line * CACHE_LINE_BYTES)
        state.next_line += 1
        controller.submit(
            DramRequest(
                stream_id=state.context_id, address=address, arrival=arrival
            )
        )

    def _validate_graph(self, graph) -> None:
        total_requests = 0
        for task in graph:
            if task.is_memory and task.cpu_seconds > 0:
                raise ConfigurationError(
                    f"detailed mode needs pure memory tasks; "
                    f"{task.task_id!r} carries CPU work"
                )
            if task.is_compute and task.memory_requests > 0:
                raise ConfigurationError(
                    f"detailed mode needs miss-free compute tasks; "
                    f"{task.task_id!r} carries spill traffic (use the "
                    "rate-based simulator for the over-footprint regime)"
                )
            if task.is_memory:
                total_requests += int(round(task.memory_requests))
        if total_requests > _MAX_TOTAL_REQUESTS:
            raise ConfigurationError(
                f"program would issue {total_requests} requests "
                f"(> {_MAX_TOTAL_REQUESTS}); shrink footprints for the "
                "detailed mode"
            )

    def _validated_mtl(self, policy: ThrottlePolicyPlugin) -> int:
        mtl = policy.current_mtl()
        if not 1 <= mtl <= self.core_count:
            raise ConfigurationError(
                f"policy {policy.name!r} requested MTL {mtl}, outside "
                f"[1, {self.core_count}]"
            )
        return mtl

    def _sync_mtl(self, policy, gate, mtl_changes, now) -> None:
        mtl = self._validated_mtl(policy)
        if mtl != gate.limit:
            mtl_changes.append(
                MtlChange(time=now, old_mtl=gate.limit, new_mtl=mtl,
                          reason=policy.name)
            )
            gate.set_limit(mtl)
