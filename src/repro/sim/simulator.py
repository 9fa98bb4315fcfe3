"""The simulation event loop.

:class:`Simulator` executes a :class:`~repro.stream.program.StreamProgram`
on a :class:`~repro.sim.machine.Machine` under a
:class:`~repro.sim.scheduler.ThrottlePolicyPlugin`, producing a
:class:`~repro.sim.results.SimulationResult`.

The loop alternates two actions until the work queue drains:

1. **Dispatch** — every idle hardware context first tries a ready
   compute task (cache-affinity preferred), then a ready memory task
   if the MTL gate grants a token, else idles (Section III semantics).
2. **Advance** — rates are recomputed for the running population
   (processor sharing + memory-contention equilibrium) and time jumps
   to the next task-phase boundary or completion.  Completions release
   MTL tokens, unlock dependents, and are reported to the policy,
   which may retune the MTL for subsequent dispatches.

Two implementations of the loop exist, selected by the
``cohort_batching`` constructor flag (a historical name, kept for
compatibility):

* **Default** — one flat per-task loop: per-event costs live in
  locals, idle contexts are tracked in a sorted list instead of
  rescanned, the population's signature memo key is maintained
  incrementally (per core: only a core whose CPU-active count changed
  has its entries rewritten), and MTL validation/plugin no-op hooks
  are skipped when provably inert.  It performs the reference loop's
  float operations in the reference loop's order, so results are
  bit-identical.
* **Reference** (``cohort_batching=False``) — the seed's per-task
  stepping, kept as the oracle for the equivalence tests
  (``tests/sim/test_cohort_advancement.py``) and for bisecting any
  future divergence.

Determinism: given the same program, machine, policy, and noise seed,
two runs produce identical results.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, List, Optional, Set

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import _COMPLETION_EPSILON, RateCalculator, RunningTask
from repro.sim.events import MtlChange, TaskRecord
from repro.sim.machine import Machine, i7_860
from repro.sim.noise import NoiseModel, ZeroNoise
from repro.sim.results import SimulationResult
from repro.sim.scheduler import (
    FixedMtlPolicy,
    MtlGate,
    ThrottlePolicyPlugin,
    WorkQueue,
)
from repro.stream.program import StreamProgram
from repro.stream.task import Task

__all__ = ["Simulator", "simulate"]

#: ``TaskRecord.__new__``, hoisted for the default loop's fast record
#: construction (see the comment at the construction site).
_RECORD_NEW = TaskRecord.__new__


def _plugin_hook(policy: ThrottlePolicyPlugin, name: str):
    """Resolve an optional plugin hook, skipping default no-op bodies.

    Returns the bound method only when the policy overrides the
    :class:`~repro.sim.scheduler.ThrottlePolicyPlugin` default; the
    dispatch hot path then pays for a hook exactly when one is
    implemented.
    """
    method = getattr(policy, name)
    if getattr(method, "__func__", None) is getattr(ThrottlePolicyPlugin, name):
        return None
    return method


class Simulator:
    """Reusable simulator bound to one machine and noise model.

    Rate snapshots come from the machine's one memoizing
    :attr:`~repro.sim.machine.Machine.rate_calculator`, so simulators on
    one machine share what each run has computed.

    Args:
        machine: Machine to simulate.
        noise: Task-duration noise model (default: none).
        dispatch_preference: What an idle context tries first —
            ``"compute-first"`` (the default; a freed context consumes
            the compute task whose data it just gathered, the
            cache-friendly order the paper's runtime exhibits) or
            ``"memory-first"`` (keep the memory pipeline maximally
            full; exists for the scheduling-order ablation).
        cohort_batching: ``True`` (the default) runs the optimized
            event loop, ``False`` the per-task reference loop; results
            are bit-identical either way (the equivalence tests pin
            this), the flag exists so tests can compare the two and
            any future divergence can be bisected.  The name is kept
            for compatibility.
    """

    _DISPATCH_PREFERENCES = ("compute-first", "memory-first")

    def __init__(
        self,
        machine: Machine,
        noise: Optional[NoiseModel] = None,
        dispatch_preference: str = "compute-first",
        cohort_batching: bool = True,
    ) -> None:
        if dispatch_preference not in self._DISPATCH_PREFERENCES:
            raise ConfigurationError(
                f"dispatch_preference must be one of "
                f"{self._DISPATCH_PREFERENCES}, got {dispatch_preference!r}"
            )
        self.machine = machine
        self.noise: NoiseModel = noise if noise is not None else ZeroNoise()
        self.dispatch_preference = dispatch_preference
        self.cohort_batching = bool(cohort_batching)
        self._rates = machine.rate_calculator
        # Read once: the policy-validation path consults it per event.
        self._context_count = machine.context_count

    @property
    def rate_calculator(self) -> RateCalculator:
        """The machine's (memoizing) rate calculator, shared with every
        simulator on the machine; exposed for perfbench's
        cache-effectiveness counters."""
        return self._rates

    def run(
        self, program: StreamProgram, policy: ThrottlePolicyPlugin
    ) -> SimulationResult:
        """Execute ``program`` to completion under ``policy``."""
        return self.run_graph(program.to_task_graph(), policy, program.name)

    def run_graph(
        self,
        graph,
        policy: ThrottlePolicyPlugin,
        name: str,
    ) -> SimulationResult:
        """Execute a pre-built task graph (multiprogram mixes use this
        to bypass the single-program phase-barrier construction)."""
        queue = WorkQueue(graph)
        # Plugin moments (the init/setup/update shape): bind the policy
        # to the machine, then resolve the optional hooks once so no-op
        # defaults cost nothing per event.
        setup = _plugin_hook(policy, "setup")
        if setup is not None:
            setup(self.machine)
        on_dispatch = _plugin_hook(policy, "on_task_dispatch")
        blocks = _plugin_hook(policy, "blocks_context")
        gate = MtlGate(self._validated_mtl(policy))
        contexts = self.machine.processor.contexts()
        records: List[TaskRecord] = []
        mtl_changes: List[MtlChange] = [
            MtlChange(time=0.0, old_mtl=gate.limit, new_mtl=gate.limit, reason="initial")
        ]
        loop = self._run_loop if self.cohort_batching else self._run_reference
        loop(
            graph, queue, policy, name, gate, contexts, records, mtl_changes,
            on_dispatch, blocks,
        )
        return SimulationResult(
            program_name=name,
            machine_name=self.machine.name,
            policy_name=policy.name,
            context_count=self.machine.context_count,
            records=tuple(records),
            mtl_changes=tuple(mtl_changes),
        )

    # -- shared helpers ------------------------------------------------

    def _validated_mtl(self, policy: ThrottlePolicyPlugin) -> int:
        mtl = policy.current_mtl()
        if not 1 <= mtl <= self._context_count:
            raise ConfigurationError(
                f"policy {policy.name!r} requested MTL {mtl}, outside "
                f"[1, {self._context_count}]"
            )
        return mtl

    def _no_progress(self, graph, queue: WorkQueue) -> SimulationError:
        if queue.has_ready_work():
            return SimulationError(
                "no task running yet ready work exists; the MTL gate "
                "is wedged (this is a scheduler bug)"
            )
        return SimulationError(
            f"deadlock: {len(graph) - queue.completed_count} tasks "
            "can never become ready"
        )

    def _try_memory(
        self, queue: WorkQueue, gate: MtlGate, context_id: int, now: float,
        blocks=None,
    ) -> Optional[Task]:
        """Dispatch a memory task if one is ready, the policy does not
        veto this context (blacklist plugins), and the gate grants."""
        if queue.pending_memory > 0:
            if blocks is not None and blocks(context_id, now):
                return None
            if gate.try_acquire():
                task = queue.pop_memory()
                if task is None:  # pragma: no cover - guarded by pending_memory
                    gate.release()
                    return None
                queue.note_memory_ran_on(task, context_id)
                return task
        return None

    # -- the default loop ----------------------------------------------

    def _run_loop(
        self, graph, queue, policy, name, gate, contexts, records,
        mtl_changes, on_dispatch, blocks,
    ) -> None:
        """The optimized event loop.

        One deliberately flat function: every per-event cost lives in a
        local and dispatch and advance are inlined.  It steps the
        population task by task like the reference loop, minus the
        reference's per-event overheads (signature rebuilds, full
        context rescans, redundant MTL validation, no-op plugin hooks).
        """
        #: Running tasks in dispatch order, mirroring the reference
        #: loop's ``list(running.values())`` (completion processing
        #: order and downstream determinism depend on it).
        population: List[RunningTask] = []
        #: ``tuple(signatures) == snapshot_key(population)``, kept
        #: current by dispatches, phase flips and completions: the
        #: snapshot memo key is a ``tuple()`` of this list, not a
        #: per-task rebuild.  An entry holds the CPU-active count of its
        #: task's core.  The task whose dispatch, phase flip or
        #: completion changes that count rewrites its own entry; if
        #: other tasks run on the core, the core is marked ``stale``
        #: and their entries are rewritten once before the next
        #: snapshot.  With SMT off a core runs one task, so no rewrite
        #: pass ever runs.
        signatures: List[object] = []
        #: Per core: CPU-active contexts, and running tasks.
        active = [0] * self.machine.core_count
        occupied = [0] * self.machine.core_count
        stale: Set[int] = set()
        #: context_id -> position in the dispatch scan order.
        positions = {
            context.context_id: index for index, context in enumerate(contexts)
        }
        #: Idle scan positions, ascending — dispatch removes, completion
        #: re-inserts in order, so a scan visits exactly the idle
        #: contexts in the same order the reference loop's full scan
        #: would reach them.
        idle = list(range(len(contexts)))
        on_complete = _plugin_hook(policy, "on_task_complete")
        probing = _plugin_hook(policy, "is_probing")

        # Hot-path hoists: bound methods and constants the loop touches
        # every event.
        current_mtl = policy.current_mtl
        policy_name = policy.name
        has_ready = queue.has_ready_work
        pop_compute = queue.pop_compute
        dispatch_memory = queue.try_dispatch_memory
        mark_complete = queue.mark_complete
        release = gate.release
        duration_factor = self.noise.duration_factor
        dispatch_overhead = self.noise.dispatch_overhead
        snapshot_keyed = self._rates.snapshot_keyed
        memory_first = self.dispatch_preference == "memory-first"
        context_ids = [context.context_id for context in contexts]
        core_ids = [context.core_id for context in contexts]
        context_count = self._context_count
        eps = _COMPLETION_EPSILON
        inf = math.inf
        isfinite = math.isfinite
        records_append = records.append
        # An exactly-FixedMtlPolicy policy returns one constant forever
        # and the gate already holds it (validated at creation), so the
        # whole per-event MTL sync is provably a no-op.  The exact type
        # check keeps subclasses with livelier ``current_mtl`` honest.
        static_mtl = type(policy) is FixedMtlPolicy

        now = 0.0
        #: Completions seen so far; ``queue.mark_complete`` raises on a
        #: double completion, so this equals ``queue.completed_count``
        #: without re-deriving it from the queue every event.
        completed_count = queue.completed_count
        graph_size = len(graph)
        max_iterations = 10 * graph_size + 1000
        iterations = 0
        while completed_count != graph_size:
            iterations += 1
            if iterations > max_iterations:
                raise SimulationError(
                    f"simulation of {name!r} exceeded {max_iterations} "
                    "iterations; the scheduler is not making progress"
                )

            # _sync_mtl, validating only on change: the gate's limit is
            # always in range, so an unchanged (== limit) answer needs
            # no bounds check.
            if not static_mtl:
                mtl = current_mtl()
                if mtl != gate.limit:
                    if not 1 <= mtl <= context_count:
                        raise ConfigurationError(
                            f"policy {policy_name!r} requested MTL {mtl}, "
                            f"outside [1, {context_count}]"
                        )
                    mtl_changes.append(
                        MtlChange(
                            time=now, old_mtl=gate.limit, new_mtl=mtl,
                            reason=policy_name,
                        )
                    )
                    gate.set_limit(mtl)

            # -- dispatch ---------------------------------------------
            if idle and has_ready():
                # Task availability is context-independent (the
                # affinity scan only reorders a non-empty compute
                # queue) and the gate only saturates further during a
                # scan, so once one idle position comes up empty every
                # later one must too — unless a veto hook refuses
                # individual contexts, in which case the scan goes on.
                # The veto is consulted exactly where the reference
                # loop consults it: before the gate, and only while
                # memory work is pending.
                for position in idle[:]:
                    context_id = context_ids[position]
                    task = None if memory_first else pop_compute(context_id)
                    if task is None and not (
                        blocks is not None
                        and queue.pending_memory
                        and blocks(context_id, now)
                    ):
                        task = dispatch_memory(gate, context_id)
                    if task is None and memory_first:
                        task = pop_compute(context_id)
                    if task is None:
                        if blocks is None:
                            break
                        continue
                    rt = RunningTask(
                        task, context_id, core_ids[position], now,
                        task.work_units * duration_factor(),
                        dispatch_overhead(), gate.limit,
                        probing() if probing is not None else False,
                    )
                    population.append(rt)
                    core = rt.core_id
                    if rt.overhead_remaining > 0.0 or rt.work_uses_cpu:
                        active[core] += 1
                        if occupied[core]:
                            stale.add(core)
                    occupied[core] += 1
                    signatures.append(rt.signature(active[core]))
                    idle.remove(position)
                    if on_dispatch is not None:
                        on_dispatch(task, context_id, now)
                    if not has_ready():
                        break

            if not population:
                raise self._no_progress(graph, queue)

            # -- advance ----------------------------------------------
            if stale:
                for index, rt in enumerate(population):
                    if rt.core_id in stale:
                        signatures[index] = rt.signature(active[rt.core_id])
                stale.clear()
            snapshot = snapshot_keyed(tuple(signatures), population)
            speeds = snapshot.speeds
            cpu_rates = snapshot.cpu_rates

            dt = inf
            for rt, speed, rate in zip(population, speeds, cpu_rates):
                if rt.overhead_remaining > 0.0:
                    step = rt.overhead_remaining / rate
                else:
                    if speed <= 0:
                        raise SimulationError(
                            f"task {rt.task.task_id!r} has non-positive speed"
                        )
                    step = rt.remaining_units / speed
                if step < dt:
                    dt = step
            if not isfinite(dt) or dt < 0:
                raise SimulationError(f"invalid time step {dt!r}")
            now += dt

            finished = None
            for index, rt in enumerate(population):
                if rt.overhead_remaining > 0.0:
                    value = rt.overhead_remaining - dt * cpu_rates[index]
                    if value <= eps * (value if value > 1.0 else 1.0):
                        # Overhead drained: the task enters its work
                        # phase and its signature entry flips with it.
                        rt.overhead_remaining = 0.0
                        core = rt.core_id
                        if not rt.work_uses_cpu:
                            active[core] -= 1
                            if occupied[core] > 1:
                                stale.add(core)
                        signatures[index] = rt.signature(active[core])
                    else:
                        rt.overhead_remaining = value
                else:
                    value = rt.remaining_units - dt * speeds[index]
                    rt.remaining_units = value
                    if value <= rt.completion_threshold:
                        if finished is None:
                            finished = [index]
                        else:
                            finished.append(index)

            if finished is not None:
                completed_count += len(finished)
                for index in finished:
                    rt = population[index]
                    insort(idle, positions[rt.context_id])
                    task = rt.task
                    if task.is_memory:
                        release()
                    core = rt.core_id
                    occupied[core] -= 1
                    if rt.work_uses_cpu:
                        active[core] -= 1
                        if occupied[core]:
                            stale.add(core)
                    # Fast TaskRecord construction: allocate raw and
                    # fill the instance dict wholesale, skipping the
                    # frozen dataclass's guarded per-field
                    # object.__setattr__ calls.  Field-for-field
                    # identical to the generated __init__, and its
                    # ``end < start`` validation cannot fire here —
                    # ``dt >= 0`` is enforced every event, so ``now``
                    # never drops below any running task's start.
                    record = _RECORD_NEW(TaskRecord)
                    record.__dict__.update({
                        "task_id": task.task_id,
                        "kind": task.kind,
                        "context_id": rt.context_id,
                        "core_id": rt.core_id,
                        "start": rt.start,
                        "end": now,
                        "mtl_at_dispatch": rt.mtl_at_dispatch,
                        "phase_index": task.phase_index,
                        "pair_index": task.pair_index,
                        "probe": rt.probe,
                    })
                    records_append(record)
                    mark_complete(task)
                    if on_complete is not None:
                        on_complete(record, now)
                # Structural removal, descending so indices stay valid.
                for index in reversed(finished):
                    del population[index]
                    del signatures[index]

    # -- the per-task reference loop -----------------------------------

    def _run_reference(
        self, graph, queue, policy, name, gate, contexts, records,
        mtl_changes, on_dispatch, blocks,
    ) -> None:
        """The seed's per-task event loop, byte-for-byte semantics.

        The oracle the default loop is tested against; see the module
        docstring.
        """
        running: Dict[int, RunningTask] = {}
        now = 0.0
        max_iterations = 10 * len(graph) + 1000
        iterations = 0
        while not queue.exhausted():
            iterations += 1
            if iterations > max_iterations:
                raise SimulationError(
                    f"simulation of {name!r} exceeded {max_iterations} "
                    "iterations; the scheduler is not making progress"
                )

            self._sync_mtl(policy, gate, mtl_changes, now)
            self._dispatch(
                queue, gate, policy, contexts, running, now, on_dispatch, blocks
            )

            if not running:
                raise self._no_progress(graph, queue)

            now = self._advance(queue, gate, policy, running, records, now)

    def _sync_mtl(
        self,
        policy: ThrottlePolicyPlugin,
        gate: MtlGate,
        mtl_changes: List[MtlChange],
        now: float,
    ) -> None:
        mtl = self._validated_mtl(policy)
        if mtl != gate.limit:
            mtl_changes.append(
                MtlChange(time=now, old_mtl=gate.limit, new_mtl=mtl, reason=policy.name)
            )
            gate.set_limit(mtl)

    def _dispatch(
        self,
        queue: WorkQueue,
        gate: MtlGate,
        policy: ThrottlePolicyPlugin,
        contexts,
        running: Dict[int, RunningTask],
        now: float,
        on_dispatch=None,
        blocks=None,
    ) -> None:
        # Early exits skip no-op scans only; dispatch order is unchanged
        # (the queue only drains on a successful pick, so re-checking
        # ready work after each dispatch matches checking before).
        if len(running) == len(contexts) or not queue.has_ready_work():
            return
        noise = self.noise
        for context in contexts:
            context_id = context.context_id
            if context_id in running:
                continue
            task = self._pick_task(queue, gate, context_id, now, blocks)
            if task is None:
                continue
            running[context_id] = RunningTask(
                task=task,
                context_id=context_id,
                core_id=context.core_id,
                start=now,
                remaining_units=task.work_units * noise.duration_factor(),
                overhead_remaining=noise.dispatch_overhead(),
                mtl_at_dispatch=gate.limit,
                probe=policy.is_probing(),
            )
            if on_dispatch is not None:
                on_dispatch(task, context_id, now)
            if not queue.has_ready_work():
                return

    def _pick_task(
        self, queue: WorkQueue, gate: MtlGate, context_id: int, now: float,
        blocks=None,
    ):
        """Choose a task for an idle context per the dispatch order."""
        if self.dispatch_preference == "memory-first":
            task = self._try_memory(queue, gate, context_id, now, blocks)
            if task is not None:
                return task
            return queue.pop_compute(context_id)
        task = queue.pop_compute(context_id)
        if task is not None:
            return task
        return self._try_memory(queue, gate, context_id, now, blocks)

    def _advance(
        self,
        queue: WorkQueue,
        gate: MtlGate,
        policy: ThrottlePolicyPlugin,
        running: Dict[int, RunningTask],
        records: List[TaskRecord],
        now: float,
    ) -> float:
        # One shared population list: the rate calculator memoizes by
        # population signature, so most events resolve to a dict hit.
        # The snapshot lists rates by position in that list.
        population = list(running.values())
        snapshot = self._rates.snapshot(population)
        speeds = snapshot.speeds
        cpu_rates = snapshot.cpu_rates

        dt = math.inf
        for rt, speed, rate in zip(population, speeds, cpu_rates):
            if rt.overhead_remaining > 0.0:
                step = rt.overhead_remaining / rate
            else:
                if speed <= 0:
                    raise SimulationError(
                        f"task {rt.task.task_id!r} has non-positive speed"
                    )
                step = rt.remaining_units / speed
            if step < dt:
                dt = step
        if not math.isfinite(dt) or dt < 0:
            raise SimulationError(f"invalid time step {dt!r}")

        now += dt
        finished: List[RunningTask] = []
        for rt, speed, rate in zip(population, speeds, cpu_rates):
            if rt.overhead_remaining > 0.0:
                rt.overhead_remaining -= dt * rate
                if rt.overhead_remaining <= _COMPLETION_EPSILON * max(
                    rt.overhead_remaining, 1.0
                ):
                    rt.overhead_remaining = 0.0
            else:
                rt.remaining_units -= dt * speed
                if rt.remaining_units <= _COMPLETION_EPSILON * rt.total_units:
                    finished.append(rt)

        for rt in finished:
            del running[rt.context_id]
            if rt.task.is_memory:
                gate.release()
            record = TaskRecord(
                task_id=rt.task.task_id,
                kind=rt.task.kind,
                context_id=rt.context_id,
                core_id=rt.core_id,
                start=rt.start,
                end=now,
                mtl_at_dispatch=rt.mtl_at_dispatch,
                phase_index=rt.task.phase_index,
                pair_index=rt.task.pair_index,
                probe=rt.probe,
            )
            records.append(record)
            queue.mark_complete(rt.task)
            policy.on_task_complete(record, now)
        return now


def simulate(
    program: StreamProgram,
    policy: ThrottlePolicyPlugin,
    machine: Optional[Machine] = None,
    noise: Optional[NoiseModel] = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`.

    Defaults to the paper's 1-DIMM i7-860 and zero noise.
    """
    return Simulator(
        machine=machine if machine is not None else i7_860(),
        noise=noise,
    ).run(program, policy)
