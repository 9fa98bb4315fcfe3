"""Multiprogram co-scheduling.

The paper evaluates one stream application at a time; real systems run
mixes, and the MTL gate is naturally *global* — it constrains memory
tasks regardless of which application they belong to (the related-work
systems it is compared against, like Fairness-via-Source-Throttling,
are explicitly multi-application).  This module extends the simulator
to program mixes:

* :func:`merge_programs` — combine several stream programs into one
  task graph with namespaced task ids and disjoint phase-index ranges.
  Crucially, there is **no barrier between programs**: each program
  keeps its internal phase barriers, but programs proceed
  independently, exactly as two processes sharing a machine would.
* :func:`co_schedule` — run the mix under one policy and report both
  the combined schedule and per-program completion times, from which
  fairness metrics (per-program slowdown vs. running alone) follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.machine import Machine, i7_860
from repro.sim.noise import NoiseModel
from repro.sim.results import SimulationResult
from repro.sim.scheduler import ThrottlePolicyPlugin
from repro.sim.simulator import Simulator
from repro.stream.graph import TaskGraph
from repro.stream.program import StreamProgram
from repro.stream.task import Task

__all__ = ["CoScheduleResult", "merge_programs", "co_schedule"]


def merge_programs(
    programs: Sequence[StreamProgram],
) -> Tuple[TaskGraph, Dict[str, Tuple[int, int]]]:
    """Merge programs into one graph with namespaced ids.

    Returns:
        ``(graph, phase_ranges)`` where ``phase_ranges[name]`` is the
        half-open ``[first, last)`` phase-index range assigned to that
        program (phase indices are shifted so every pair key stays
        unique — the throttler joins pairs by ``(phase, pair)``).

    Raises:
        ConfigurationError: On an empty mix or duplicate program names.
    """
    if not programs:
        raise ConfigurationError("cannot merge an empty program mix")
    names = [p.name for p in programs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate program names in mix: {names}")

    merged: List[Task] = []
    phase_ranges: Dict[str, Tuple[int, int]] = {}
    phase_offset = 0
    for program in programs:
        prefix = f"{program.name}::"
        # One prefixed copy per distinct dependency tuple: a barrier's
        # members share one tuple object, as they do in the program.
        prefixed: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        for task in program.to_task_graph():
            depends_on = prefixed.get(task.depends_on)
            if depends_on is None:
                depends_on = prefixed[task.depends_on] = tuple(
                    prefix + dep for dep in task.depends_on
                )
            merged.append(
                Task(
                    task_id=prefix + task.task_id,
                    kind=task.kind,
                    cpu_seconds=task.cpu_seconds,
                    memory_requests=task.memory_requests,
                    footprint_bytes=task.footprint_bytes,
                    pair_index=task.pair_index,
                    phase_index=task.phase_index + phase_offset,
                    depends_on=depends_on,
                )
            )
        phase_ranges[program.name] = (
            phase_offset,
            phase_offset + len(program.phases),
        )
        phase_offset += len(program.phases)
    return TaskGraph(merged), phase_ranges


@dataclass(frozen=True)
class CoScheduleResult:
    """Outcome of one co-scheduled mix."""

    combined: SimulationResult
    phase_ranges: Dict[str, Tuple[int, int]]

    def program_records(self, name: str):
        if name not in self.phase_ranges:
            raise ConfigurationError(
                f"unknown program {name!r}; mix contains "
                f"{sorted(self.phase_ranges)}"
            )
        prefix = f"{name}::"
        return [
            r for r in self.combined.records if r.task_id.startswith(prefix)
        ]

    def program_finish_time(self, name: str) -> float:
        """When the program's last task completed."""
        return max(r.end for r in self.program_records(name))

    def slowdown(self, name: str, solo_makespan: float) -> float:
        """Per-program slowdown vs. its solo run (>= 1 under load)."""
        if solo_makespan <= 0:
            raise ConfigurationError(
                f"solo_makespan must be positive, got {solo_makespan}"
            )
        return self.program_finish_time(name) / solo_makespan


def co_schedule(
    programs: Sequence[StreamProgram],
    policy: ThrottlePolicyPlugin,
    machine: Optional[Machine] = None,
    noise: Optional[NoiseModel] = None,
) -> CoScheduleResult:
    """Run a program mix under one (global) scheduling policy."""
    graph, phase_ranges = merge_programs(programs)
    target = machine if machine is not None else i7_860()
    simulator = Simulator(target, noise=noise)
    mix_name = "+".join(p.name for p in programs)
    combined = simulator.run_graph(graph, policy, mix_name)
    return CoScheduleResult(combined=combined, phase_ranges=phase_ranges)
