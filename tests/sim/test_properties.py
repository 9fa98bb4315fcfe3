"""Property-based tests of the simulation loop.

Hypothesis generates random (but valid) stream programs, machines,
and static MTLs; every run must satisfy the scheduler's structural
invariants and the physics' bounds, regardless of the parameters.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.budget import ActivationBudgetPolicy
from repro.core.throttle import DynamicThrottlingPolicy
from repro.sim.machine import i7_860
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram, build_phase
from repro.stream.task import TaskKind


@st.composite
def programs(draw):
    """Random multi-phase stream programs with bounded size."""
    phase_count = draw(st.integers(min_value=1, max_value=3))
    phases = []
    for index in range(phase_count):
        pairs = draw(st.integers(min_value=1, max_value=12))
        requests = draw(st.integers(min_value=64, max_value=16384))
        t_c = draw(st.floats(min_value=1e-5, max_value=5e-3))
        phases.append(build_phase(f"p{index}", index, pairs, requests, t_c))
    return StreamProgram("random", phases)


@st.composite
def machine_and_mtl(draw):
    channels = draw(st.integers(min_value=1, max_value=2))
    smt = draw(st.integers(min_value=1, max_value=2))
    machine = i7_860(channels=channels, smt=smt)
    mtl = draw(st.integers(min_value=1, max_value=machine.context_count))
    return machine, mtl


@settings(max_examples=40, deadline=None)
@given(program=programs(), setup=machine_and_mtl())
def test_property_every_run_is_structurally_consistent(program, setup):
    machine, mtl = setup
    result = Simulator(machine).run(program, FixedMtlPolicy(mtl))
    # Every task completes exactly once; no context overlaps.
    assert result.task_count == 2 * program.total_pairs
    result.verify_consistency()


def make_policy(kind, machine, mtl):
    if kind == "dynamic":
        return DynamicThrottlingPolicy(
            context_count=machine.context_count, window_pairs=4
        )
    if kind == "activation-budget":
        # blocks_context veto: the dispatch path that may skip contexts.
        return ActivationBudgetPolicy(
            context_count=machine.context_count, window_pairs=4, budget=1
        )
    return FixedMtlPolicy(mtl)


@settings(max_examples=40, deadline=None)
@given(
    program=programs(),
    setup=machine_and_mtl(),
    policy_kind=st.sampled_from(["fixed", "dynamic", "activation-budget"]),
    preference=st.sampled_from(["compute-first", "memory-first"]),
    cohort_batching=st.booleans(),
)
def test_property_mtl_gate_never_violated(
    program, setup, policy_kind, preference, cohort_batching
):
    machine, mtl = setup
    simulator = Simulator(
        machine,
        dispatch_preference=preference,
        cohort_batching=cohort_batching,
    )
    result = simulator.run(program, make_policy(policy_kind, machine, mtl))
    if policy_kind == "fixed":
        assert result.peak_memory_concurrency() <= mtl
    # Adaptive policies move the limit, and lowering it never preempts,
    # so check each memory dispatch against the limit it was granted
    # under: the memory tasks in flight at its start, itself included.
    memory = [r for r in result.records if r.is_memory]
    for record in memory:
        in_flight = 1 + sum(
            1
            for other in memory
            if other is not record and other.start <= record.start < other.end
        )
        assert in_flight <= record.mtl_at_dispatch


@settings(max_examples=40, deadline=None)
@given(program=programs(), setup=machine_and_mtl())
def test_property_makespan_respects_work_bounds(program, setup):
    machine, mtl = setup
    result = Simulator(machine).run(program, FixedMtlPolicy(mtl))

    # Lower bound 1: total compute work cannot be parallelised beyond
    # the context count (memory time only adds).
    compute_work = sum(
        pair.compute.cpu_seconds for pair in program.all_pairs()
    )
    assert result.makespan >= compute_work / machine.context_count - 1e-12

    # Lower bound 2: one pair's memory + compute at best-case latency
    # must fit in the critical path of each phase.
    solo_latency = machine.memory.request_latency(1.0)
    critical = sum(
        phase.pairs[0].memory.memory_requests * solo_latency
        + phase.pairs[0].compute.cpu_seconds
        for phase in program.phases
    )
    assert result.makespan >= critical * (1 - 1e-9)

    # Upper bound: fully serial execution at worst-case latency.
    worst_latency = machine.memory.request_latency(
        float(machine.context_count)
    )
    serial = sum(
        pair.memory.memory_requests * worst_latency + pair.compute.cpu_seconds
        for pair in program.all_pairs()
    )
    assert result.makespan <= serial * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(program=programs(), setup=machine_and_mtl())
def test_property_phase_barriers_hold(program, setup):
    machine, mtl = setup
    result = Simulator(machine).run(program, FixedMtlPolicy(mtl))
    for phase_index in range(1, len(program.phases)):
        previous_end = max(
            r.end for r in result.records if r.phase_index == phase_index - 1
        )
        this_start = min(
            r.start for r in result.records if r.phase_index == phase_index
        )
        assert this_start >= previous_end - 1e-12


@settings(max_examples=30, deadline=None)
@given(program=programs())
def test_property_tighter_throttle_never_speeds_memory_tasks_up(program):
    """Mean memory-task time is non-decreasing in the MTL."""
    machine = i7_860()
    means = []
    for mtl in (1, 4):
        result = Simulator(machine).run(program, FixedMtlPolicy(mtl))
        means.append(result.mean_memory_duration())
    assert means[0] <= means[1] + 1e-12
