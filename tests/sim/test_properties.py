"""Property-based tests of the simulation loop.

Hypothesis generates random (but valid) stream programs, machines,
and static MTLs; every run must pass ``SimulationResult.verify`` (the
gate, the barriers, one task per context) and the physics' bounds,
regardless of the parameters.
"""

from hypothesis import given, settings, strategies as st

from repro.core.budget import ActivationBudgetPolicy
from repro.core.throttle import DynamicThrottlingPolicy
from repro.sim.machine import i7_860
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram, build_phase


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


def run(simulator, program, policy):
    """Run ``program`` and verify the result against its graph."""
    result = simulator.run(program, policy)
    result.verify(program.to_task_graph())
    return result


def midpoint_profile(result):
    """The memory-concurrency profile as first written, kept as a
    reference: every memory record recounted at each boundary midpoint."""
    memory = [r for r in result.records if r.is_memory]
    boundaries = sorted({r.start for r in memory} | {r.end for r in memory})
    profile = []
    for begin, end in zip(boundaries, boundaries[1:]):
        midpoint = (begin + end) / 2
        live = sum(1 for r in memory if r.start <= midpoint < r.end)
        profile.append((begin, end, live))
    return profile


@settings(max_examples=40, deadline=None)
@given(program=programs(), setup=machine_and_mtl())
def test_property_every_run_is_structurally_consistent(program, setup):
    machine, mtl = setup
    # Every task completes exactly once, and ``verify`` passes.
    result = run(Simulator(machine), program, FixedMtlPolicy(mtl))
    assert result.task_count == 2 * program.total_pairs


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
    # ``verify`` checks each memory dispatch against the limit it was
    # granted under: adaptive policies move it, never preempting.
    result = run(simulator, program, make_policy(policy_kind, machine, mtl))
    if policy_kind == "fixed":
        assert result.peak_memory_concurrency() <= mtl
    # The sweep's profile is the midpoint reference's, SMT on and off.
    assert result.memory_concurrency_profile() == midpoint_profile(result)


@settings(max_examples=40, deadline=None)
@given(program=programs(), setup=machine_and_mtl())
def test_property_makespan_respects_work_bounds(program, setup):
    machine, mtl = setup
    result = run(Simulator(machine), program, FixedMtlPolicy(mtl))

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
@given(program=programs())
def test_property_tighter_throttle_never_speeds_memory_tasks_up(program):
    """Mean memory-task time is non-decreasing in the MTL."""
    machine = i7_860()
    means = []
    for mtl in (1, 4):
        result = run(Simulator(machine), program, FixedMtlPolicy(mtl))
        means.append(result.mean_memory_duration())
    assert means[0] <= means[1] + 1e-12
