"""``SimulationResult.verify``: real runs pass, seeded defects fail.

Each defect is seeded into a real seed-1 SIFT run with
``dataclasses.replace``, never into the simulator, and ``verify`` must
raise :class:`MeasurementError` naming the record or MTL change.
"""

from dataclasses import replace
from operator import attrgetter

import pytest

from repro.core.throttle import DynamicThrottlingPolicy
from repro.errors import MeasurementError
from repro.sim.events import MtlChange
from repro.sim.machine import i7_860
from repro.sim.noise import noise_for_seed
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def runs():
    """SIFT's graph, and its seed-1 runs at MTL 2 and under D-MTL."""
    program = build_workload("SIFT")
    static, dynamic = (
        Simulator(i7_860(), noise=noise_for_seed(1)).run(program, policy)
        for policy in (FixedMtlPolicy(2), DynamicThrottlingPolicy(context_count=4))
    )
    return program.to_task_graph(), static, dynamic


def swap(result, old, **changes):
    """``result`` with record ``old`` replaced by a changed copy."""
    records = list(result.records)
    records[records.index(old)] = replace(old, **changes)
    return replace(result, records=tuple(records))


def first_overlap(records):
    """Two records in start order, the second starting as the first runs."""
    ordered = sorted(records, key=attrgetter("start"))
    return next((a, b) for a, b in zip(ordered, ordered[1:]) if b.start < a.end)


def assert_rejected(result, graph, *named):
    with pytest.raises(MeasurementError) as caught:
        result.verify(graph)
    for name in named:
        assert name in str(caught.value)


def test_real_runs_pass(runs):
    graph, static, dynamic = runs
    static.verify(graph)
    dynamic.verify(graph)
    assert len(dynamic.mtl_changes) > 2


def test_mtl_at_dispatch_below_the_tasks_in_flight(runs):
    graph, static, _ = runs
    _, victim = first_overlap(r for r in static.records if r.is_memory)
    broken = swap(static, victim, mtl_at_dispatch=1)
    assert_rejected(broken, graph, repr(victim.task_id), "in flight")
    # A zero-length record counts itself at its start.
    blip = swap(static, victim, mtl_at_dispatch=1, end=victim.start)
    assert_rejected(blip, graph, repr(victim.task_id), "in flight")


def test_phase_one_memory_task_before_the_barrier(runs):
    graph, static, _ = runs
    barrier = max(r.end for r in static.records if r.phase_index == 0)
    victim = next(r for r in static.records if r.phase_index == 1 and r.is_memory)
    broken = swap(static, victim, start=barrier / 2)
    assert_rejected(broken, graph, repr(victim.task_id), "dependencies")


def test_one_core_and_one_record_at_a_time_per_context(runs):
    graph, static, _ = runs
    first, second = first_overlap(static.records)
    broken = swap(static, second, context_id=first.context_id, core_id=first.core_id)
    named = repr(first.task_id), repr(second.task_id), "concurrently"
    assert_rejected(broken, graph, *named)
    moved = swap(static, static.records[-1], core_id=9)
    assert_rejected(moved, graph, repr(static.records[-1].task_id), "core 9")


def test_records_cover_the_graph_exactly_once(runs):
    graph, static, _ = runs
    records = static.records
    twice = replace(static, records=records + (records[5],))
    assert_rejected(twice, graph, repr(records[5].task_id), "twice")
    dropped = replace(static, records=records[:7] + records[8:])
    assert_rejected(dropped, graph, repr(records[7].task_id), "no record")
    assert_rejected(swap(static, records[0], task_id="ghost"), graph, "'ghost'")


def test_mtl_changes_chain_from_time_zero_within_range(runs):
    graph, static, dynamic = runs
    changes = dynamic.mtl_changes
    unchained = replace(changes[2], old_mtl=changes[1].new_mtl % 4 + 1)
    backwards = replace(changes[2], time=changes[1].time / 2)
    for timeline, named in [
        (changes[:2] + (unchained,) + changes[3:], repr(unchained)),
        (changes[:2] + (backwards,) + changes[3:], repr(backwards)),
        ((), "open at time 0"),
        ((MtlChange(0.5, 2, 2, "initial"),), "open at time 0"),
        ((MtlChange(0.0, 2, 5, "initial"),), "leaves [1, 4]"),
    ]:
        assert_rejected(replace(dynamic, mtl_changes=timeline), graph, named)


def test_mtl_at_dispatch_in_force_before_or_set_at_the_start(runs):
    graph, static, _ = runs
    last = max(static.records, key=attrgetter("start"))
    raised = static.mtl_changes + (MtlChange(last.start, 2, 3, "x"),)
    # ``last`` may run under the MTL before the change or the one set.
    replace(static, mtl_changes=raised).verify(graph)
    under_three = swap(static, last, mtl_at_dispatch=3)
    replace(under_three, mtl_changes=raised).verify(graph)
    assert_rejected(under_three, graph, repr(last.task_id), "not in force")
