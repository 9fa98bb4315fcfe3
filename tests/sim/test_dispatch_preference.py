"""Tests for the dispatch-preference scheduling knob."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.machine import i7_860
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram, build_phase


def program(pairs=16, requests=8192, t_c=1e-3):
    return StreamProgram("dp", [build_phase("p", 0, pairs, requests, t_c)])


class TestKnob:
    def test_rejects_unknown_preference(self):
        with pytest.raises(ConfigurationError):
            Simulator(i7_860(), dispatch_preference="random")

    def test_default_is_compute_first(self):
        assert Simulator(i7_860()).dispatch_preference == "compute-first"

    def test_both_orders_complete_all_work(self):
        for preference in ("compute-first", "memory-first"):
            sim = Simulator(i7_860(), dispatch_preference=preference)
            stream = program()
            result = sim.run(stream, FixedMtlPolicy(2))
            assert result.task_count == 32
            result.verify(stream.to_task_graph())

    def test_memory_first_starts_memory_earlier_after_a_pair(self):
        # With one context eligible for both a ready compute task and a
        # memory task, the orders differ: memory-first keeps the memory
        # pipeline full, compute-first drains cached data first.
        compute_first = Simulator(
            i7_860(), dispatch_preference="compute-first"
        ).run(program(), FixedMtlPolicy(1))
        memory_first = Simulator(
            i7_860(), dispatch_preference="memory-first"
        ).run(program(), FixedMtlPolicy(1))
        # Schedules genuinely differ: under compute-first the context
        # that gathered a tile computes on it; under memory-first it
        # grabs the next memory task and another context computes.
        cf_placement = {r.task_id: r.context_id for r in compute_first.records}
        mf_placement = {r.task_id: r.context_id for r in memory_first.records}
        assert cf_placement != mf_placement
        # ...but both respect the MTL gate.
        for result in (compute_first, memory_first):
            result.verify(program().to_task_graph())
            assert result.peak_memory_concurrency() == 1

    def test_makespans_are_close_either_way(self):
        # The ablation benchmark quantifies the gap; here we only pin
        # that neither order is catastrophically wrong.
        cf = Simulator(i7_860(), dispatch_preference="compute-first").run(
            program(pairs=48), FixedMtlPolicy(2)
        )
        mf = Simulator(i7_860(), dispatch_preference="memory-first").run(
            program(pairs=48), FixedMtlPolicy(2)
        )
        assert cf.makespan == pytest.approx(mf.makespan, rel=0.1)
