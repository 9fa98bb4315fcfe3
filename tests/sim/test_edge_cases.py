"""Edge-case and degenerate-input tests for the simulator stack."""

import pytest

from repro.core import DynamicThrottlingPolicy
from repro.memory.cache import LastLevelCache
from repro.sim.cores import Processor
from repro.sim.machine import Machine, i7_860
from repro.sim.results import SimulationResult
from repro.sim.scheduler import FixedMtlPolicy, conventional_policy
from repro.sim.simulator import Simulator, simulate
from repro.stream.program import StreamProgram, build_phase
from repro.units import mebibytes
from repro.workloads import synthetic_from_ratio


def single_core_machine() -> Machine:
    base = i7_860()
    return Machine(
        name="uni", processor=Processor(core_count=1), memory=base.memory
    )


class TestDegenerateShapes:
    def test_single_pair_program(self):
        program = StreamProgram("one", [build_phase("p", 0, 1, 1024, 1e-4)])
        result = simulate(program, FixedMtlPolicy(1))
        assert result.task_count == 2
        result.verify(program.to_task_graph())  # memory, then compute

    def test_fewer_pairs_than_cores(self):
        program = StreamProgram("two", [build_phase("p", 0, 2, 1024, 1e-4)])
        result = simulate(program, conventional_policy(4))
        used = {r.context_id for r in result.records}
        assert len(used) <= 2
        result.verify(program.to_task_graph())

    def test_single_core_machine_serialises_everything(self):
        machine = single_core_machine()
        program = StreamProgram("uni", [build_phase("p", 0, 4, 1024, 1e-4)])
        result = Simulator(machine).run(program, FixedMtlPolicy(1))
        result.verify(program.to_task_graph())
        assert {r.context_id for r in result.records} == {0}
        assert result.utilization() == pytest.approx(1.0, abs=1e-6)

    def test_many_tiny_pairs(self):
        program = StreamProgram("tiny", [build_phase("p", 0, 200, 1, 1e-7)])
        result = simulate(program, FixedMtlPolicy(2))
        assert result.task_count == 400
        result.verify(program.to_task_graph())

    def test_extreme_ratio_values(self):
        for ratio in (0.001, 100.0):
            result = simulate(
                synthetic_from_ratio(ratio, pairs=6), FixedMtlPolicy(2)
            )
            assert result.task_count == 12

    def test_spilling_compute_tasks_simulate(self):
        cache = LastLevelCache(capacity_bytes=mebibytes(8), sharers=4)
        program = synthetic_from_ratio(
            1.0, footprint_bytes=mebibytes(2), pairs=8, cache=cache
        )
        result = simulate(program, FixedMtlPolicy(4))
        # Compute tasks now carry off-chip traffic: they take longer
        # than the LLC-resident equivalent.
        resident = simulate(
            synthetic_from_ratio(1.0, footprint_bytes=mebibytes(2), pairs=8),
            FixedMtlPolicy(4),
        )
        assert result.mean_compute_duration() > resident.mean_compute_duration()


class TestPolicyEdgeCases:
    def test_dynamic_policy_on_single_context_machine(self):
        machine = single_core_machine()
        program = StreamProgram("uni", [build_phase("p", 0, 40, 1024, 1e-4)])
        policy = DynamicThrottlingPolicy(context_count=1)
        result = Simulator(machine).run(program, policy)
        assert result.final_mtl() == 1

    def test_program_shorter_than_one_window(self):
        # Never completes a monitoring window: stays at the initial MTL.
        program = StreamProgram("short", [build_phase("p", 0, 6, 1024, 1e-4)])
        policy = DynamicThrottlingPolicy(context_count=4, window_pairs=16)
        result = simulate(program, policy)
        assert result.final_mtl() == 4
        assert policy.selections == []

    def test_selection_interrupted_by_program_end(self):
        # The program ends mid-binary-search; the run must still
        # complete and report whatever MTL was in force.
        program = synthetic_from_ratio(0.5, pairs=40)
        policy = DynamicThrottlingPolicy(context_count=4, window_pairs=16)
        result = simulate(program, policy)
        assert result.task_count == 80
        assert 1 <= result.final_mtl() <= 4

    def test_initial_mtl_one_still_converges_upward(self):
        # Memory-bound workload started over-throttled: the mechanism
        # must detect the idle cores and raise the MTL.
        program = synthetic_from_ratio(2.5, pairs=240)
        policy = DynamicThrottlingPolicy(context_count=4, initial_mtl=1)
        result = simulate(program, policy)
        assert result.dominant_mtl() >= 3


class TestResultEdgeCases:
    def test_empty_profile_without_memory_tasks(self):
        result = SimulationResult(
            program_name="p", machine_name="m", policy_name="pol",
            context_count=2, records=(), mtl_changes=(),
        )
        assert result.memory_concurrency_profile() == []
        assert result.peak_memory_concurrency() == 0

    def test_profile_covers_memory_activity(self):
        result = simulate(
            synthetic_from_ratio(1.0, pairs=8), FixedMtlPolicy(3)
        )
        profile = result.memory_concurrency_profile()
        assert profile[0][0] == pytest.approx(0.0)
        assert all(0 <= live <= 3 for _, _, live in profile)
        assert result.peak_memory_concurrency() <= 3
