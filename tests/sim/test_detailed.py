"""Tests for the request-level detailed simulator."""

import pytest

from repro.core import DynamicThrottlingPolicy
from repro.errors import ConfigurationError
from repro.sim.detailed import DetailedSimulator
from repro.sim.scheduler import FixedMtlPolicy, conventional_policy
from repro.stream.program import StreamProgram, build_phase
from repro.stream.task import TaskKind
from repro.units import kibibytes

REQUESTS = kibibytes(32) // 64  # 512 requests per memory task


def program(pairs=8, t_c=15e-6, phases=1):
    return StreamProgram(
        "detailed",
        [
            build_phase(f"p{i}", i, pairs, REQUESTS, t_c)
            for i in range(phases)
        ],
    )


class TestValidation:
    def test_rejects_bad_core_count(self):
        with pytest.raises(ConfigurationError):
            DetailedSimulator(core_count=0)

    def test_rejects_spilling_compute_tasks(self):
        spilling = StreamProgram(
            "spill",
            [build_phase("p", 0, 2, REQUESTS, 1e-5,
                         compute_spill_requests=16.0)],
        )
        with pytest.raises(ConfigurationError):
            DetailedSimulator().run(spilling, FixedMtlPolicy(1))

    def test_rejects_oversized_programs(self):
        huge = StreamProgram(
            "huge", [build_phase("p", 0, 700, 8192, 1e-3)]
        )
        with pytest.raises(ConfigurationError):
            DetailedSimulator().run(huge, FixedMtlPolicy(1))

    def test_rejects_out_of_range_mtl(self):
        with pytest.raises(ConfigurationError):
            DetailedSimulator(core_count=4).run(program(), FixedMtlPolicy(5))


class TestExecution:
    def test_all_tasks_complete_consistently(self):
        stream = program(pairs=6)
        result = DetailedSimulator().run(stream, FixedMtlPolicy(2))
        assert result.task_count == 12
        result.verify(stream.to_task_graph())

    def test_mtl_gate_respected(self):
        stream = program(pairs=8)
        result = DetailedSimulator().run(stream, FixedMtlPolicy(2))
        result.verify(stream.to_task_graph())
        assert result.peak_memory_concurrency() == 2

    def test_phase_barriers_respected(self):
        # The barrier is one join of the graph, which ``verify`` checks.
        stream = program(pairs=4, phases=2)
        DetailedSimulator().run(stream, FixedMtlPolicy(2)).verify(
            stream.to_task_graph()
        )

    def test_deterministic(self):
        a = DetailedSimulator().run(program(), FixedMtlPolicy(2))
        b = DetailedSimulator().run(program(), FixedMtlPolicy(2))
        assert a.makespan == b.makespan


class TestEmergentContention:
    def test_throttling_shortens_memory_tasks(self):
        # No contention law anywhere: serialised memory tasks must
        # still come out faster per task than fully concurrent ones,
        # purely from bus/bank physics.
        throttled = DetailedSimulator().run(program(pairs=8), FixedMtlPolicy(1))
        unthrottled = DetailedSimulator().run(
            program(pairs=8), conventional_policy(4)
        )
        assert (
            throttled.mean_memory_duration()
            < unthrottled.mean_memory_duration()
        )

    def test_memory_latency_grows_with_mtl(self):
        means = []
        for mtl in (1, 2, 4):
            result = DetailedSimulator().run(program(pairs=12), FixedMtlPolicy(mtl))
            means.append(result.mean_memory_duration(mtl=mtl))
        assert means[0] < means[1] < means[2]

    def test_throttling_beats_conventional_at_moderate_ratio(self):
        # T_m1 ~ 512 * ~20 ns ~ 10 us; t_c = 15 us puts the ratio near
        # 0.7 where MTL=2 wins on a quad core.
        base = DetailedSimulator().run(program(pairs=24), conventional_policy(4))
        throttled = DetailedSimulator().run(program(pairs=24), FixedMtlPolicy(2))
        assert base.makespan / throttled.makespan > 1.02

    def test_second_channel_relieves_contention(self):
        single = DetailedSimulator(channels=1).run(
            program(pairs=12), conventional_policy(4)
        )
        dual = DetailedSimulator(channels=2).run(
            program(pairs=12), conventional_policy(4)
        )
        assert dual.mean_memory_duration() < single.mean_memory_duration()


class TestPolicies:
    def test_dynamic_throttler_runs_unchanged(self):
        policy = DynamicThrottlingPolicy(context_count=4, window_pairs=8)
        result = DetailedSimulator().run(program(pairs=64), policy)
        assert result.task_count == 128
        assert len(policy.selections) >= 1
        assert 1 <= result.dominant_mtl() <= 4

    def test_records_expose_kinds_for_monitoring(self):
        result = DetailedSimulator().run(program(pairs=4), FixedMtlPolicy(2))
        kinds = {r.kind for r in result.records}
        assert kinds == {TaskKind.MEMORY, TaskKind.COMPUTE}
