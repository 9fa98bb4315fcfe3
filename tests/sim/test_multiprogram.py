"""Tests for multiprogram co-scheduling."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.machine import i7_860
from repro.sim.multiprogram import co_schedule, merge_programs
from repro.sim.scheduler import FixedMtlPolicy, conventional_policy
from repro.sim.simulator import simulate
from repro.stream.program import StreamProgram, build_phase
from repro.workloads import build_workload
from repro.workloads.base import REFERENCE_SOLO_LATENCY


def program(name: str, ratio: float, pairs: int = 24, phases: int = 2):
    t_m1 = 8192 * REFERENCE_SOLO_LATENCY
    return StreamProgram(
        name,
        [
            build_phase(f"p{i}", i, pairs, 8192, t_m1 / ratio)
            for i in range(phases)
        ],
    )


class TestMergePrograms:
    def test_namespaced_ids_and_phase_ranges(self):
        a = program("alpha", 0.2)
        b = program("beta", 0.5)
        graph, ranges = merge_programs([a, b])
        assert len(graph) == len(a.to_task_graph()) + len(b.to_task_graph())
        assert "alpha::M[0.0]" in graph
        assert "beta::M[0.0]" in graph
        assert ranges == {"alpha": (0, 2), "beta": (2, 4)}

    def test_phase_indices_are_disjoint(self):
        graph, _ = merge_programs([program("a", 0.2), program("b", 0.5)])
        a_phases = {t.phase_index for t in graph if t.task_id.startswith("a::")}
        b_phases = {t.phase_index for t in graph if t.task_id.startswith("b::")}
        assert a_phases.isdisjoint(b_phases)

    def test_no_cross_program_dependencies(self):
        graph, _ = merge_programs([program("a", 0.2), program("b", 0.5)])
        for task in graph:
            prefix = task.task_id.split("::")[0]
            for dep in task.depends_on:
                assert dep.startswith(prefix + "::")

    def test_one_prefixed_tuple_per_distinct_barrier(self):
        # SIFT's and jpeg-decode's 1,728 barrier members wait on 28
        # distinct dependency tuples; the merge builds each once.
        graph, _ = merge_programs(
            [build_workload("SIFT"), build_workload("jpeg-decode")]
        )
        barriers = [t.depends_on for t in graph if t.is_memory and t.depends_on]
        assert len(barriers) == 1728
        assert len({id(deps) for deps in barriers}) == len(set(barriers)) == 28

    def test_rejects_empty_and_duplicate_mixes(self):
        with pytest.raises(ConfigurationError):
            merge_programs([])
        with pytest.raises(ConfigurationError):
            merge_programs([program("same", 0.2), program("same", 0.5)])


class TestCoSchedule:
    def test_programs_overlap_in_time(self):
        # Without cross-program barriers, both programs start at t=0.
        result = co_schedule(
            [program("a", 0.2), program("b", 0.5)],
            conventional_policy(4),
        )
        a_start = min(r.start for r in result.program_records("a"))
        b_start = min(r.start for r in result.program_records("b"))
        assert a_start == pytest.approx(0.0)
        assert b_start < result.program_finish_time("a")

    def test_per_program_finish_times(self):
        result = co_schedule(
            [program("short", 0.2, pairs=8, phases=1),
             program("long", 0.2, pairs=48, phases=2)],
            conventional_policy(4),
        )
        assert result.program_finish_time("short") < result.program_finish_time(
            "long"
        )
        assert result.program_finish_time("long") == pytest.approx(
            result.combined.makespan
        )

    def test_unknown_program_rejected(self):
        result = co_schedule([program("a", 0.2)], conventional_policy(4))
        with pytest.raises(ConfigurationError):
            result.program_finish_time("ghost")

    def test_slowdown_vs_solo(self):
        a = program("a", 0.5)
        b = program("b", 0.5)
        solo = simulate(a, conventional_policy(4)).makespan
        result = co_schedule([a, b], conventional_policy(4))
        slowdown = result.slowdown("a", solo)
        assert slowdown > 1.0  # sharing the machine costs something

    def test_slowdown_validates_solo_time(self):
        result = co_schedule([program("a", 0.2)], conventional_policy(4))
        with pytest.raises(ConfigurationError):
            result.slowdown("a", 0.0)

    def test_global_mtl_gate_spans_programs(self):
        # Two memory-hungry programs under a global MTL=1: never more
        # than one memory task in flight across the whole mix.
        mix = [program("a", 2.0, pairs=8, phases=1),
               program("b", 2.0, pairs=8, phases=1)]
        result = co_schedule(mix, FixedMtlPolicy(1), machine=i7_860())
        result.combined.verify(merge_programs(mix)[0])
        assert result.combined.peak_memory_concurrency() == 1

    def test_combined_result_is_consistent(self):
        mix = [program("a", 0.3), program("b", 0.7)]
        result = co_schedule(mix, FixedMtlPolicy(2))
        result.combined.verify(merge_programs(mix)[0])
