"""Unit tests for phased stream programs."""

import pytest

from repro.errors import ConfigurationError
from repro.stream.program import ProgramPhase, StreamProgram, build_phase


def two_phase_program() -> StreamProgram:
    first = build_phase(
        "gather-heavy",
        phase_index=0,
        pair_count=4,
        requests_per_memory_task=8192,
        compute_seconds_per_task=1e-3,
    )
    second = build_phase(
        "compute-heavy",
        phase_index=1,
        pair_count=3,
        requests_per_memory_task=1024,
        compute_seconds_per_task=5e-3,
    )
    return StreamProgram("two-phase", [first, second])


class TestBuildPhase:
    def test_builds_equally_sized_pairs(self):
        phase = build_phase(
            "p", phase_index=0, pair_count=5,
            requests_per_memory_task=100, compute_seconds_per_task=1e-4,
        )
        assert phase.pair_count == 5
        assert phase.mean_memory_requests() == pytest.approx(100)
        assert phase.mean_compute_seconds() == pytest.approx(1e-4)
        assert len({p.memory.memory_requests for p in phase.pairs}) == 1

    def test_ids_encode_phase_and_pair(self):
        phase = build_phase(
            "p", phase_index=2, pair_count=2,
            requests_per_memory_task=1, compute_seconds_per_task=1e-4,
        )
        assert phase.pairs[1].memory.task_id == "M[2.1]"
        assert phase.pairs[1].compute.task_id == "C[2.1]"

    def test_rejects_non_positive_pair_count(self):
        with pytest.raises(ConfigurationError):
            build_phase("p", 0, 0, 1, 1e-4)

    def test_spill_requests_propagate_to_compute_tasks(self):
        phase = build_phase(
            "p", phase_index=0, pair_count=2,
            requests_per_memory_task=100, compute_seconds_per_task=1e-4,
            compute_spill_requests=25.0,
        )
        assert all(p.compute.memory_requests == 25.0 for p in phase.pairs)


class TestProgramPhase:
    def test_rejects_empty_name_or_pairs(self):
        phase = build_phase("p", 0, 1, 1, 1e-4)
        with pytest.raises(ConfigurationError):
            ProgramPhase(name="", pairs=phase.pairs)
        with pytest.raises(ConfigurationError):
            ProgramPhase(name="p", pairs=())


class TestStreamProgram:
    def test_rejects_empty_program(self):
        with pytest.raises(ConfigurationError):
            StreamProgram("empty", [])
        with pytest.raises(ConfigurationError):
            StreamProgram("", [build_phase("p", 0, 1, 1, 1e-4)])

    def test_total_pairs_sums_phases(self):
        assert two_phase_program().total_pairs == 7

    def test_all_pairs_flattens_in_phase_order(self):
        pairs = two_phase_program().all_pairs()
        assert len(pairs) == 7
        assert [p.phase_index for p in pairs] == [0, 0, 0, 0, 1, 1, 1]


class TestTaskGraphConversion:
    def test_graph_contains_every_task(self):
        graph = two_phase_program().to_task_graph()
        assert len(graph) == 14

    def test_phase_barrier_edges(self):
        graph = two_phase_program().to_task_graph()
        # Every phase-1 memory task depends on every phase-0 compute task.
        phase0_computes = {f"C[0.{i}]" for i in range(4)}
        for i in range(3):
            deps = set(graph.task(f"M[1.{i}]").depends_on)
            assert phase0_computes <= deps

    def test_first_phase_memory_tasks_are_roots(self):
        graph = two_phase_program().to_task_graph()
        assert {t.task_id for t in graph.root_memory} == {f"M[0.{i}]" for i in range(4)}
        assert graph.root_compute == ()

    def test_graph_is_acyclic_and_orderable(self):
        order = two_phase_program().to_task_graph().topological_order()
        assert len(order) == 14
        # All phase-0 tasks come before any phase-1 task.
        boundary = [t.phase_index for t in order]
        assert boundary == sorted(boundary)
