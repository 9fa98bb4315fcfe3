"""Tests for SimulationResult statistics."""

import pytest

from repro.errors import MeasurementError, SimulationError
from repro.sim.events import MtlChange, TaskRecord
from repro.sim.results import SimulationResult
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import simulate
from repro.stream.program import StreamProgram, build_phase
from repro.stream.task import TaskKind


def record(task_id, kind, context, start, end, mtl=4, probe=False, phase=0):
    return TaskRecord(
        task_id=task_id, kind=kind, context_id=context, core_id=context,
        start=start, end=end, mtl_at_dispatch=mtl, phase_index=phase,
        pair_index=0, probe=probe,
    )


def manual_result(records, changes=None, contexts=2):
    return SimulationResult(
        program_name="p", machine_name="m", policy_name="pol",
        context_count=contexts, records=tuple(records),
        mtl_changes=tuple(changes or [MtlChange(0.0, 2, 2, "initial")]),
    )


def untimed_result():
    return SimulationResult(
        program_name="p", machine_name="m", policy_name="pol",
        context_count=1, records=(), mtl_changes=(),
    )


class TestTaskRecord:
    def test_duration(self):
        r = record("a", TaskKind.MEMORY, 0, 1.0, 3.0)
        assert r.duration == 2.0
        assert r.is_memory

    def test_rejects_negative_duration(self):
        with pytest.raises(SimulationError):
            record("a", TaskKind.MEMORY, 0, 3.0, 1.0)


class TestAggregates:
    def test_makespan_is_last_end(self):
        result = manual_result([
            record("m", TaskKind.MEMORY, 0, 0.0, 1.0),
            record("c", TaskKind.COMPUTE, 1, 1.0, 4.0),
        ])
        assert result.makespan == 4.0

    def test_empty_result(self):
        result = manual_result([])
        assert result.makespan == 0.0
        assert result.utilization() == 0.0
        assert result.probe_task_time_fraction() == 0.0

    def test_mean_durations_grouped_by_mtl(self):
        result = manual_result([
            record("m1", TaskKind.MEMORY, 0, 0.0, 1.0, mtl=1),
            record("m2", TaskKind.MEMORY, 0, 1.0, 4.0, mtl=2),
            record("c1", TaskKind.COMPUTE, 1, 0.0, 2.0),
        ])
        assert result.mean_memory_duration(mtl=1) == 1.0
        assert result.mean_memory_duration(mtl=2) == 3.0
        assert result.mean_memory_duration() == 2.0
        assert result.mean_compute_duration() == 2.0

    def test_missing_samples_raise(self):
        result = manual_result([record("m", TaskKind.MEMORY, 0, 0.0, 1.0)])
        with pytest.raises(MeasurementError):
            result.mean_memory_duration(mtl=3)
        with pytest.raises(MeasurementError):
            result.mean_compute_duration()

    def test_utilization_and_idle(self):
        result = manual_result([
            record("m", TaskKind.MEMORY, 0, 0.0, 2.0),
            record("c", TaskKind.COMPUTE, 1, 0.0, 1.0),
        ])
        # busy 3 over 2 contexts * span 2 = 4.
        assert result.utilization() == pytest.approx(0.75)
        assert result.idle_time() == pytest.approx(1.0)

    def test_probe_fraction(self):
        result = manual_result([
            record("m", TaskKind.MEMORY, 0, 0.0, 1.0, probe=True),
            record("c", TaskKind.COMPUTE, 1, 0.0, 3.0),
        ])
        assert result.probe_task_time_fraction() == pytest.approx(0.25)


class TestMtlTimeline:
    def test_residency_splits_by_change_points(self):
        changes = [
            MtlChange(0.0, 4, 4, "initial"),
            MtlChange(2.0, 4, 1, "select"),
        ]
        result = manual_result(
            [record("m", TaskKind.MEMORY, 0, 0.0, 10.0)], changes=changes
        )
        residency = result.mtl_residency()
        assert residency[4] == pytest.approx(2.0)
        assert residency[1] == pytest.approx(8.0)
        assert result.dominant_mtl() == 1
        assert result.final_mtl() == 1

    def test_dominant_mtl_requires_timeline(self):
        with pytest.raises(MeasurementError, match="no MTL timeline"):
            untimed_result().dominant_mtl()

    def test_final_mtl_requires_timeline(self):
        with pytest.raises(MeasurementError, match="no MTL timeline"):
            untimed_result().final_mtl()


class TestConsistencyChecks:
    # Two pairs, run on two contexts at MTL 2.
    PROGRAM = StreamProgram("p", [build_phase("p", 0, 2, 2048, 1e-4)])

    def test_detects_duplicate_records(self):
        result = manual_result([
            record("M[0.0]", TaskKind.MEMORY, 0, 0.0, 1.0, mtl=2),
            record("M[0.0]", TaskKind.MEMORY, 1, 0.0, 1.0, mtl=2),
        ])
        with pytest.raises(MeasurementError, match=r"'M\[0\.0\]' recorded twice"):
            result.verify(self.PROGRAM.to_task_graph())

    def test_detects_context_overlap(self):
        result = manual_result([
            record("M[0.0]", TaskKind.MEMORY, 0, 0.0, 2.0, mtl=2),
            record("M[0.1]", TaskKind.MEMORY, 0, 1.0, 3.0, mtl=2),
            record("C[0.0]", TaskKind.COMPUTE, 1, 2.0, 3.0, mtl=2),
            record("C[0.1]", TaskKind.COMPUTE, 1, 3.0, 4.0, mtl=2),
        ])
        with pytest.raises(MeasurementError, match="context 0 ran .* concurrently"):
            result.verify(self.PROGRAM.to_task_graph())

    def test_real_simulation_is_consistent(self):
        program = StreamProgram(
            "p", [build_phase("p", 0, 12, 2048, 1e-4)]
        )
        simulate(program, FixedMtlPolicy(2)).verify(program.to_task_graph())

