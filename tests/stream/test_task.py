"""Unit and property tests for the stream task model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.stream.task import Task, TaskKind, TaskPair, compute_task, memory_task


class TestTaskValidation:
    def test_rejects_empty_id(self):
        with pytest.raises(ConfigurationError):
            memory_task("", requests=10)

    def test_rejects_negative_cpu_seconds(self):
        with pytest.raises(ConfigurationError):
            Task(task_id="t", kind=TaskKind.COMPUTE, cpu_seconds=-1.0)

    def test_rejects_negative_requests(self):
        with pytest.raises(ConfigurationError):
            Task(task_id="t", kind=TaskKind.MEMORY, memory_requests=-1.0)

    def test_rejects_negative_footprint(self):
        with pytest.raises(ConfigurationError):
            memory_task("t", requests=1, footprint_bytes=-1)

    def test_rejects_workless_task(self):
        with pytest.raises(ConfigurationError):
            Task(task_id="t", kind=TaskKind.COMPUTE)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_demands(self, value):
        # A NaN or infinite demand would reach the simulator as a NaN
        # per-unit demand or an infinite time step; the error names the
        # task and the field.
        cases = [
            (lambda: compute_task("c", cpu_seconds=value), "'c': cpu_seconds"),
            (
                lambda: compute_task("s", cpu_seconds=1e-3, spilled_requests=value),
                "'s': memory_requests",
            ),
            (lambda: memory_task("m", requests=value), "'m': memory_requests"),
            (
                lambda: Task(task_id="t", kind=TaskKind.COMPUTE, cpu_seconds=value),
                "'t': cpu_seconds",
            ),
        ]
        for build, named in cases:
            with pytest.raises(ConfigurationError, match=named):
                build()

    @pytest.mark.parametrize("cpu_seconds", [1e300, 1.7976931348623157e308])
    def test_rejects_cpu_seconds_that_overflow_work_units(self, cpu_seconds):
        # Finite, but ``cpu_seconds * 1e9`` work units overflow to inf
        # and the per-unit CPU demand to 0.0: the run would only die
        # mid-simulation on a non-positive unit cost.
        with pytest.raises(ConfigurationError, match="'c': cpu_seconds"):
            compute_task("c", cpu_seconds=cpu_seconds)

    def test_large_finite_work_is_accepted(self):
        task = compute_task("c", cpu_seconds=1e299)
        assert task.work_units == 1e299 * 1e9 < math.inf
        assert task.unit_demand.cpu_seconds_per_unit > 0.0


class TestTaskFactories:
    def test_memory_task_is_pure_memory(self):
        task = memory_task("m", requests=8192, footprint_bytes=8192 * 64)
        assert task.is_memory and not task.is_compute
        assert task.cpu_seconds == 0.0
        assert task.memory_requests == 8192

    def test_compute_task_defaults_to_miss_free(self):
        task = compute_task("c", cpu_seconds=1e-3, depends_on=("m",))
        assert task.is_compute and not task.is_memory
        assert task.memory_requests == 0.0

    def test_compute_task_can_carry_spill_traffic(self):
        task = compute_task("c", cpu_seconds=1e-3, spilled_requests=512.0)
        assert task.memory_requests == 512.0


class TestDurationAndDemand:
    def test_memory_task_duration_scales_with_latency(self):
        task = memory_task("m", requests=1000)
        assert task.duration_at_latency(64e-9) == pytest.approx(64e-6)
        assert task.duration_at_latency(128e-9) == pytest.approx(128e-6)

    def test_compute_task_duration_is_latency_invariant_when_miss_free(self):
        task = compute_task("c", cpu_seconds=2e-3, depends_on=("m",))
        assert task.duration_at_latency(64e-9) == task.duration_at_latency(640e-9)

    def test_spilling_compute_task_duration_grows_with_latency(self):
        task = compute_task("c", cpu_seconds=2e-3, spilled_requests=1000.0)
        assert task.duration_at_latency(128e-9) > task.duration_at_latency(64e-9)

    def test_duration_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            memory_task("m", requests=1).duration_at_latency(-1.0)

    def test_memory_task_demand_is_pure(self):
        demand = memory_task("m", requests=100).demand()
        assert demand.cpu_seconds_per_unit == 0.0
        assert demand.requests_per_unit == pytest.approx(1.0)

    def test_compute_task_demand_is_pure_cpu(self):
        demand = compute_task("c", cpu_seconds=1e-3).demand()
        assert demand.requests_per_unit == 0.0
        assert demand.cpu_seconds_per_unit > 0.0

    @given(
        cpu=st.floats(min_value=1e-6, max_value=1.0),
        requests=st.floats(min_value=1.0, max_value=1e6),
        latency=st.floats(min_value=1e-9, max_value=1e-6),
    )
    def test_property_demand_reconstructs_duration(self, cpu, requests, latency):
        # work_units * per-unit cost must equal the closed-form duration.
        task = Task(
            task_id="t",
            kind=TaskKind.COMPUTE,
            cpu_seconds=cpu,
            memory_requests=requests,
        )
        demand = task.demand()
        per_unit = demand.cpu_seconds_per_unit + demand.requests_per_unit * latency
        assert task.work_units * per_unit == pytest.approx(
            task.duration_at_latency(latency), rel=1e-9
        )


class TestTaskPair:
    def test_valid_pair(self):
        mem = memory_task("m", requests=10, pair_index=3, phase_index=1)
        comp = compute_task("c", cpu_seconds=1e-3, depends_on=("m",))
        pair = TaskPair(memory=mem, compute=comp)
        assert pair.pair_index == 3
        assert pair.phase_index == 1

    def test_rejects_swapped_kinds(self):
        mem = memory_task("m", requests=10)
        comp = compute_task("c", cpu_seconds=1e-3, depends_on=("m",))
        with pytest.raises(ConfigurationError):
            TaskPair(memory=comp, compute=mem)

    def test_rejects_missing_dependency_edge(self):
        mem = memory_task("m", requests=10)
        orphan = compute_task("c", cpu_seconds=1e-3)
        with pytest.raises(ConfigurationError):
            TaskPair(memory=mem, compute=orphan)


class TestTaskClone:
    @pytest.mark.parametrize(
        "template",
        [
            memory_task("M[1.0]", requests=8192, footprint_bytes=1 << 19,
                        phase_index=1),
            compute_task("C[1.0]", cpu_seconds=2e-4, spilled_requests=512.0,
                         footprint_bytes=1 << 19, phase_index=1,
                         depends_on=("M[1.0]",)),
        ],
    )
    def test_clone_equals_the_constructed_task(self, template):
        clone = template.clone("X[1.7]", 7, ("a", "b", "a"))
        built = Task(
            task_id="X[1.7]",
            kind=template.kind,
            cpu_seconds=template.cpu_seconds,
            memory_requests=template.memory_requests,
            footprint_bytes=template.footprint_bytes,
            pair_index=7,
            phase_index=template.phase_index,
            depends_on=("a", "b", "a"),
        )
        assert clone == built
        assert hash(clone) == hash(built)
        assert repr(clone) == repr(built)
        assert clone.is_memory == built.is_memory
        assert clone.is_compute == built.is_compute
        assert clone.work_units == built.work_units
        assert clone.unit_demand == built.unit_demand
        assert clone.demand() == built.demand()
        assert list(vars(clone)) == list(vars(built))
        # The per-unit demand is the template's own instance.
        assert clone.unit_demand is template.unit_demand
        # The template is untouched.
        assert template.pair_index == 0
        assert template.task_id != clone.task_id

    def test_clone_rejects_an_empty_id(self):
        with pytest.raises(ConfigurationError, match="task_id must be non-empty"):
            memory_task("m", requests=10).clone("", 1, ())
