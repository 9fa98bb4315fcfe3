"""Tests for the work queue, MTL gate, and fixed policies."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.sim.scheduler import (
    FixedMtlPolicy,
    MtlGate,
    WorkQueue,
    conventional_policy,
)
from repro.stream.program import StreamProgram, build_phase


def one_phase_graph(pairs: int = 4):
    program = StreamProgram(
        "wq",
        [build_phase("p", 0, pairs, requests_per_memory_task=100,
                     compute_seconds_per_task=1e-4)],
    )
    return program.to_task_graph()


class TestMtlGate:
    def test_acquire_up_to_limit(self):
        gate = MtlGate(limit=2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        assert gate.in_use == 2

    def test_release_frees_token(self):
        gate = MtlGate(limit=1)
        assert gate.try_acquire()
        gate.release()
        assert gate.try_acquire()

    def test_release_without_acquire_is_a_bug(self):
        with pytest.raises(SchedulingError):
            MtlGate(limit=1).release()

    def test_lowering_limit_does_not_preempt(self):
        gate = MtlGate(limit=3)
        for _ in range(3):
            assert gate.try_acquire()
        gate.set_limit(1)
        assert gate.in_use == 3          # running tasks keep their tokens
        assert not gate.try_acquire()    # but nothing new gets in
        gate.release()
        gate.release()
        assert not gate.try_acquire()    # still 1 in use at limit 1
        gate.release()
        assert gate.try_acquire()

    def test_rejects_bad_limits(self):
        with pytest.raises(ConfigurationError):
            MtlGate(limit=0)
        with pytest.raises(ConfigurationError):
            MtlGate(limit=2).set_limit(0)


class TestFixedPolicies:
    def test_fixed_policy_reports_constant_mtl(self):
        policy = FixedMtlPolicy(mtl=2)
        assert policy.current_mtl() == 2
        assert policy.name == "static-mtl-2"
        assert not policy.is_probing()

    def test_conventional_policy_equals_context_count(self):
        policy = conventional_policy(context_count=4)
        assert policy.current_mtl() == 4
        assert policy.name == "conventional"

    def test_rejects_mtl_below_one(self):
        with pytest.raises(ConfigurationError):
            FixedMtlPolicy(mtl=0)


class TestWorkQueue:
    def test_initially_only_memory_tasks_ready(self):
        queue = WorkQueue(one_phase_graph(4))
        assert queue.pending_memory == 4
        assert queue.pending_compute == 0

    def test_completing_memory_readies_its_compute(self):
        queue = WorkQueue(one_phase_graph(2))
        task = queue.pop_memory()
        newly = queue.mark_complete(task)
        assert [t.task_id for t in newly] == [task.task_id.replace("M", "C")]
        assert queue.pending_compute == 1

    def test_fifo_memory_order(self):
        queue = WorkQueue(one_phase_graph(3))
        ids = [queue.pop_memory().task_id for _ in range(3)]
        assert ids == ["M[0.0]", "M[0.1]", "M[0.2]"]

    def test_affinity_preference(self):
        queue = WorkQueue(one_phase_graph(3))
        m0 = queue.pop_memory()
        m1 = queue.pop_memory()
        queue.note_memory_ran_on(m0, context_id=0)
        queue.note_memory_ran_on(m1, context_id=1)
        queue.mark_complete(m0)
        queue.mark_complete(m1)
        # Context 1 prefers the compute task whose data it gathered,
        # even though context 0's pair was enqueued first.
        task = queue.pop_compute(context_id=1)
        assert task.task_id == "C[0.1]"

    def test_compute_falls_back_to_fifo_without_affinity(self):
        queue = WorkQueue(one_phase_graph(2))
        m0 = queue.pop_memory()
        m1 = queue.pop_memory()
        queue.mark_complete(m0)
        queue.mark_complete(m1)
        assert queue.pop_compute(context_id=9).task_id == "C[0.0]"

    def test_pop_from_empty_returns_none(self):
        queue = WorkQueue(one_phase_graph(1))
        assert queue.pop_compute(0) is None
        queue.pop_memory()
        assert queue.pop_memory() is None

    def test_exhausted_after_all_complete(self):
        queue = WorkQueue(one_phase_graph(2))
        while not queue.exhausted():
            task = queue.pop_memory() or queue.pop_compute(0)
            queue.mark_complete(task)
        assert not queue.has_ready_work()
        assert queue.completed_count == 4

    def test_double_completion_is_a_bug(self):
        queue = WorkQueue(one_phase_graph(1))
        task = queue.pop_memory()
        queue.mark_complete(task)
        with pytest.raises(SchedulingError):
            queue.mark_complete(task)

    def test_completing_undispatched_task_is_a_bug(self):
        queue = WorkQueue(one_phase_graph(2))
        task = queue.pop_memory()
        other = queue.pop_memory()
        queue.mark_complete(task)
        ready_compute = queue.pop_compute(0)
        queue.mark_complete(ready_compute)
        # A task never handed out by the queue must not complete.
        graph = one_phase_graph(2)
        foreign = graph.task("M[0.1]")
        fresh_queue = WorkQueue(graph)
        with pytest.raises(SchedulingError):
            fresh_queue.mark_complete(foreign)
