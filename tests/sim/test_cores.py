"""Tests for cores and SMT contexts."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.cores import Processor


class TestProcessorValidation:
    def test_rejects_bad_core_count(self):
        with pytest.raises(ConfigurationError):
            Processor(core_count=0)

    def test_rejects_bad_smt_ways(self):
        with pytest.raises(ConfigurationError):
            Processor(smt_ways=0)

    def test_rejects_sub_unity_aggregate(self):
        with pytest.raises(ConfigurationError):
            Processor(smt_aggregate_throughput=0.9)


class TestContexts:
    def test_smt_off_one_context_per_core(self):
        cpu = Processor(core_count=4, smt_ways=1)
        assert cpu.context_count == 4
        assert [c.core_id for c in cpu.contexts()] == [0, 1, 2, 3]

    def test_smt_on_two_contexts_per_core(self):
        cpu = Processor(core_count=4, smt_ways=2)
        assert cpu.context_count == 8
        assert [c.core_id for c in cpu.contexts()] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_context_ids_unique_and_dense(self):
        cpu = Processor(core_count=4, smt_ways=2)
        ids = [c.context_id for c in cpu.contexts()]
        assert ids == list(range(8))


class TestCpuRate:
    def test_unshared_core_runs_at_full_rate(self):
        cpu = Processor(core_count=4, smt_ways=2)
        assert cpu.cpu_rate(0) == 1.0
        assert cpu.cpu_rate(1) == 1.0

    def test_shared_core_splits_aggregate(self):
        cpu = Processor(core_count=4, smt_ways=2, smt_aggregate_throughput=1.25)
        assert cpu.cpu_rate(2) == pytest.approx(0.625)

    def test_sharing_slows_each_but_speeds_total(self):
        cpu = Processor(core_count=4, smt_ways=2, smt_aggregate_throughput=1.25)
        shared = cpu.cpu_rate(2)
        assert shared < 1.0           # T_c is no longer constant under SMT
        assert 2 * shared > 1.0       # but the core does more in total

    def test_rejects_negative_active_count(self):
        with pytest.raises(ConfigurationError):
            Processor().cpu_rate(-1)
