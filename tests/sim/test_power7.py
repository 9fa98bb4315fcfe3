"""Tests for the POWER7-class machine preset (the paper's future work)."""

from repro.sim.machine import i7_860
from repro.sim.power7 import power7
from repro.sim.scheduler import FixedMtlPolicy, conventional_policy
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram, build_phase


def synthetic(pairs=64, requests=8192, t_c=4e-4):
    return StreamProgram("p7", [build_phase("p", 0, pairs, requests, t_c)])


class TestPreset:
    def test_smt4_exposes_32_contexts(self):
        machine = power7()
        assert machine.core_count == 8
        assert machine.context_count == 32
        assert machine.name == "power7/8ch/smt4"

    def test_smt_off_variant(self):
        machine = power7(smt=1, channels=4)
        assert machine.context_count == 8
        assert machine.name == "power7/4ch/smt1"

    def test_eight_channels_dilute_contention(self):
        p7 = power7()
        i7 = i7_860()
        assert p7.memory.request_latency(8) < i7.memory.request_latency(8)

    def test_larger_llc_share(self):
        assert power7().memory.cache.per_core_share_bytes > (
            i7_860().memory.cache.per_core_share_bytes
        )


class TestExecution:
    def test_conventional_run_uses_all_contexts(self):
        machine = power7()
        program = synthetic(pairs=128)
        result = Simulator(machine).run(program, conventional_policy(32))
        assert {r.context_id for r in result.records} == set(range(32))
        result.verify(program.to_task_graph())

    def test_throttling_still_constrains_memory(self):
        program = synthetic(pairs=64)
        result = Simulator(power7()).run(program, FixedMtlPolicy(4))
        result.verify(program.to_task_graph())
        assert result.peak_memory_concurrency() == 4
