"""End-to-end tests of the simulation loop against the paper's
steady-state formulas (Section IV-A)."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.machine import i7_860
from repro.sim.noise import GaussianNoise
from repro.sim.scheduler import FixedMtlPolicy, conventional_policy
from repro.sim.simulator import Simulator, simulate
from repro.stream.program import StreamProgram, build_phase

REQUESTS = 8192  # one 0.5 MB footprint of 64 B lines


def latency(k: int) -> float:
    return i7_860().memory.request_latency(float(k))


def synthetic(ratio: float, pairs: int = 40, phases: int = 1) -> StreamProgram:
    """Single-ratio synthetic program: T_m1 / T_c = ratio."""
    t_m1 = REQUESTS * latency(1)
    t_c = t_m1 / ratio
    phase_list = [
        build_phase(f"p{i}", i, pairs, REQUESTS, t_c) for i in range(phases)
    ]
    return StreamProgram(f"synthetic-{ratio}", phase_list)


class TestSteadyState:
    def test_all_busy_regime_matches_formula(self):
        # ratio 0.1 <= 1/3: all cores busy at MTL=1; execution time is
        # (T_m1 + T_c) * t / n.
        program = synthetic(0.1)
        result = simulate(program, FixedMtlPolicy(1))
        t_m1 = REQUESTS * latency(1)
        t_c = t_m1 / 0.1
        expected = (t_m1 + t_c) * 40 / 4
        assert result.makespan == pytest.approx(expected, rel=0.05)

    def test_idle_regime_matches_formula(self):
        # ratio 2.0 > 1/3: memory is the bottleneck at MTL=1; execution
        # time is T_m1 * t / 1.
        program = synthetic(2.0)
        result = simulate(program, FixedMtlPolicy(1))
        expected = REQUESTS * latency(1) * 40
        assert result.makespan == pytest.approx(expected, rel=0.05)

    def test_measured_t_mk_matches_contention_model(self):
        # Memory-bound program at MTL=2 keeps 2 memory tasks in flight,
        # so the mean memory-task time is requests * L(2).
        program = synthetic(4.0)
        result = simulate(program, FixedMtlPolicy(2))
        assert result.mean_memory_duration(mtl=2) == pytest.approx(
            REQUESTS * latency(2), rel=0.05
        )

    def test_compute_time_is_mtl_invariant(self):
        program = synthetic(0.5)
        t_c_at_1 = simulate(program, FixedMtlPolicy(1)).mean_compute_duration()
        t_c_at_4 = simulate(program, FixedMtlPolicy(4)).mean_compute_duration()
        assert t_c_at_1 == pytest.approx(t_c_at_4, rel=1e-6)

    def test_throttling_beats_conventional_in_its_sweet_spot(self):
        # ratio 0.25 (< 1/3): MTL=1 keeps all cores busy while cutting
        # the memory latency — the Figure 5 situation.
        program = synthetic(0.25)
        conventional = simulate(program, conventional_policy(4))
        throttled = simulate(program, FixedMtlPolicy(1))
        speedup = conventional.makespan / throttled.makespan
        assert speedup > 1.05

    def test_over_throttling_hurts_memory_bound_workloads(self):
        # ratio 3.0: at MTL=1 cores sit idle; MTL=4 wins (Figure 4's
        # cautionary tale inverted).
        program = synthetic(3.0)
        conventional = simulate(program, conventional_policy(4))
        throttled = simulate(program, FixedMtlPolicy(1))
        assert throttled.makespan > conventional.makespan


class TestSchedulingInvariants:
    # ``verify`` checks coverage, dependencies, contexts and the gate.
    def test_all_tasks_complete_exactly_once(self):
        program = synthetic(0.5, pairs=16)
        result = simulate(program, FixedMtlPolicy(2))
        assert result.task_count == 32
        result.verify(program.to_task_graph())

    @pytest.mark.parametrize("mtl", [1, 2, 3, 4])
    def test_memory_concurrency_never_exceeds_mtl(self, mtl):
        program = synthetic(1.0, pairs=16)
        result = simulate(program, FixedMtlPolicy(mtl))
        result.verify(program.to_task_graph())
        assert result.peak_memory_concurrency() == mtl

    def test_phase_barrier_is_respected(self):
        program = synthetic(0.5, pairs=8, phases=2)
        simulate(program, FixedMtlPolicy(2)).verify(program.to_task_graph())

    def test_contexts_never_run_two_tasks_at_once(self):
        program = synthetic(0.7, pairs=24)
        simulate(program, FixedMtlPolicy(3)).verify(program.to_task_graph())

    def test_compute_follows_its_memory_task(self):
        result = simulate(synthetic(0.5, pairs=8), FixedMtlPolicy(2))
        ends = {r.task_id: r.end for r in result.records}
        starts = {r.task_id: r.start for r in result.records}
        for i in range(8):
            assert starts[f"C[0.{i}]"] >= ends[f"M[0.{i}]"] - 1e-12


class TestMachineVariants:
    def test_smt_machine_uses_eight_contexts(self):
        machine = i7_860(channels=2, smt=2)
        result = Simulator(machine).run(
            synthetic(0.5, pairs=32), conventional_policy(8)
        )
        used = {r.context_id for r in result.records}
        assert used == set(range(8))

    def test_dual_channel_shrinks_memory_latency(self):
        program = synthetic(2.0, pairs=16)
        single = Simulator(i7_860(channels=1)).run(program, FixedMtlPolicy(4))
        dual = Simulator(i7_860(channels=2)).run(program, FixedMtlPolicy(4))
        assert dual.mean_memory_duration() < single.mean_memory_duration()

    def test_policy_mtl_must_fit_machine(self):
        with pytest.raises(ConfigurationError):
            simulate(synthetic(0.5, pairs=4), FixedMtlPolicy(5))


class TestNoise:
    def test_same_seed_is_deterministic(self):
        program = synthetic(0.5, pairs=16)
        first = simulate(program, FixedMtlPolicy(2), noise=GaussianNoise(seed=11))
        second = simulate(program, FixedMtlPolicy(2), noise=GaussianNoise(seed=11))
        assert first.makespan == second.makespan

    def test_noise_perturbs_but_does_not_distort(self):
        program = synthetic(0.5, pairs=16)
        clean = simulate(program, FixedMtlPolicy(2))
        noisy = simulate(program, FixedMtlPolicy(2), noise=GaussianNoise(seed=5))
        assert noisy.makespan != clean.makespan
        assert noisy.makespan == pytest.approx(clean.makespan, rel=0.1)
