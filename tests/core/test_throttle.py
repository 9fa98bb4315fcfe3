"""End-to-end tests of the dynamic throttling policy."""

import pytest

from repro.core.offline import offline_exhaustive_search
from repro.core.throttle import DynamicThrottlingPolicy
from repro.errors import ConfigurationError
from repro.sim.machine import i7_860
from repro.sim.scheduler import conventional_policy
from repro.sim.simulator import simulate
from repro.stream.program import StreamProgram, build_phase

REQUESTS = 8192
L1 = i7_860().memory.request_latency(1.0)


def synthetic(ratio: float, pairs: int = 160) -> StreamProgram:
    t_c = REQUESTS * L1 / ratio
    return StreamProgram(
        f"synthetic-{ratio}", [build_phase("p", 0, pairs, REQUESTS, t_c)]
    )


def multi_phase(ratios, pairs_per_phase: int = 120) -> StreamProgram:
    phases = [
        build_phase(f"phase{i}", i, pairs_per_phase, REQUESTS, REQUESTS * L1 / r)
        for i, r in enumerate(ratios)
    ]
    return StreamProgram("multi-phase", phases)


class TestConvergence:
    @pytest.mark.parametrize(
        "ratio,expected_mtl",
        [(0.10, 1), (0.25, 1), (0.50, 2), (1.50, 3)],
    )
    def test_selects_the_offline_best_mtl(self, ratio, expected_mtl):
        program = synthetic(ratio)
        policy = DynamicThrottlingPolicy(context_count=4)
        result = simulate(program, policy)
        offline = offline_exhaustive_search(program)
        assert offline.best_mtl == expected_mtl
        assert result.dominant_mtl() == expected_mtl

    def test_single_selection_for_stable_workload(self):
        policy = DynamicThrottlingPolicy(context_count=4)
        simulate(synthetic(0.25), policy)
        assert len(policy.selections) == 1

    def test_speedup_close_to_offline_search(self):
        program = synthetic(0.25)
        dynamic = simulate(program, DynamicThrottlingPolicy(context_count=4))
        conventional = simulate(program, conventional_policy(4))
        offline = offline_exhaustive_search(program)
        dynamic_speedup = conventional.makespan / dynamic.makespan
        offline_speedup = offline.makespan(4) / offline.best.makespan
        assert dynamic_speedup > 1.05
        assert dynamic_speedup == pytest.approx(offline_speedup, abs=0.05)


class TestPhaseAdaptation:
    def test_adapts_across_phases(self):
        # A SIFT-like alternation: memory-heavy then compute-heavy.
        program = multi_phase([0.7, 0.08])
        policy = DynamicThrottlingPolicy(context_count=4)
        result = simulate(program, policy)
        assert len(policy.selections) >= 2
        selected = [e.selected_mtl for e in policy.selections]
        assert selected[0] == 2   # ratio 0.7 -> candidates 1/2, busy at 2
        assert selected[-1] == 1  # ratio 0.08 -> all busy at 1

    def test_no_retrigger_when_bound_stable(self):
        # Two phases whose ratios differ but share IdleBound 1: the
        # coarse detector must not re-select.
        program = multi_phase([0.10, 0.20])
        policy = DynamicThrottlingPolicy(context_count=4)
        simulate(program, policy)
        assert len(policy.selections) == 1

    def test_beats_conventional_on_phased_workload(self):
        program = multi_phase([0.7, 0.08, 0.5])
        dynamic = simulate(program, DynamicThrottlingPolicy(context_count=4))
        conventional = simulate(program, conventional_policy(4))
        assert conventional.makespan / dynamic.makespan > 1.03


class TestMonitoringAccounting:
    def test_probe_tasks_are_flagged(self):
        policy = DynamicThrottlingPolicy(context_count=4)
        result = simulate(synthetic(0.5), policy)
        assert any(r.probe for r in result.records)
        assert result.probe_task_time_fraction() < 0.5

    def test_monitoring_stays_cheap_for_large_programs(self):
        policy = DynamicThrottlingPolicy(context_count=4, window_pairs=16)
        result = simulate(synthetic(0.5, pairs=400), policy)
        # Probing is a bounded prefix; its share shrinks with scale.
        assert result.probe_task_time_fraction() < 0.15

    def test_windows_counted(self):
        policy = DynamicThrottlingPolicy(context_count=4)
        simulate(synthetic(0.25), policy)
        assert policy.windows_completed >= 1


class TestConfiguration:
    def test_name_and_initial_state(self):
        policy = DynamicThrottlingPolicy(context_count=4)
        assert policy.name == "dynamic-throttling"
        assert policy.current_mtl() == 4  # starts unthrottled
        assert not policy.is_probing()

    def test_custom_initial_mtl(self):
        policy = DynamicThrottlingPolicy(context_count=4, initial_mtl=2)
        assert policy.current_mtl() == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicThrottlingPolicy(context_count=0)
        with pytest.raises(ConfigurationError):
            DynamicThrottlingPolicy(context_count=4, initial_mtl=9)
