"""Tests for the Online Exhaustive Search baseline."""

import pytest

from repro.core.policies import OnlineExhaustivePolicy
from repro.core.throttle import DynamicThrottlingPolicy
from repro.errors import ConfigurationError
from repro.sim.machine import i7_860
from repro.sim.noise import GaussianNoise
from repro.sim.simulator import simulate
from repro.stream.program import StreamProgram, build_phase

REQUESTS = 8192
L1 = i7_860().memory.request_latency(1.0)


def synthetic(ratio: float, pairs: int = 200) -> StreamProgram:
    t_c = REQUESTS * L1 / ratio
    return StreamProgram(
        f"synthetic-{ratio}", [build_phase("p", 0, pairs, REQUESTS, t_c)]
    )


def phased(ratios, pairs: int = 150) -> StreamProgram:
    return StreamProgram(
        "phased",
        [
            build_phase(f"p{i}", i, pairs, REQUESTS, REQUESTS * L1 / r)
            for i, r in enumerate(ratios)
        ],
    )


class TestConfiguration:
    def test_defaults(self):
        policy = OnlineExhaustivePolicy(context_count=4)
        assert policy.name == "online-exhaustive"
        assert policy.current_mtl() == 4
        assert not policy.is_probing()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OnlineExhaustivePolicy(context_count=0)
        with pytest.raises(ConfigurationError):
            OnlineExhaustivePolicy(context_count=4, window_pairs=0)
        with pytest.raises(ConfigurationError):
            OnlineExhaustivePolicy(context_count=4, threshold=0.0)
        with pytest.raises(ConfigurationError):
            OnlineExhaustivePolicy(context_count=4, initial_mtl=5)


class TestBehaviour:
    def test_stable_workload_selects_once_at_bootstrap(self):
        # Noise-free identical windows: only the mandatory initial
        # selection fires; the 10% threshold never re-triggers.
        policy = OnlineExhaustivePolicy(context_count=4)
        simulate(synthetic(0.5), policy)
        assert len(policy.selections) == 1

    def test_phase_change_triggers_exhaustive_probe(self):
        policy = OnlineExhaustivePolicy(context_count=4, window_pairs=8)
        simulate(phased([0.7, 0.08]), policy)
        assert len(policy.selections) >= 1
        # Exhaustive: every MTL from 1 to 4 was timed, and the
        # wall-clock trigger is not an IdleBound.
        first = policy.selections[0]
        assert set(first.candidates) == {1, 2, 3, 4}
        assert first.trigger is None and first.measured == {}
        assert first.selected_mtl == min(
            first.candidates, key=lambda k: (first.candidates[k], k)
        )

    def test_probe_flag_set_during_search(self):
        policy = OnlineExhaustivePolicy(context_count=4, window_pairs=8)
        result = simulate(phased([0.7, 0.08]), policy)
        assert any(r.probe for r in result.records)

    def test_probing_costs_more_than_dynamic(self):
        # The paper: 4.87% online vs 0.04% dynamic on streamcluster.
        # The online baseline times n windows per trigger; the dynamic
        # mechanism at most ~log n. Compare probe shares directly.
        program = phased([0.7, 0.08], pairs=250)
        online = OnlineExhaustivePolicy(context_count=4, window_pairs=16)
        online_result = simulate(program, online)
        dynamic = DynamicThrottlingPolicy(context_count=4, window_pairs=16)
        dynamic_result = simulate(program, dynamic)
        assert (
            online_result.probe_task_time_fraction()
            > dynamic_result.probe_task_time_fraction()
        )

    def test_noise_can_cause_spurious_triggers(self):
        # Under measurement noise the wall-clock trigger fires even
        # without a real phase change — the paper's critique.
        policy = OnlineExhaustivePolicy(
            context_count=4, window_pairs=4, threshold=0.02
        )
        simulate(
            synthetic(0.5, pairs=300),
            policy,
            noise=GaussianNoise(seed=3, sigma=0.05),
        )
        assert len(policy.selections) >= 1

    def test_selects_a_sane_mtl_on_stable_phase(self):
        # After its (noisy or real) trigger the policy should still
        # land on a reasonable MTL for the steady ratio.
        policy = OnlineExhaustivePolicy(context_count=4, window_pairs=16)
        result = simulate(phased([0.7, 0.7, 0.08], pairs=200), policy)
        assert result.final_mtl() in (1, 2)
