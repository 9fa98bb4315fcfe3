"""Tests for the Offline Exhaustive Search driver."""

import pytest

from repro.core.offline import offline_exhaustive_search
from repro.sim.machine import i7_860
from repro.sim.noise import GaussianNoise
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram, build_phase

REQUESTS = 8192
L1 = i7_860().memory.request_latency(1.0)


def synthetic(ratio: float, pairs: int = 60) -> StreamProgram:
    t_c = REQUESTS * L1 / ratio
    return StreamProgram(
        f"synthetic-{ratio}", [build_phase("p", 0, pairs, REQUESTS, t_c)]
    )


class TestOfflineSearch:
    def test_searches_every_static_mtl(self):
        outcome = offline_exhaustive_search(synthetic(0.5))
        assert set(outcome.by_mtl) == {1, 2, 3, 4}

    def test_best_is_the_minimum_makespan(self):
        outcome = offline_exhaustive_search(synthetic(0.5))
        best = min(outcome.by_mtl.values(), key=lambda r: r.makespan)
        assert outcome.best.makespan == best.makespan

    @pytest.mark.parametrize("ratio,expected", [(0.10, 1), (0.50, 2), (1.50, 3)])
    def test_finds_the_analytical_s_mtl(self, ratio, expected):
        outcome = offline_exhaustive_search(synthetic(ratio))
        assert outcome.best_mtl == expected

    def test_speedup_over_conventional(self):
        outcome = offline_exhaustive_search(synthetic(0.25))
        assert outcome.makespan(4) / outcome.best.makespan > 1.05

    def test_smt_machine_searches_eight_mtls(self):
        machine = i7_860(channels=2, smt=2)
        outcome = offline_exhaustive_search(synthetic(0.5, pairs=40), machine)
        assert set(outcome.by_mtl) == set(range(1, 9))

    def test_noise_factory_called_per_run(self):
        seeds = iter(range(100))
        outcome = offline_exhaustive_search(
            synthetic(0.5, pairs=30),
            noise_factory=lambda: GaussianNoise(seed=next(seeds)),
        )
        assert len(outcome.by_mtl) == 4

    def test_seeded_runs_share_the_machine_memo(self):
        """Every MTL run, seeded or not, reads the machine's one memo;
        the results equal runs that each start cold on a new machine."""
        program = synthetic(0.5, pairs=30)
        machine = i7_860(smt=2)
        shared = offline_exhaustive_search(
            program, machine, noise_factory=lambda: GaussianNoise(seed=5)
        )
        assert machine.rate_calculator.hits > 0
        for mtl, result in shared.by_mtl.items():
            cold = Simulator(i7_860(smt=2), noise=GaussianNoise(seed=5)).run(
                program, FixedMtlPolicy(mtl)
            )
            assert result.records == cold.records

    def test_makespan_accessor(self):
        outcome = offline_exhaustive_search(synthetic(0.5, pairs=30))
        assert outcome.makespan(4) == outcome.by_mtl[4].makespan
