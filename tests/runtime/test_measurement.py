"""Tests for the 20-run / middle-10 measurement protocol."""

import pytest

from repro.errors import MeasurementError
from repro.runtime.measurement import measure_makespan, middle_mean
from repro.sim.noise import GaussianNoise
from repro.sim.scheduler import FixedMtlPolicy
from repro.stream.program import StreamProgram, build_phase


def small_program():
    return StreamProgram("tiny", [build_phase("p", 0, 8, 2048, 5e-4)])


class TestMiddleMean:
    def test_paper_protocol_drops_extremes(self):
        values = [float(v) for v in range(1, 21)]  # 1..20
        # Middle 10 of 1..20 is 6..15, mean 10.5.
        assert middle_mean(values, keep=10) == pytest.approx(10.5)

    def test_outliers_have_no_influence(self):
        clean = [10.0] * 20
        spiked = [10.0] * 18 + [1000.0, 0.001]
        assert middle_mean(spiked, keep=10) == middle_mean(clean, keep=10)

    def test_small_samples_degenerate_to_mean(self):
        assert middle_mean([2.0, 4.0], keep=10) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(MeasurementError):
            middle_mean([], keep=10)
        with pytest.raises(MeasurementError):
            middle_mean([1.0], keep=0)


class TestMeasureMakespan:
    def test_runs_the_requested_count(self):
        measurement = measure_makespan(
            small_program(), lambda: FixedMtlPolicy(2), runs=6, keep=4
        )
        assert measurement.runs == 6
        assert measurement.value > 0

    def test_deterministic_given_base_seed(self):
        first = measure_makespan(
            small_program(), lambda: FixedMtlPolicy(2), runs=4, base_seed=7
        )
        second = measure_makespan(
            small_program(), lambda: FixedMtlPolicy(2), runs=4, base_seed=7
        )
        assert first.makespans == second.makespans

    def test_runs_differ_across_seeds(self):
        measurement = measure_makespan(
            small_program(), lambda: FixedMtlPolicy(2), runs=5
        )
        assert len(set(measurement.makespans)) > 1

    def test_custom_noise_factory(self):
        measurement = measure_makespan(
            small_program(),
            lambda: FixedMtlPolicy(2),
            runs=3,
            noise_factory=lambda seed: GaussianNoise(seed=seed, sigma=0.0,
                                                     spike_probability=0.0,
                                                     overhead_seconds=0.0),
        )
        # Zero-variance noise: all runs identical.
        assert len(set(measurement.makespans)) == 1

    def test_rejects_zero_runs(self):
        with pytest.raises(MeasurementError):
            measure_makespan(small_program(), lambda: FixedMtlPolicy(2), runs=0)
