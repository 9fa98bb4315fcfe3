"""Tests for DRAM-to-contention-law calibration."""

import pytest

from repro.errors import ConfigurationError, MeasurementError, ModelError
from repro.memory.calibration import calibrate_linear_model, linear_fit
from repro.memory.contention import LinearContentionModel
from repro.memory.timing import DDR3_1066, DDR3_1333


class TestCalibration:
    def test_returns_usable_linear_model(self):
        result = calibrate_linear_model(requests_per_stream=256)
        assert isinstance(result.model, LinearContentionModel)
        assert result.model.contention_free_latency > 0
        assert result.model.queueing_latency > 0

    def test_fit_quality_reported(self):
        result = calibrate_linear_model(requests_per_stream=256)
        assert result.r_squared > 0.90
        assert len(result.latencies) == len(result.concurrencies)

    def test_model_tracks_measured_curve(self):
        result = calibrate_linear_model(requests_per_stream=256)
        for c, latency in zip(result.concurrencies, result.latencies):
            predicted = result.model.request_latency(float(c))
            assert predicted == pytest.approx(latency, rel=0.35)

    def test_faster_grade_calibrates_lower_latency(self):
        slow = calibrate_linear_model(DDR3_1066, requests_per_stream=256)
        fast = calibrate_linear_model(DDR3_1333, requests_per_stream=256)
        assert (
            fast.model.request_latency(4) < slow.model.request_latency(4)
        )

    def test_requires_two_distinct_concurrencies(self):
        with pytest.raises(ConfigurationError):
            calibrate_linear_model(concurrencies=(4, 4))

    def test_rejects_non_linear_curves(self):
        # An impossible quality bar forces the rejection path.
        with pytest.raises(ModelError):
            calibrate_linear_model(
                requests_per_stream=256, min_r_squared=0.99999
            )


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(21.0)

    def test_noisy_line_has_high_r_squared(self):
        xs = list(range(10))
        ys = [2.0 * x + 1.0 + (0.1 if x % 2 else -0.1) for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.r_squared > 0.99

    def test_validation(self):
        with pytest.raises(MeasurementError):
            linear_fit([1], [2])
        with pytest.raises(MeasurementError):
            linear_fit([1, 2], [3])
        with pytest.raises(MeasurementError):
            linear_fit([2, 2], [1, 3])
