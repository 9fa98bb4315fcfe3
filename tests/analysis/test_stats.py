"""Tests for statistics helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import arithmetic_mean, geometric_mean, stdev
from repro.errors import MeasurementError


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity_on_constant(self):
        assert geometric_mean([1.12, 1.12, 1.12]) == pytest.approx(1.12)

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(MeasurementError):
            geometric_mean([])
        with pytest.raises(MeasurementError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=1,
                    max_size=12))
    def test_property_bounded_by_extremes(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-12 <= gm <= max(values) + 1e-12

    @given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2,
                    max_size=12))
    def test_property_never_exceeds_arithmetic_mean(self, values):
        assert geometric_mean(values) <= arithmetic_mean(values) + 1e-12


class TestBasicStats:
    def test_mean_and_stdev(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        assert stdev([2.0, 2.0, 2.0]) == 0.0
        assert stdev([1.0, 3.0]) == pytest.approx(1.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(MeasurementError):
            arithmetic_mean([])
        with pytest.raises(MeasurementError):
            stdev([])
