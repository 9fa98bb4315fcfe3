"""Tests for IdleBound-based phase-change detection (Section IV-B)."""

import pytest

from repro.core.model import AnalyticalModel
from repro.core.phase import PairSample, PhaseChangeDetector
from repro.errors import ConfigurationError, MeasurementError

QUAD = AnalyticalModel(core_count=4)


def feed_window(detector, t_m, t_c):
    """Feed one full window of identical samples; return final result."""
    result = None
    for _ in range(detector.window_pairs):
        result = detector.observe(PairSample(t_m=t_m, t_c=t_c))
    return result


class TestPairSample:
    def test_validation(self):
        with pytest.raises(MeasurementError):
            PairSample(t_m=0.0, t_c=1.0)
        with pytest.raises(MeasurementError):
            PairSample(t_m=1.0, t_c=-1.0)


class TestWindows:
    def test_no_result_until_window_full(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=4)
        for _ in range(3):
            assert detector.observe(PairSample(0.1, 1.0)) is None
        assert detector.observe(PairSample(0.1, 1.0)) is not None

    def test_first_window_always_reports_change(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=4)
        window = feed_window(detector, t_m=0.1, t_c=1.0)
        assert window is not None
        assert window.phase_changed
        assert window.idle_bound == 1

    def test_window_reports_means(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=2)
        detector.observe(PairSample(0.1, 1.0))
        window = detector.observe(PairSample(0.3, 3.0))
        assert window.t_m == pytest.approx(0.2)
        assert window.t_c == pytest.approx(2.0)

    def test_window_resets_after_completion(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=2)
        feed_window(detector, 0.1, 1.0)
        assert detector.observe(PairSample(0.3, 3.0)) is None
        window = detector.observe(PairSample(0.5, 5.0))
        assert window.t_m == pytest.approx(0.4)
        assert window.t_c == pytest.approx(4.0)


class TestTriggering:
    def test_paper_example_point_one_to_point_five(self):
        # Section IV-B: T_m1/T_c from 0.1 to 0.5 changes the idle
        # behaviour at MTL=1 and must trigger.
        detector = PhaseChangeDetector(QUAD, window_pairs=4)
        feed_window(detector, t_m=0.1, t_c=1.0)
        window = feed_window(detector, t_m=0.5, t_c=1.0)
        assert window.phase_changed
        assert window.idle_bound == 2

    def test_ratio_change_within_same_bound_does_not_trigger(self):
        # The coarse-grained criterion: 0.1 -> 0.2 both have bound 1.
        detector = PhaseChangeDetector(QUAD, window_pairs=4)
        feed_window(detector, t_m=0.1, t_c=1.0)
        window = feed_window(detector, t_m=0.2, t_c=1.0)
        assert not window.phase_changed

    def test_reference_updates_every_window(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=2)
        feed_window(detector, 0.1, 1.0)
        feed_window(detector, 0.5, 1.0)
        window = feed_window(detector, 0.5, 1.0)
        assert not window.phase_changed
        assert window.idle_bound == 2
        assert feed_window(detector, 0.1, 1.0).phase_changed

    def test_set_reference_suppresses_expected_window(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=2)
        feed_window(detector, 0.5, 1.0)       # bound 2
        detector.set_reference(1)
        window = feed_window(detector, 0.1, 1.0)  # bound 1 == pinned ref
        assert not window.phase_changed

    def test_set_reference_validates(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=2)
        with pytest.raises(ConfigurationError):
            detector.set_reference(0)
        with pytest.raises(ConfigurationError):
            detector.set_reference(5)

    def test_counts_windows_and_changes(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=2)
        changed = [
            feed_window(detector, t_m, 1.0).phase_changed for t_m in (0.1, 0.1, 2.0)
        ]
        assert detector.windows_completed == 3
        assert changed == [True, False, True]

    def test_rejects_bad_window_size(self):
        with pytest.raises(ConfigurationError):
            PhaseChangeDetector(QUAD, window_pairs=0)


class TestGrowWindow:
    def test_grow_only(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=4)
        detector.grow_window(8)
        assert detector.window_pairs == 8
        with pytest.raises(ConfigurationError):
            detector.grow_window(4)

    def test_growth_extends_the_current_window(self):
        detector = PhaseChangeDetector(QUAD, window_pairs=2)
        detector.observe(PairSample(0.1, 1.0))
        detector.grow_window(4)
        # The partially filled window now needs 4 samples in total.
        assert detector.observe(PairSample(0.1, 1.0)) is None
        assert detector.observe(PairSample(0.1, 1.0)) is None
        assert detector.observe(PairSample(0.1, 1.0)) is not None
