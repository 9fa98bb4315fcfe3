"""Tests for unit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.units import (
    CACHE_LINE_BYTES,
    EVENTS,
    GIB,
    KIB,
    MIB,
    REQUESTS,
    UNIT_CONSTANTS,
    UNIT_PARAMS,
    UNIT_POLYMORPHIC,
    UNIT_RETURNS,
    UNIT_SUFFIXES,
    bytes_per_second,
    cache_lines,
    format_bytes,
    format_time,
    gibibytes,
    kibibytes,
    mebibytes,
    per_second,
    requests_per_second,
)


class TestSizes:
    def test_constants(self):
        assert KIB == 1024
        assert MIB == 1024 ** 2
        assert GIB == 1024 ** 3
        assert CACHE_LINE_BYTES == 64

    def test_constructors(self):
        assert kibibytes(2) == 2048
        assert mebibytes(0.5) == 524288
        assert gibibytes(1) == GIB

    def test_cache_lines_rounds_up(self):
        assert cache_lines(0) == 0
        assert cache_lines(1) == 1
        assert cache_lines(64) == 1
        assert cache_lines(65) == 2
        assert cache_lines(mebibytes(0.5)) == 8192

    def test_cache_lines_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            cache_lines(-1)

    @given(st.integers(min_value=0, max_value=GIB))
    def test_property_cache_lines_cover_footprint(self, footprint):
        lines = cache_lines(footprint)
        assert lines * CACHE_LINE_BYTES >= footprint
        assert (lines - 1) * CACHE_LINE_BYTES < footprint or lines == 0


class TestFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0 s"),
            (50e-9, "50.0 ns"),
            (3.2e-6, "3.2 us"),
            (1.5e-3, "1.50 ms"),
            (2.0, "2.000 s"),
        ],
    )
    def test_format_time(self, value, expected):
        assert format_time(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            (512, "512 B"),
            (2048, "2.0 KiB"),
            (mebibytes(8), "8.0 MiB"),
            (gibibytes(2), "2.00 GiB"),
        ],
    )
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    def test_format_bytes_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            format_bytes(-1)


class TestCountsAndRates:
    def test_count_constants_are_unit_factors(self):
        assert REQUESTS == 1
        assert EVENTS == 1

    def test_rate_constructors(self):
        assert bytes_per_second(mebibytes(1), 2.0) == mebibytes(1) / 2.0
        assert requests_per_second(300, 60.0) == 5.0
        assert per_second(42, 2.0) == 21.0

    @pytest.mark.parametrize("window", [0.0, -1.0])
    def test_rate_constructors_reject_nonpositive_windows(self, window):
        with pytest.raises(ConfigurationError):
            bytes_per_second(1024, window)
        with pytest.raises(ConfigurationError):
            requests_per_second(10, window)
        with pytest.raises(ConfigurationError):
            per_second(10, window)


class TestUnitMetadataTables:
    def test_count_constants_are_registered(self):
        assert UNIT_CONSTANTS["repro.units.REQUESTS"] == "requests"
        assert UNIT_CONSTANTS["repro.units.EVENTS"] == "events"

    def test_rate_returns_are_derived_dimensions(self):
        assert UNIT_RETURNS["repro.units.bytes_per_second"] == "bytes/seconds"
        assert (
            UNIT_RETURNS["repro.units.requests_per_second"]
            == "requests/seconds"
        )

    def test_unit_params_pin_the_helpers(self):
        assert UNIT_PARAMS["repro.units.format_bytes"] == {"n": "bytes"}
        assert UNIT_PARAMS["repro.units.format_time"] == {"seconds": "seconds"}
        assert UNIT_PARAMS["repro.units.cache_lines"] == {
            "footprint_bytes": "bytes"
        }

    def test_stream_memory_requests_are_cache_line_granular(self):
        # The stream layer's "memory requests" are one-per-64-byte-line,
        # so their declared dimension is cache_lines, not the
        # open-system arrival "requests" the suffix would assign.
        assert UNIT_PARAMS["repro.stream.task.memory_task"] == {
            "requests": "cache_lines"
        }
        assert UNIT_PARAMS["repro.stream.task.compute_task"] == {
            "spilled_requests": "cache_lines"
        }
        assert UNIT_PARAMS["repro.stream.program.build_phase"] == {
            "requests_per_memory_task": "cache_lines",
            "compute_spill_requests": "cache_lines",
        }

    def test_per_second_is_polymorphic(self):
        assert "repro.units.per_second" in UNIT_POLYMORPHIC

    def test_rate_suffixes_match_the_algebra_rendering(self):
        assert UNIT_SUFFIXES["bytes_per_second"] == "bytes/seconds"
        assert UNIT_SUFFIXES["requests_per_second"] == "requests/seconds"
        assert UNIT_SUFFIXES["events_per_second"] == "events/seconds"
