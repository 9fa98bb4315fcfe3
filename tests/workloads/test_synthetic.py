"""Tests for the synthetic micro-benchmark (Figure 12)."""

import math

import pytest

from repro.errors import WorkloadError
from repro.memory.cache import LastLevelCache
from repro.runtime.monitor import measure_ratio
from repro.units import mebibytes
from repro.workloads.synthetic import (
    SyntheticWorkload,
    ratio_sweep,
    synthetic_from_count,
    synthetic_from_ratio,
)


def i7_llc():
    return LastLevelCache(capacity_bytes=mebibytes(8), sharers=4)


class TestRatioConstruction:
    @pytest.mark.parametrize("ratio", [0.01, 0.33, 1.0, 4.0])
    def test_measured_ratio_matches_target(self, ratio):
        program = synthetic_from_ratio(ratio, pairs=16)
        assert measure_ratio(program) == pytest.approx(ratio, rel=1e-6)

    def test_name_encodes_parameters(self):
        workload = SyntheticWorkload(ratio=0.5, footprint_bytes=mebibytes(1))
        assert workload.name == "synthetic(r=0.50,1MB)"

    def test_footprint_sets_request_count(self):
        program = synthetic_from_ratio(1.0, footprint_bytes=mebibytes(1), pairs=4)
        memory = program.phases[0].pairs[0].memory
        assert memory.memory_requests == mebibytes(1) / 64

    def test_validation(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload(ratio=0.0)
        with pytest.raises(WorkloadError):
            SyntheticWorkload(ratio=1.0, footprint_bytes=0)
        with pytest.raises(WorkloadError):
            SyntheticWorkload(ratio=1.0, pairs=0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratio_is_named(self, ratio):
        with pytest.raises(WorkloadError, match="ratio"):
            SyntheticWorkload(ratio=ratio)
        with pytest.raises(WorkloadError, match="ratio"):
            synthetic_from_ratio(ratio, pairs=4)

    def test_subnormal_ratio_is_named(self):
        # Finite and positive, but T_c = T_m1 / ratio overflows.
        with pytest.raises(WorkloadError, match="ratio"):
            synthetic_from_ratio(5e-324, pairs=4)


class TestFootprintSpill:
    def test_small_footprints_never_spill(self):
        for footprint in (mebibytes(0.5), mebibytes(1)):
            program = synthetic_from_ratio(
                1.0, footprint_bytes=footprint, pairs=4, cache=i7_llc()
            )
            compute = program.phases[0].pairs[0].compute
            assert compute.memory_requests == 0.0

    def test_two_megabyte_footprint_spills(self):
        # The Figure 13(c) regime: compute tasks go off-chip.
        program = synthetic_from_ratio(
            1.0, footprint_bytes=mebibytes(2), pairs=4, cache=i7_llc()
        )
        compute = program.phases[0].pairs[0].compute
        assert compute.memory_requests > 0

    def test_no_cache_model_means_no_spill(self):
        program = synthetic_from_ratio(1.0, footprint_bytes=mebibytes(2), pairs=4)
        assert program.phases[0].pairs[0].compute.memory_requests == 0.0


class TestCountConstruction:
    def test_larger_count_means_smaller_ratio(self):
        low = measure_ratio(synthetic_from_count(2, pairs=8))
        high = measure_ratio(synthetic_from_count(20, pairs=8))
        assert high < low

    def test_count_validation(self):
        with pytest.raises(WorkloadError):
            synthetic_from_count(0)
        with pytest.raises(WorkloadError):
            synthetic_from_count(1, footprint_bytes=0)


class TestRatioSweep:
    def test_paper_sweep_has_400_points(self):
        sweep = ratio_sweep(0.01, 4.00, 0.01)
        assert len(sweep) == 400
        assert sweep[0].ratio == pytest.approx(0.01)
        assert sweep[-1].ratio == pytest.approx(4.00)

    def test_custom_sweep_spacing(self):
        sweep = ratio_sweep(0.1, 0.5, 0.1)
        assert [w.ratio for w in sweep] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_sweep_validation(self):
        with pytest.raises(WorkloadError):
            ratio_sweep(0.1, 0.5, 0.0)
        with pytest.raises(WorkloadError):
            ratio_sweep(0.5, 0.1, 0.1)
