"""Tests for the exact S-MTL region algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import predict_speedup_curve
from repro.core.regions import s_mtl_regions
from repro.errors import ModelError
from repro.memory.contention import (
    LinearContentionModel,
    nehalem_ddr3_contention,
)


@pytest.fixture(scope="module")
def regions():
    return s_mtl_regions(nehalem_ddr3_contention())


class TestPartitionShape:
    def test_regions_tile_the_interval(self, regions):
        assert regions[0].low == pytest.approx(0.01)
        assert regions[-1].high == pytest.approx(4.0)
        for left, right in zip(regions, regions[1:]):
            assert left.high == pytest.approx(right.low)

    def test_mtl_increases_across_regions(self, regions):
        mtls = [r.mtl for r in regions]
        assert mtls == sorted(mtls)
        assert len(set(mtls)) == len(mtls)

    def test_first_region_is_mtl_one(self, regions):
        assert regions[0].mtl == 1

    def test_contains(self, regions):
        assert regions[0].contains(0.2)
        assert not regions[0].contains(regions[0].high)
        assert regions[0].width == pytest.approx(
            regions[0].high - regions[0].low
        )


class TestBoundaryValues:
    def test_first_boundary_near_paper_third(self, regions):
        # The paper quotes 0.33; the exact crossing of the MTL=1 and
        # MTL=2 speedup curves for the calibrated law is 1/(n - g2),
        # slightly above.
        boundary = regions[0].high
        assert 0.33 < boundary < 0.40

    def test_boundaries_are_argmax_crossings(self, regions):
        contention = nehalem_ddr3_contention()
        for left, right in zip(regions, regions[1:]):
            boundary = left.high
            below = predict_speedup_curve([boundary - 1e-4], contention)[0]
            above = predict_speedup_curve([boundary + 1e-4], contention)[0]
            assert below.best_mtl == left.mtl
            assert above.best_mtl == right.mtl

    def test_first_boundary_matches_closed_form(self, regions):
        # Region 1 ends where the idle-regime MTL=1 curve crosses the
        # all-busy MTL=2 curve: 4r = g2*r + 1, i.e. r* = 1/(n - g2).
        contention = nehalem_ddr3_contention()
        g2 = contention.latency_ratio(2)
        assert regions[0].high == pytest.approx(1.0 / (4.0 - g2), abs=1e-4)

    def test_channels_shift_the_partition_left(self):
        single = s_mtl_regions(nehalem_ddr3_contention(), channels=1)
        dual = s_mtl_regions(nehalem_ddr3_contention(), channels=2)
        # With weaker contention g2 drops, so r* = 1/(n - g2) *falls*:
        # MTL=2 gets cheap sooner and takes over earlier.
        assert dual[0].high < single[0].high


class TestRandomLinearLaws:
    @settings(max_examples=40, deadline=None)
    @given(
        t_ml=st.floats(min_value=1e-9, max_value=1e-6),
        t_ql=st.floats(min_value=1e-10, max_value=1e-6),
    )
    def test_property_partition_is_well_formed(self, t_ml, t_ql):
        contention = LinearContentionModel(t_ml, t_ql)
        regions = s_mtl_regions(contention)
        # Tiles the interval, MTL non-decreasing, first region is 1.
        assert regions[0].low == pytest.approx(0.01)
        assert regions[-1].high == pytest.approx(4.0)
        for left, right in zip(regions, regions[1:]):
            assert left.high == pytest.approx(right.low)
            assert right.mtl > left.mtl
        assert regions[0].mtl == 1

    @settings(max_examples=40, deadline=None)
    @given(
        t_ml=st.floats(min_value=1e-9, max_value=1e-6),
        t_ql=st.floats(min_value=1e-10, max_value=1e-6),
    )
    def test_property_first_boundary_closed_form(self, t_ml, t_ql):
        contention = LinearContentionModel(t_ml, t_ql)
        regions = s_mtl_regions(contention)
        g2 = contention.latency_ratio(2)
        expected = 1.0 / (4.0 - g2)
        if 0.02 < expected < 3.9:  # boundary inside the scanned window
            assert regions[0].high == pytest.approx(expected, rel=1e-2)


class TestValidation:
    def test_rejects_bad_interval(self):
        with pytest.raises(ModelError):
            s_mtl_regions(nehalem_ddr3_contention(), ratio_low=0.0)
        with pytest.raises(ModelError):
            s_mtl_regions(
                nehalem_ddr3_contention(), ratio_low=2.0, ratio_high=1.0
            )
        with pytest.raises(ModelError):
            s_mtl_regions(nehalem_ddr3_contention(), tolerance=0.0)

    def test_zero_queueing_collapses_to_one_region(self):
        # Without contention, throttling never helps: best MTL never
        # leaves... n? With T_ql = 0 every MTL has equal T_m, so the
        # lowest all-busy MTL ties with MTL = n at speedup 1; the model
        # breaks ties toward the smaller constraint, and the partition
        # may legitimately hold several regions of speedup exactly 1.
        contention = LinearContentionModel(5e-8, 0.0)
        regions = s_mtl_regions(contention)
        curve = predict_speedup_curve([r.low for r in regions], contention)
        assert all(p.speedup == pytest.approx(1.0) for p in curve)
