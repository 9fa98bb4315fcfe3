"""Tests for the analytical performance model (Section IV-A)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.model import AnalyticalModel, predict_speedup_curve
from repro.errors import ModelError
from repro.memory.contention import nehalem_ddr3_contention

QUAD = AnalyticalModel(core_count=4)


class TestBusyThreshold:
    def test_quad_core_thresholds_match_paper(self):
        # Figure 8: MTL=1 all busy iff T_m1 <= T_c/3; MTL=2 iff T_m2 <= T_c.
        assert QUAD.busy_threshold(1) == pytest.approx(1 / 3)
        assert QUAD.busy_threshold(2) == pytest.approx(1.0)
        assert QUAD.busy_threshold(3) == pytest.approx(3.0)
        assert QUAD.busy_threshold(4) == float("inf")

    def test_rejects_mtl_out_of_range(self):
        with pytest.raises(ModelError):
            QUAD.busy_threshold(0)
        with pytest.raises(ModelError):
            QUAD.busy_threshold(5)


class TestCoresIdle:
    def test_equation_one_boundary(self):
        # T_m1/T_c exactly 1/3: all busy (<=); just above: idle.
        assert not QUAD.cores_idle(t_mk=1.0, t_c=3.0, k=1)
        assert QUAD.cores_idle(t_mk=1.001, t_c=3.0, k=1)

    def test_mtl_n_never_idles(self):
        assert not QUAD.cores_idle(t_mk=100.0, t_c=0.001, k=4)

    def test_zero_compute_time_idles_below_n(self):
        assert QUAD.cores_idle(t_mk=1.0, t_c=0.0, k=1)
        assert not QUAD.cores_idle(t_mk=1.0, t_c=0.0, k=4)

    def test_rejects_non_positive_memory_time(self):
        with pytest.raises(ModelError):
            QUAD.cores_idle(t_mk=0.0, t_c=1.0, k=1)


class TestIdleBound:
    def test_compute_heavy_workload_has_bound_one(self):
        assert QUAD.idle_bound(t_m=0.1, t_c=1.0) == 1

    def test_paper_example_ratio_change(self):
        # Section IV-B: ratio 0.1 -> bound 1; ratio 0.5 -> bound moves.
        assert QUAD.idle_bound(t_m=0.1, t_c=1.0) == 1
        assert QUAD.idle_bound(t_m=0.5, t_c=1.0) == 2

    def test_memory_bound_workload_has_bound_n(self):
        assert QUAD.idle_bound(t_m=10.0, t_c=1.0) == 4

    @given(
        t_m=st.floats(min_value=1e-6, max_value=1e3),
        t_c=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_property_bound_is_minimal_all_busy_mtl(self, t_m, t_c):
        bound = QUAD.idle_bound(t_m, t_c)
        assert not QUAD.cores_idle(t_m, t_c, bound)
        for k in range(1, bound):
            assert QUAD.cores_idle(t_m, t_c, k)


class TestExecutionTimeAndSpeedup:
    def test_all_busy_execution_time(self):
        # Figure 9(a): (T_mk + T_c) * t / n.
        assert QUAD.execution_time(t_mk=1.0, t_c=4.0, k=1, pairs=8) == pytest.approx(
            (1.0 + 4.0) * 8 / 4
        )

    def test_idle_execution_time(self):
        # Figure 9(b): T_mk * t / k.
        assert QUAD.execution_time(t_mk=4.0, t_c=1.0, k=2, pairs=8) == pytest.approx(
            4.0 * 8 / 2
        )

    def test_all_busy_speedup_formula(self):
        speedup = QUAD.speedup(t_mk=1.0, t_c=4.0, k=1, t_mn=2.0)
        assert speedup == pytest.approx((2.0 + 4.0) / (1.0 + 4.0))

    def test_idle_speedup_formula(self):
        speedup = QUAD.speedup(t_mk=4.0, t_c=1.0, k=2, t_mn=5.0)
        assert speedup == pytest.approx((5.0 + 1.0) * 2 / (4.0 * 4))

    def test_unthrottled_speedup_is_unity(self):
        assert QUAD.speedup(t_mk=2.0, t_c=1.0, k=4, t_mn=2.0) == pytest.approx(1.0)

    def test_rejects_bad_pairs(self):
        with pytest.raises(ModelError):
            QUAD.execution_time(1.0, 1.0, 1, pairs=0)


class TestSelectionLemmas:
    """The two monotonicity results of Section IV-C, checked against
    the linear contention law they are derived from."""

    @pytest.mark.parametrize("t_c", [0.5, 1.0, 5.0])
    def test_lowest_all_busy_mtl_wins(self, t_c):
        contention = nehalem_ddr3_contention()
        t_m = {k: 1000 * contention.request_latency(k) * 1e6 for k in range(1, 5)}
        t_mn = t_m[4]
        busy = [k for k in range(1, 5) if not QUAD.cores_idle(t_m[k], t_c, k)]
        speedups = [QUAD.speedup(t_m[k], t_c, k, t_mn) for k in busy]
        assert speedups == sorted(speedups, reverse=True)

    def test_highest_idle_mtl_wins(self):
        contention = nehalem_ddr3_contention()
        t_c = 0.01  # strongly memory-bound: MTL 1..3 all idle
        t_m = {k: 1000 * contention.request_latency(k) * 1e6 for k in range(1, 5)}
        t_mn = t_m[4]
        idle = [k for k in range(1, 5) if QUAD.cores_idle(t_m[k], t_c, k)]
        assert idle == [1, 2, 3]
        speedups = [QUAD.speedup(t_m[k], t_c, k, t_mn) for k in idle]
        assert speedups == sorted(speedups)

    def test_selection_metrics_order_like_full_speedups(self):
        t_c = 1.0
        t_ma, t_mb = 0.9, 2.5  # MTL a=2 all busy, MTL b=1 idle
        t_mn = 3.0
        busy_metric = QUAD.busy_selection_metric(t_ma, t_c)
        idle_metric = QUAD.idle_selection_metric(t_mb, 1)
        full_busy = QUAD.speedup(t_ma, t_c, 2, t_mn)
        full_idle = QUAD.speedup(t_mb, t_c, 1, t_mn)
        assert (busy_metric > idle_metric) == (full_busy > full_idle)


class TestPredictSpeedupCurve:
    def test_region_boundaries_match_figure_13(self):
        contention = nehalem_ddr3_contention()
        ratios = [0.05, 0.30, 0.40, 1.00, 1.50]
        predictions = {
            p.ratio: p for p in predict_speedup_curve(ratios, contention)
        }
        # Figure 13: S-MTL = 1 for ratios <= 0.33, then 2, then 3.
        assert predictions[0.05].best_mtl == 1
        assert predictions[0.30].best_mtl == 1
        assert predictions[0.40].best_mtl == 2
        assert predictions[1.50].best_mtl == 3

    def test_peak_speedup_near_1_21(self):
        contention = nehalem_ddr3_contention()
        ratios = [round(0.01 * i, 2) for i in range(1, 401)]
        curve = predict_speedup_curve(ratios, contention)
        peak = max(p.speedup for p in curve)
        assert peak == pytest.approx(1.21, abs=0.01)

    def test_speedups_never_below_unity(self):
        # MTL = n is always a candidate with speedup exactly 1.
        contention = nehalem_ddr3_contention()
        curve = predict_speedup_curve([0.01, 0.5, 2.0, 4.0], contention)
        assert all(p.speedup >= 1.0 for p in curve)

    def test_hill_shape_within_region_one(self):
        contention = nehalem_ddr3_contention()
        rising = predict_speedup_curve([0.10, 0.20, 0.30], contention)
        assert rising[0].speedup < rising[1].speedup < rising[2].speedup

    def test_channels_reduce_predicted_gain(self):
        contention = nehalem_ddr3_contention()
        single = predict_speedup_curve([0.30], contention, channels=1)[0]
        dual = predict_speedup_curve([0.30], contention, channels=2)[0]
        assert dual.speedup < single.speedup

    def test_rejects_bad_ratio(self):
        with pytest.raises(ModelError):
            predict_speedup_curve([0.0], nehalem_ddr3_contention())

    def test_rejects_bad_core_count(self):
        with pytest.raises(ModelError):
            AnalyticalModel(core_count=0)
