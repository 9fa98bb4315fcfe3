"""Ablation A: is the linear queueing assumption microarchitecturally
sound?

The analytical model's MTL-selection proof rests on
``T_mb = T_ml + b * T_ql`` — per-request latency growing linearly with
the number of concurrent streaming tasks.  The paper validates this
implicitly on real hardware; this reproduction validates it against
its own bank-level DRAM simulator (FR-FCFS controller, row buffers,
bank timing, channel bus).

Asserted findings:

* mean request latency grows monotonically with stream concurrency;
* a linear fit over concurrency 1..8 explains >95% of the variance;
* the slope (our ``T_ql``) is positive and the intercept (our
  ``T_ml``) is near the device's unloaded access time;
* adding a second channel roughly halves the queueing slope, the
  assumption behind the 2-DIMM machine model.
"""

import pytest

from _helpers import run_once, save_artifact
from repro.analysis import render_table
from repro.memory.calibration import linear_fit
from repro.memory.dram import measure_latency_curve
from repro.memory.timing import DDR3_1066

CONCURRENCIES = [1, 2, 3, 4, 5, 6, 7, 8]


def regenerate():
    single = measure_latency_curve(CONCURRENCIES, requests_per_stream=1024)
    dual = measure_latency_curve(
        CONCURRENCIES, requests_per_stream=1024, channels=2
    )
    return single, dual


@pytest.mark.benchmark(group="ablation-dram")
def test_ablation_dram_latency_is_linear_in_concurrency(benchmark):
    single, dual = run_once(benchmark, regenerate)

    fit_single = linear_fit(
        CONCURRENCIES, [single[c].mean_latency for c in CONCURRENCIES]
    )
    fit_dual = linear_fit(
        CONCURRENCIES, [dual[c].mean_latency for c in CONCURRENCIES]
    )

    rows = [
        [
            str(c),
            f"{single[c].mean_latency * 1e9:.1f} ns",
            f"{single[c].row_hit_rate:.2%}",
            f"{dual[c].mean_latency * 1e9:.1f} ns",
        ]
        for c in CONCURRENCIES
    ]
    table = render_table(
        ["streams", "1-ch latency", "1-ch row hits", "2-ch latency"], rows
    )
    summary = (
        f"1-ch fit: L(c) = {fit_single.intercept * 1e9:.1f} ns + "
        f"c * {fit_single.slope * 1e9:.1f} ns  (R^2 = {fit_single.r_squared:.4f})\n"
        f"2-ch fit: L(c) = {fit_dual.intercept * 1e9:.1f} ns + "
        f"c * {fit_dual.slope * 1e9:.1f} ns  (R^2 = {fit_dual.r_squared:.4f})"
    )
    save_artifact("ablation_dram_linearity", table + "\n\n" + summary)

    # Monotone growth.
    latencies = [single[c].mean_latency for c in CONCURRENCIES]
    assert latencies == sorted(latencies)

    # Linear to >95% of variance — the T_ml + b*T_ql decomposition.
    assert fit_single.r_squared > 0.95
    assert fit_single.slope > 0

    # Intercept positive and of the unloaded device latency's order
    # (the fit intercept sits below the raw row-hit time because bank
    # preparation overlaps the previous burst).
    unloaded = DDR3_1066.row_hit_latency
    assert 0 < fit_single.intercept < 4 * unloaded

    # A second channel dilutes queueing: the slope drops by ~2x.
    assert fit_dual.slope < 0.7 * fit_single.slope
