"""Calibrating the closed-form contention law from the DRAM model.

The machine simulator consumes a :class:`LinearContentionModel`; the
bank-level simulator in :mod:`repro.memory.dram` produces latency
curves.  This module closes the loop: measure the detailed model's
``L(c)`` curve, fit the paper's ``T_ml + c * T_ql`` law to it, and
return a ready-to-use contention model — the procedure a user would
follow to retarget the reproduction at a *different* memory system
(another DRAM grade, more channels) without hand-picking constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigurationError, MeasurementError, ModelError
from repro.memory.contention import LinearContentionModel
from repro.memory.dram import measure_latency_curve
from repro.memory.timing import DDR3_1066, DramTiming

__all__ = ["CalibrationResult", "LinearFit", "calibrate_linear_model", "linear_fit"]


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = intercept + slope * x``.

    Attributes:
        slope: Fitted slope.
        intercept: Fitted intercept.
        r_squared: Coefficient of determination (1 = perfect line).
    """

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.intercept + self.slope * x


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares over paired samples."""
    if len(xs) != len(ys):
        raise MeasurementError(
            f"mismatched sample lengths: {len(xs)} vs {len(ys)}"
        )
    if len(xs) < 2:
        raise MeasurementError("linear_fit needs at least two points")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise MeasurementError("linear_fit needs varying x values")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)


@dataclass(frozen=True)
class CalibrationResult:
    """A fitted contention model plus its goodness of fit.

    Attributes:
        model: The fitted linear contention law.
        fit: The underlying least-squares fit (slope = ``T_ql``,
            intercept = ``T_ml``).
        concurrencies: Stream counts the curve was measured at.
        latencies: Mean per-request latency at each concurrency.
    """

    model: LinearContentionModel
    fit: LinearFit
    concurrencies: Sequence[int]
    latencies: Sequence[float]

    @property
    def r_squared(self) -> float:
        return self.fit.r_squared


def calibrate_linear_model(
    timing: DramTiming = DDR3_1066,
    concurrencies: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    requests_per_stream: int = 1024,
    min_r_squared: float = 0.90,
) -> CalibrationResult:
    """Fit ``L(c) = T_ml + c * T_ql`` to the bank-level DRAM model.

    Args:
        timing: DRAM device grade to calibrate against.
        concurrencies: Stream counts to measure (must contain at least
            two distinct values).
        requests_per_stream: Streaming depth per measurement.
        min_r_squared: Reject the calibration when the detailed model
            is not adequately linear — a guard against silently
            shipping a law the microarchitecture does not obey.

    Raises:
        ModelError: When the fit quality is below ``min_r_squared`` or
            the fitted parameters are unusable (non-positive ``T_ml``).
    """
    if len(set(concurrencies)) < 2:
        raise ConfigurationError(
            "calibration needs at least two distinct concurrencies, got "
            f"{list(concurrencies)}"
        )
    curve = measure_latency_curve(
        list(concurrencies),
        requests_per_stream=requests_per_stream,
        timing=timing,
        channels=1,
    )
    latencies = [curve[c].mean_latency for c in concurrencies]
    fit = linear_fit([float(c) for c in concurrencies], latencies)
    if fit.r_squared < min_r_squared:
        raise ModelError(
            f"DRAM latency curve is not linear enough to calibrate "
            f"(R^2 = {fit.r_squared:.3f} < {min_r_squared}); the "
            "T_ml + c*T_ql law does not hold for this configuration"
        )
    if fit.intercept <= 0:
        raise ModelError(
            f"fitted contention-free latency is non-positive "
            f"({fit.intercept!r}); widen the concurrency range"
        )
    if fit.slope < 0:
        raise ModelError(
            f"fitted queueing latency is negative ({fit.slope!r})"
        )
    model = LinearContentionModel(
        contention_free_latency=fit.intercept,
        queueing_latency=fit.slope,
    )
    return CalibrationResult(
        model=model,
        fit=fit,
        concurrencies=tuple(concurrencies),
        latencies=tuple(latencies),
    )
