"""Runtime services: monitoring, measurement protocol, experiments.

* :mod:`repro.runtime.monitor` — pair-sample extraction and the
  Table II/III ratio measurement;
* :mod:`repro.runtime.measurement` — the 20-run / middle-10 protocol;
* :mod:`repro.runtime.experiment` — policy-comparison harness over
  the sweep executor;
* :mod:`repro.runtime.characterize` — per-phase workload reports with
  model predictions;
* :mod:`repro.runtime.suite` — workloads x machines x policies grids;
* :mod:`repro.runtime.parallel` — the parallel sweep executor over
  declarative sweep points;
* :mod:`repro.runtime.cache` — content-addressed on-disk result cache;
* :mod:`repro.runtime.telemetry` — JSON-lines run telemetry;
* :mod:`repro.runtime.faults` — deterministic fault injection and the
  structured :class:`~repro.runtime.faults.PointFailure` degradation.
"""

from repro.runtime.cache import CacheStats, ResultCache, stable_hash
from repro.runtime.faults import FaultPlan, PointFailure, backoff_schedule
from repro.runtime.characterize import (
    PhaseCharacter,
    WorkloadCharacter,
    characterize,
)
from repro.runtime.experiment import (
    ComparisonResult,
    PolicyOutcome,
    all_policy_specs,
    compare_policies,
    paper_policy_specs,
)
from repro.runtime.measurement import (
    RepeatedMeasurement,
    measure_makespan,
    middle_mean,
)
from repro.runtime.monitor import measure_phase_ratios, measure_ratio, pair_samples
from repro.runtime.parallel import (
    PointResult,
    SweepExecutor,
    SweepPoint,
    point_key,
    run_point,
)
from repro.runtime.suite import SuiteResult, SuiteRow, run_suite
from repro.runtime.telemetry import (
    TelemetryWriter,
    read_telemetry,
    validate_record,
)

__all__ = [
    "CacheStats",
    "ComparisonResult",
    "FaultPlan",
    "PhaseCharacter",
    "PointFailure",
    "PointResult",
    "ResultCache",
    "SuiteResult",
    "SuiteRow",
    "SweepExecutor",
    "SweepPoint",
    "TelemetryWriter",
    "WorkloadCharacter",
    "all_policy_specs",
    "backoff_schedule",
    "characterize",
    "compare_policies",
    "measure_makespan",
    "measure_phase_ratios",
    "measure_ratio",
    "middle_mean",
    "pair_samples",
    "paper_policy_specs",
    "point_key",
    "read_telemetry",
    "run_point",
    "run_suite",
    "stable_hash",
    "validate_record",
    "PolicyOutcome",
    "RepeatedMeasurement",
]
