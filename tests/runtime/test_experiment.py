"""Tests for the policy-comparison harness."""

import pytest

from repro.core.registry import policy_names
from repro.errors import ConfigurationError, MeasurementError
from repro.runtime.experiment import (
    INSTRUMENT_SEED,
    all_policy_specs,
    compare_policies,
    paper_policy_specs,
)
from repro.runtime.measurement import measure_makespan
from repro.runtime.parallel import SweepExecutor
from repro.sim.scheduler import FixedMtlPolicy, conventional_policy
from repro.workloads import synthetic_from_ratio


def synthetic(ratio: float, pairs: int = 80) -> dict:
    return {"kind": "synthetic", "ratio": ratio, "pairs": pairs}


STATIC_1 = {"static-1": {"kind": "static", "mtl": 1}}


class RecordingExecutor(SweepExecutor):
    """A serial executor that keeps every batch it was given."""

    def __init__(self):
        super().__init__(jobs=1)
        self.batches = []

    def run(self, points):
        self.batches.append(list(points))
        return super().run(points)


class TestComparePolicies:
    def test_speedups_are_relative_to_conventional(self):
        result = compare_policies(synthetic(0.25), STATIC_1)
        outcome = result.outcome("static-1")
        assert outcome.speedup == pytest.approx(
            result.baseline_makespan / outcome.makespan
        )
        assert outcome.speedup > 1.0

    def test_reports_selected_mtl(self):
        result = compare_policies(synthetic(0.25), {"dynamic": {"kind": "dynamic"}})
        assert result.outcome("dynamic").selected_mtl == 1

    def test_plugin_stats_ride_on_the_outcome(self):
        result = compare_policies(
            synthetic(0.25), {"dynamic": {"kind": "dynamic"}, **STATIC_1}
        )
        stats = dict(result.outcome("dynamic").stats)
        assert stats["windows_closed"] >= 1.0
        # Every plugin carries the base counters; a static policy's
        # simply never move.
        static_stats = dict(result.outcome("static-1").stats)
        assert static_stats["windows_closed"] == 0.0

    def test_unknown_policy_lookup_raises(self):
        result = compare_policies(synthetic(0.25), STATIC_1)
        with pytest.raises(MeasurementError):
            result.outcome("ghost")

    def test_repeated_runs_protocol(self):
        result = compare_policies(synthetic(0.25, pairs=24), STATIC_1, repeated_runs=4)
        assert result.outcome("static-1").speedup > 1.0

    def test_repeated_runs_are_the_measurement_protocol(self):
        # Seeds base_seed + run and the middle-10 mean: the same numbers
        # measure_makespan gives for the same program and policies.
        program = synthetic_from_ratio(0.25, pairs=24)
        result = compare_policies(
            synthetic(0.25, pairs=24), STATIC_1, repeated_runs=3, base_seed=5
        )
        baseline = measure_makespan(
            program, lambda: conventional_policy(4), runs=3, base_seed=5
        )
        static = measure_makespan(
            program, lambda: FixedMtlPolicy(1), runs=3, base_seed=5
        )
        assert result.baseline_makespan == baseline.value
        assert result.outcome("static-1").makespan == static.value

    def test_machine_name_recorded(self):
        result = compare_policies(
            synthetic(0.25, pairs=24),
            STATIC_1,
            machine={"preset": "i7_860", "channels": 2},
        )
        assert result.machine_name == "i7-860/2ch"

    def test_offline_outcome_is_the_best_static_mtl(self):
        result = compare_policies(
            synthetic(0.25, pairs=40), {"offline": {"kind": "offline"}}
        )
        outcome = result.outcome("offline")
        assert outcome.selected_mtl == 1
        assert outcome.stats is None

    def test_a_program_is_not_a_spec(self):
        with pytest.raises(ConfigurationError):
            compare_policies(synthetic_from_ratio(0.25, pairs=8), STATIC_1)

    def test_conventional_policy_under_repeated_runs(self):
        # The registry's ``conventional`` entry is measured like any
        # other policy: it gets its own instrumented point, and its
        # speedup over the baseline (the same points) is exactly 1.
        result = compare_policies(
            synthetic(0.5, pairs=16), all_policy_specs(), repeated_runs=2
        )
        assert [o.policy_name for o in result.outcomes] == policy_names()
        assert len(result.outcomes) == 8
        assert result.speedup("conventional") == 1.0
        assert result.failures == ()


class TestPointLayout:
    POLICIES = {"static-2": {"kind": "static", "mtl": 2}, **STATIC_1}

    def test_noise_free_layout(self):
        executor = RecordingExecutor()
        compare_policies(synthetic(0.5, pairs=16), self.POLICIES, executor=executor)
        (batch,) = executor.batches
        assert [(p.label, p.seed) for p in batch] == [
            ("conventional/measure", None),
            ("static-2/measure", None),
            ("static-1/measure", None),
        ]

    def test_repeated_runs_instrument_every_policy_but_the_baseline(self):
        # By position: a policy named ``conventional`` is instrumented
        # like any other.
        executor = RecordingExecutor()
        compare_policies(
            synthetic(0.5, pairs=16),
            {"conventional": {"kind": "conventional"}, **self.POLICIES},
            repeated_runs=2,
            base_seed=3,
            executor=executor,
        )
        (batch,) = executor.batches
        assert [(p.label, p.seed) for p in batch] == [
            ("conventional/measure", 3),
            ("conventional/measure", 4),
            ("conventional/measure", 3),
            ("conventional/measure", 4),
            ("conventional/instrument", INSTRUMENT_SEED),
            ("static-2/measure", 3),
            ("static-2/measure", 4),
            ("static-2/instrument", INSTRUMENT_SEED),
            ("static-1/measure", 3),
            ("static-1/measure", 4),
            ("static-1/instrument", INSTRUMENT_SEED),
        ]


class TestPolicySuites:
    def test_paper_suite_has_both_dynamic_policies(self):
        specs = paper_policy_specs(window_pairs=8)
        assert specs == {
            "Dynamic Throttling": {"kind": "dynamic", "window_pairs": 8},
            "Online Exhaustive Search": {"kind": "online", "window_pairs": 8},
            "Offline Exhaustive Search": {"kind": "offline"},
        }

    def test_all_specs_cover_the_registry(self):
        specs = all_policy_specs()
        assert list(specs) == policy_names()
        assert specs["static"] == {"kind": "static", "mtl": 2}
