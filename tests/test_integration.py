"""End-to-end integration scenarios across the whole library.

Each test walks a realistic user journey through multiple subsystems
— the kind of composition no unit test exercises.
"""

import json

import pytest

from repro.analysis import result_to_dict
from repro.core import (
    AnalyticalModel,
    DynamicThrottlingPolicy,
    offline_exhaustive_search,
    s_mtl_regions,
)
from repro.memory.calibration import calibrate_linear_model
from repro.runtime import characterize, run_suite
from repro.sim import i7_860, simulate
from repro.sim.scheduler import FixedMtlPolicy, conventional_policy
from repro.workloads import streamcluster, synthetic_from_ratio
from repro.workloads.spec import parse_workload_spec


class TestCharacterizeThenThrottle:
    """Profile a workload, trust the prediction, verify it holds."""

    def test_prediction_matches_execution(self):
        program = streamcluster()
        machine = i7_860()

        character = characterize(program, machine)
        predicted_mtl = character.phases[0].predicted_mtl
        predicted_speedup = character.phases[0].predicted_speedup

        baseline = simulate(program, conventional_policy(4), machine)
        throttled = simulate(
            program, DynamicThrottlingPolicy(context_count=4), machine
        )
        assert throttled.dominant_mtl() == predicted_mtl
        measured_speedup = baseline.makespan / throttled.makespan
        # Prediction is steady-state; execution includes monitoring.
        assert measured_speedup == pytest.approx(predicted_speedup, abs=0.05)


class TestCalibrateThenSimulate:
    """Re-derive the contention law from DRAM and run the machine on it."""

    def test_calibrated_machine_reproduces_throttling_gain(self):
        calibration = calibrate_linear_model(requests_per_stream=512)
        machine = i7_860(contention=calibration.model)
        # Ratios are machine-relative: re-anchor the workload to the
        # calibrated machine's own solo latency via characterisation.
        program = synthetic_from_ratio(0.5, pairs=96)
        outcome = offline_exhaustive_search(program, machine)
        assert outcome.makespan(machine.context_count) > outcome.best.makespan


class TestRegionsPredictSweeps:
    """The exact region algebra agrees with simulated offline search."""

    @pytest.mark.parametrize("probe", [0.15, 0.6, 2.0])
    def test_region_mtl_matches_offline_search(self, probe):
        machine = i7_860()
        regions = s_mtl_regions(machine.memory.contention)
        region = next(r for r in regions if r.contains(probe))
        outcome = offline_exhaustive_search(
            synthetic_from_ratio(probe, pairs=96), machine
        )
        assert outcome.best_mtl == region.mtl


class TestSpecToExport:
    """JSON spec in, simulated, JSON results out."""

    def test_full_pipeline(self):
        document = {
            "name": "pipeline",
            "phases": [
                {"name": "hot", "pairs": 24, "ratio": 0.6},
                {"name": "cold", "pairs": 24, "ratio": 0.1},
            ],
        }
        program = parse_workload_spec(document)
        policy = DynamicThrottlingPolicy(context_count=4, window_pairs=8)
        result = simulate(program, policy)
        exported = result_to_dict(result)
        assert exported["program"] == "pipeline"
        assert len(exported["records"]) == 96
        # The export is valid JSON end to end.
        assert json.loads(json.dumps(exported))["policy"] == "dynamic-throttling"


class TestSuiteToCsv:
    """Grid run exported for external tooling."""

    def test_suite_rows_round_trip_through_csv(self):
        suite = run_suite(
            workloads={"w": {"kind": "synthetic", "ratio": 0.3, "pairs": 16}},
            machines=[{"preset": "i7_860"}],
            policies={"static-1": {"kind": "static", "mtl": 1}},
        )
        csv = suite.to_csv()
        header, row = csv.strip().splitlines()
        cells = row.split(",")
        assert cells[0] == "w"
        assert float(cells[4]) == pytest.approx(suite.rows[0].speedup)


class TestModelAgainstSimulatorEverywhere:
    """The analytical model, fed measured times, predicts makespans."""

    @pytest.mark.parametrize("ratio,mtl", [(0.2, 1), (0.8, 2), (2.0, 3)])
    def test_execution_time_formula(self, ratio, mtl):
        pairs = 96
        program = synthetic_from_ratio(ratio, pairs=pairs)
        result = simulate(program, FixedMtlPolicy(mtl))
        model = AnalyticalModel(core_count=4)
        t_mk = result.mean_memory_duration(mtl=mtl)
        t_c = result.mean_compute_duration()
        predicted = model.execution_time(t_mk, t_c, mtl, pairs)
        assert result.makespan == pytest.approx(predicted, rel=0.06)
