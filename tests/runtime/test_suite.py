"""Tests for the batch experiment suite runner."""

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.runtime.suite import run_suite
from tests.runtime.test_experiment import RecordingExecutor

WORKLOADS = {
    "compute-bound": {"kind": "synthetic", "ratio": 0.2, "pairs": 24},
    "memory-bound": {"kind": "synthetic", "ratio": 1.5, "pairs": 24},
}
MACHINES = [
    {"preset": "i7_860", "channels": 1},
    {"preset": "i7_860", "channels": 2},
]
POLICIES = {
    "static-1": {"kind": "static", "mtl": 1},
    "dynamic": {"kind": "dynamic"},
}


def small_suite(executor=None):
    return run_suite(WORKLOADS, MACHINES, POLICIES, executor=executor)


class TestRunSuite:
    def test_full_grid(self):
        suite = small_suite()
        assert len(suite.rows) == 2 * 2 * 2

    def test_rows_in_grid_order(self):
        assert [(r.workload, r.machine, r.policy) for r in small_suite().rows] == [
            (workload, machine, policy)
            for workload in WORKLOADS
            for machine in ("i7-860/1ch", "i7-860/2ch")
            for policy in POLICIES
        ]

    def test_cell_lookup(self):
        suite = small_suite()
        cell = suite.cell("compute-bound", "i7-860/1ch", "static-1")
        assert cell.speedup > 1.0
        assert cell.selected_mtl == 1

    def test_filter(self):
        suite = small_suite()
        assert len(suite.filter(policy="dynamic")) == 4
        assert len(suite.filter(machine="i7-860/2ch", policy="dynamic")) == 2

    def test_missing_cell_raises(self):
        with pytest.raises(MeasurementError):
            small_suite().cell("ghost", "i7-860/1ch", "static-1")

    def test_speedups_are_per_cell_baselines(self):
        suite = small_suite()
        # Over-throttling the memory-bound workload must lose.
        losing = suite.cell("memory-bound", "i7-860/1ch", "static-1")
        assert losing.speedup < 1.0
        winning = suite.cell("compute-bound", "i7-860/1ch", "static-1")
        assert winning.speedup > 1.0

    def test_csv_export(self):
        csv = small_suite().to_csv()
        lines = csv.strip().splitlines()
        assert lines[0].startswith("workload,machine,policy")
        assert len(lines) == 9

    def test_one_batch_labelled_by_workload_and_policy(self):
        executor = RecordingExecutor()
        small_suite(executor)
        (batch,) = executor.batches
        labels = [point.label for point in batch]
        # Per cell: the baseline, then each policy; a workload's cells
        # stay contiguous, so consecutive points share its spec.
        cell = ["conventional/measure", "static-1/measure", "dynamic/measure"]
        assert labels == [
            f"{workload}/{label}"
            for workload in WORKLOADS
            for _ in MACHINES
            for label in cell
        ]
        assert all(point.seed is None for point in batch)

    def test_validation(self):
        static = {"p": {"kind": "static", "mtl": 1}}
        with pytest.raises(ConfigurationError, match="needs workloads"):
            run_suite({}, [{"preset": "i7_860"}], static)
        with pytest.raises(ConfigurationError, match="duplicate machine names"):
            run_suite(
                {"w": {"kind": "synthetic", "ratio": 0.2, "pairs": 4}},
                [{"preset": "i7_860"}, {"preset": "i7_860", "channels": 1}],
                static,
            )
