"""Batch experiment suites.

Every figure in the paper is a grid: workloads x machines x policies.
:func:`run_suite` executes such a grid in one call and returns tidy
rows ready for tables, CSV, or regression tracking.  The grid is
declarative (sweep-point specs, :mod:`repro.runtime.parallel`) and
runs as one batch of the comparisons
:func:`~repro.runtime.experiment.compare_policies` makes, through a
:class:`~repro.runtime.parallel.SweepExecutor`, so grids parallelise
across processes and hit the result cache.  The CLI ``suite`` command
goes through this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, MeasurementError
from repro.runtime.experiment import _compare_cells
from repro.runtime.faults import PointFailure
from repro.runtime.parallel import SweepExecutor, build_machine_from_spec

__all__ = ["SuiteRow", "SuiteResult", "run_suite"]


@dataclass(frozen=True)
class SuiteRow:
    """One (workload, machine, policy) cell of a suite."""

    workload: str
    machine: str
    policy: str
    makespan: float
    speedup: float
    selected_mtl: Optional[int]
    probe_fraction: float


@dataclass(frozen=True)
class SuiteResult:
    """All rows of one suite run.

    Attributes:
        rows: One row per completed (workload, machine, policy) cell.
        failures: Sweep points that exhausted their retries (see
            :class:`~repro.runtime.faults.PointFailure`); their cells
            are absent from ``rows`` rather than aborting the grid.
            Empty on a healthy run.
    """

    rows: Tuple[SuiteRow, ...]
    failures: Tuple[PointFailure, ...] = ()

    def filter(
        self,
        workload: Optional[str] = None,
        machine: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> List[SuiteRow]:
        out = []
        for row in self.rows:
            if workload is not None and row.workload != workload:
                continue
            if machine is not None and row.machine != machine:
                continue
            if policy is not None and row.policy != policy:
                continue
            out.append(row)
        return out

    def cell(self, workload: str, machine: str, policy: str) -> SuiteRow:
        matches = self.filter(workload=workload, machine=machine, policy=policy)
        if len(matches) != 1:
            raise MeasurementError(
                f"expected one cell for ({workload}, {machine}, {policy}), "
                f"found {len(matches)}"
            )
        return matches[0]

    def to_csv(self) -> str:
        lines = [
            "workload,machine,policy,makespan,speedup,selected_mtl,"
            "probe_fraction"
        ]
        for row in self.rows:
            mtl = "" if row.selected_mtl is None else str(row.selected_mtl)
            lines.append(
                f"{row.workload},{row.machine},{row.policy},"
                f"{row.makespan!r},{row.speedup!r},{mtl},"
                f"{row.probe_fraction!r}"
            )
        return "\n".join(lines) + "\n"


def run_suite(
    workloads: Mapping[str, Mapping[str, Any]],
    machines: Sequence[Mapping[str, Any]],
    policies: Mapping[str, Mapping[str, Any]],
    executor: Optional[SweepExecutor] = None,
) -> SuiteResult:
    """Run a declarative grid through the sweep executor.

    Args:
        workloads: Name to workload spec (see
            :mod:`repro.runtime.parallel` for the vocabulary).
        machines: Machine specs; names must be distinct.
        policies: Name to policy spec.
        executor: Executor to fan the grid out on; defaults to a
            serial, uncached one.

    Every (workload, machine) cell is one noise-free comparison: a
    conventional baseline point plus one point per policy, labelled
    ``<workload>/<policy>/measure`` (``conventional`` for the
    baseline).  The whole grid is submitted as a single batch so
    parallelism spans cells, not just policies.  Speedups are relative
    to the baseline of the same cell, and rows come back in
    ``workloads x machines x policies`` order.

    Degradation: a point that exhausted the executor's retries does
    not abort the grid.  Its row (or, for a failed baseline, every
    row of that workload/machine cell — speedups need the baseline)
    is dropped from ``rows`` and recorded in ``failures``.
    """
    if not workloads or not machines or not policies:
        raise ConfigurationError("suite needs workloads, machines, and policies")
    machine_names = [build_machine_from_spec(m).name for m in machines]
    if len(set(machine_names)) != len(machine_names):
        raise ConfigurationError(f"duplicate machine names: {machine_names}")
    grid = [(name, spec, m) for name, spec in workloads.items() for m in machines]
    comparisons, failures = _compare_cells(
        [(f"{name}/", spec, machine) for name, spec, machine in grid],
        policies,
        executor,
    )
    rows = [
        SuiteRow(
            workload=name,
            machine=comparison.machine_name,
            policy=outcome.policy_name,
            makespan=outcome.makespan,
            speedup=outcome.speedup,
            selected_mtl=outcome.selected_mtl,
            probe_fraction=outcome.probe_fraction,
        )
        for (name, _, _), comparison in zip(grid, comparisons)
        if comparison is not None
        for outcome in comparison.outcomes
    ]
    return SuiteResult(rows=tuple(rows), failures=failures)
