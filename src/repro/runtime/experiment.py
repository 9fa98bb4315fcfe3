"""Experiment harness: policy comparison on one workload.

Every evaluation figure in the paper reports speedups of one or more
policies over the conventional (interference-oblivious) schedule on a
given machine.  :func:`compare_policies` packages that protocol —
including the 20-run/middle-10 noise discipline when requested — as
declarative sweep points run by a
:class:`~repro.runtime.parallel.SweepExecutor`, and returns a tidy
result the benchmarks and the CLI format.
:func:`repro.runtime.suite.run_suite` lays its workloads x machines
grid out the same way, so every comparison runs through
:func:`~repro.runtime.parallel.run_point`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.registry import policy_entry, policy_names
from repro.errors import MeasurementError
from repro.runtime.faults import PointFailure
from repro.runtime.measurement import middle_mean
from repro.runtime.parallel import SweepExecutor, SweepPoint

__all__ = [
    "PolicyOutcome",
    "ComparisonResult",
    "all_policy_specs",
    "compare_policies",
    "paper_policy_specs",
]

#: Seed of the single instrumented run that provides MTL selection and
#: probe accounting when makespans come from the repeated-run protocol.
INSTRUMENT_SEED = 997


@dataclass(frozen=True)
class PolicyOutcome:
    """One policy's measured performance on one workload.

    ``stats`` carries the policy plugin's registered-counter snapshot
    from the instrumented run (``windows_closed``, blacklist sizes,
    …) as sorted ``(stat, value)`` pairs — the same counters the
    executor's ``point`` telemetry carries as ``policy_stats`` — or
    ``None`` for runs that expose no counters (``offline`` points).
    """

    policy_name: str
    makespan: float
    speedup: float
    selected_mtl: Optional[int]
    probe_fraction: float
    stats: Optional[Tuple[Tuple[str, float], ...]] = None


@dataclass(frozen=True)
class ComparisonResult:
    """All policies' outcomes on one workload/machine combination.

    ``failures`` records sweep points that exhausted the executor's
    retries; the affected policies are absent from ``outcomes`` rather
    than aborting the comparison.  Empty on a healthy run.
    """

    program_name: str
    machine_name: str
    baseline_makespan: float
    outcomes: Tuple[PolicyOutcome, ...]
    failures: Tuple[PointFailure, ...] = ()

    def outcome(self, policy_name: str) -> PolicyOutcome:
        for entry in self.outcomes:
            if entry.policy_name == policy_name:
                return entry
        raise MeasurementError(
            f"no outcome for policy {policy_name!r}; have "
            f"{[o.policy_name for o in self.outcomes]}"
        )

    def speedup(self, policy_name: str) -> float:
        return self.outcome(policy_name).speedup


def _compare_cells(
    cells: Sequence[Tuple[str, Mapping[str, Any], Mapping[str, Any]]],
    policies: Mapping[str, Mapping[str, Any]],
    executor: Optional[SweepExecutor] = None,
    repeated_runs: int = 0,
    base_seed: int = 0,
) -> Tuple[List[Optional[ComparisonResult]], Tuple[PointFailure, ...]]:
    """Compare ``policies`` on every cell, as one executor batch.

    A cell is a ``(label prefix, workload spec, machine spec)`` triple.
    Each adds the conventional baseline and then each policy, one
    ``<prefix><policy>/measure`` point per seed (policy and seed
    innermost, so consecutive points share a workload).  Under the
    repeated-run protocol each policy, but not the baseline, adds one
    ``<prefix><policy>/instrument`` point at :data:`INSTRUMENT_SEED`
    for MTL selection and probe accounting; noise-free, the measured
    run doubles as the instrumented one (same environment, same
    numbers).

    Returns one :class:`ComparisonResult` per cell — ``None`` where
    the cell's baseline failed, since no speedup is computable — and
    every failure of the batch, in input order.
    """
    runner = executor if executor is not None else SweepExecutor(jobs=1)
    seeds: List[Optional[int]] = (
        [base_seed + run for run in range(repeated_runs)]
        if repeated_runs > 0
        else [None]
    )
    entries = [("conventional", {"kind": "conventional"})] + list(policies.items())
    points: List[SweepPoint] = []
    # Per cell: the slice of its points, and per entry the indices of
    # its measured runs and of its instrumented run — the entry's last
    # point, which noise-free is its one measured run.
    layout: List[Tuple[slice, List[Tuple[range, int]]]] = []
    for prefix, workload, machine in cells:
        start = len(points)
        slots = []
        for position, (name, spec) in enumerate(entries):
            runs = [(seed, "measure") for seed in seeds]
            if repeated_runs > 0 and position > 0:
                runs.append((INSTRUMENT_SEED, "instrument"))
            measured = range(len(points), len(points) + len(seeds))
            points.extend(
                SweepPoint(workload, machine, spec, seed, f"{prefix}{name}/{role}")
                for seed, role in runs
            )
            slots.append((measured, len(points) - 1))
        layout.append((slice(start, len(points)), slots))
    results = runner.run(points)

    def makespan(indices: range) -> Optional[float]:
        """Mean measured makespan, or ``None`` if any run failed."""
        window = [results[i] for i in indices]
        if any(isinstance(r, PointFailure) for r in window):
            return None
        spans = [r.makespan for r in window]
        return middle_mean(spans) if repeated_runs > 0 else spans[0]

    comparisons: List[Optional[ComparisonResult]] = []
    for cell, slots in layout:
        baseline = makespan(slots[0][0])
        if baseline is None:
            comparisons.append(None)
            continue
        outcomes = []
        for name, (measured, instrumented_index) in zip(policies, slots[1:]):
            span = makespan(measured)
            instrumented = results[instrumented_index]
            if span is None or isinstance(instrumented, PointFailure):
                # Degraded policy: its points are in the failures; the
                # remaining policies' numbers stay bit-identical.
                continue
            outcomes.append(
                PolicyOutcome(
                    policy_name=name,
                    makespan=span,
                    speedup=baseline / span if span > 0 else float("inf"),
                    selected_mtl=instrumented.selected_mtl,
                    probe_fraction=instrumented.probe_fraction,
                    stats=(
                        tuple(sorted(instrumented.policy_stats.items()))
                        if instrumented.policy_stats is not None
                        else None
                    ),
                )
            )
        cell_results = results[cell]
        # A cell's first point is its baseline's first measured run.
        first = cell_results[0]
        comparisons.append(
            ComparisonResult(
                program_name=first.workload,
                machine_name=first.machine,
                baseline_makespan=baseline,
                outcomes=tuple(outcomes),
                failures=tuple(
                    r for r in cell_results if isinstance(r, PointFailure)
                ),
            )
        )
    failures = tuple(r for r in results if isinstance(r, PointFailure))
    return comparisons, failures


def compare_policies(
    workload: Mapping[str, Any],
    policies: Mapping[str, Mapping[str, Any]],
    machine: Optional[Mapping[str, Any]] = None,
    repeated_runs: int = 0,
    base_seed: int = 0,
    executor: Optional[SweepExecutor] = None,
) -> ComparisonResult:
    """Measure each policy's speedup over the conventional schedule.

    Every (policy, run) pair — including the conventional baseline's —
    becomes one sweep point, submitted as a single batch so a parallel
    executor overlaps policies and repeated runs freely and a cached
    one replays them for free.

    Args:
        workload: Workload spec (:mod:`repro.runtime.parallel`).
        policies: Name to policy spec; the ``offline`` kind is allowed
            and measures the best static MTL found by exhaustive
            search.
        machine: Machine spec (defaults to the 1-DIMM i7-860).
        repeated_runs: 0 for a single noise-free run per policy
            (deterministic, what every figure uses); otherwise the
            number of noisy runs, seeded ``base_seed + run_index``,
            fed to the middle-10 protocol (20 in the paper).
        base_seed: First noise seed of the repeated-run protocol.
        executor: Defaults to a serial, uncached executor.

    Raises:
        MeasurementError: The baseline failed after retries.
    """
    machine_spec = machine if machine is not None else {"preset": "i7_860"}
    (comparison,), failures = _compare_cells(
        [("", workload, machine_spec)], policies, executor, repeated_runs, base_seed
    )
    if comparison is None:
        failed = [f.label for f in failures if f.label.startswith("conventional/")]
        raise MeasurementError(
            "the conventional baseline failed after retries "
            f"({failed}); no speedup can be computed"
        )
    return comparison


def paper_policy_specs(window_pairs: int = 16) -> Dict[str, Mapping[str, Any]]:
    """Declarative specs for the three policies of Figure 14."""
    return {
        "Dynamic Throttling": {"kind": "dynamic", "window_pairs": window_pairs},
        "Online Exhaustive Search": {"kind": "online", "window_pairs": window_pairs},
        "Offline Exhaustive Search": {"kind": "offline"},
    }


#: Grid-time values for registry parameters that have no constructor
#: default (a full-registry comparison must be buildable unattended).
_REQUIRED_PARAM_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "static": {"mtl": 2},
}


def all_policy_specs(window_pairs: int = 16) -> Dict[str, Mapping[str, Any]]:
    """One declarative spec per registered policy, keyed by name.

    The cross-policy comparison grid: every entry of
    :func:`repro.core.registry.policy_names` becomes a runnable spec.
    Policies exposing a ``window_pairs`` parameter get the shared
    value (so the comparison monitors with one W everywhere);
    parameters without a constructor default are filled from
    :data:`_REQUIRED_PARAM_DEFAULTS`.
    """
    specs: Dict[str, Mapping[str, Any]] = {}
    for name in policy_names():
        entry = policy_entry(name)
        spec: Dict[str, Any] = {"kind": name}
        if entry.param("window_pairs") is not None:
            spec["window_pairs"] = window_pairs
        for param in entry.params:
            if param.default is None and param.name not in spec:
                spec[param.name] = _REQUIRED_PARAM_DEFAULTS[name][param.name]
        specs[name] = spec
    return specs
