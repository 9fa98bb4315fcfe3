"""Parallel sweep execution over declarative sweep points.

Every evaluation figure in the paper is a sweep: a grid of (workload,
machine, policy, seed) configurations, each simulated independently.
This module makes those grids first-class and executable in parallel:

* a :class:`SweepPoint` describes one configuration *declaratively*
  (plain JSON-compatible dicts), so points pickle cleanly into worker
  processes and hash stably into the result cache;
* :func:`run_point` materialises and runs one point — the **single**
  execution path shared verbatim by the serial fallback and the
  process-pool workers, so parallelism can never change numbers;
* :class:`SweepExecutor` fans points out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (or runs them
  in-process at ``jobs=1``), consults an optional
  :class:`~repro.runtime.cache.ResultCache` keyed by
  :func:`point_key`, and emits one telemetry record per point plus a
  sweep summary through an optional
  :class:`~repro.runtime.telemetry.TelemetryWriter`.

Resilience: the executor tolerates crashing, hanging, and
transiently-failing workers without changing a single number.  Each
point gets a per-point ``timeout`` (pool mode), bounded ``retries``
with a deterministic exponential backoff schedule
(:func:`~repro.runtime.faults.backoff_schedule`), and the worker pool
is respawned when a dead worker breaks it
(:class:`~concurrent.futures.process.BrokenProcessPool`).  A point
that exhausts its retries degrades gracefully into a structured
:class:`~repro.runtime.faults.PointFailure` carried in input order
through the results — the sweep never aborts.  Every fault, retry,
and degradation is emitted through the telemetry writer.  Failures
are injected deterministically for testing via a
:class:`~repro.runtime.faults.FaultPlan` (see
``docs/fault_injection.md``).

Submission: one pool future carries a *chunk* of points, run in order
by one worker.  Its size comes from the measured worker CPU time of
the points completed so far (:func:`_chunk_size`), so a run of cheap
points pays for one submit, one pickled reply and one ``wait``
instead of one each, while points costing more than
``_CHUNK_SECONDS`` keep a future of their own.  Fault tolerance stays
per point: a point with an injected fault travels alone, a transient
error in a chunk costs only its own point an attempt, and with a
``timeout`` every submission carries one point.

Determinism: results are returned in input order regardless of worker
completion order, noise is derived per point from its seed via
:func:`repro.sim.noise.noise_for_seed` inside the process that runs
the point, and cache keys include the schema version, so
``jobs=1`` / ``jobs=N`` / warm-cache replays / chaos runs under an
exhausting-resistant retry budget all yield identical rows.

Spec vocabulary (validated eagerly, offending key named; a key a kind
or preset does not accept is rejected, not ignored):

==========  =====================================================
workload    ``{"kind": "registry", "name": "dft"}``
            ``{"kind": "synthetic", "ratio": r, "footprint_bytes":
            b, "pairs": p, "llc": {"capacity_bytes": c,
            "sharers": s}}`` (``llc`` optional)
            ``{"kind": "streamcluster", "dimension": d, "rounds":
            r, "pairs_per_round": p, "footprint_bytes": b}``
            ``{"kind": "spec", "document": {...}}`` (a JSON
            workload spec, :mod:`repro.workloads.spec`)
            At most ``MAX_WORKLOAD_TASKS`` (100,000) tasks, two a
            pair: ``pairs``, ``rounds * pairs_per_round`` or the
            phases' summed ``pairs``; more raises ``WorkloadError``
            before any task is built.
machine     ``{"preset": "i7_860", "channels": 1, "smt": 1,
            "llc_capacity_bytes": b}``
            ``{"preset": "power7", "smt": 4, "channels": 8}``
policy      ``{"kind": "<registered name>", **params}`` — any name
            in :func:`repro.core.registry.policy_names`:
            ``conventional``, ``static`` (needs ``mtl``),
            ``dynamic`` / ``online`` / ``mise`` / ``qos``
            (``window_pairs``...), ``adaptive-window``,
            ``activation-budget``; parameters are validated against
            the registry entry (offending key named).
            ``{"kind": "offline"}`` (exhaustive static search, no
            parameters) is the one non-registry kind, handled by
            :func:`run_point`.
==========  =====================================================
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.offline import offline_exhaustive_search
from repro.core.registry import build_policy
from repro.errors import (
    ConfigurationError,
    MeasurementError,
    check_int,
    check_number,
)
from repro.memory.cache import LastLevelCache
from repro.runtime.cache import CACHE_SCHEMA_VERSION, ResultCache, stable_hash
from repro.runtime.faults import (
    FAULT_CORRUPT,
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_HANG,
    INJECTED_CRASH_EXIT_CODE,
    FaultPlan,
    PointFailure,
    backoff_schedule,
)
from repro.runtime.telemetry import TELEMETRY_SCHEMA_VERSION, TelemetryWriter
from repro.sim.machine import Machine, i7_860
from repro.sim.noise import noise_for_seed, seeded_generator
from repro.sim.power7 import power7
from repro.sim.scheduler import ThrottlePolicyPlugin
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram
from repro.workloads import SyntheticWorkload, build_workload
from repro.workloads.spec import parse_workload_spec
from repro.workloads.streamcluster import StreamclusterWorkload

__all__ = [
    "POOL_BOUNDARY",
    "SweepPoint",
    "PointResult",
    "PointFailure",
    "SweepExecutor",
    "point_key",
    "run_point",
    "forget_last_builds",
    "build_workload_from_spec",
    "build_machine_from_spec",
    "build_policy_from_spec",
]

#: Functions that execute inside pool worker processes.  This is the
#: machine-readable annotation of the process-pool boundary: the
#: pool-safety lint rules (RPR7xx) treat every function listed here —
#: and everything reachable from it — as worker-side code that must
#: pickle cleanly, never mutate module globals, and never emit
#: telemetry directly.  The one module state worker code may keep is a
#: per-process memo of pure functions (:data:`_LAST_BUILT`): losing
#: it, or its differing between processes, cannot change a result.
POOL_BOUNDARY: Tuple[str, ...] = ("_pool_run_points",)

#: The last workload and the last machine :func:`run_point` built in
#: this process, as ``{"workload" | "machine": (stable_hash(spec),
#: built)}`` — at most one of each, so memory stays at one program and
#: one machine (with its bounded memos) however many distinct specs a
#: sweep has.
_LAST_BUILT: Dict[str, Tuple[str, Any]] = {}

#: Consecutive pool breaks with no injected crash in flight tolerated
#: before the executor gives up (a real, repeating environment
#: failure — OOM killer, container teardown — must surface, not loop).
_MAX_UNATTRIBUTED_POOL_BREAKS = 3

#: Submissions in flight per pool worker without a timeout: enough
#: queued work that no worker idles between completions, few enough
#: that each ``wait`` scans O(jobs) futures.
_INFLIGHT_PER_WORKER = 4

#: Seconds of work one pool submission aims to carry (see
#: :func:`_chunk_size`).  Long enough that a chunk of ~1 ms points pays
#: one submit, reply and ``wait`` for tens of points; short enough that
#: a chunk lost to a broken pool, or still running at the end of a
#: sweep, costs little.  ``docs/performance.md`` gives the candidates
#: measured on ``sweep-fanout``.
_CHUNK_SECONDS = 0.02


def _require(spec: Mapping[str, Any], key: str, what: str) -> Any:
    if key not in spec:
        raise ConfigurationError(f"{what} spec {dict(spec)!r} needs a {key!r} key")
    return spec[key]


def _as_int(value: Any, key: str, what: str) -> int:
    """Validate an int-typed spec value, naming the offending key."""
    return check_int(value, f"{what} spec key {key!r}")


def _as_float(value: Any, key: str, what: str) -> float:
    """Validate a number-typed spec value, naming the offending key.

    NaN and the infinities pass: the one such key, a synthetic
    workload's ``ratio``, is range-checked by the workload itself.
    """
    return check_number(value, f"{what} spec key {key!r}", finite=False)


def _as_str(value: Any, key: str, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(
            f"{what} spec key {key!r} must be a string, got {value!r}"
        )
    return value


def _as_mapping(value: Any, key: str, what: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigurationError(
            f"{what} spec key {key!r} must be an object, got {value!r}"
        )
    return value


def _reject_unknown(
    spec: Mapping[str, Any], accepted: Set[str], what: str
) -> None:
    """Reject a spec key outside ``accepted``, naming it and them."""
    unknown = sorted(set(spec) - accepted)
    if unknown:
        raise ConfigurationError(
            f"{what} spec has unknown keys {unknown}; accepted: {sorted(accepted)}"
        )


#: Keys each workload kind accepts.
_WORKLOAD_KEYS: Dict[str, Set[str]] = {
    "registry": {"kind", "name"},
    "synthetic": {"kind", "ratio", "footprint_bytes", "pairs", "llc"},
    "streamcluster": {
        "kind", "dimension", "rounds", "pairs_per_round", "footprint_bytes",
    },
    "spec": {"kind", "document"},
}
_LLC_KEYS = {"capacity_bytes", "sharers"}
#: Each machine preset's builder and the keys its spec accepts; every
#: key but ``preset`` is an integer keyword of the builder.
_MACHINE_PRESETS: Dict[str, Tuple[Callable[..., Machine], Set[str]]] = {
    "i7_860": (i7_860, {"preset", "channels", "smt", "llc_capacity_bytes"}),
    "power7": (power7, {"preset", "smt", "channels"}),
}


def build_workload_from_spec(spec: Mapping[str, Any]) -> StreamProgram:
    """Materialise a workload spec into a :class:`StreamProgram`."""
    kind = _as_str(_require(spec, "kind", "workload"), "kind", "workload")
    if kind not in _WORKLOAD_KEYS:
        raise ConfigurationError(
            f"unknown workload kind {kind!r}; use registry | synthetic | "
            "streamcluster | spec"
        )
    _reject_unknown(spec, _WORKLOAD_KEYS[kind], f"{kind} workload")
    if kind == "registry":
        return build_workload(_as_str(_require(spec, "name", "workload"), "name", "workload"))
    if kind == "synthetic":
        llc = spec.get("llc")
        cache = None
        if llc is not None:
            llc = _as_mapping(llc, "llc", "workload")
            _reject_unknown(llc, _LLC_KEYS, "llc")
            cache = LastLevelCache(
                capacity_bytes=_as_int(
                    _require(llc, "capacity_bytes", "llc"), "capacity_bytes", "llc"
                ),
                sharers=_as_int(_require(llc, "sharers", "llc"), "sharers", "llc"),
            )
        kwargs: Dict[str, Any] = {
            "ratio": _as_float(_require(spec, "ratio", "workload"), "ratio", "workload")
        }
        for key in sorted(_WORKLOAD_KEYS["synthetic"] - {"kind", "ratio", "llc"}):
            if key in spec:
                kwargs[key] = _as_int(spec[key], key, "workload")
        return SyntheticWorkload(cache=cache, **kwargs).build()
    if kind == "streamcluster":
        kwargs = {}
        for key in sorted(_WORKLOAD_KEYS["streamcluster"] - {"kind"}):
            if key in spec:
                kwargs[key] = _as_int(spec[key], key, "workload")
        return StreamclusterWorkload(**kwargs).build()
    # kind == "spec"
    document = _as_mapping(
        _require(spec, "document", "workload"), "document", "workload"
    )
    return parse_workload_spec(dict(document))


def build_machine_from_spec(spec: Mapping[str, Any]) -> Machine:
    """Materialise a machine spec into a :class:`Machine`."""
    preset = _as_str(spec.get("preset", "i7_860"), "preset", "machine")
    if preset not in _MACHINE_PRESETS:
        raise ConfigurationError(
            f"unknown machine preset {preset!r}; use i7_860 | power7"
        )
    build, accepted = _MACHINE_PRESETS[preset]
    _reject_unknown(spec, accepted, f"{preset} machine")
    kwargs = {
        key: _as_int(spec[key], key, "machine")
        for key in sorted(accepted - {"preset"})
        if key in spec
    }
    return build(**kwargs)


def build_policy_from_spec(
    spec: Mapping[str, Any], machine: Machine
) -> ThrottlePolicyPlugin:
    """Materialise a policy spec for ``machine``.

    The ``offline`` kind has no single-policy materialisation (it is a
    meta-procedure over every static MTL) and is handled directly by
    :func:`run_point`.
    """
    kind = _require(spec, "kind", "policy")
    params = {key: value for key, value in spec.items() if key != "kind"}
    return build_policy(kind, machine.context_count, params)


def _frozen(value: Any) -> Any:
    """Deep-freeze a spec so :class:`SweepPoint` stays unhashable but
    immutable in spirit: nested dicts/lists become plain copies the
    point owns (callers mutating their spec after building points must
    not retroactively change them)."""
    if isinstance(value, Mapping):
        return {str(k): _frozen(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_frozen(v) for v in value]
    return value


@dataclass(frozen=True)
class SweepPoint:
    """One declarative sweep configuration.

    Attributes:
        workload: Workload spec (see module docstring).
        machine: Machine spec; defaults to the paper's 1-DIMM i7-860.
        policy: Policy spec; defaults to the conventional baseline.
        seed: Noise seed, a non-negative int; ``None`` runs noise-free
            (the deterministic evaluation mode every figure uses).
        label: Free-form caller bookkeeping carried into telemetry.
            Deliberately **excluded** from the cache key: two labels
            for the same configuration share one cached result.
    """

    workload: Mapping[str, Any]
    machine: Mapping[str, Any] = field(default_factory=lambda: {"preset": "i7_860"})
    policy: Mapping[str, Any] = field(default_factory=lambda: {"kind": "conventional"})
    seed: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "workload", _frozen(self.workload))
        object.__setattr__(self, "machine", _frozen(self.machine))
        object.__setattr__(self, "policy", _frozen(self.policy))
        seed = self.seed
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
        ):
            raise ConfigurationError(
                f"seed must be a non-negative int or None, got {seed!r}"
            )

    def describe(self) -> Dict[str, Any]:
        """The content that addresses this point (label excluded)."""
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": self.workload,
            "machine": self.machine,
            "policy": self.policy,
            "seed": self.seed,
        }


def point_key(point: SweepPoint) -> str:
    """Stable content-address of a sweep point."""
    return stable_hash(point.describe())


@dataclass(frozen=True)
class PointResult:
    """Outcome of one executed sweep point (JSON round-trippable).

    Attributes:
        label: Echoed from the point.
        workload / machine / policy: Names as the simulator reports
            them (not the specs — those live on the point).
        seed: The noise seed the run used.
        makespan: Simulated execution time; for ``offline`` points the
            makespan of the best static MTL.
        selected_mtl: Dominant MTL of the run (best MTL for
            ``offline``), ``None`` when no MTL timeline was recorded.
        probe_fraction: Share of task time inside monitoring windows.
        task_count: Simulated task completions.
        sim_events: Task completions plus MTL transitions — the
            "simulated events" figure telemetry reports.
        per_mtl_makespan: For ``offline`` points, every static MTL's
            makespan (the Figure 13 speedup curves need the MTL = n
            baseline); ``None`` otherwise.
        policy_stats: The policy plugin's registered-counter snapshot
            (:meth:`~repro.sim.scheduler.ThrottlePolicyPlugin.stats_snapshot`);
            ``None`` for ``offline`` points, which run a meta-procedure
            rather than one policy instance.
    """

    label: str
    workload: str
    machine: str
    policy: str
    seed: Optional[int]
    makespan: float
    selected_mtl: Optional[int]
    probe_fraction: float
    task_count: int
    sim_events: int
    per_mtl_makespan: Optional[Dict[int, float]] = None
    policy_stats: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "label": self.label,
            "workload": self.workload,
            "machine": self.machine,
            "policy": self.policy,
            "seed": self.seed,
            "makespan": self.makespan,
            "selected_mtl": self.selected_mtl,
            "probe_fraction": self.probe_fraction,
            "task_count": self.task_count,
            "sim_events": self.sim_events,
        }
        if self.per_mtl_makespan is not None:
            payload["per_mtl_makespan"] = [
                [mtl, span] for mtl, span in sorted(self.per_mtl_makespan.items())
            ]
        if self.policy_stats is not None:
            payload["policy_stats"] = [
                [stat, value] for stat, value in sorted(self.policy_stats.items())
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PointResult":
        per_mtl = payload.get("per_mtl_makespan")
        stats = payload.get("policy_stats")
        return cls(
            label=str(payload.get("label", "")),
            workload=str(payload["workload"]),
            machine=str(payload["machine"]),
            policy=str(payload["policy"]),
            seed=payload.get("seed"),
            makespan=float(payload["makespan"]),
            selected_mtl=payload.get("selected_mtl"),
            probe_fraction=float(payload.get("probe_fraction", 0.0)),
            task_count=int(payload.get("task_count", 0)),
            sim_events=int(payload.get("sim_events", 0)),
            per_mtl_makespan=(
                {int(mtl): float(span) for mtl, span in per_mtl}
                if per_mtl is not None
                else None
            ),
            policy_stats=(
                {str(stat): float(value) for stat, value in stats}
                if stats is not None
                else None
            ),
        )


def forget_last_builds() -> None:
    """Drop the workload and the machine :func:`run_point` remembers —
    with the machine go its snapshot and equilibrium memos — so the
    next point builds its own and starts cold (for timing a point
    cold)."""
    _LAST_BUILT.clear()


def _remembered(what: str, spec: Mapping[str, Any], build: Callable[..., Any]) -> Any:
    """``build(spec)``, reusing what was built for the previous point's
    ``what`` spec when ``spec`` has the same canonical form."""
    key = stable_hash(spec)
    last = _LAST_BUILT.get(what)
    if last is not None and last[0] == key:
        return last[1]
    # Forget first: a failing build leaves nothing remembered, and the
    # old one is released before the new one is built.
    _LAST_BUILT.pop(what, None)
    built = build(spec)
    _LAST_BUILT[what] = (key, built)
    return built


def run_point(point: SweepPoint) -> PointResult:
    """Execute one sweep point in the current process.

    This is the single source of truth for per-point execution and
    seeding: the serial fallback calls it directly and the pool workers
    call it inside their processes, so both paths build the workload,
    machine, policy, and noise stream identically from the declarative
    spec.  Noise comes from :func:`repro.sim.noise.noise_for_seed`,
    constructed *here* — RNG state is never pickled across process
    boundaries.

    The workload and the machine are reused across points.  When a
    point's workload spec has the same
    :func:`~repro.runtime.cache.stable_hash` as the previous point's in
    this process, the previous program is reused, with the task graph
    it keeps (:meth:`StreamProgram.to_task_graph`).  Likewise a machine
    spec reuses the previous machine, with its rate-snapshot and
    equilibrium memos.  Programs and machines are pure functions of
    their specs and are only read by a run, and their memos return
    exactly what a cold computation would, so the reuse never changes a
    result.  Policies, noise and simulators stay per point.
    """
    program = _remembered("workload", point.workload, build_workload_from_spec)
    machine = _remembered("machine", point.machine, build_machine_from_spec)
    policy_kind = _require(point.policy, "kind", "policy")

    if policy_kind == "offline":
        _reject_unknown(point.policy, {"kind"}, "offline policy")
        noise_factory = (
            (lambda: noise_for_seed(point.seed)) if point.seed is not None else None
        )
        outcome = offline_exhaustive_search(
            program, machine=machine, noise_factory=noise_factory
        )
        best = outcome.best
        return PointResult(
            label=point.label,
            workload=program.name,
            machine=machine.name,
            policy="offline-exhaustive",
            seed=point.seed,
            makespan=best.makespan,
            selected_mtl=outcome.best_mtl,
            probe_fraction=best.probe_task_time_fraction(),
            task_count=best.task_count,
            sim_events=best.task_count + len(best.mtl_changes),
            per_mtl_makespan={
                mtl: result.makespan for mtl, result in outcome.by_mtl.items()
            },
        )

    policy = build_policy_from_spec(point.policy, machine)
    simulator = Simulator(machine, noise=noise_for_seed(point.seed))
    result = simulator.run(program, policy)
    try:
        selected: Optional[int] = result.dominant_mtl()
    except MeasurementError:
        selected = None
    snapshot = getattr(policy, "stats_snapshot", None)
    return PointResult(
        label=point.label,
        workload=program.name,
        machine=machine.name,
        policy=policy.name,
        seed=point.seed,
        makespan=result.makespan,
        selected_mtl=selected,
        probe_fraction=result.probe_task_time_fraction(),
        task_count=result.task_count,
        sim_events=result.task_count + len(result.mtl_changes),
        policy_stats=dict(snapshot()) if callable(snapshot) else None,
    )


def _chunk_size(
    completed_cpu: float, completed: int, queued: int, limit: int
) -> int:
    """Points per pool submission, from what the parent has measured.

    One point until some point has completed (``completed`` points took
    ``completed_cpu`` worker CPU seconds in all).  Then about
    ``_CHUNK_SECONDS`` of work at their mean CPU time, but no more than
    an even share of the ``queued`` points across the ``limit``
    in-flight submissions, so the end of a sweep stays spread over
    every worker.  Never less than one: a point costing more than
    ``_CHUNK_SECONDS`` keeps a submission of its own.  CPU time, not
    wall: a worker's wall includes the time it waits for a CPU, so
    sizing from it would cut chunks, and add submissions, exactly when
    the host is busiest.
    """
    if completed == 0 or completed_cpu <= 0.0:
        return 1
    per_point = completed_cpu / completed
    return max(1, min(int(_CHUNK_SECONDS / per_point), queued // limit))


def _pool_run_points(
    points: List[SweepPoint],
    inject: Optional[str] = None,
    hang_seconds: float = 0.0,
) -> List[Tuple[Union[Dict[str, Any], str], float, float, int]]:
    """Worker side of one pool submission: run ``points`` in order.

    Returns one ``(payload, wall seconds, CPU seconds, worker pid)``
    entry per point, each timed on its own (CPU seconds are the
    worker's ``time.process_time()``).  The payload is the result as a
    plain dict (the same JSON form the cache stores, so the parent
    never depends on dataclass pickling details), or the message of the
    :class:`~repro.errors.MeasurementError` the point raised: a
    transient failure costs its own point an attempt and leaves its
    chunk-mates' results standing.  Any other exception propagates and
    aborts the sweep, as it does at ``jobs=1``.

    ``inject`` applies the fault the parent decided for this attempt:
    an abrupt process death, a pre-run sleep, or a transient error —
    applied *here*, in the worker, so the parent's recovery machinery
    is exercised exactly as a real failure would.  The parent sends a
    faulted point alone, so a fault never reaches another point.
    """
    if inject == FAULT_CRASH:
        os._exit(INJECTED_CRASH_EXIT_CODE)
    if inject == FAULT_HANG and hang_seconds > 0.0:
        time.sleep(hang_seconds)
    pid = os.getpid()
    outcomes: List[Tuple[Union[Dict[str, Any], str], float, float, int]] = []
    for point in points:
        start = time.perf_counter()
        cpu_start = time.process_time()
        payload: Union[Dict[str, Any], str]
        try:
            if inject == FAULT_ERROR:
                raise MeasurementError(
                    f"injected transient error for point {point.label!r}"
                )
            payload = run_point(point).to_dict()
        except MeasurementError as exc:
            payload = str(exc)
        outcomes.append((
            payload,
            time.perf_counter() - start,
            time.process_time() - cpu_start,
            pid,
        ))
    return outcomes


class SweepExecutor:
    """Runs sweep points, in parallel when asked, cached when possible.

    Args:
        jobs: Worker processes.  ``1`` (the default) runs every point
            in-process through the exact same :func:`run_point` the
            workers use — the bit-identical serial fallback.
        cache: Optional result cache consulted before running and
            populated after; ``None`` disables caching entirely.
        telemetry: Optional JSON-lines sink receiving one ``point`` or
            ``point_failure`` record per point (in input order), live
            ``fault``/``retry``/``cache_quarantine`` records as they
            happen, and one trailing ``sweep`` summary.
        timeout: Per-point wall-clock budget in seconds.  In pool mode
            a point exceeding it is abandoned and retried, and every
            submission carries one point; ``None`` disables.  An
            in-process point cannot be preempted, so at
            ``jobs=1`` the budget only governs injected hangs: a hang
            the timeout would catch (``hang_seconds >= timeout``)
            consumes an attempt exactly as it would in a pool worker.
        retries: Retry budget per point beyond the first attempt.  A
            point that exhausts it becomes a
            :class:`~repro.runtime.faults.PointFailure` in the results
            instead of aborting the sweep.
        backoff_base: First-retry backoff in seconds, doubled each
            further retry (deterministic schedule, no jitter —
            :func:`~repro.runtime.faults.backoff_schedule`).  ``0``
            (the default) retries immediately.
        fault_plan: Deterministic chaos injection for testing; see
            :mod:`repro.runtime.faults`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[TelemetryWriter] = None,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff_base: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if backoff_base < 0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {backoff_base}"
            )
        self.jobs = jobs
        self.cache = cache
        self.telemetry = telemetry
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.fault_plan = fault_plan

    def run(
        self, points: Sequence[SweepPoint]
    ) -> List[Union[PointResult, PointFailure]]:
        """Execute every point; results come back in input order.

        A point that exhausts its retries yields a
        :class:`~repro.runtime.faults.PointFailure` in its slot; all
        other slots are :class:`PointResult`.  With the default
        configuration (no fault plan, no timeout) failures can only
        arise from points that raise
        :class:`~repro.errors.MeasurementError` persistently.
        """
        # Quarantines are part of the run's story; route them into the
        # same log unless the cache already has its own sink — for this
        # run only.  The cache is caller-owned and possibly shared:
        # it must come back exactly as it went in.
        routed = (
            self.cache is not None
            and self.telemetry is not None
            and self.cache.telemetry is None
        )
        if routed:
            self.cache.telemetry = self.telemetry
        try:
            return self._run(points)
        finally:
            if routed:
                self.cache.telemetry = None

    def _run(
        self, points: Sequence[SweepPoint]
    ) -> List[Union[PointResult, PointFailure]]:
        sweep_start = time.perf_counter()
        count = len(points)
        results: List[Optional[Union[PointResult, PointFailure]]] = [None] * count
        walls: List[float] = [0.0] * count
        workers: List[int] = [os.getpid()] * count
        hits: List[bool] = [False] * count
        keys: List[str] = [point_key(p) for p in points]
        counts = {"faults": 0, "retries": 0, "failures": 0}

        pending: List[int] = []
        if self.cache is None:
            pending = list(range(count))
        else:
            # Key order puts one bucket's lookups next to each other,
            # so the cache reads each bucket once; misses still run in
            # input order.
            for index in sorted(range(count), key=keys.__getitem__):
                lookup_start = time.perf_counter()
                cached = self.cache.get(keys[index])
                if cached is None:
                    pending.append(index)
                    continue
                # Labels are not part of the key: a hit echoes this
                # point's label, not the one stored with it.
                results[index] = PointResult.from_dict(
                    {**cached, "label": points[index].label}
                )
                walls[index] = time.perf_counter() - lookup_start
                hits[index] = True
            pending.sort()

        if self.jobs == 1 or len(pending) <= 1:
            self._run_serial(points, keys, pending, results, walls, counts)
        else:
            self._run_pool(points, keys, pending, results, walls, workers, counts)

        self._emit_telemetry(
            points, keys, results, walls, workers, hits, sweep_start, counts
        )
        # The type narrows: every slot is filled by one of the paths.
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    # serial path

    def _run_serial(
        self,
        points: Sequence[SweepPoint],
        keys: List[str],
        pending: List[int],
        results: List[Optional[Union[PointResult, PointFailure]]],
        walls: List[float],
        counts: Dict[str, int],
    ) -> None:
        for index in pending:
            start = time.perf_counter()
            outcome = self._attempt_serial(points[index], keys[index], counts)
            walls[index] = time.perf_counter() - start
            results[index] = outcome
            if isinstance(outcome, PointResult):
                self._store(keys[index], points[index], outcome, counts)

    def _attempt_serial(
        self, point: SweepPoint, key: str, counts: Dict[str, int]
    ) -> Union[PointResult, PointFailure]:
        """Run one point in-process with the full retry discipline.

        Injected crashes and transient errors are simulated as
        exceptions.  An injected hang mirrors what the pool would do
        with it: when the executor's ``timeout`` would catch it
        (``hang_seconds >= timeout``) it becomes a timeout-equivalent
        failed attempt — without sleeping, since an in-process hang
        could never be preempted and sleeping would only slow the
        replay — and otherwise the worker would simply have been slow
        and succeeded, so the point runs normally (again without
        sleeping) and no retry is consumed.  Either way ``jobs=1`` and
        ``jobs=N`` chaos runs degrade the same points.
        """
        attempt = 0
        while True:
            fault = self._fault(key, attempt)
            if fault is not None:
                self._note_fault(key, point.label, fault, attempt, counts)
            if fault == FAULT_HANG and not (
                self.timeout is not None
                and self.fault_plan.hang_seconds >= self.timeout
            ):
                fault = None  # slow but recovering: the pool would wait it out
            if fault is not None:
                reason = {
                    FAULT_CRASH: "worker crashed (injected)",
                    FAULT_HANG: "timeout (injected hang)",
                    FAULT_ERROR: "injected transient error for point "
                    f"{point.label!r}",
                }[fault]
            else:
                try:
                    return run_point(point)
                except MeasurementError as exc:
                    reason = str(exc)
            if attempt >= self.retries:
                counts["failures"] += 1
                return PointFailure(
                    label=point.label, key=key, attempts=attempt + 1, reason=reason
                )
            backoff = self._note_retry(key, point.label, attempt, reason, counts)
            if backoff > 0.0:
                time.sleep(backoff)
            attempt += 1

    # ------------------------------------------------------------------
    # pool path

    def _run_pool(
        self,
        points: Sequence[SweepPoint],
        keys: List[str],
        pending: List[int],
        results: List[Optional[Union[PointResult, PointFailure]]],
        walls: List[float],
        workers: List[int],
        counts: Dict[str, int],
    ) -> None:
        queue: Deque[int] = deque(pending)
        attempts: Dict[int, int] = {index: 0 for index in pending}
        not_before: Dict[int, float] = {}
        # (point, attempt) pairs whose fault is logged: a free
        # resubmission after a pool break re-injects the fault but must
        # not log it twice.
        noted: Set[Tuple[int, int]] = set()
        predicted: Dict[Future, Optional[str]] = {}
        inflight: Dict[Future, List[int]] = {}
        deadlines: Dict[Future, float] = {}
        capacity = min(self.jobs, len(pending))
        if any(points[index].seed is not None for index in pending):
            # Seeded points need numpy.  Load it here, once, so the
            # workers forked below (and any respawned pool) inherit it
            # instead of each importing it.
            seeded_generator(0)
        pool = ProcessPoolExecutor(max_workers=capacity)
        hang = self.fault_plan.hang_seconds if self.fault_plan is not None else 0.0
        unattributed_breaks = 0
        # Worker CPU time of the points completed so far, which sizes
        # chunks.
        completed = 0
        completed_cpu = 0.0

        def recover(index: int, reason: str) -> None:
            """A failed attempt: retry with backoff or degrade."""
            attempt = attempts[index]
            if attempt >= self.retries:
                counts["failures"] += 1
                results[index] = PointFailure(
                    label=points[index].label,
                    key=keys[index],
                    attempts=attempt + 1,
                    reason=reason,
                )
                return
            backoff = self._note_retry(
                keys[index], points[index].label, attempt, reason, counts
            )
            attempts[index] = attempt + 1
            if backoff > 0.0:
                not_before[index] = time.monotonic() + backoff
            queue.append(index)

        def requeue_after_break(chunk: List[int], fault: Optional[str]) -> None:
            """Resubmit the points of a submission lost to a broken pool.

            Only a point whose injected crash killed the worker consumed
            an attempt, and such a point travels alone; innocent
            pool-mates and chunk-mates are resubmitted for free — their
            loss is pool mechanics, not their fault.
            """
            if fault == FAULT_CRASH:
                (index,) = chunk
                recover(index, "worker crashed (injected)")
            else:
                queue.extend(chunk)

        def take(size: int, now: float) -> Tuple[List[int], Optional[str]]:
            """Remove the next submission from the queue.

            The first eligible point goes alone when the plan faults
            its attempt; otherwise up to ``size`` eligible fault-free
            points go together, in queue order.  Backing-off points
            must not block eligible ones queued behind them, and are
            never gathered; they and skipped faulted points keep their
            places at the head of the queue.
            """
            chunk: List[int] = []
            fault: Optional[str] = None
            skipped: List[int] = []
            while queue and len(chunk) < size:
                index = queue.popleft()
                if not_before.get(index, 0.0) > now:
                    skipped.append(index)
                    continue
                decided = self._fault(keys[index], attempts[index])
                if decided is None:
                    chunk.append(index)
                elif chunk:
                    skipped.append(index)
                else:
                    chunk, fault = [index], decided
                    break
            queue.extendleft(reversed(skipped))
            return chunk, fault

        try:
            while queue or inflight:
                now = time.monotonic()
                # With a timeout, a submitted point's deadline starts
                # ticking immediately — so never submit more points
                # than the pool has workers, or a point queued behind
                # a slow worker burns its budget (and its attempts)
                # without ever starting.  Deadlines are per point, so
                # each submission then carries one point.
                limit = (
                    _INFLIGHT_PER_WORKER * capacity
                    if self.timeout is None
                    else capacity
                )
                broken = False
                while queue and len(inflight) < limit:
                    size = (
                        _chunk_size(completed_cpu, completed, len(queue), limit)
                        if self.timeout is None
                        else 1
                    )
                    chunk, fault = take(size, now)
                    if not chunk:
                        break
                    try:
                        future = pool.submit(
                            _pool_run_points, [points[i] for i in chunk], fault, hang
                        )
                    except BrokenProcessPool:
                        # A worker died since the last wait.  The chunk
                        # stays queued; the submissions in flight are
                        # failing with the pool and are handled below.
                        queue.extendleft(reversed(chunk))
                        broken = True
                        break
                    for index in chunk:
                        not_before.pop(index, None)
                    if fault is not None:
                        (index,) = chunk
                        if (index, attempts[index]) not in noted:
                            noted.add((index, attempts[index]))
                            self._note_fault(
                                keys[index], points[index].label, fault,
                                attempts[index], counts,
                            )
                    predicted[future] = fault
                    inflight[future] = chunk
                    if self.timeout is not None:
                        deadlines[future] = time.monotonic() + self.timeout

                if not inflight and not broken:
                    # The submit scan found nothing eligible, so every
                    # queued point is backing off; sleep until the
                    # earliest becomes eligible and resume.
                    wake = min(not_before[i] for i in queue if i in not_before)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                wait_timeout = None
                if deadlines:
                    wait_timeout = (
                        max(0.0, min(deadlines.values()) - time.monotonic()) + 0.01
                    )
                done = set()
                if inflight:
                    done, _ = wait(
                        set(inflight), timeout=wait_timeout,
                        return_when=FIRST_COMPLETED,
                    )

                crash_predicted_inflight = any(
                    predicted.get(f) == FAULT_CRASH for f in inflight
                )
                for future in done:
                    chunk = inflight.pop(future)
                    deadlines.pop(future, None)
                    fault = predicted.pop(future, None)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        broken = True
                        requeue_after_break(chunk, fault)
                        continue
                    for index, (payload, wall, cpu, pid) in zip(chunk, outcomes):
                        if isinstance(payload, str):
                            recover(index, payload)
                            continue
                        result = PointResult.from_dict(payload)
                        results[index] = result
                        walls[index] = wall
                        workers[index] = pid
                        completed += 1
                        completed_cpu += cpu
                        self._store(keys[index], points[index], result, counts)
                        # A completed point proves the (possibly
                        # respawned) pool works: the strike counter
                        # tracks *consecutive* breaks, so occasional
                        # breaks hours apart on a long sweep never
                        # accumulate into a spurious abort.
                        unattributed_breaks = 0

                if broken:
                    if not crash_predicted_inflight:
                        unattributed_breaks += 1
                        if unattributed_breaks > _MAX_UNATTRIBUTED_POOL_BREAKS:
                            raise MeasurementError(
                                "worker pool broke "
                                f"{unattributed_breaks} times with no "
                                "injected crash in flight; giving up on a "
                                "failing environment"
                            )
                    for future, chunk in list(inflight.items()):
                        requeue_after_break(chunk, predicted.pop(future, None))
                    inflight.clear()
                    deadlines.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    capacity = min(self.jobs, max(1, len(queue)))
                    pool = ProcessPoolExecutor(max_workers=capacity)
                elif deadlines:
                    now = time.monotonic()
                    overdue = [f for f, d in deadlines.items() if d <= now]
                    if overdue:
                        for future in overdue:
                            (index,) = inflight.pop(future)
                            deadlines.pop(future, None)
                            fault = predicted.pop(future, None)
                            recover(
                                index,
                                "timeout (injected hang)"
                                if fault == FAULT_HANG
                                else f"timeout after {self.timeout:g}s",
                            )
                        # A stuck worker cannot be preempted and would
                        # keep holding its pool slot (starving every
                        # queued point into its own timeout), so the
                        # whole pool is killed and respawned.  Innocent
                        # in-flight points are resubmitted without
                        # consuming an attempt; the rerun produces the
                        # same bits — run_point is deterministic.  Their
                        # abandoned futures' deadlines go with them: a
                        # stale deadline expiring later would look like
                        # an overdue future that is no longer in flight.
                        for future, chunk in list(inflight.items()):
                            predicted.pop(future, None)
                            queue.extend(chunk)
                        inflight.clear()
                        deadlines.clear()
                        pool.shutdown(wait=False, cancel_futures=True)
                        for process in list(
                            (getattr(pool, "_processes", None) or {}).values()
                        ):
                            try:
                                process.kill()
                            except (OSError, ValueError):
                                # Already dead (ProcessLookupError) or
                                # already closed (ValueError): the goal
                                # — that worker not holding a slot — is
                                # achieved either way.
                                pass
                        capacity = min(self.jobs, max(1, len(queue)))
                        pool = ProcessPoolExecutor(max_workers=capacity)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    # shared helpers

    def _store(
        self,
        key: str,
        point: SweepPoint,
        result: PointResult,
        counts: Dict[str, int],
    ) -> None:
        if self.cache is None:
            return
        self.cache.put(key, result.to_dict(), point=point.describe())
        if self.fault_plan is not None and self.fault_plan.corrupts(key):
            self.cache.append_truncated(key)
            self._note_fault(key, point.label, FAULT_CORRUPT, 0, counts)

    def _fault(self, key: str, attempt: int) -> Optional[str]:
        """The fault the plan injects into this attempt, if any."""
        if self.fault_plan is None:
            return None
        return self.fault_plan.decide(key, attempt)

    def _note_fault(
        self, key: str, label: str, kind: str, attempt: int, counts: Dict[str, int]
    ) -> None:
        counts["faults"] += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                {
                    "schema": TELEMETRY_SCHEMA_VERSION,
                    "event": "fault",
                    "key": key,
                    "label": label,
                    "kind": kind,
                    "attempt": attempt,
                    "jobs": self.jobs,
                }
            )

    def _note_retry(
        self, key: str, label: str, attempt: int, reason: str, counts: Dict[str, int]
    ) -> float:
        """Record one retry; returns its deterministic backoff."""
        backoff = backoff_schedule(attempt, self.backoff_base)
        counts["retries"] += 1
        if self.telemetry is not None:
            self.telemetry.emit(
                {
                    "schema": TELEMETRY_SCHEMA_VERSION,
                    "event": "retry",
                    "key": key,
                    "label": label,
                    "attempt": attempt,
                    "backoff_seconds": backoff,
                    "reason": reason,
                    "jobs": self.jobs,
                }
            )
        return backoff

    def _emit_telemetry(
        self,
        points: Sequence[SweepPoint],
        keys: List[str],
        results: List[Optional[Union[PointResult, PointFailure]]],
        walls: List[float],
        workers: List[int],
        hits: List[bool],
        sweep_start: float,
        counts: Dict[str, int],
    ) -> None:
        if self.telemetry is None:
            return
        for index, point in enumerate(points):
            result = results[index]
            assert result is not None
            if isinstance(result, PointFailure):
                self.telemetry.emit(
                    {
                        "schema": TELEMETRY_SCHEMA_VERSION,
                        "event": "point_failure",
                        "key": keys[index],
                        "label": result.label,
                        "attempts": result.attempts,
                        "reason": result.reason,
                        "jobs": self.jobs,
                    }
                )
                continue
            self.telemetry.emit(
                {
                    "schema": TELEMETRY_SCHEMA_VERSION,
                    "event": "point",
                    "key": keys[index],
                    "label": point.label,
                    "workload": result.workload,
                    "machine": result.machine,
                    "policy": result.policy,
                    "seed": point.seed,
                    "cache_hit": hits[index],
                    "wall_seconds": walls[index],
                    "worker": workers[index],
                    "jobs": self.jobs,
                    "makespan": result.makespan,
                    "sim_events": result.sim_events,
                    "policy_stats": result.policy_stats,
                }
            )
        hit_count = sum(hits)
        self.telemetry.emit(
            {
                "schema": TELEMETRY_SCHEMA_VERSION,
                "event": "sweep",
                "points": len(points),
                "cache_hits": hit_count,
                "cache_misses": len(points) - hit_count,
                "faults": counts["faults"],
                "retries": counts["retries"],
                "failures": counts["failures"],
                "wall_seconds": time.perf_counter() - sweep_start,
                "jobs": self.jobs,
            }
        )
