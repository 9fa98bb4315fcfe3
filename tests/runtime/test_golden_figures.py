"""Golden regression tests: the executor reproduces checked-in figures.

The benchmarks save their regenerated tables under
``benchmarks/results/``; these tests re-run a sampled slice of the
Figure 13 sweep through the :class:`SweepExecutor` at ``jobs=1`` and
``jobs=4`` and assert both match the checked-in artifact row-for-row —
the proof that neither process-pool parallelism nor the result cache
ever changes a number.  A warm-cache replay must then serve every
point from cache and still match.

The sweep-point construction mirrors
``benchmarks/test_fig13_synthetic_sweep.py`` exactly (96 pairs, 8 MB
LLC shared 4 ways, offline exhaustive search per ratio); the sampled
rows in the artifact are the benchmark's own ``measured[::8]`` slice,
so the expectations here are parsed from the artifact, not duplicated.

``tests/runtime/snapshots/policy_parity.json`` holds full-precision
schedules (``repr`` makespans, per-record SHA-256, MTL-change and
selection traces) on the realistic trio.  Fifteen entries were
captured from the five policies that predate the plugin registry
(``conventional``, ``static``, ``dynamic``, ``online``,
``adaptive-window``); the ``mise``, ``qos`` and ``activation-budget``
entries were captured from the code before ``MiseFairnessPolicy`` and
``DynamicThrottlingPolicy`` shared one probing loop and one selection
record.  The parity tests rebuild each policy **through the registry**
and assert bit-identity — the proof that neither refactor changed
anything the simulator can observe.  Each selection trace is read back
from the one :class:`~repro.core.plugin.Selection` record, in the
fields the snapshot was captured with.
"""

import hashlib
import io
import json
import pathlib
import re

import pytest

from repro.core.registry import build_policy
from repro.memory.cache import LastLevelCache
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import PointResult, SweepExecutor, SweepPoint
from repro.runtime.telemetry import TelemetryWriter, read_telemetry
from repro.sim.machine import i7_860
from repro.sim.simulator import Simulator
from repro.units import mebibytes
from repro.workloads import build_workload
from repro.workloads.synthetic import SyntheticWorkload

RESULTS_DIR = pathlib.Path(__file__).parent.parent.parent / "benchmarks" / "results"

#: Mirrors the benchmark's sweep construction — keep in sync with
#: benchmarks/test_fig13_synthetic_sweep.py.
PAIRS = 96
I7_LLC = {"capacity_bytes": mebibytes(8), "sharers": 4}

_ROW = re.compile(
    r"^(\d+\.\d{2})\s*\|\s*(\d+\.\d{3})\s*\|\s*(\d+)\s*\|"
)


def golden_rows(footprint_mb: float):
    """Parse (ratio, measured speedup text, S-MTL) from the artifact."""
    path = RESULTS_DIR / f"fig13_{footprint_mb:g}MB.txt"
    rows = []
    in_table = False
    for line in path.read_text().splitlines():
        if line.startswith("ratio"):
            in_table = True
            continue
        if not in_table:
            continue
        match = _ROW.match(line.strip())
        if match:
            rows.append(
                (float(match.group(1)), match.group(2), int(match.group(3)))
            )
    assert rows, f"no sampled rows parsed from {path}"
    return rows


def fig13_points(footprint_mb: float, ratios):
    return [
        SweepPoint(
            workload={
                "kind": "synthetic",
                "ratio": ratio,
                "footprint_bytes": mebibytes(footprint_mb),
                "pairs": PAIRS,
                "llc": I7_LLC,
            },
            policy={"kind": "offline"},
            label=f"fig13/{footprint_mb:g}MB/r={ratio:.2f}",
        )
        for ratio in ratios
    ]


def rows_from_results(ratios, results):
    out = []
    for ratio, result in zip(ratios, results):
        assert result.per_mtl_makespan is not None
        speedup = result.per_mtl_makespan[4] / result.makespan
        out.append((ratio, f"{speedup:.3f}", result.selected_mtl))
    return out


@pytest.mark.parametrize("footprint_mb", [0.5, 2.0])
def test_executor_matches_checked_in_fig13_rows(footprint_mb, tmp_path):
    golden = golden_rows(footprint_mb)
    ratios = [ratio for ratio, _, _ in golden]
    points = fig13_points(footprint_mb, ratios)

    serial = SweepExecutor(jobs=1).run(points)
    assert rows_from_results(ratios, serial) == golden

    cache = ResultCache(tmp_path / "cache")
    sink = io.StringIO()
    parallel = SweepExecutor(
        jobs=4, cache=cache, telemetry=TelemetryWriter(sink)
    ).run(points)
    assert rows_from_results(ratios, parallel) == golden

    # Parallelism changes nothing, bit for bit — not just at 3 decimal
    # places: every field of every point result is equal.
    assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    # Cold run: every point was a miss, executed, and telemetered.
    cold = read_telemetry(io.StringIO(sink.getvalue()), event="point")
    assert len(cold) == len(points)
    assert all(not record["cache_hit"] for record in cold)
    assert all(record["wall_seconds"] > 0 for record in cold)

    # Warm replay: 100% cache hits, identical rows.
    warm_sink = io.StringIO()
    warm = SweepExecutor(
        jobs=4, cache=cache, telemetry=TelemetryWriter(warm_sink)
    ).run(points)
    assert [r.to_dict() for r in warm] == [r.to_dict() for r in serial]
    warm_records = read_telemetry(io.StringIO(warm_sink.getvalue()), event="point")
    assert all(record["cache_hit"] for record in warm_records)
    (summary,) = read_telemetry(io.StringIO(warm_sink.getvalue()), event="sweep")
    assert summary["cache_hits"] == len(points)
    assert summary["cache_misses"] == 0


def test_cached_results_round_trip_every_field(tmp_path):
    """Cache hits return the full PointResult, not a lossy summary."""
    point = fig13_points(0.5, [0.45])[0]
    cache = ResultCache(tmp_path / "cache")
    (fresh,) = SweepExecutor(jobs=1, cache=cache).run([point])
    (cached,) = SweepExecutor(jobs=1, cache=cache).run([point])
    assert isinstance(cached, PointResult)
    assert cached == fresh
    assert cache.stats.hits == 1


# ---------------------------------------------------------------------------
# Plugin-refactor parity: registry-built policies vs pre-refactor snapshots
# ---------------------------------------------------------------------------

SNAPSHOTS = pathlib.Path(__file__).parent / "snapshots" / "policy_parity.json"

#: The registry specs equivalent to the pre-refactor constructions the
#: snapshot was captured from (window_pairs=8 where the capture used 8).
PARITY_SPECS = {
    "conventional": {},
    "static": {"mtl": 2},
    "dynamic": {"window_pairs": 8},
    "online": {"window_pairs": 8},
    "adaptive-window": {},
    "mise": {},
    "qos": {},
    "activation-budget": {},
}

PARITY_WORKLOADS = ("dft", "SC_d128", "SIFT")


def _candidates(selection):
    return {str(k): repr(v) for k, v in sorted(selection.candidates.items())}


#: Each snapshot trace field, read from the one Selection record.
#: D-MTL's ``mtl_no_idle`` is its larger candidate and ``probes_used``
#: the windows it measured; online's ``window_times`` and MISE's
#: ``estimates`` are the candidates.
_COMMON_TRACE = {
    "time": lambda e: repr(e.time),
    "selected_mtl": lambda e: e.selected_mtl,
}
_DMTL_TRACE = {
    **_COMMON_TRACE,
    "trigger_idle_bound": lambda e: e.trigger,
    "mtl_no_idle": lambda e: max(e.candidates),
    "probes_used": lambda e: len(e.measured),
}
_MISE_TRACE = {
    **_COMMON_TRACE,
    "trigger_idle_bound": lambda e: e.trigger,
    "estimates": _candidates,
}
TRACE_FIELDS = {
    "dynamic": _DMTL_TRACE,
    "adaptive-window": _DMTL_TRACE,
    "online": {**_COMMON_TRACE, "window_times": _candidates},
    "mise": _MISE_TRACE,
    "qos": _MISE_TRACE,
}


def record_digest(result):
    """SHA-256 over every record's full repr — the snapshot's digest."""
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            repr(
                (
                    r.task_id, r.kind.name, r.context_id, r.core_id,
                    r.start, r.end, r.mtl_at_dispatch, r.phase_index,
                    r.pair_index, r.probe,
                )
            ).encode()
        )
    return h.hexdigest()


def parity_snapshot():
    return json.loads(SNAPSHOTS.read_text())


@pytest.mark.parametrize("workload_name", PARITY_WORKLOADS)
@pytest.mark.parametrize("policy_name", sorted(PARITY_SPECS))
def test_registry_built_policy_bit_identical_to_snapshot(
    workload_name, policy_name
):
    golden = parity_snapshot()[f"{workload_name}/{policy_name}"]
    machine = i7_860()
    policy = build_policy(
        policy_name, machine.context_count, PARITY_SPECS[policy_name]
    )
    result = Simulator(machine).run(build_workload(workload_name), policy)

    # Full-precision equality: repr round-trips every bit of a float.
    assert repr(result.makespan) == golden["makespan"]
    assert result.task_count == golden["task_count"]
    assert result.final_mtl() == golden["final_mtl"]
    assert repr(result.probe_task_time_fraction()) == golden["probe_fraction"]
    assert [
        [repr(c.time), c.old_mtl, c.new_mtl, c.reason]
        for c in result.mtl_changes
    ] == golden["mtl_changes"]
    assert record_digest(result) == golden["records_sha256"]

    # Selection traces, where the snapshot recorded them.
    if "selections" in golden:
        trace = TRACE_FIELDS[policy_name]
        assert [
            {name: read(e) for name, read in trace.items()}
            for e in policy.selections
        ] == golden["selections"]
    else:
        assert getattr(policy, "selections", []) == []


def test_parity_snapshot_covers_the_full_grid():
    keys = set(parity_snapshot())
    assert keys == {
        f"{w}/{p}" for w in PARITY_WORKLOADS for p in PARITY_SPECS
    }


def test_dynamic_plugin_matches_fig13_smtl_regions():
    """D-MTL through the registry vs the checked-in S-MTL artifact.

    The paper's claim (Section VI-A): the dynamic mechanism selects
    the offline-best static MTL except near region boundaries, where
    it may land one step off.  The sampled fig13 1 MB rows pin that —
    at most one boundary point may differ, and only by one MTL step.
    """
    golden = golden_rows(1.0)
    machine = i7_860()
    cache = LastLevelCache(capacity_bytes=mebibytes(8), sharers=4)
    mismatches = []
    for ratio, _, s_mtl in golden:
        program = SyntheticWorkload(
            ratio=ratio,
            footprint_bytes=mebibytes(1),
            pairs=PAIRS,
            cache=cache,
        ).build()
        policy = build_policy(
            "dynamic", machine.context_count, {"window_pairs": 8}
        )
        d_mtl = Simulator(machine).run(program, policy).dominant_mtl()
        if d_mtl != s_mtl:
            mismatches.append((ratio, s_mtl, d_mtl))
    for ratio, s_mtl, d_mtl in mismatches:
        assert abs(d_mtl - s_mtl) == 1, (ratio, s_mtl, d_mtl)
    assert len(mismatches) <= 1, mismatches
