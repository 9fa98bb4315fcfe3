"""Structured run telemetry for sweep executions.

Every sweep point executed (or served from cache) by the
:class:`~repro.runtime.parallel.SweepExecutor` emits one JSON object on
its own line — the JSON-lines format that log shippers and ``jq`` both
consume directly.  Ten event kinds exist:

``point``
    One record per successful sweep point: the content-address of the
    point, the human-readable workload/machine/policy names, the noise
    seed, wall time, whether the result came from the cache, which
    worker process produced it, and the simulated-event counts.

``point_failure``
    One record per sweep point that exhausted its retries — the
    structured degradation the executor carries in-order instead of
    aborting the sweep.

``fault``
    One record per injected fault (worker crash, hang, transient
    error, cache corruption) when a
    :class:`~repro.runtime.faults.FaultPlan` is active.

``retry``
    One record per recovery action: a failed attempt (injected or
    real — transient error, worker crash, timeout) being rescheduled,
    with its deterministic backoff.

``cache_quarantine``
    One record per corrupt cache entry quarantined by
    :class:`~repro.runtime.cache.ResultCache` (marked by an appended
    quarantine record; the corrupt line itself is never rewritten).

``policy_stat``
    One record per registered policy-plugin counter per successful
    sweep point (emitted by the executor in the parent, after the
    point's ``point`` record): which policy, which stat, its value.

``policy_selection``
    One record per MTL selection a policy plugin reports through its
    selection log (:meth:`~repro.core.plugin.ThrottlePolicyPlugin.selection_log`):
    the simulated time and the committed MTL.

``sweep``
    One trailing summary per executor run: point totals, cache
    hit/miss split, fault/retry/failure counts, and end-to-end wall
    time.

``snapshot_cache``
    One record per simulation run (emitted by the perf benchmarks):
    hit/miss counters and hit rate of one engine cache — the rate
    calculator's snapshot memo or the memory system's equilibrium
    memo (see ``docs/performance.md``).

``profile``
    One record per hot function when ``perfbench --profile`` is
    active: its rank in the cProfile top-N plus call counts and
    cumulative/total seconds.

The schema is documented in ``docs/telemetry.md`` and mirrored
machine-readably in :data:`EVENT_SCHEMAS`; a test parses the document
and compares it against :data:`EVENT_SCHEMAS`, so the two cannot
drift.  Records are plain dicts so the writer stays usable from worker
processes and tests without any setup.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import weakref
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from repro.errors import MeasurementError

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "EVENT_SCHEMAS",
    "TelemetryWriter",
    "point_event",
    "point_failure_event",
    "policy_stat_event",
    "policy_selection_event",
    "fault_event",
    "retry_event",
    "cache_quarantine_event",
    "sweep_event",
    "snapshot_cache_event",
    "profile_event",
    "read_telemetry",
    "validate_record",
]

#: Bump when a field is renamed or its meaning changes, so downstream
#: consumers can dispatch on ``record["schema"]``.
TELEMETRY_SCHEMA_VERSION = 1

#: JSON never distinguishes 3 from 3.0, so float-typed fields accept
#: ints too; bool is excluded from numeric fields (it subclasses int).
_STR: Tuple[type, ...] = (str,)
_INT: Tuple[type, ...] = (int,)
_FLOAT: Tuple[type, ...] = (float, int)
_BOOL: Tuple[type, ...] = (bool,)
_OPT_INT: Tuple[type, ...] = (int, type(None))

#: Exact field set and types of every event kind.  ``validate_record``
#: enforces this; ``tests/runtime/test_telemetry_schema.py`` checks it
#: against the tables in ``docs/telemetry.md``.
EVENT_SCHEMAS: Dict[str, Dict[str, Tuple[type, ...]]] = {
    "point": {
        "schema": _INT,
        "event": _STR,
        "key": _STR,
        "label": _STR,
        "workload": _STR,
        "machine": _STR,
        "policy": _STR,
        "seed": _OPT_INT,
        "cache_hit": _BOOL,
        "wall_seconds": _FLOAT,
        "worker": _INT,
        "jobs": _INT,
        "makespan": _FLOAT,
        "sim_events": _INT,
    },
    "point_failure": {
        "schema": _INT,
        "event": _STR,
        "key": _STR,
        "label": _STR,
        "attempts": _INT,
        "reason": _STR,
        "jobs": _INT,
    },
    "fault": {
        "schema": _INT,
        "event": _STR,
        "key": _STR,
        "label": _STR,
        "kind": _STR,
        "attempt": _INT,
        "jobs": _INT,
    },
    "retry": {
        "schema": _INT,
        "event": _STR,
        "key": _STR,
        "label": _STR,
        "attempt": _INT,
        "backoff_seconds": _FLOAT,
        "reason": _STR,
        "jobs": _INT,
    },
    "policy_stat": {
        "schema": _INT,
        "event": _STR,
        "key": _STR,
        "label": _STR,
        "policy": _STR,
        "stat": _STR,
        "value": _FLOAT,
    },
    "policy_selection": {
        "schema": _INT,
        "event": _STR,
        "key": _STR,
        "label": _STR,
        "policy": _STR,
        "time": _FLOAT,
        "selected_mtl": _INT,
    },
    "cache_quarantine": {
        "schema": _INT,
        "event": _STR,
        "key": _STR,
        "path": _STR,
        "reason": _STR,
    },
    "sweep": {
        "schema": _INT,
        "event": _STR,
        "points": _INT,
        "cache_hits": _INT,
        "cache_misses": _INT,
        "faults": _INT,
        "retries": _INT,
        "failures": _INT,
        "wall_seconds": _FLOAT,
        "jobs": _INT,
    },
    "snapshot_cache": {
        "schema": _INT,
        "event": _STR,
        "cache": _STR,
        "label": _STR,
        "hits": _INT,
        "misses": _INT,
        "hit_rate": _FLOAT,
        "entries": _INT,
    },
    "profile": {
        "schema": _INT,
        "event": _STR,
        "label": _STR,
        "function": _STR,
        "rank": _INT,
        "calls": _INT,
        "cumulative_seconds": _FLOAT,
        "total_seconds": _FLOAT,
    },
}


def point_event(
    key: str,
    workload: str,
    machine: str,
    policy: str,
    seed: Optional[int],
    cache_hit: bool,
    wall_seconds: float,
    worker: int,
    jobs: int,
    makespan: float,
    sim_events: int,
    label: str = "",
) -> Dict[str, Any]:
    """Build one ``point`` telemetry record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "point",
        "key": key,
        "label": label,
        "workload": workload,
        "machine": machine,
        "policy": policy,
        "seed": seed,
        "cache_hit": cache_hit,
        "wall_seconds": wall_seconds,
        "worker": worker,
        "jobs": jobs,
        "makespan": makespan,
        "sim_events": sim_events,
    }


def point_failure_event(
    key: str,
    label: str,
    attempts: int,
    reason: str,
    jobs: int,
) -> Dict[str, Any]:
    """Build one ``point_failure`` (exhausted retries) record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "point_failure",
        "key": key,
        "label": label,
        "attempts": attempts,
        "reason": reason,
        "jobs": jobs,
    }


def policy_stat_event(
    key: str,
    label: str,
    policy: str,
    stat: str,
    value: float,
) -> Dict[str, Any]:
    """Build one ``policy_stat`` (plugin counter snapshot) record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "policy_stat",
        "key": key,
        "label": label,
        "policy": policy,
        "stat": stat,
        "value": value,
    }


def policy_selection_event(
    key: str,
    label: str,
    policy: str,
    time: float,
    selected_mtl: int,
) -> Dict[str, Any]:
    """Build one ``policy_selection`` (committed MTL decision) record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "policy_selection",
        "key": key,
        "label": label,
        "policy": policy,
        "time": time,
        "selected_mtl": selected_mtl,
    }


def fault_event(
    key: str,
    label: str,
    kind: str,
    attempt: int,
    jobs: int,
) -> Dict[str, Any]:
    """Build one ``fault`` (injected failure) record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "fault",
        "key": key,
        "label": label,
        "kind": kind,
        "attempt": attempt,
        "jobs": jobs,
    }


def retry_event(
    key: str,
    label: str,
    attempt: int,
    backoff_seconds: float,
    reason: str,
    jobs: int,
) -> Dict[str, Any]:
    """Build one ``retry`` (recovery action) record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "retry",
        "key": key,
        "label": label,
        "attempt": attempt,
        "backoff_seconds": backoff_seconds,
        "reason": reason,
        "jobs": jobs,
    }


def cache_quarantine_event(key: str, path: str, reason: str) -> Dict[str, Any]:
    """Build one ``cache_quarantine`` (corrupt entry isolated) record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "cache_quarantine",
        "key": key,
        "path": path,
        "reason": reason,
    }


def sweep_event(
    points: int,
    cache_hits: int,
    cache_misses: int,
    wall_seconds: float,
    jobs: int,
    faults: int = 0,
    retries: int = 0,
    failures: int = 0,
) -> Dict[str, Any]:
    """Build one ``sweep`` summary record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "sweep",
        "points": points,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "faults": faults,
        "retries": retries,
        "failures": failures,
        "wall_seconds": wall_seconds,
        "jobs": jobs,
    }


def snapshot_cache_event(
    cache: str,
    label: str,
    hits: int,
    misses: int,
    entries: int,
) -> Dict[str, Any]:
    """Build one ``snapshot_cache`` (engine cache effectiveness) record.

    ``hit_rate`` is derived here (0.0 when the cache was never
    consulted) so every consumer computes it the same way.
    """
    lookups = hits + misses
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "snapshot_cache",
        "cache": cache,
        "label": label,
        "hits": hits,
        "misses": misses,
        "hit_rate": (hits / lookups) if lookups else 0.0,
        "entries": entries,
    }


def profile_event(
    label: str,
    function: str,
    rank: int,
    calls: int,
    cumulative_seconds: float,
    total_seconds: float,
) -> Dict[str, Any]:
    """Build one ``profile`` (cProfile top-N row) record."""
    return {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "profile",
        "label": label,
        "function": function,
        "rank": rank,
        "calls": calls,
        "cumulative_seconds": cumulative_seconds,
        "total_seconds": total_seconds,
    }


def validate_record(record: Any) -> None:
    """Check one telemetry record against :data:`EVENT_SCHEMAS`.

    Raises :class:`~repro.errors.MeasurementError` naming the event
    kind and offending field on any mismatch: unknown event, missing
    field, unexpected field, or wrong type.  Booleans never satisfy a
    numeric field (``bool`` subclasses ``int`` in Python).
    """
    if not isinstance(record, dict):
        raise MeasurementError(
            f"telemetry record must be an object, got {type(record).__name__}"
        )
    event = record.get("event")
    if event not in EVENT_SCHEMAS:
        raise MeasurementError(
            f"unknown telemetry event {event!r}; known: "
            + ", ".join(sorted(EVENT_SCHEMAS))
        )
    schema = EVENT_SCHEMAS[event]
    missing = sorted(set(schema) - set(record))
    if missing:
        raise MeasurementError(f"{event} record is missing fields {missing}")
    extra = sorted(set(record) - set(schema))
    if extra:
        raise MeasurementError(f"{event} record has unexpected fields {extra}")
    for field, allowed in schema.items():
        value = record[field]
        if isinstance(value, bool) and bool not in allowed:
            raise MeasurementError(
                f"{event} field {field!r} must not be a bool, got {value!r}"
            )
        if not isinstance(value, allowed):
            names = "|".join(t.__name__ for t in allowed)
            raise MeasurementError(
                f"{event} field {field!r} must be {names}, got "
                f"{type(value).__name__} {value!r}"
            )


class TelemetryWriter:
    """Append-only JSON-lines sink.

    Accepts a filesystem path or any writable text stream (tests pass a
    :class:`io.StringIO`).  A path is opened in append mode on the
    first :meth:`emit` and the handle is kept for the writer's
    lifetime (closed when the writer is collected), so several sweeps
    — and several writers, such as repeated CLI runs — can share one
    log.  Each :meth:`emit` writes exactly one whole line in one
    unbuffered ``os.write`` (repeated until every byte is out, should
    the kernel accept only part of it), so a crashed run still leaves a
    readable prefix and concurrent writers never tear each other's
    lines — the same rule :class:`~repro.runtime.cache.ResultCache`
    appends by.
    """

    def __init__(self, sink: Union[str, pathlib.Path, TextIO]) -> None:
        self._path: Optional[pathlib.Path] = None
        self._stream: Optional[TextIO] = None
        self._fd = -1
        if isinstance(sink, (str, pathlib.Path)):
            self._path = pathlib.Path(sink)
        else:
            self._stream = sink

    def emit(self, record: Dict[str, Any]) -> None:
        """Write one record as a single JSON line."""
        line = json.dumps(record, sort_keys=True) + "\n"
        if self._path is not None:
            if self._fd < 0:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
                weakref.finalize(self, os.close, self._fd)
            data = line.encode()
            while data:
                data = data[os.write(self._fd, data):]
        else:
            assert self._stream is not None
            self._stream.write(line)
            if not isinstance(self._stream, io.StringIO):
                self._stream.flush()


def read_telemetry(
    source: Union[str, pathlib.Path, TextIO],
    event: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Parse a JSON-lines telemetry log, optionally filtered by event.

    Blank lines are skipped; a malformed line raises
    :class:`~repro.errors.MeasurementError` naming its line number
    (telemetry is evidence — silently dropping records would hide
    exactly the failures it exists to expose).
    """
    if isinstance(source, (str, pathlib.Path)):
        text = pathlib.Path(source).read_text()
    else:
        text = source.getvalue() if isinstance(source, io.StringIO) else source.read()
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MeasurementError(
                f"telemetry line {number} is not valid JSON: {exc}"
            ) from exc
        if event is None or record.get("event") == event:
            records.append(record)
    return records
