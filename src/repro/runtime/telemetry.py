"""Structured run telemetry for sweep executions.

Every sweep point executed (or served from cache) by the
:class:`~repro.runtime.parallel.SweepExecutor` emits one JSON object on
its own line — the JSON-lines format that log shippers and ``jq`` both
consume directly.  Six event kinds exist:

``point``
    One record per successful sweep point: the content-address of the
    point, the human-readable workload/machine/policy names, the noise
    seed, wall time, whether the result came from the cache, which
    worker process produced it, the simulated-event counts, and the
    policy plugin's counters.

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

``sweep``
    One trailing summary per executor run: point totals, cache
    hit/miss split, fault/retry/failure counts, and end-to-end wall
    time.

Each kind is written as one dict literal at its single emit site (the
executor in :mod:`repro.runtime.parallel`, the quarantine in
:mod:`repro.runtime.cache`), so :data:`EVENT_SCHEMAS` is the only list
of fields.  The schema is documented in ``docs/telemetry.md``; a test
parses the document and compares it against :data:`EVENT_SCHEMAS`, and
``repro lint`` (RPR301/RPR302) checks that every emitted kind is
registered and every registered kind is emitted.  Records are plain
dicts so the writer stays usable from worker processes and tests
without any setup.
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
    "read_telemetry",
    "validate_record",
]

#: Bump when a field is added, renamed or removed, or its meaning
#: changes, so downstream consumers can dispatch on ``record["schema"]``.
TELEMETRY_SCHEMA_VERSION = 2

#: Every record's encoder, and every result-cache line's, built once
#: (``json.dumps(record, sort_keys=True)`` builds a new one per call).
_ENCODER = json.JSONEncoder(sort_keys=True)

#: JSON never distinguishes 3 from 3.0, so float-typed fields accept
#: ints too; bool is excluded from numeric fields (it subclasses int).
_STR: Tuple[type, ...] = (str,)
_INT: Tuple[type, ...] = (int,)
_FLOAT: Tuple[type, ...] = (float, int)
_BOOL: Tuple[type, ...] = (bool,)
_OPT_INT: Tuple[type, ...] = (int, type(None))
_OPT_OBJECT: Tuple[type, ...] = (dict, type(None))

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
        "policy_stats": _OPT_OBJECT,
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
}


def validate_record(record: Any) -> None:
    """Check one telemetry record against :data:`EVENT_SCHEMAS`.

    Raises :class:`~repro.errors.MeasurementError` naming the event
    kind and offending field on any mismatch: another schema version,
    unknown event, missing field, unexpected field, or wrong type.
    Booleans never satisfy a numeric field (``bool`` subclasses ``int``
    in Python).
    """
    if not isinstance(record, dict):
        raise MeasurementError(
            f"telemetry record must be an object, got {type(record).__name__}"
        )
    if "schema" in record and record["schema"] != TELEMETRY_SCHEMA_VERSION:
        raise MeasurementError(
            f"telemetry record has schema {record['schema']!r}; this reader "
            f"validates schema {TELEMETRY_SCHEMA_VERSION}"
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
        line = _ENCODER.encode(record) + "\n"
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
