"""User-defined workloads from declarative JSON specs.

Reproducing new workloads should not require writing Python: a JSON
document describes the phase structure and per-phase characteristics,
either as a published-style memory-to-compute *ratio* (calibrated
against the reference machine, like Tables II/III) or as explicit
*requests* and *compute_seconds*.

Example::

    {
      "name": "my-pipeline",
      "phases": [
        {"name": "ingest",  "pairs": 64, "ratio": 0.55},
        {"name": "crunch",  "pairs": 96, "ratio": 0.08},
        {"name": "emit",    "pairs": 32,
         "requests": 8192, "compute_seconds": 0.0012}
      ]
    }

Load with :func:`load_workload_spec` (a path or an already-parsed
dict).  Validation is eager and names the offending phase; a key the
document or a phase does not take is rejected, not ignored, and a
JSON ``true``/``false`` is not a number.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any, Dict, List, Optional, Union

from repro.errors import ConfigurationError, WorkloadError, check_number
from repro.stream.program import ProgramPhase, StreamProgram, build_phase
from repro.units import cache_lines
from repro.workloads.base import (
    DEFAULT_FOOTPRINT_BYTES,
    check_task_count,
    compute_time_for_ratio,
)

__all__ = ["load_workload_spec", "parse_workload_spec"]

_DOCUMENT_KEYS = {"name", "phases"}

_PHASE_KEYS = {
    "name",
    "pairs",
    "ratio",
    "requests",
    "compute_seconds",
    "footprint_bytes",
}


def load_workload_spec(source: Union[str, pathlib.Path]) -> StreamProgram:
    """Load a workload spec from a JSON file."""
    path = pathlib.Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise WorkloadError(f"cannot read workload spec {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"workload spec {path} is not valid JSON: {exc}") from exc
    return parse_workload_spec(document)


def parse_workload_spec(document: Dict[str, Any]) -> StreamProgram:
    """Build a stream program from a parsed spec document."""
    if not isinstance(document, dict):
        raise WorkloadError(
            f"workload spec must be a JSON object, got {type(document).__name__}"
        )
    name = document.get("name")
    if not name or not isinstance(name, str):
        raise WorkloadError("workload spec needs a non-empty string 'name'")
    unknown = set(document) - _DOCUMENT_KEYS
    if unknown:
        raise WorkloadError(
            f"workload {name!r} has unknown keys {sorted(unknown)}; "
            f"accepted: {sorted(_DOCUMENT_KEYS)}"
        )
    raw_phases = document.get("phases")
    if not isinstance(raw_phases, list) or not raw_phases:
        raise WorkloadError(
            f"workload {name!r} needs a non-empty 'phases' list"
        )

    # Malformed phases fail below, naming themselves.
    pairs = [raw.get("pairs") for raw in raw_phases if isinstance(raw, dict)]
    check_task_count(name, sum(p for p in pairs if _is_int(p) and p > 0))
    phases: List[ProgramPhase] = []
    for index, raw in enumerate(raw_phases):
        phases.append(_parse_phase(name, index, raw))
    return StreamProgram(name, phases)


def _is_int(value: Any) -> bool:
    # ``bool`` subclasses ``int``: a JSON true would read as 1.
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_number(value: Any) -> Optional[float]:
    """``value`` as a float if it is a positive finite number, else None.

    An int past the float range reads as infinity, and so is refused,
    rather than raising a bare ``OverflowError``.
    """
    try:
        number = check_number(value, "value", finite=False)
    except ConfigurationError:
        return None
    return number if 0 < number < math.inf else None


def _parse_phase(workload: str, index: int, raw: Any) -> ProgramPhase:
    if not isinstance(raw, dict):
        raise WorkloadError(
            f"{workload!r} phase {index} must be an object, got "
            f"{type(raw).__name__}"
        )
    unknown = set(raw) - _PHASE_KEYS
    if unknown:
        raise WorkloadError(
            f"{workload!r} phase {index} has unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(_PHASE_KEYS)}"
        )
    phase_name = raw.get("name", f"phase{index}")
    pairs = raw.get("pairs")
    if not _is_int(pairs) or pairs < 1:
        raise WorkloadError(
            f"{workload!r} phase {phase_name!r} needs integer 'pairs' >= 1"
        )
    footprint = raw.get("footprint_bytes", DEFAULT_FOOTPRINT_BYTES)
    if not _is_int(footprint) or footprint <= 0:
        raise WorkloadError(
            f"{workload!r} phase {phase_name!r}: 'footprint_bytes' must be a "
            "positive integer"
        )

    has_ratio = "ratio" in raw
    has_explicit = "requests" in raw or "compute_seconds" in raw
    if has_ratio and has_explicit:
        raise WorkloadError(
            f"{workload!r} phase {phase_name!r}: give either 'ratio' or "
            "'requests'+'compute_seconds', not both"
        )

    if has_ratio:
        ratio = _positive_number(raw["ratio"])
        if ratio is None:
            raise WorkloadError(
                f"{workload!r} phase {phase_name!r}: 'ratio' must be positive "
                f"and finite, got {raw['ratio']!r}"
            )
        requests = float(cache_lines(footprint))
        compute_seconds = compute_time_for_ratio(ratio, footprint)
    else:
        explicit_requests = _positive_number(raw.get("requests"))
        if explicit_requests is None:
            raise WorkloadError(
                f"{workload!r} phase {phase_name!r}: needs positive finite "
                "'requests' (or use 'ratio')"
            )
        explicit_seconds = _positive_number(raw.get("compute_seconds"))
        if explicit_seconds is None:
            raise WorkloadError(
                f"{workload!r} phase {phase_name!r}: needs positive finite "
                "'compute_seconds' (or use 'ratio')"
            )
        requests, compute_seconds = explicit_requests, explicit_seconds

    return build_phase(
        name=str(phase_name),
        phase_index=index,
        pair_count=pairs,
        requests_per_memory_task=requests,
        compute_seconds_per_task=compute_seconds,
        footprint_bytes=footprint,
    )
