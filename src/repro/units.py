"""Unit helpers used throughout the library.

The simulator's base time unit is the **second** (floats), and the base
size unit is the **byte** (ints).  These helpers exist so that module
code and tests can write ``46.3 * NANOSECONDS`` or ``mebibytes(2)``
instead of raw exponents, and so that reports can render quantities in
the unit a reader expects.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = [
    "SECONDS",
    "MILLISECONDS",
    "MICROSECONDS",
    "NANOSECONDS",
    "KIB",
    "MIB",
    "GIB",
    "CACHE_LINE_BYTES",
    "REQUESTS",
    "EVENTS",
    "UNIT_CONSTANTS",
    "UNIT_PARAMS",
    "UNIT_POLYMORPHIC",
    "UNIT_RETURNS",
    "UNIT_SUFFIXES",
    "kibibytes",
    "mebibytes",
    "gibibytes",
    "cache_lines",
    "bytes_per_second",
    "requests_per_second",
    "per_second",
    "format_time",
    "format_bytes",
]

SECONDS = 1.0
MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Cache-line granularity of the modelled memory system (DDR3 burst to a
#: 64-byte line, the Nehalem line size used throughout the paper).
CACHE_LINE_BYTES = 64

#: Count dimensions for the open-system work (gateway -> server -> disk
#: tiers, arrival processes): ``3 * REQUESTS`` is a request count the
#: unit inference can track, same as ``2 * KIB`` is a byte count.
REQUESTS = 1
EVENTS = 1


#: Dimension of each constant above, keyed by its canonical dotted
#: name.  The dimensional-consistency lint rules (RPR8xx) seed their
#: inference from these tables, so a new constant or helper gets unit
#: checking by adding one entry here rather than editing the linter.
#: The SI time factors are *seconds-denominated* (``46.3 *
#: NANOSECONDS`` is a value in seconds), so they all carry "seconds".
UNIT_CONSTANTS = {
    "repro.units.SECONDS": "seconds",
    "repro.units.MILLISECONDS": "seconds",
    "repro.units.MICROSECONDS": "seconds",
    "repro.units.NANOSECONDS": "seconds",
    "repro.units.KIB": "bytes",
    "repro.units.MIB": "bytes",
    "repro.units.GIB": "bytes",
    "repro.units.CACHE_LINE_BYTES": "bytes",
    "repro.units.REQUESTS": "requests",
    "repro.units.EVENTS": "events",
}

#: Dimension of each helper's return value.  Derived dimensions use
#: the algebra's rendering (numerator ``*`` factors, then ``/`` and
#: the denominator): ``"bytes/seconds"`` is a transfer rate.
UNIT_RETURNS = {
    "repro.units.kibibytes": "bytes",
    "repro.units.mebibytes": "bytes",
    "repro.units.gibibytes": "bytes",
    "repro.units.cache_lines": "cache_lines",
    "repro.units.bytes_per_second": "bytes/seconds",
    "repro.units.requests_per_second": "requests/seconds",
}

#: Explicit per-parameter dimensions, keyed by the callable's canonical
#: dotted name.  These *seed and override* the interprocedural
#: inference in ``repro.lint.dimflow``: an entry here wins over both
#: the name-suffix convention and anything call sites pass in, so a
#: deliberately unsuffixed parameter (``n``) can still carry a
#: checkable unit.
UNIT_PARAMS = {
    "repro.units.format_bytes": {"n": "bytes"},
    "repro.units.format_time": {"seconds": "seconds"},
    "repro.units.cache_lines": {"footprint_bytes": "bytes"},
    "repro.units.bytes_per_second": {
        "moved_bytes": "bytes",
        "window_seconds": "seconds",
    },
    "repro.units.requests_per_second": {
        "count_requests": "requests",
        "window_seconds": "seconds",
    },
    # The stream/task layer counts *memory* requests, which are
    # cache-line granular in this model (one off-chip request per
    # 64-byte line, see ``cache_lines``) — not the open-system arrival
    # "requests" dimension the suffix convention would assign.  These
    # overrides record that contract so ``cache_lines(tile)`` flows
    # into them cleanly and a true arrival count would be flagged.
    "repro.stream.task.memory_task": {"requests": "cache_lines"},
    "repro.stream.task.compute_task": {"spilled_requests": "cache_lines"},
    "repro.stream.program.build_phase": {
        "requests_per_memory_task": "cache_lines",
        "compute_spill_requests": "cache_lines",
    },
}

#: Genuinely unit-polymorphic callables: their parameters accept any
#: dimension and their return unit depends on the argument's, so the
#: inference must neither pin their parameters from call sites nor
#: flag their internally "mixed" arithmetic.  ``per_second(count,
#: window)`` is the canonical case — it turns *any* count into a rate.
UNIT_POLYMORPHIC = frozenset(
    {
        "repro.units.per_second",
        "builtins.abs",
        "builtins.min",
        "builtins.max",
        "builtins.sum",
    }
)

#: Naming convention -> dimension.  A variable or attribute named
#: exactly ``seconds`` or ending in ``_seconds`` is a duration, and so
#: on.  Deliberately short and exact-match: generic suffixes ("lines",
#: "count") would tag names that never meant a unit.  Rate suffixes
#: map to the derived dimension the algebra produces for the matching
#: quotient, so ``drain_bytes_per_second = moved_bytes /
#: window_seconds`` checks out end to end.
UNIT_SUFFIXES = {
    "seconds": "seconds",
    "bytes": "bytes",
    "cycles": "cycles",
    "tasks": "tasks",
    "cache_lines": "cache_lines",
    "requests": "requests",
    "events": "events",
    "bytes_per_second": "bytes/seconds",
    "requests_per_second": "requests/seconds",
    "events_per_second": "events/seconds",
}


def kibibytes(n: float) -> int:
    """Return ``n`` KiB expressed in bytes."""
    return int(n * KIB)


def mebibytes(n: float) -> int:
    """Return ``n`` MiB expressed in bytes."""
    return int(n * MIB)


def gibibytes(n: float) -> int:
    """Return ``n`` GiB expressed in bytes."""
    return int(n * GIB)


def cache_lines(footprint_bytes: int) -> int:
    """Number of cache lines needed to cover ``footprint_bytes``.

    A memory task that gathers a footprint of ``footprint_bytes``
    issues one off-chip request per cache line.
    """
    if footprint_bytes < 0:
        # ConfigurationError, not ValueError: this helper runs inside
        # pool workers (sweep points build workloads there), and only
        # repro.errors types cross the process boundary cleanly.
        raise ConfigurationError(
            f"footprint must be non-negative, got {footprint_bytes}"
        )
    return (footprint_bytes + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES


def bytes_per_second(moved_bytes: float, window_seconds: float) -> float:
    """Transfer rate of ``moved_bytes`` drained over ``window_seconds``."""
    if window_seconds <= 0:
        raise ConfigurationError(
            f"rate window must be positive, got {window_seconds}"
        )
    return moved_bytes / window_seconds


def requests_per_second(count_requests: float, window_seconds: float) -> float:
    """Arrival/service rate of ``count_requests`` over ``window_seconds``."""
    if window_seconds <= 0:
        raise ConfigurationError(
            f"rate window must be positive, got {window_seconds}"
        )
    return count_requests / window_seconds


def per_second(count: float, window_seconds: float) -> float:
    """Rate of *any* count over ``window_seconds`` (unit-polymorphic).

    The returned value's dimension is ``<count's unit>/seconds``; the
    caller keeps track.  Listed in :data:`UNIT_POLYMORPHIC` so the
    lint inference does not pin ``count`` to any one dimension.
    """
    if window_seconds <= 0:
        raise ConfigurationError(
            f"rate window must be positive, got {window_seconds}"
        )
    return count / window_seconds


def format_time(seconds: float) -> str:
    """Render a duration with an auto-selected SI unit (ns/us/ms/s)."""
    magnitude = abs(seconds)
    if magnitude == 0.0:
        return "0 s"
    if magnitude < 1e-6:
        return f"{seconds / NANOSECONDS:.1f} ns"
    if magnitude < 1e-3:
        return f"{seconds / MICROSECONDS:.1f} us"
    if magnitude < 1.0:
        return f"{seconds / MILLISECONDS:.2f} ms"
    return f"{seconds:.3f} s"


def format_bytes(n: int) -> str:
    """Render a byte count with an auto-selected binary unit."""
    if n < 0:
        raise ConfigurationError(f"byte count must be non-negative, got {n}")
    if n < KIB:
        return f"{n} B"
    if n < MIB:
        return f"{n / KIB:.1f} KiB"
    if n < GIB:
        return f"{n / MIB:.1f} MiB"
    return f"{n / GIB:.2f} GiB"
