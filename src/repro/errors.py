"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems raise the narrower
subclasses below; each carries enough context in its message to diagnose
the failing configuration without a debugger.

:func:`check_int` and :func:`check_number` are the one type check every
layer runs on a numeric parameter (policy specs, sweep specs, the noise
model), so the layers reject the same values with the same messages.
"""

from __future__ import annotations

import math

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SchedulingError",
    "SimulationError",
    "TaskGraphError",
    "WorkloadError",
    "ModelError",
    "MeasurementError",
    "check_int",
    "check_number",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An invalid machine, memory-system, or policy configuration.

    Raised eagerly at construction time (e.g. a zero core count, an MTL
    outside ``[1, n]``, a negative latency) so that bad parameters never
    reach the simulator.
    """


class TaskGraphError(ReproError):
    """A malformed stream task graph (cycles, dangling dependencies)."""


class WorkloadError(ReproError):
    """A workload definition that cannot be realised as a stream program."""


class SchedulingError(ReproError):
    """An internal scheduling invariant was violated.

    This indicates a bug in a scheduling policy (e.g. more concurrent
    memory tasks than the MTL gate permits) rather than bad user input.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ModelError(ReproError):
    """Invalid inputs to the analytical performance model."""


class MeasurementError(ReproError):
    """A measurement protocol was given insufficient or invalid samples."""


def check_int(value: object, field: str) -> int:
    """``value`` if it is an int, else a :class:`ConfigurationError`.

    A bool is rejected (``bool`` subclasses ``int``); ``field`` names the
    parameter in the message, e.g. ``"policy spec key 'mtl'"``.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{field} must be an int, got {value!r}")
    return value


def check_number(value: object, field: str, *, finite: bool = True) -> float:
    """``value`` as a float, else a :class:`ConfigurationError` naming ``field``.

    A bool or a non-number is rejected, and an int past the float range
    reads as an infinity instead of raising a bare :class:`OverflowError`.
    With ``finite`` (the default) NaN and the infinities are rejected
    too: a NaN bound compares false everywhere and would still hash into
    a cache key.  Pass ``finite=False`` where the caller's own range
    check rejects them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{field} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf if value > 0 else -math.inf
    if finite and not math.isfinite(number):
        raise ConfigurationError(f"{field} must be finite, got {value!r}")
    return number
