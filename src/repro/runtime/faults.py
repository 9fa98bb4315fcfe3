"""Deterministic fault injection for sweep executions.

A measurement harness is only as trustworthy as its worst case: a
worker that crashes mid-point, hangs forever, raises a transient
error, or leaves a corrupt cache entry behind must never change a
published number.  This module provides the *chaos side* of that
guarantee — a :class:`FaultPlan` that injects exactly those failures,
reproducibly, so the failure-mode tests in
``tests/runtime/test_faults.py`` and the CI chaos job can assert that
a sweep under injected faults converges to rows bit-identical to the
fault-free run.

Determinism contract
--------------------

Every injection decision is a pure function of ``(plan seed, point
key, attempt number)`` hashed through SHA-256 — no wall clock, no
global RNG, no process state.  The same plan against the same sweep
therefore injects the same faults on every run, and ``jobs=1`` replays
are exactly reproducible, fault events included.  (At ``jobs>1`` the
*decisions* are still deterministic per ``(key, attempt)``, but the
interleaving of fault events in the telemetry log follows worker
scheduling, and a crashed worker takes its innocent pool-mates'
in-flight points down with it — they are resubmitted without consuming
one of their own attempts.)

Fault kinds
-----------

``crash``
    The worker process dies abruptly (``os._exit``) — in pool mode
    this breaks the :class:`~concurrent.futures.ProcessPoolExecutor`
    and exercises the executor's pool-respawn path; in serial mode it
    is simulated as an in-process :class:`WorkerCrash`.
``hang``
    The worker sleeps ``hang_seconds`` before running the point — long
    enough to trip the executor's per-point timeout when one is set,
    in which case the attempt is abandoned and retried; with no
    timeout (or ``hang_seconds`` below it) the worker is merely slow
    and the point succeeds without consuming an attempt.  Serial mode
    mirrors both outcomes without sleeping (an in-process hang cannot
    be preempted, and sleeping would only slow the replay): a hang the
    timeout would catch becomes a timeout-equivalent fault, any other
    hang runs the point normally — so ``jobs=1`` and ``jobs=N`` chaos
    runs degrade the same points.
``error``
    The worker raises a transient
    :class:`~repro.errors.MeasurementError`, exercising the bounded
    retry path.
``corrupt``
    The freshly stored cache entry for the point is truncated on disk,
    exercising the cache's quarantine-and-re-verify path on the next
    lookup.  Decided per key (no attempt number) so a corrupted key
    stays corrupted across a whole plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError, check_int, check_number

__all__ = [
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_ERROR",
    "FAULT_CORRUPT",
    "INJECTED_CRASH_EXIT_CODE",
    "FaultPlan",
    "PointFailure",
    "WorkerCrash",
    "backoff_schedule",
]

FAULT_CRASH = "crash"
FAULT_HANG = "hang"
FAULT_ERROR = "error"
FAULT_CORRUPT = "cache_corrupt"

#: Exit code an injected crash kills the worker process with; chosen
#: to be recognisable in CI logs and distinct from Python's own codes.
INJECTED_CRASH_EXIT_CODE = 87


class WorkerCrash(Exception):
    """An injected worker crash, simulated in-process (serial mode)."""


def _uniform(seed: int, salt: str) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from ``(seed, salt)``."""
    digest = hashlib.sha256(f"{seed}|{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def backoff_schedule(attempt: int, base: float, cap: float = 30.0) -> float:
    """Deterministic exponential backoff: ``base * 2**attempt``, capped.

    ``attempt`` is the 0-based attempt that just failed, so the first
    retry waits ``base``, the second ``2 * base``, and so on.  No
    jitter on purpose: the schedule must replay identically.
    """
    if attempt < 0:
        raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
    if base <= 0.0:
        return 0.0
    return min(base * (2.0**attempt), cap)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault-injection schedule for one sweep.

    Attributes:
        seed: Plan seed; the only source of variation between plans
            with equal rates.
        crash_rate / hang_rate / error_rate: Per-attempt probability of
            the worker crashing, hanging, or raising a transient error
            before the point runs.  The three partition a single
            uniform draw, so their sum must be <= 1.
        corrupt_rate: Per-key probability that the cache entry written
            for a point is corrupted after the store.
        hang_seconds: How long an injected hang sleeps in a pool
            worker; make it exceed the executor's ``timeout`` to
            exercise the timeout path, keep it below to exercise
            slow-but-recovering workers.
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    corrupt_rate: float = 0.0
    hang_seconds: float = 2.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "error_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= check_number(rate, name) <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {rate!r}"
                )
        total = self.crash_rate + self.hang_rate + self.error_rate
        if total > 1.0:
            raise ConfigurationError(
                "crash_rate + hang_rate + error_rate must be <= 1, got "
                f"{total!r}"
            )
        check_int(self.seed, "seed")
        # Finite: a NaN would disable hangs, an infinity overflow sleep().
        if check_number(self.hang_seconds, "hang_seconds") <= 0:
            raise ConfigurationError(
                f"hang_seconds must be > 0, got {self.hang_seconds!r}"
            )

    #: spec-string fields accepted by :meth:`parse`, mapped to the
    #: dataclass attribute and the coercion applied.
    _SPEC_FIELDS = {
        "seed": ("seed", int),
        "crash": ("crash_rate", float),
        "hang": ("hang_rate", float),
        "error": ("error_rate", float),
        "corrupt": ("corrupt_rate", float),
        "hang_seconds": ("hang_seconds", float),
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI fault spec like ``seed=7,crash=0.2,error=0.1``.

        Keys: ``seed``, ``crash``, ``hang``, ``error``, ``corrupt``
        (rates in [0, 1]) and ``hang_seconds``.  Unknown or malformed
        keys raise :class:`~repro.errors.ConfigurationError` naming the
        offender.
        """
        kwargs: Dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigurationError(
                    f"fault spec entry {part!r} is not of the form key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in cls._SPEC_FIELDS:
                raise ConfigurationError(
                    f"unknown fault spec key {key!r}; use "
                    + " | ".join(sorted(cls._SPEC_FIELDS))
                )
            attr, caster = cls._SPEC_FIELDS[key]
            try:
                kwargs[attr] = caster(raw.strip())
            except ValueError:
                raise ConfigurationError(
                    f"fault spec key {key!r} needs a {caster.__name__}, "
                    f"got {raw.strip()!r}"
                ) from None
        return cls(**kwargs)

    def describe(self) -> Dict[str, Any]:
        """JSON-compatible summary (telemetry, debugging)."""
        return {
            "seed": self.seed,
            "crash_rate": self.crash_rate,
            "hang_rate": self.hang_rate,
            "error_rate": self.error_rate,
            "corrupt_rate": self.corrupt_rate,
            "hang_seconds": self.hang_seconds,
        }

    @property
    def injects_execution_faults(self) -> bool:
        return (self.crash_rate + self.hang_rate + self.error_rate) > 0.0

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The fault (if any) injected into ``(key, attempt)``.

        Returns :data:`FAULT_CRASH`, :data:`FAULT_HANG`,
        :data:`FAULT_ERROR`, or ``None``.  Pure and deterministic; the
        executor calls it parent-side so the telemetry record of every
        injection exists even when the worker dies before reporting.
        """
        if not self.injects_execution_faults:
            return None
        draw = _uniform(self.seed, f"{key}|{attempt}|inject")
        if draw < self.crash_rate:
            return FAULT_CRASH
        if draw < self.crash_rate + self.hang_rate:
            return FAULT_HANG
        if draw < self.crash_rate + self.hang_rate + self.error_rate:
            return FAULT_ERROR
        return None

    def corrupts(self, key: str) -> bool:
        """Whether the cache entry stored for ``key`` gets corrupted."""
        if self.corrupt_rate <= 0.0:
            return False
        return _uniform(self.seed, f"{key}|corrupt") < self.corrupt_rate


@dataclass(frozen=True)
class PointFailure:
    """A sweep point that exhausted its retries.

    Carried in input order through
    :meth:`~repro.runtime.parallel.SweepExecutor.run` results instead
    of aborting the sweep: downstream consumers (suite, experiment,
    CLI) degrade gracefully — they skip the affected rows, record the
    failure, and keep every healthy number bit-identical.

    Attributes:
        label: Echoed from the failed point.
        key: Content-address of the failed point.
        attempts: Total attempts consumed (first try + retries).
        reason: Human-readable cause of the *last* failed attempt.
    """

    label: str
    key: str
    attempts: int
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "key": self.key,
            "attempts": self.attempts,
            "reason": self.reason,
        }
