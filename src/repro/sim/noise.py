"""Measurement and scheduling noise.

The paper takes pains to control noise on the real machine: service
routines are disabled, workloads run 20 times and the middle 10 runs
are averaged (Section V).  It also attributes the Online Exhaustive
baseline's mis-selections to "irregular scheduling overhead and the
impact of load imbalance" (Section VI-B).  To reproduce both effects
the simulator perturbs task durations with a seeded, multiplicative
jitter plus occasional OS-noise spikes, and charges a small dispatch
overhead per task.

All noise is deterministic given the seed, so experiments are exactly
repeatable.

numpy is imported by :func:`seeded_generator`, on the first seeded
stream a process builds, and not with this module: the noise-free
runs behind Figure 13 and the model checks never load it.  Parameters
are validated before that import, so a bad seed or a non-numeric,
boolean or non-finite parameter fails as a
:class:`~repro.errors.ConfigurationError` naming its field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import ConfigurationError, check_number
from repro.units import MICROSECONDS

if TYPE_CHECKING:
    import numpy

__all__ = [
    "NoiseModel",
    "ZeroNoise",
    "GaussianNoise",
    "noise_for_seed",
    "seeded_generator",
]


def seeded_generator(seed: int) -> "numpy.random.Generator":
    """numpy's default generator seeded with ``seed``, the stream
    behind every :class:`GaussianNoise`.

    numpy is imported here, at the first call, not with this module.
    A pool parent calls this before forking workers for seeded points,
    so they inherit numpy instead of each importing it.
    """
    import numpy

    return numpy.random.default_rng(seed)


@runtime_checkable
class NoiseModel(Protocol):
    """Protocol for task-level noise sources."""

    def duration_factor(self) -> float:
        """Multiplicative factor applied to one task's work (``> 0``)."""

    def dispatch_overhead(self) -> float:
        """Seconds of scheduler overhead charged when a task is dispatched."""


class ZeroNoise:
    """No noise: factors of exactly 1, zero overhead.

    Used for analytical-model corroboration where the paper's
    steady-state formulas must be matched to numerical precision.
    """

    def duration_factor(self) -> float:
        return 1.0

    def dispatch_overhead(self) -> float:
        return 0.0


@dataclass
class GaussianNoise:
    """Truncated-Gaussian duration jitter with rare OS-noise spikes.

    The defaults model the paper's deliberately quieted testbed
    (Section V disables "many of the service routines ... to reduce
    system noise"): sub-percent duration jitter, rare small spikes, a
    ~1 us dequeue-and-lock cost per task.

    Attributes:
        seed: RNG seed, a non-negative int; equal seeds give identical
            noise streams.
        sigma: Relative standard deviation of task-duration jitter.
        spike_probability: Chance a task absorbs an OS-noise spike
            (daemon wakeup, interrupt storm) that inflates it.
        spike_magnitude: Relative inflation of a spiked task.
        overhead_seconds: Mean dispatch (dequeue/lock) overhead.
    """

    seed: int = 0
    sigma: float = 0.005
    spike_probability: float = 0.002
    spike_magnitude: float = 0.25
    overhead_seconds: float = 1.0 * MICROSECONDS

    def __post_init__(self) -> None:
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigurationError(f"seed must be a non-negative int, got {seed!r}")
        for name in (
            "sigma", "spike_probability", "spike_magnitude", "overhead_seconds"
        ):
            value = getattr(self, name)
            if check_number(value, name) < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {value!r}"
                )
        if self.spike_probability > 1.0:
            raise ConfigurationError(
                f"spike_probability must be in [0, 1], got {self.spike_probability}"
            )
        self._rng = seeded_generator(seed)

    def duration_factor(self) -> float:
        factor = 1.0 + self.sigma * float(self._rng.standard_normal())
        factor = max(factor, 0.5)  # truncate: work cannot vanish
        if float(self._rng.random()) < self.spike_probability:
            factor *= 1.0 + self.spike_magnitude
        return factor

    def dispatch_overhead(self) -> float:
        # Exponential around the mean models lock-contention tails.
        return float(self._rng.exponential(self.overhead_seconds))


def noise_for_seed(seed: "int | None") -> "NoiseModel | None":
    """The canonical seed-to-noise mapping for sweep and measurement runs.

    ``None`` means a noise-free run (the simulator substitutes
    :class:`ZeroNoise`); an integer seeds a fresh, private
    :class:`GaussianNoise` stream.  Every execution path — the serial
    measurement protocol, the parallel sweep workers, the instrumented
    experiment runs — derives its noise through this one function, so
    per-point seeding has a single source of truth and no path can
    accidentally share RNG state across runs or processes.  (There is
    deliberately no module-level RNG anywhere in this package: each
    :class:`GaussianNoise` owns its generator, constructed here, in the
    process that runs the point.)
    """
    if seed is None:
        return None
    return GaussianNoise(seed=seed)
