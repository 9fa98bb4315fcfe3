"""The repeated-run measurement protocol (Section V of the paper).

"To further reduce the influence of system noises, we run each
workload 20 times in sequence and average the results of the middle 10
runs (for corner case elimination)."  :func:`middle_mean` implements
the trimmed average; :func:`measure_makespan` implements the protocol
end to end with independently seeded noise per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import MeasurementError
from repro.sim.machine import Machine, i7_860
from repro.sim.noise import NoiseModel, noise_for_seed
from repro.sim.scheduler import ThrottlePolicyPlugin
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram

__all__ = ["middle_mean", "RepeatedMeasurement", "measure_makespan"]


def middle_mean(values: List[float], keep: int = 10) -> float:
    """Mean of the middle ``keep`` values after sorting.

    With fewer than ``keep`` values the plain mean is returned (the
    protocol degenerates gracefully for quick runs).
    """
    if not values:
        raise MeasurementError("middle_mean of an empty sample")
    if keep < 1:
        raise MeasurementError(f"keep must be >= 1, got {keep}")
    ordered = sorted(values)
    if len(ordered) <= keep:
        return sum(ordered) / len(ordered)
    drop = (len(ordered) - keep) // 2
    middle = ordered[drop : drop + keep]
    return sum(middle) / len(middle)


@dataclass(frozen=True)
class RepeatedMeasurement:
    """Outcome of a repeated-run measurement.

    Attributes:
        makespans: Every run's makespan, in run order.
        value: The middle-mean makespan (the reported number).
    """

    makespans: Tuple[float, ...]
    value: float

    @property
    def runs(self) -> int:
        return len(self.makespans)


def measure_makespan(
    program: StreamProgram,
    policy_factory: Callable[[], ThrottlePolicyPlugin],
    machine: Optional[Machine] = None,
    runs: int = 20,
    keep: int = 10,
    base_seed: int = 0,
    noise_factory: Optional[Callable[[int], NoiseModel]] = None,
) -> RepeatedMeasurement:
    """Run the paper's 20-run / middle-10 protocol.

    Args:
        program: Workload to measure.
        policy_factory: Builds a *fresh* policy per run (dynamic
            policies are stateful and must not be reused).
        machine: Target machine (defaults to the 1-DIMM i7-860).
        runs: Sequential runs (20 in the paper).
        keep: Middle runs averaged (10 in the paper).
        base_seed: Noise seeds are ``base_seed + run_index``.
        noise_factory: Maps a seed to a noise model; defaults to the
            canonical :func:`~repro.sim.noise.noise_for_seed` mapping
            shared with the parallel sweep executor, so a seed means
            the same noise stream on every execution path.
    """
    if runs < 1:
        raise MeasurementError(f"runs must be >= 1, got {runs}")
    target = machine if machine is not None else i7_860()
    make_noise = noise_factory if noise_factory is not None else noise_for_seed
    makespans: List[float] = []
    for run_index in range(runs):
        simulator = Simulator(target, noise=make_noise(base_seed + run_index))
        result = simulator.run(program, policy_factory())
        makespans.append(result.makespan)
    return RepeatedMeasurement(
        makespans=tuple(makespans), value=middle_mean(makespans, keep=keep)
    )
