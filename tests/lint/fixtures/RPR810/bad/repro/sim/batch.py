"""Known-bad: a byte count reaches a seconds parameter from a call
nested in a comprehension."""
from repro.sim.sink import schedule

__all__ = ["pace_all"]


def pace_all(items, footprint_bytes):
    return [schedule(footprint_bytes) for _ in items]
