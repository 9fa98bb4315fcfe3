"""Known-bad: a byte count reaches a seconds parameter from a call
nested in a dict display."""
from repro.sim.sink import schedule

__all__ = ["pacing"]


def pacing(footprint_bytes):
    return {"delay": schedule(footprint_bytes)}
