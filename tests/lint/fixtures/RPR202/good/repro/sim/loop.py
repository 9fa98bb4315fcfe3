"""Known-good: a constructor-bound local writes loop-tracked state."""

from repro.sim.running import RunningTask

__all__ = ["dispatch"]


def dispatch(population, core_id, demand):
    rt = RunningTask(core_id, demand, 1.0)
    rt.overhead_remaining = 0.0
    rt.overhead_remaining += 0.5
    population.append(rt)
    return rt
