"""Known-bad: declared fields stored through a constructor-bound local."""

from repro.sim.running import RunningTask

__all__ = ["dispatch"]


def dispatch(population, core_id, demand):
    rt = RunningTask(core_id, demand, 0.0)
    rt.work_uses_cpu = True
    rt.core_id += 1
    rt.demand, spare = divmod(demand, 2)
    population.append(rt)
    return rt, spare
