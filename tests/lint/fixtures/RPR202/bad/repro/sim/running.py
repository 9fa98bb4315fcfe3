"""Known-bad: a declared memo-key field reassigned in a method."""

__all__ = ["RunningTask"]


class RunningTask:
    MEMO_KEY = ("core_id", "demand", "work_uses_cpu")

    def __init__(self, core_id, demand, overhead):
        self.core_id = core_id
        self.demand = demand
        self.overhead_remaining = overhead
        self.work_uses_cpu = demand > 0

    def signature(self, active):
        if self.overhead_remaining > 0.0:
            self.work_uses_cpu = False
            return active
        return (active, self.demand)
