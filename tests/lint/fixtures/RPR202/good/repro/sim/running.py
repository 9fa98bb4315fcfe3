"""Known-good: loop-tracked state changes; declared fields never do."""

__all__ = ["RunningTask"]


class RunningTask:
    MEMO_KEY = ("core_id", "demand", "work_uses_cpu")

    def __init__(self, core_id, demand, overhead):
        self.core_id = core_id
        self.demand = demand
        self.overhead_remaining = overhead
        self.work_uses_cpu = demand > 0

    def drain(self, step):
        self.overhead_remaining -= step
        if self.overhead_remaining <= 0.0:
            self.overhead_remaining = 0.0
