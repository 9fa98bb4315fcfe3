"""Known-bad: memo-key fields reassigned after construction."""
__all__ = []

class Running:
    __slots__ = ("remaining", "demand", "_sig_work")
    MEMO_KEY = ("demand", "_sig_work")

    def __init__(self, demand):
        self.remaining = 1.0
        self.demand = demand
        self._sig_work = (demand,)

    def rebind(self, demand):
        self.demand = demand
        self._sig_work = (demand,)
