"""Known-good: the signature slot freezes its input at the boundary."""

__all__ = ["SignatureTable"]


class SignatureTable:
    __slots__ = ("_sig_parts", "count")

    def __init__(self, parts):
        staged = list(parts)
        staged.append("normalized")
        self._sig_parts = tuple(staged)
        self.count = len(staged)
