"""Known-good: the memo-key field freezes its input at the boundary."""
__all__ = ["SignatureTable"]


class SignatureTable:
    __slots__ = ("_sig_parts", "count")
    MEMO_KEY = ("_sig_parts",)

    def __init__(self, parts):
        staged = list(parts)
        staged.append("normalized")
        self._sig_parts = tuple(staged)
        self.count = len(staged)
