"""Known-bad: a list is mutated after capture into a memo-key field."""
__all__ = ["SignatureTable"]


class SignatureTable:
    __slots__ = ("_sig_parts", "count")
    MEMO_KEY = ("_sig_parts",)

    def __init__(self, parts):
        self._sig_parts = parts
        self.count = len(parts)
        parts.append("late")
