"""Known-good: widening replaces the object instead of mutating it."""
__all__ = ["SignatureBook"]


class SignatureBook:
    __slots__ = ("_sig_entries",)
    MEMO_KEY = ("_sig_entries",)

    def __init__(self, entries):
        self._sig_entries = tuple(entries)

    def widened(self, entry):
        return SignatureBook(list(self._sig_entries) + [entry])
