"""Known-bad: a memo-key field mutated in place outside construction."""
__all__ = ["SignatureBook"]


class SignatureBook:
    __slots__ = ("_sig_entries",)
    MEMO_KEY = ("_sig_entries",)

    def __init__(self, entries):
        self._sig_entries = list(entries)

    def widen(self, entry):
        self._sig_entries.append(entry)
