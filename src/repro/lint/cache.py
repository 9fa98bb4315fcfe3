"""Content-hash incremental cache for the per-file lint pass.

``repro lint --cache-dir DIR`` persists each file's
:class:`~repro.lint.engine.FileScan` keyed by a SHA-256 of the file's
*bytes* plus a run token (cache-format version, the per-file rule ids,
the known suppression ids, and whether summaries are extracted).  A
warm run therefore skips parsing and per-file rules for every
unchanged file and is byte-identical to a cold run: the cache stores
the per-file pass's exact product, and everything downstream (corpus
rules, graph, effects, baseline) runs fresh either way.

Keying by content rather than mtime makes the cache immune to
checkout churn (``git checkout`` rewrites timestamps, not bytes), and
folding the rule ids and :data:`LINT_CACHE_VERSION` into the key means
a rule-set change or an engine upgrade invalidates every entry
without needing a manifest or a cleanup pass.

Entries are pickles of frozen dataclasses this package itself
produced; the directory is engine-private (it is in
``EXCLUDED_DIR_NAMES`` spirit — point ``--cache-dir`` outside the
linted tree or at ``.repro-cache``, which the walker skips).  A stale
or corrupt entry deserializing to garbage is treated as a miss, never
an error: the cache is an accelerator, not a source of truth.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Iterable, Optional, Set

from repro.lint.engine import FileScan

__all__ = ["LINT_CACHE_VERSION", "ScanCache", "cache_token"]

#: Bump whenever the per-file pass's behaviour changes in a way the
#: rule-id list cannot express (new extraction fields, changed
#: suppression semantics, FileScan shape).  Bumping orphans every old
#: entry, which is exactly the point.
#: v4: one per-file walk — one ``CallRef`` per call carries the
#: argument aliases and unit terms, and each function summary carries
#: its effect and unit facts; imports are bound up front.
#: v5: a class summary carries its ``MEMO_KEY`` fields, not its slots.
LINT_CACHE_VERSION = 5


def cache_token(
    rules: Iterable["Rule"],  # noqa: F821 — repro.lint.rules.base
    known_ids: Set[str],
    need_summary: bool,
) -> str:
    """Run token folded into every cache key.

    Everything the per-file pass's output depends on, beyond the file
    bytes themselves: the cache-format version, which per-file rules
    run, which ids suppressions may name, and whether a
    :class:`~repro.lint.graph.summary.ModuleSummary` is extracted.
    """
    parts = [
        f"v{LINT_CACHE_VERSION}",
        ",".join(sorted(rule.id for rule in rules)),
        ",".join(sorted(known_ids)),
        f"summary={int(need_summary)}",
    ]
    return "|".join(parts)


class ScanCache:
    """One ``--cache-dir`` directory of pickled :class:`FileScan` entries."""

    def __init__(self, directory: Path, token: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._token = token
        self.hits = 0
        self.misses = 0

    def key(self, display_path: str, content: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(self._token.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(display_path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(content)
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.scan"

    def load(self, key: str) -> Optional[FileScan]:
        """Return the cached scan for ``key``, or ``None`` on any miss.

        Unreadable or undeserializable entries count as misses — a
        corrupt cache must never be able to fail (or skew) a run.
        """
        try:
            payload = self._entry_path(key).read_bytes()
            scan = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self.misses += 1
            return None
        if not isinstance(scan, FileScan):
            self.misses += 1
            return None
        self.hits += 1
        return scan

    def store(self, key: str, scan: FileScan) -> None:
        """Persist ``scan`` atomically (tmp file + rename).

        Concurrent runs sharing a cache directory therefore never
        observe a half-written entry; best-effort — an unwritable
        cache degrades to cold scans, it does not fail the run.
        """
        target = self._entry_path(key)
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(scan, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, target)
        except OSError:
            pass
