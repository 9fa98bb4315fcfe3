"""Content-hash cache for ``repro lint --cache-dir``: file scans and run records.

One ``--cache-dir`` directory holds two kinds of entry:

* a *scan entry* (``<key>.scan``) is one file's
  :class:`~repro.lint.engine.FileScan`, keyed by a SHA-256 of the run
  token, the file's display path and its *bytes*.  A run skips
  parsing and per-file rules for every unchanged file.
* a *run record* (``<key>.run``) is the result of a whole run: every
  finding after suppression and before ``--rule``/baseline filtering,
  plus the suppressed count.  It is keyed by a SHA-256 of the run
  token, the corpus rules (ids and inputs) and every file's scan key
  in file order.  A run whose record matches loads no scan entry and
  builds no project graph, effect or unit analysis; ``enabled`` and
  the baseline filter the stored findings, so runs that differ only
  in those share one record.  Editing, adding, removing or renaming a
  file misses the record: that run loads the unchanged files' scan
  entries, reruns the whole-program phase over every summary, and
  stores a new record.

Runs with ``want_graph`` or ``want_units`` (``--graph-output``,
``--units-output``) bypass records, reading and writing none, because
they need the graph or the unit table themselves; so does a run with
an unreadable file, which has no key.  Warm runs of either kind are
byte-identical to cold ones.

The run token (:func:`cache_token`) is derived, not versioned by hand:
it digests this package's own sources, the Python version, the
per-file rules, the known suppression ids, the summary flag and the
values the lint code reads from outside its package: each rule's
:meth:`~repro.lint.rules.base.Rule.cache_inputs` (the event names the
telemetry rules compare against) and the unit tables of
:mod:`repro.units`.  Changing any of them orphans every entry, which
is exactly the point.  Keying by content rather than mtime makes the
cache immune to checkout churn (``git checkout`` rewrites timestamps,
not bytes).

Neither kind of entry is ever evicted: orphans stay on disk until the
directory is removed.  Entries are pickles of frozen dataclasses this
package itself produced; the directory is engine-private (point
``--cache-dir`` outside the linted tree or at ``.repro-cache``, which
the walker skips).  A stale or corrupt entry deserializing to garbage
is treated as a miss, never an error: the cache is an accelerator, not
a source of truth.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Set, Tuple

from repro import units
from repro.lint.engine import FileScan, Finding

__all__ = ["RunRecord", "ScanCache", "cache_token", "source_digest"]

#: Pickles and ``ast`` output may differ between interpreter versions.
_PYTHON_VERSION = "{}.{}".format(*sys.version_info[:2])


@dataclass(frozen=True)
class RunRecord:
    """Cached result of one whole run, before ``--rule``/baseline filtering."""

    findings: Tuple[Finding, ...]
    suppressed: int


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over every ``repro/lint/**/*.py`` source, once per process."""
    package = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


def _rule_inputs(rules: Iterable["Rule"]) -> str:  # noqa: F821
    return repr(sorted((rule.id, rule.cache_inputs()) for rule in rules))


def cache_token(
    rules: Iterable["Rule"],  # noqa: F821 — repro.lint.rules.base
    known_ids: Set[str],
    need_summary: bool,
) -> str:
    """Run token folded into every cache key.

    Everything the per-file pass's output depends on beyond the file
    itself, and everything the whole-program phase reads besides the
    summaries and its corpus rules: the lint sources, the Python
    version, which per-file ``rules`` run and their inputs, which ids
    suppressions may name, whether a
    :class:`~repro.lint.graph.summary.ModuleSummary` is extracted, and
    the unit tables.
    """
    parts = [
        source_digest(),
        _PYTHON_VERSION,
        _rule_inputs(rules),
        ",".join(sorted(known_ids)),
        f"summary={int(need_summary)}",
        repr(
            [
                units.UNIT_CONSTANTS,
                units.UNIT_RETURNS,
                units.UNIT_PARAMS,
                sorted(units.UNIT_POLYMORPHIC),
                units.UNIT_SUFFIXES,
            ]
        ),
    ]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


class ScanCache:
    """One ``--cache-dir`` directory of pickled scan entries and run records."""

    def __init__(self, directory: Path, token: str) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._token = token
        self.hits = 0

    def key(self, display_path: str, content: bytes) -> str:
        digest = hashlib.sha256()
        digest.update(self._token.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(display_path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(content)
        return digest.hexdigest()

    def run_key(
        self,
        corpus_rules: Iterable["Rule"],  # noqa: F821
        keys: Sequence[str],
    ) -> str:
        """Key of the run record over files with these scan ``keys``."""
        digest = hashlib.sha256()
        digest.update(self._token.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(_rule_inputs(corpus_rules).encode("utf-8"))
        for key in keys:
            digest.update(b"\x00")
            digest.update(key.encode("utf-8"))
        return digest.hexdigest()

    def load(self, key: str) -> Optional[FileScan]:
        """Return the cached scan for ``key``, or ``None`` on any miss."""
        scan = self._read(f"{key}.scan", FileScan)
        if scan is not None:
            self.hits += 1
        return scan

    def load_run(self, key: str) -> Optional[RunRecord]:
        """Return the run record for ``key``, or ``None`` on any miss."""
        return self._read(f"{key}.run", RunRecord)

    def store(self, key: str, scan: FileScan) -> None:
        self._write(f"{key}.scan", scan)

    def store_run(
        self, key: str, findings: Sequence[Finding], suppressed: int
    ) -> None:
        self._write(f"{key}.run", RunRecord(tuple(findings), suppressed))

    def _read(self, name: str, kind: type):
        """Unpickle entry ``name`` if it holds a ``kind``, else ``None``.

        Unreadable or undeserializable entries count as misses — a
        corrupt cache must never be able to fail (or skew) a run.
        """
        try:
            value = pickle.loads((self.directory / name).read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return None
        return value if isinstance(value, kind) else None

    def _write(self, name: str, value: object) -> None:
        """Persist ``value`` atomically (tmp file + rename).

        Concurrent runs sharing a cache directory therefore never
        observe a half-written entry; best-effort — an unwritable
        cache degrades to cold scans, it does not fail the run.
        """
        try:
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self.directory / name)
        except OSError:
            pass
