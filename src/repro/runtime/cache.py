"""Content-addressed on-disk cache for sweep-point results.

A sweep point is fully determined by its declarative description —
``(workload spec, machine spec, policy spec, seed)`` — and the
simulator is deterministic given those (see
:mod:`repro.sim.simulator`), so the result of a point can be addressed
by a stable hash of its description.  :func:`stable_hash` canonicalises
the description to JSON (sorted keys, ``repr``-exact floats) and
SHA-256 hashes it.

:class:`ResultCache` keeps its entries in append-only bucket files, one
per two-hex-digit key prefix (``<directory>/3f.log`` holds every key
starting ``3f``, so at most 256 files), one line per record::

    <key> {"key": ..., "point": ..., "result": ..., "schema": 2}
    <key> {"quarantined": "<reason>"}

A key lives in exactly one bucket, and its newest line — the last one
written — is the one that counts.  Every instance, in every process,
appends through an ``O_APPEND`` open of the bucket, one whole line per
``os.write`` (continued only if the kernel takes part of it; the same
rule as :class:`~repro.runtime.telemetry.TelemetryWriter`), so
concurrent writers never tear each other's lines.  A lookup reads the
key's bucket and takes the key's last complete line; a partial
trailing line (a writer killed mid-write, or one still writing) is
never served.  Should a later line be appended behind one cut short
by a killed writer, the two read as one corrupt line of the first
key, quarantined like any other, and the second entry is recomputed.
Only the sweep parent reads or writes: pool workers never touch the
cache.

There is no in-memory index and no file handle outlives a call.  A
lookup reads its key's bucket, about 1/256 of the cache, unless it is
the bucket this instance read last and ``os.stat`` still reports the
same inode, size and modification time; then the bytes of that read
are reused.  Every store appends, and an append changes the bucket's
size, so a store by another instance or process is visible to the
next lookup, and memory holds at most one bucket however large the
cache grows.  Deleting a bucket is the one case the stat can miss:
if another instance or process clears the cache and re-stores a
bucket of the same size within one mtime tick, on a reused inode,
this instance keeps serving the bytes it read before the clear until
the bucket's stat changes (results are deterministic, so those bytes
nearly always hold what a re-run would store, but a cleared key can
be served as a hit).  A sweep looks its keys up in key order
(:class:`~repro.runtime.parallel.SweepExecutor`), so one bucket's
lookups are adjacent and each bucket is read once.  A fresh
directory gets at most 256 new files however many entries it holds
(file creation, not an append, is what costs; see
``docs/performance.md``).

A corrupt line — invalid JSON, not a result object, wrong or missing
schema version — is **quarantined**: counted in :class:`CacheStats`,
reported through the optional telemetry writer as a
``cache_quarantine`` event naming the bucket that holds it, and
reported to the caller as a miss so the point simply re-runs.  The
quarantine record appended for the key turns later lookups into plain
misses, in this process and in later ones, until the key is
re-stored.  Lines are never rewritten, so the evidence stays.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.runtime.telemetry import (
    _ENCODER,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryWriter,
)

__all__ = ["CACHE_SCHEMA_VERSION", "CacheStats", "ResultCache", "stable_hash"]

#: Bump to invalidate every existing cache entry when the simulator's
#: observable behaviour changes (the version participates in the key).
CACHE_SCHEMA_VERSION = 2

_KEY = re.compile(r"[0-9a-f]{8,}")
#: Bucket files: one per two-hex-digit key prefix.
_BUCKET_GLOB = "[0-9a-f][0-9a-f].log"
#: Every quarantine record starts with this (``json.dumps`` of a
#: one-key dict), so a lookup recognises one without parsing it.
_QUARANTINED = b'{"quarantined": '
#: What the ``corrupt`` fault appends as a key's payload: a record cut
#: off mid-write.
_TRUNCATED = '{"schema": '


#: ``json.dumps`` with any argument off its defaults builds a new
#: ``JSONEncoder`` per call; this one is built once.  A canonical form
#: is a tree :func:`_canonical` has just built, so it cannot hold a
#: cycle and the encoder skips the check.
_KEY_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def _canonical(value: Any) -> Any:
    """Normalise a value for hashing: keys as strings, floats exact.

    Floats are rewritten as ``repr`` strings so the canonical form is
    bit-exact (JSON float round-tripping is repr-faithful in Python 3,
    but being explicit keeps the key stable across serialisers), and
    integral floats hash differently from ints on purpose — a spec that
    changes type changes meaning.  Keys are not sorted here: the key
    encoder sorts them.  Of two keys with one ``str`` form, the one
    inserted last wins.
    """
    if isinstance(value, dict):
        return {
            k if type(k) is str else str(k): _canonical(v) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    raise ConfigurationError(
        f"cannot hash value of type {type(value).__name__}: {value!r}; "
        "sweep specs must be built from JSON-compatible scalars"
    )


def stable_hash(description: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``description``."""
    canonical = _KEY_ENCODER.encode(_canonical(description))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _check_key(key: str) -> None:
    if not _KEY.fullmatch(key):
        raise ConfigurationError(f"malformed cache key {key!r}")


@dataclass
class CacheStats:
    """Hit/miss/store/quarantine counters for one cache lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0


@dataclass
class ResultCache:
    """On-disk JSON store keyed by content address.

    Attributes:
        directory: Cache root; created on first write.
        stats: Lookup counters, reset per instance (the *process's*
            view of the cache, not the directory's lifetime history).
        telemetry: Optional JSON-lines sink; quarantines emit one
            ``cache_quarantine`` record each.

    An instance reuses the bytes of the bucket it read last while
    their stat is unchanged.  So after a :meth:`clear` by another
    instance or process, a bucket re-created with the inode, size and
    mtime of the one read is still served from the bytes read before
    the clear (see the module docstring).
    """

    directory: Union[str, pathlib.Path]
    stats: CacheStats = field(default_factory=CacheStats)
    telemetry: Optional[TelemetryWriter] = None
    #: The bucket read last: ``((path, inode, size, mtime_ns), bytes)``.
    _last: Optional[Tuple[Tuple[str, int, int, int], bytes]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.directory = pathlib.Path(self.directory)
        # A bucket path is ``_root + "<xx>.log"``, spelled as pathlib
        # spells a child of the directory ("" for ".").
        self._root = str(self.directory / "_")[:-1]

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload for ``key``, or ``None`` on miss.

        A corrupt newest line for ``key`` is quarantined — counted,
        telemetered, marked by an appended quarantine record — and
        reported as a miss so the point simply re-runs and re-stores.
        """
        _check_key(key)
        bucket = self._bucket(key)
        try:
            text = _newest_payload(self._bucket_bytes(bucket), key)
        except OSError:
            text = None  # nothing stored under this prefix
        if text is None or text.startswith(_QUARANTINED):
            self.stats.misses += 1
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            reason = "not valid JSON (torn or truncated write)"
        else:
            if not isinstance(payload, dict) or "result" not in payload:
                reason = "payload is not a result object"
            elif payload.get("schema") != CACHE_SCHEMA_VERSION:
                reason = (
                    f"schema version {payload.get('schema')!r} != "
                    f"{CACHE_SCHEMA_VERSION}"
                )
            else:
                self.stats.hits += 1
                return payload["result"]
        self.stats.misses += 1
        self._quarantine(key, bucket, reason)
        return None

    def put(self, key: str, result: Dict[str, Any], point: Optional[Dict[str, Any]] = None) -> None:
        """Append ``result`` (and optionally the point spec that
        produced it, for debuggability) as the newest line of ``key``."""
        _check_key(key)
        payload = {"schema": CACHE_SCHEMA_VERSION, "key": key, "result": result}
        if point is not None:
            payload["point"] = point
        self._append(key, _ENCODER.encode(payload))
        self.stats.stores += 1

    def append_truncated(self, key: str) -> None:
        """Fault injection: append a record for ``key`` cut off
        mid-write, which the next lookup of ``key`` must quarantine."""
        _check_key(key)
        self._append(key, _TRUNCATED)

    def clear(self) -> int:
        """Delete every bucket (quarantine records and evidence
        included) and any entry files of the older one-file-per-entry
        layout; returns how many files were removed.

        This instance forgets the bucket it read last, since a
        re-created bucket can reuse its inode, size and mtime.  Other
        instances cannot be told: one that read a bucket before the
        clear keeps serving those bytes while a re-created bucket
        matches their inode, size and mtime.
        """
        root = pathlib.Path(self.directory)
        self._last = None
        removed = 0
        for pattern in (_BUCKET_GLOB, "*/*.json", "*/*.json.corrupt", "*/*.tmp"):
            for entry in root.glob(pattern):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def _bucket(self, key: str) -> str:
        return self._root + key[:2] + ".log"

    def _bucket_bytes(self, bucket: str) -> bytes:
        """The bytes of ``bucket``: those of the last read while
        ``os.stat`` reports the same inode, size and mtime (an append
        changes the size), else a fresh read."""
        stat = os.stat(bucket)
        seen = (bucket, stat.st_ino, stat.st_size, stat.st_mtime_ns)
        if self._last is not None and self._last[0] == seen:
            return self._last[1]
        # Drop the old bytes first: the read then reuses their memory.
        self._last = None
        data = _read(bucket)
        self._last = (seen, data)
        return data

    def _append(self, key: str, text: str) -> None:
        """Append one whole line to ``key``'s bucket."""
        bucket = self._bucket(key)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(bucket, flags, 0o644)
        except FileNotFoundError:
            pathlib.Path(self.directory).mkdir(parents=True, exist_ok=True)
            fd = os.open(bucket, flags, 0o644)
        try:
            data = f"{key} {text}\n".encode()
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)

    def _quarantine(self, key: str, bucket: str, reason: str) -> None:
        """Count a corrupt line and mark ``key`` with a quarantine
        record, so later lookups are plain misses until a re-store."""
        self.stats.quarantined += 1
        try:
            self._append(key, json.dumps({"quarantined": reason}))
        except OSError:
            pass  # unmarked: the next lookup quarantines it again
        if self.telemetry is not None:
            self.telemetry.emit(
                {
                    "schema": TELEMETRY_SCHEMA_VERSION,
                    "event": "cache_quarantine",
                    "key": key,
                    "path": bucket,
                    "reason": reason,
                }
            )


def _read(bucket: str) -> bytes:
    fd = os.open(bucket, os.O_RDONLY)
    try:
        return os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)


def _newest_payload(data: bytes, key: str) -> Optional[bytes]:
    """The payload on the last complete line of ``key`` in ``data``."""
    end = data.rfind(b"\n")  # a partial trailing line is never read
    head = key.encode() + b" "
    start = data.rfind(b"\n" + head, 0, end) + 1
    if end < 0 or not data.startswith(head, start, end):
        return None
    return data[start + len(head):data.index(b"\n", start)]
