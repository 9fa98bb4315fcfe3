"""Transitive-determinism rules (RPR601–RPR604).

The model layers (``sim``, ``memory``, ``stream``, ``core``) must be
pure functions of their inputs: the chaos-parity CI job diffs a
fault-injected parallel sweep against the fault-free serial run
byte-for-byte, and the memoization property tests assert cached ==
cold float-for-float.  Every function in a deterministic layer is a
reachability root, and any wall-clock read, OS-entropy draw,
environment read, or ``PYTHONHASHSEED``-dependent ``hash()`` the
project call graph can walk to from there is a finding, anchored at
the sink with the full call path printed.  A sink inside a
deterministic-layer function is the zero-length path (the folded ids
RPR101/RPR103/RPR104 are aliases of RPR601/RPR603/RPR604); a helper
one hop away — a root-level utility module, a shared formatter — is
the same finding with a longer path.
Wall-clock time is legitimate in ``runtime`` (it measures real
executions) because nothing in the model layers reaches it.

Global-RNG randomness is RPR102's, syntactically and in every layer;
RPR602 owns the disjoint OS-entropy sinks (``os.urandom``,
``uuid.uuid1/uuid4``, ``secrets.*``) its tables never covered.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from repro.lint.rules.base import ReachabilityRule
from repro.lint.rules.determinism import DETERMINISTIC_LAYERS

__all__ = [
    "TransitiveWallClockRule",
    "TransitiveEntropyRule",
    "TransitiveEnvironmentRule",
    "TransitiveHashRule",
]

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: OS-entropy sources (disjoint from RPR102's global-RNG tables).
_OS_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.choice",
        "secrets.randbelow",
        "secrets.randbits",
    }
)


class _TransitiveRule(ReachabilityRule):
    """Roots: every function in a deterministic layer."""

    family = "transitive-determinism"
    severity = "error"

    def roots(self, graph) -> Iterable[str]:
        return [node.key for node in graph.nodes_in_layers(DETERMINISTIC_LAYERS)]

    def message(self, detail: str, chain: str) -> str:
        return f"{detail} is reachable from the deterministic layers via: {chain}"


class TransitiveWallClockRule(_TransitiveRule):
    """RPR601: wall-clock sink reachable from a deterministic layer."""

    id = "RPR601"
    title = "wall-clock reachable from a deterministic layer"

    def sinks(self, node) -> Iterator[Tuple[int, str]]:
        for call in node.summary.calls:
            if call.canonical in _WALL_CLOCK:
                yield call.lineno, f"{call.canonical}()"


class TransitiveEntropyRule(_TransitiveRule):
    """RPR602: OS-entropy source reachable from a deterministic layer."""

    id = "RPR602"
    title = "OS entropy reachable from a deterministic layer"

    def sinks(self, node) -> Iterator[Tuple[int, str]]:
        for call in node.summary.calls:
            if call.canonical in _OS_ENTROPY:
                yield call.lineno, f"{call.canonical}()"


class TransitiveEnvironmentRule(_TransitiveRule):
    """RPR603: environment read reachable from a deterministic layer."""

    id = "RPR603"
    title = "environment read reachable from a deterministic layer"

    def sinks(self, node) -> Iterator[Tuple[int, str]]:
        for lineno in node.summary.env_reads:
            yield lineno, "an os.environ/os.getenv read"


class TransitiveHashRule(_TransitiveRule):
    """RPR604: built-in ``hash()`` reachable from a deterministic layer."""

    id = "RPR604"
    title = "built-in hash() reachable from a deterministic layer"

    def sinks(self, node) -> Iterator[Tuple[int, str]]:
        for lineno in node.summary.hash_calls:
            yield lineno, "a built-in hash() call"
