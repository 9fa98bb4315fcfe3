"""Telemetry-integrity rules (RPR301–RPR302).

The telemetry contract is bidirectional: every event a program emits
must be registered in
:data:`repro.runtime.telemetry.EVENT_SCHEMAS` (else
``validate_record`` rejects it at the first consumer), and every
registered schema must have an emit site (else it is dead weight that
``docs/telemetry.md`` and downstream dashboards still advertise).
``tests/runtime/test_telemetry_schema.py`` checks the first direction
dynamically for records a test run happens to produce; these rules
check **both** directions statically, for every emit site in the
corpus.

An *emit site* is a dict literal carrying an ``"event"`` key with a
string value (the shape every record the executor and the result
cache write takes); an ``event="..."`` keyword on a
``read_telemetry`` call is a *filter site* — it, too, must name a
registered event, but it does not count as emitting one.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileContext, Finding
from repro.lint.rules.base import Rule, call_name

__all__ = ["UnregisteredEventRule", "OrphanSchemaRule", "registered_events"]


def registered_events() -> Set[str]:
    """Event names registered in the live ``EVENT_SCHEMAS``."""
    from repro.runtime.telemetry import EVENT_SCHEMAS

    return set(EVENT_SCHEMAS)


def _emit_sites(tree: ast.Module) -> Iterator[Tuple[ast.AST, str, str]]:
    """Yield ``(node, event_name, kind)`` for every static event reference.

    ``kind`` is ``"emit"`` for dict-literal sites (records that will be
    written) and ``"filter"`` for ``event=`` keyword references (reads).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "event"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    yield value, value.value, "emit"
        elif isinstance(node, ast.Call) and call_name(node) == "read_telemetry":
            for keyword in node.keywords:
                if (
                    keyword.arg == "event"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                ):
                    yield keyword.value, keyword.value.value, "filter"


class _SchemaRule(Rule):
    """A rule that compares event names against a schema set: the one
    injected at construction, else the live ``EVENT_SCHEMAS``."""

    family = "telemetry"
    severity = "error"

    def __init__(self, schemas: Optional[Set[str]] = None) -> None:
        self._schemas = set(schemas) if schemas is not None else None

    def known_events(self) -> Set[str]:
        return self._schemas if self._schemas is not None else registered_events()

    def cache_inputs(self) -> Tuple[str, ...]:
        return tuple(sorted(self.known_events()))


class UnregisteredEventRule(_SchemaRule):
    """RPR301: event-name literal not present in ``EVENT_SCHEMAS``."""

    id = "RPR301"
    title = "event name not registered in EVENT_SCHEMAS"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        known = self.known_events()
        for node, name, kind in _emit_sites(ctx.tree):
            if name not in known:
                verb = "emitted" if kind == "emit" else "filtered on"
                yield self.finding(
                    ctx,
                    node,
                    f"event {name!r} is {verb} here but not registered in "
                    "EVENT_SCHEMAS; register it (and document it in "
                    "docs/telemetry.md) or the first validate_record call "
                    "will reject it",
                )


class OrphanSchemaRule(_SchemaRule):
    """RPR302: registered schema with no static emit site in the corpus.

    Corpus-level: the engine feeds every file's
    :class:`~repro.lint.graph.summary.ModuleSummary` (whose
    ``event_sites`` mirror :func:`_emit_sites`) through
    :meth:`consume_summary` — in the parent process, so ``--jobs``
    fan-out cannot lose the accumulated state — and the registry
    comparison happens in :meth:`finalize`.  To avoid screaming on
    partial corpora (``repro lint src/repro/units.py``), the check
    only arms itself when the corpus contains the ``EVENT_SCHEMAS``
    definition itself — or always, when a schema set was injected
    explicitly (tests and fixture corpora do this).
    """

    id = "RPR302"
    title = "registered event schema never emitted"
    corpus_level = True

    def __init__(self, schemas: Optional[Set[str]] = None) -> None:
        super().__init__(schemas)
        self._emitted: Dict[str, str] = {}
        self._defining_files: List[str] = []

    def consume_summary(self, summary) -> None:
        for name, kind, _lineno in summary.event_sites:
            if kind == "emit":
                self._emitted.setdefault(name, summary.path)
        if summary.defines_event_schemas:
            self._defining_files.append(summary.path)

    def finalize(self) -> Iterator[Finding]:
        if self._schemas is not None:
            known = self._schemas
            anchor = "<injected schemas>"
        elif self._defining_files:
            known = registered_events()
            anchor = self._defining_files[0]
        else:
            return  # partial corpus: the registry itself was not scanned
        for name in sorted(known - set(self._emitted)):
            yield Finding(
                rule=self.id,
                severity=self.severity,
                path=anchor,
                line=0,
                col=0,
                message=(
                    f"schema {name!r} is registered in EVENT_SCHEMAS but no "
                    "scanned file emits it (no dict literal with "
                    f'"event": "{name}"); delete the schema or wire up '
                    "its emitter"
                ),
            )
