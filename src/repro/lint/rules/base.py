"""Rule plugin API and shared AST helpers.

A rule is a class with class-level metadata (stable ``id``, human
``title``, ``severity``, ``autofixable``, an optional ``layers``
scope) and two hooks:

* :meth:`Rule.check` — called once per file with a
  :class:`~repro.lint.engine.FileContext`; yields findings;
* :meth:`Rule.finalize` — called once after every file, for rules
  whose invariant spans the corpus (e.g. the orphan-schema check).

Corpus-spanning rules set ``corpus_level = True``: their ``check`` is
never shipped to ``--jobs`` worker processes (worker rule instances
are discarded, so state accumulated there would be lost).  Instead
the engine feeds them every file's picklable
:class:`~repro.lint.graph.summary.ModuleSummary` through
:meth:`Rule.consume_summary`, in deterministic file order, before
``finalize``.  Rules that additionally set ``needs_graph = True``
receive the assembled
:class:`~repro.lint.graph.builder.ProjectGraph` through
:meth:`Rule.consume_graph` (the graph is built once per run and
shared).  :class:`CorpusRule` holds the findings such a rule gathers
until ``finalize``; :class:`ReachabilityRule` is the shared base of
every "no call path from these roots reaches this sink" invariant.

Per-file rules that resolve names (``np.random.rand``) use the file's
one :class:`~repro.lint.graph.summary.ImportTable`, which canonicalises
call targets through the file's imports, so ``from random import
random as draw`` cannot dodge the randomness rule while a local
variable that merely *shadows* ``random`` does not false-positive.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.lint.engine import FileContext, Finding
from repro.lint.graph.summary import dotted as dotted_name

__all__ = [
    "CorpusRule",
    "ReachabilityRule",
    "Rule",
    "call_name",
    "dotted_name",
    "finding_at",
]


class Rule:
    """Base class for lint rules; subclasses set the class attributes."""

    id: str = "RPR000"
    title: str = ""
    family: str = ""
    severity: str = "error"
    autofixable: bool = False
    #: Restrict to these architectural layers (None = every file).
    layers: Optional[frozenset] = None
    #: True: the rule accumulates cross-file state.  Its ``check`` never
    #: runs (in workers or otherwise); it sees the corpus through
    #: :meth:`consume_summary` and reports from :meth:`finalize`.
    corpus_level: bool = False
    #: True: the rule wants the project call graph; implies the engine
    #: builds one and calls :meth:`consume_graph` before ``finalize``.
    needs_graph: bool = False
    #: True: the rule wants transitive effect signatures; the engine
    #: then runs the SCC fixpoint once per run and calls
    #: :meth:`consume_effects` (after :meth:`consume_graph`, before
    #: ``finalize``).  Set ``needs_graph`` too — the analysis is built
    #: on the project graph.
    needs_effects: bool = False
    #: True: the rule wants interprocedural unit signatures; the engine
    #: then runs the unit fixpoint once per run and calls
    #: :meth:`consume_units` (after :meth:`consume_effects`, before
    #: ``finalize``).  Set ``needs_graph`` too — the analysis resolves
    #: calls through the project graph.
    needs_units: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        return self.layers is None or ctx.layer in self.layers

    def cache_inputs(self) -> Tuple[str, ...]:
        """Values from outside :mod:`repro.lint` this rule's findings
        depend on.  The ``--cache-dir`` keys fold them in (see
        :mod:`repro.lint.cache`), so a change to them misses every
        cached entry that depends on this rule."""
        return ()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        return iter(())

    def consume_summary(self, summary: "ModuleSummary") -> None:  # noqa: F821
        """Observe one file's summary (corpus-level rules only)."""

    def consume_graph(self, graph: "ProjectGraph") -> None:  # noqa: F821
        """Observe the assembled project graph (``needs_graph`` rules)."""

    def consume_effects(self, analysis: "EffectAnalysis") -> None:  # noqa: F821
        """Observe the effect-signature fixpoint (``needs_effects`` rules)."""

    def consume_units(self, analysis: "UnitAnalysis") -> None:  # noqa: F821
        """Observe the unit-signature fixpoint (``needs_units`` rules)."""

    def finalize(self) -> Iterator[Finding]:
        """Yield corpus-level findings after every file was checked."""
        return iter(())

    # ------------------------------------------------------------------

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
    ) -> Finding:
        return finding_at(
            rule=self.id,
            severity=self.severity,
            ctx=ctx,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", -1) + 1,
            message=message,
        )


class CorpusRule(Rule):
    """Base of corpus-level rules: findings gathered while the corpus
    is consumed, reported (and cleared) by :meth:`finalize`."""

    corpus_level = True

    def __init__(self) -> None:
        self._findings: List[Finding] = []

    def finalize(self) -> Iterator[Finding]:
        findings, self._findings = self._findings, []
        return iter(findings)


class ReachabilityRule(CorpusRule):
    """Base of the roots -> reachable -> sinks rules.

    Subclasses name the roots (:meth:`roots`) and the sink sites inside
    one function (:meth:`sinks`); every sink in a function the project
    call graph can reach from a root is one finding, anchored at the
    sink, with the shortest call path printed (a sink inside a root is
    the zero-length case) and carried as the finding's
    ``source_line``, so baselines key on *which chain* reaches it.
    """

    needs_graph = True

    def roots(self, graph) -> Iterable[str]:
        """Node keys the invariant starts from."""
        return ()

    def sinks(self, node) -> Iterator[Tuple[int, str]]:
        """``(lineno, description)`` for each sink inside ``node``."""
        return iter(())

    def message(self, detail: str, chain: str) -> str:
        return f"{detail} is reachable via: {chain}"

    def consume_graph(self, graph) -> None:
        paths = graph.reachable_from(self.roots(graph))
        for key in sorted(paths):
            node = graph.node(key)
            for line, detail in self.sinks(node):
                chain = graph.render_path(paths[key])
                self._findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=node.path,
                        line=line,
                        col=0,
                        message=self.message(detail, chain),
                        source_line=chain,
                    )
                )


def finding_at(
    rule: str,
    severity: str,
    ctx: FileContext,
    line: int,
    col: int,
    message: str,
) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        path=ctx.display_path,
        line=line,
        col=col,
        message=message,
        source_line=ctx.line_text(line),
    )


def call_name(node: ast.Call) -> Optional[str]:
    """Bare callee name of a call (``f(...)`` or ``pkg.f(...)`` -> last part)."""
    name = dotted_name(node.func)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]
