"""Effect-signature rule families (RPR901–RPR903, RPR906–RPR907).

Two families built on the transitive
:class:`~repro.lint.effects.fixpoint.EffectAnalysis` (rules that set
``needs_effects``), on graph reachability (RPR903, like the pool-safety
global-write rule), or directly on each function summary's
:class:`~repro.lint.effects.model.FunctionEffects` record (rules
whose invariant is local to one function body):

* **plugin-contract** (RPR901–RPR903): throttling-policy hooks are
  observers.  The contract's hook names are discovered from a
  module-level ``POLICY_HOOKS = ("setup", ...)`` tuple (the same
  annotation idiom as ``POOL_BOUNDARY``), policy classes from the
  class hierarchy under any hook-defining class in a declaring
  module.  A hook that mutates a simulator-owned argument —
  transitively, through helpers and aliases — retains a mutable
  reference, or writes module globals breaks replay: the simulator
  hands hooks live ``RunningTask``/machine state and assumes it comes
  back untouched.
* **exception-flow** (RPR906–RPR907): exceptions crossing the
  process-pool boundary must be ``repro.errors`` types (builtin
  tracebacks pickle poorly and lose run context), and deterministic
  layers may not raise bare ``Exception``/``BaseException`` (callers
  cannot catch those deliberately without catching everything).

Every transitive finding prints the witness — the alias chain and the
shortest call path that justify it — and the analysis
under-approximates (unknown callees are ``⊤``, never evidence), so
the families report only provable violations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.lint.engine import Finding
from repro.lint.rules.base import CorpusRule, ReachabilityRule
from repro.lint.rules.determinism import DETERMINISTIC_LAYERS

__all__ = [
    "PolicyHookArgumentMutationRule",
    "PolicyHookReferenceRetentionRule",
    "PolicyHookGlobalWriteRule",
    "WorkerExceptionEscapeRule",
    "DeterministicBareExceptionRule",
]

#: Module-level tuple naming the policy plugin contract's hook methods
#: (``repro/sim/scheduler.py`` carries the real one; fixture corpora
#: declare their own).  The same machine-readable-annotation idiom as
#: ``POOL_BOUNDARY``.
_POLICY_HOOKS_NAME = "POLICY_HOOKS"

#: Layers whose files never host production policies or memo state.
_SKIPPED_LAYERS = frozenset({"tests", "unknown"})

#: Exception types allowed to escape a pool-worker entry besides
#: ``repro.errors`` ancestry: the abstract-hook idiom and the
#: interpreter-control exceptions the executor itself handles.
_SANCTIONED_WORKER_EXCEPTIONS = frozenset(
    {
        "NotImplementedError",
        "KeyboardInterrupt",
        "SystemExit",
        "GeneratorExit",
    }
)


def _ancestors(
    canonical: str, hierarchy: Dict[str, Tuple[str, ...]]
) -> Set[str]:
    """Inclusive ancestor set of a canonical class name."""
    seen: Set[str] = set()
    stack = [canonical]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(hierarchy.get(current, ()))
    return seen


def _policy_surface(graph) -> Tuple[FrozenSet[str], List[Tuple[str, object]]]:
    """``(hook names, [(namespace, ClassSummary), ...])`` of the
    policy-plugin contract, or empty when no module declares one."""
    hooks: Set[str] = set()
    bases: Set[str] = set()
    modules = graph.module_summaries()
    for namespace in sorted(modules):
        summary = modules[namespace]
        declared: Set[str] = set()
        for name, values in summary.string_tuples:
            if name == _POLICY_HOOKS_NAME:
                declared.update(values)
        if not declared:
            continue
        hooks.update(declared)
        for cls in summary.classes:
            if declared.intersection(cls.methods):
                bases.add(f"{namespace}.{cls.name}")
    if not hooks or not bases:
        return frozenset(), []
    hierarchy = graph.class_hierarchy()
    policies: List[Tuple[str, object]] = []
    for namespace in sorted(modules):
        for cls in modules[namespace].classes:
            if _ancestors(f"{namespace}.{cls.name}", hierarchy) & bases:
                policies.append((namespace, cls))
    return frozenset(hooks), policies


def _policy_hooks(graph) -> Iterator[Tuple[str, object, object, str]]:
    """``(key, node, class, hook)`` for every hook method every policy
    class defines, outside the test and unknown layers."""
    hooks, policies = _policy_surface(graph)
    for namespace, cls in policies:
        for hook in sorted(hooks):
            key = f"{namespace}::{cls.name}.{hook}"
            node = graph.node(key)
            if node is not None and node.layer not in _SKIPPED_LAYERS:
                yield key, node, cls, hook


class _PolicyContractRule(CorpusRule):
    """Shared discovery for RPR901–RPR902: hand every hook method of
    every policy class to :meth:`_check_hook`."""

    needs_graph = True
    needs_effects = True

    def __init__(self) -> None:
        super().__init__()
        self._graph = None

    def consume_graph(self, graph) -> None:
        self._graph = graph

    def consume_effects(self, analysis) -> None:
        if self._graph is None:
            return
        for key, node, cls, hook in _policy_hooks(self._graph):
            if node.summary.effects is not None:
                self._check_hook(analysis, key, node, cls, hook)

    def _check_hook(self, analysis, key, node, cls, hook) -> None:
        raise NotImplementedError


class PolicyHookArgumentMutationRule(_PolicyContractRule):
    """RPR901: policy hook mutates a simulator-owned argument."""

    id = "RPR901"
    title = "policy hook mutates a simulator-owned argument"
    family = "plugin-contract"
    severity = "error"

    def _check_hook(self, analysis, key, node, cls, hook) -> None:
        params = node.summary.params
        receiver = params[0] if params else None
        by_param: Dict[str, Set[str]] = {}
        for param, fieldname in analysis.signature(key).mutates:
            if param != receiver:
                by_param.setdefault(param, set()).add(fieldname)
        for param in sorted(by_param):
            witness = analysis.mutation_witness(key, param)
            if witness is None:
                continue  # not locally provable: stay silent
            path_keys, site_key, mutation = witness
            fields = ", ".join(
                name or "<the object itself>"
                for name in sorted(by_param[param])
            )
            chain = mutation.chain()
            rendered = analysis.render_path(path_keys)
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=analysis.node_path(site_key) or node.path,
                    line=mutation.lineno,
                    col=0,
                    message=(
                        f"policy hook {cls.name}.{hook}() mutates its "
                        f"{param!r} argument ({fields}); hooks observe "
                        "simulator state, they never edit it — alias "
                        f"chain: {chain}; call path: {rendered}"
                    ),
                    source_line=(
                        f"{cls.name}.{hook} mutates {param} via {chain}"
                    ),
                )
            )


class PolicyHookReferenceRetentionRule(_PolicyContractRule):
    """RPR902: policy hook retains a reference to an argument."""

    id = "RPR902"
    title = "policy hook retains a mutable argument reference"
    family = "plugin-contract"
    severity = "error"

    def _check_hook(self, analysis, key, node, cls, hook) -> None:
        params = node.summary.params
        receiver = params[0] if params else None
        immutable = set(node.summary.effects.immutable_params)
        for param in sorted(analysis.signature(key).captures):
            if param == receiver:
                continue
            if param in immutable:
                # An ``int``/``str``-annotated argument is a value;
                # storing it retains no mutable simulator state.
                continue
            witness = analysis.capture_witness(key, param)
            if witness is None:
                continue
            path_keys, site_key, capture = witness
            chain = capture.chain()
            rendered = analysis.render_path(path_keys)
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=analysis.node_path(site_key) or node.path,
                    line=capture.lineno,
                    col=0,
                    message=(
                        f"policy hook {cls.name}.{hook}() retains a "
                        f"reference to its {param!r} argument (stored "
                        f"into {capture.dest}); a kept reference lets "
                        "the policy read or mutate simulator state after "
                        "the hook returned — copy the values you need "
                        f"instead — alias chain: {chain}; call path: "
                        f"{rendered}"
                    ),
                    source_line=(
                        f"{cls.name}.{hook} retains {param} in "
                        f"{capture.dest} via {chain}"
                    ),
                )
            )


class PolicyHookGlobalWriteRule(ReachabilityRule):
    """RPR903: policy hook writes module globals (directly or through
    anything it can reach)."""

    id = "RPR903"
    title = "policy hook writes module globals"
    family = "plugin-contract"
    severity = "error"

    def roots(self, graph) -> Iterable[str]:
        return [key for key, _, _, _ in _policy_hooks(graph)]

    def sinks(self, node) -> Iterator[Tuple[int, str]]:
        for name, lineno in node.summary.global_writes:
            yield lineno, f"module global {name!r}"

    def message(self, detail: str, chain: str) -> str:
        return (
            f"{detail} is written by policy-hook code; policy state "
            "belongs on the instance (module globals survive across runs "
            f"and break replay isolation) — call path: {chain}"
        )


class WorkerExceptionEscapeRule(CorpusRule):
    """RPR906: non-``repro.errors`` exception escapes a pool worker."""

    id = "RPR906"
    title = "builtin exception can escape a pool-worker entry"
    family = "exception-flow"
    severity = "error"
    needs_graph = True
    needs_effects = True

    def __init__(self) -> None:
        super().__init__()
        self._graph = None

    def consume_graph(self, graph) -> None:
        self._graph = graph

    def consume_effects(self, analysis) -> None:
        graph = self._graph
        if graph is None:
            return
        for key in graph.worker_entry_keys():
            node = graph.node(key)
            if node is None:
                continue
            signature = analysis.signature(key)
            for exc in sorted(signature.raises):
                if exc in _SANCTIONED_WORKER_EXCEPTIONS:
                    continue
                if analysis.is_repro_error(exc):
                    continue
                witness = analysis.raise_witness(key, exc)
                if witness is None:
                    continue  # not reconstructible: stay silent
                path_keys, site_key, lineno = witness
                rendered = analysis.render_path(path_keys)
                self._findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=analysis.node_path(site_key) or node.path,
                        line=lineno,
                        col=0,
                        message=(
                            f"{exc} can escape pool-worker entry "
                            f"{node.label()}(); exceptions crossing the "
                            "process-pool boundary must be repro.errors "
                            "types (builtin tracebacks lose run context "
                            "and pickle poorly) — convert at the raise "
                            f"site or catch at the boundary — raised "
                            f"via: {rendered}"
                        ),
                        source_line=(
                            f"{exc} escapes {node.label()} via {rendered}"
                        ),
                    )
                )


class DeterministicBareExceptionRule(CorpusRule):
    """RPR907: deterministic layer raises bare ``Exception``."""

    id = "RPR907"
    title = "bare Exception raised in a deterministic layer"
    family = "exception-flow"
    severity = "error"

    def consume_summary(self, summary) -> None:
        if summary.layer not in DETERMINISTIC_LAYERS:
            return
        for function in summary.functions:
            if function.effects is None:
                continue
            for site in function.effects.raises:
                if site.kind != "explicit":
                    continue
                if site.type not in ("Exception", "BaseException"):
                    continue
                self._findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=summary.path,
                        line=site.lineno,
                        col=0,
                        message=(
                            f"bare {site.type} raised in "
                            f"{function.qualname}(); deterministic layers "
                            "raise specific repro.errors types so "
                            "callers can catch deliberately instead of "
                            "catching everything"
                        ),
                        source_line=(
                            f"raise {site.type} in {function.qualname}"
                        ),
                    )
                )
