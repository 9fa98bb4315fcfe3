"""Effect-signature rule families (RPR901–RPR907).

Three families built on the transitive
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
* **mutation-after-freeze** (RPR904–RPR905): objects stored into
  memo-signature slots (``_sig*`` / the
  :data:`~repro.lint.rules.memosafety.MEMO_KEY_FIELDS` slots of a
  ``__slots__`` class) are hashed once; mutating the stored object
  afterwards — through any alias — silently desynchronizes the memo
  key from the state it describes.  RPR202 owns the *direct*
  ``self._sig... = x`` reassignment; these rules own what it cannot
  see: capture-then-mutate flows and interior/aliased mutation.
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
from repro.lint.rules.memosafety import _REBUILD_METHODS, is_memo_key_slot

__all__ = [
    "PolicyHookArgumentMutationRule",
    "PolicyHookReferenceRetentionRule",
    "PolicyHookGlobalWriteRule",
    "PostCaptureMutationRule",
    "SignatureInteriorMutationRule",
    "WorkerExceptionEscapeRule",
    "DeterministicBareExceptionRule",
]

#: Module-level tuple naming the policy plugin contract's hook methods
#: (``repro/core/plugin.py`` carries the real one; fixture corpora
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

#: Direct ``self.<slot> = x`` / ``self.<slot> += x`` reassignment is
#: RPR202's, syntactically; RPR905 owns every other mutation shape.
_DIRECT_REASSIGN_KINDS = frozenset({"store-attr", "augstore"})


def _protected_slots(cls) -> FrozenSet[str]:
    """Memo-signature slot names of one class (RPR202's scoping)."""
    if cls.slots is None:
        return frozenset()
    return frozenset(name for name in cls.slots if is_memo_key_slot(name))


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


class _MemoEffectRule(CorpusRule):
    """Shared scoping for RPR904–RPR905: per-class protected slots."""

    def consume_summary(self, summary) -> None:
        if summary.layer in _SKIPPED_LAYERS:
            return
        protected_by_class = {
            cls.name: _protected_slots(cls) for cls in summary.classes
        }
        for function in summary.functions:
            if function.effects is None or function.class_name is None:
                continue
            protected = protected_by_class.get(function.class_name)
            if not protected:
                continue
            self._collect(summary, function, protected)

    def _collect(self, summary, function, protected: FrozenSet[str]) -> None:
        raise NotImplementedError


class PostCaptureMutationRule(_MemoEffectRule):
    """RPR904: object mutated after capture into a signature slot."""

    id = "RPR904"
    title = "object mutated after capture into a memo-signature slot"
    family = "mutation-after-freeze"
    severity = "error"

    def _collect(self, summary, function, protected: FrozenSet[str]) -> None:
        # Applies in constructors too: capture-then-mutate is ordering
        # sensitive, and a ctor that appends after storing has already
        # handed the memo a moving target.
        for cm in function.effects.capture_mutations:
            if cm.attr not in protected:
                continue
            chain = cm.chain()
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=summary.path,
                    line=cm.lineno,
                    col=0,
                    message=(
                        f"self.{cm.attr} captured {cm.name!r} at line "
                        f"{cm.capture_lineno}, and the captured object is "
                        f"mutated here ({cm.kind}); the stored signature "
                        "now aliases mutable state — store a copy, or "
                        "finish building the object before capturing it — "
                        f"alias chain: {chain}"
                    ),
                    source_line=(
                        f"{function.qualname}: {cm.kind} on {cm.name} after "
                        f"capture into self.{cm.attr} via {chain}"
                    ),
                )
            )


class SignatureInteriorMutationRule(_MemoEffectRule):
    """RPR905: interior or aliased mutation of a signature slot."""

    id = "RPR905"
    title = "memo-signature slot mutated in place or through an alias"
    family = "mutation-after-freeze"
    severity = "error"

    def _collect(self, summary, function, protected: FrozenSet[str]) -> None:
        method = function.qualname.rpartition(".")[2]
        if method in _REBUILD_METHODS:
            return  # construction/unpickle legitimately build the slots
        receiver = function.params[0] if function.params else None
        if receiver is None:
            return
        for mutation in function.effects.mutations:
            if mutation.param != receiver:
                continue
            if mutation.field not in protected:
                continue
            direct = mutation.via == (receiver,)
            if direct and mutation.kind in _DIRECT_REASSIGN_KINDS:
                continue  # the syntactic reassignment is RPR202's
            chain = mutation.chain()
            shape = (
                f"in-place ({mutation.kind})"
                if not (mutation.kind in _DIRECT_REASSIGN_KINDS)
                else f"through an alias ({mutation.kind})"
            )
            self._findings.append(
                Finding(
                    rule=self.id,
                    severity=self.severity,
                    path=summary.path,
                    line=mutation.lineno,
                    col=0,
                    message=(
                        f"{function.class_name}.{mutation.field} feeds a memo "
                        f"signature but is mutated {shape} in {method}(); "
                        "signature slots are frozen after construction "
                        "(the snapshot memo has no invalidation path) — "
                        f"alias chain: {chain}"
                    ),
                    source_line=(
                        f"{function.qualname}: {mutation.kind} on "
                        f"{function.class_name}.{mutation.field} via {chain}"
                    ),
                )
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
