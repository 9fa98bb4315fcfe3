"""Interprocedural effect propagation: SCC fixpoint over the call graph.

:class:`EffectAnalysis` runs on the shared interprocedural core
(:class:`~repro.lint.graph.dataflow.Interprocedural`: function table,
the graph's resolved calls, argument binding, SCC order, fixpoint
driver, witness search) and contributes only its lattice and transfer
function: callee effects fold into caller
:class:`~repro.lint.effects.model.EffectSignature` records one SCC at
a time, callees first; mutually recursive functions iterate to a
fixpoint, which terminates because every signature component only
grows within a finite universe.

Exception propagation is filtered per call site: a callee's raise is
dropped when any enclosing ``try`` at the site provably catches it —
judged against a hierarchy that chains the project's class table (via
:meth:`~repro.lint.graph.builder.ProjectGraph.class_hierarchy`) into a
hardcoded builtin exception tree.  An unresolvable raise type becomes
``⊤``; an unresolvable *handler* type is treated as catching
everything.  Both degradations push the analysis toward silence, never
toward a false finding.

The witness queries (:meth:`EffectAnalysis.raise_witness`,
:meth:`EffectAnalysis.mutation_witness`,
:meth:`EffectAnalysis.capture_witness`) reconstruct a deterministic
shortest call path from a root to the local site that justifies a
signature entry, so findings print the full offending chain.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.effects.model import (
    CATCH_ALL,
    TOP,
    EffectSignature,
    FunctionEffects,
    ParamCapture,
    ParamMutation,
)
from repro.lint.graph.dataflow import Interprocedural
from repro.lint.graph.summary import CallRef, ModuleSummary

__all__ = ["BUILTIN_EXCEPTION_PARENTS", "CATCH_ALL", "EffectAnalysis"]

#: Child -> parent for the builtin exception hierarchy (the chains the
#: catch filter can walk without importing anything).
BUILTIN_EXCEPTION_PARENTS: Dict[str, Optional[str]] = {
    "BaseException": None,
    "Exception": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
    "GeneratorExit": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "BlockingIOError": "OSError",
    "ChildProcessError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "FileExistsError": "OSError",
    "FileNotFoundError": "OSError",
    "InterruptedError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "PermissionError": "OSError",
    "ProcessLookupError": "OSError",
    "TimeoutError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
}


def _short(name: str) -> str:
    return name.rpartition(".")[2]


class EffectAnalysis(Interprocedural):
    """Effect signatures for every function in a linted corpus."""

    def __init__(self, graph, summaries: Sequence[ModuleSummary]) -> None:
        # The function table is the graph's: ``summaries`` are the ones
        # it was built from.
        super().__init__(graph, lambda function: function.effects)
        self._hierarchy = graph.class_hierarchy()
        self._canon_cache: Dict[Tuple[str, str, str], str] = {}
        self._locals = {key: self._local_signature(key) for key in self.keys()}
        self._signatures: Dict[str, EffectSignature] = dict(self._locals)
        self._solve(self._update)  # callees first, one SCC at a time

    # -- public queries ------------------------------------------------

    def signature(self, key: str) -> EffectSignature:
        """The signature of ``key`` — honest ``⊤`` when unanalyzed."""
        found = self._signatures.get(key)
        if found is not None:
            return found
        return EffectSignature(
            key=key, mutates_top=True, captures_top=True, raises_top=True
        )

    def function_effects(self, key: str) -> Optional[FunctionEffects]:
        return self._records.get(key)

    def is_repro_error(self, exc: str) -> bool:
        """Whether ``exc`` is (or derives from) a ``repro.errors`` type."""
        return any(
            ancestor.startswith("repro.errors.")
            for ancestor in self._ancestors(exc)
        )

    # -- witnesses -----------------------------------------------------

    def raise_witness(
        self, root: str, exc: str
    ) -> Optional[Tuple[Tuple[str, ...], str, int]]:
        """Shortest call path from ``root`` to an escaping raise of
        ``exc``: ``(path_keys, site_key, site_lineno)``."""

        def hit(key: str, _) -> Optional[int]:
            namespace = self._nodes[key].namespace
            raises = self._records[key].raises
            for site in sorted(raises, key=lambda s: s.lineno):
                found = self._canon_type(namespace, site.type, TOP)
                if found == exc and not self._is_caught(
                    found, site.caught, namespace
                ):
                    return site.lineno
            return None

        def step(key: str, _) -> Iterator[Tuple[str, str]]:
            namespace = self._nodes[key].namespace
            for call, callee, _ctor in self._resolved_calls(key):
                if exc in self._signatures[callee].raises and not (
                    self._is_caught(exc, call.caught, namespace)
                ):
                    yield callee, exc

        return self._witness(root, exc, hit, step)

    def mutation_witness(
        self, root: str, param: str
    ) -> Optional[Tuple[Tuple[str, ...], str, ParamMutation]]:
        """Shortest call path from ``root`` (tracking ``param`` through
        argument positions) to a local mutation of it."""
        return self._param_witness(
            root, param, lambda fx: fx.mutations, whole_object=False
        )

    def capture_witness(
        self, root: str, param: str
    ) -> Optional[Tuple[Tuple[str, ...], str, ParamCapture]]:
        """Like :meth:`mutation_witness`, for retained references."""
        return self._param_witness(
            root, param, lambda fx: fx.captures, whole_object=True
        )

    def _param_witness(self, root: str, param: str, sites_of, whole_object):
        """Witness search tracking the object bound to ``param`` through
        argument positions (only whole-object bindings for a capture)
        to the first local site ``sites_of`` lists for it."""

        def hit(key: str, name):
            sites = sites_of(self._records[key])
            for site in sorted(sites, key=lambda s: s.lineno):
                if site.param == name:
                    return site
            return None

        def step(key: str, name) -> Iterator[Tuple[str, str]]:
            for call, callee, ctor in self._resolved_calls(key):
                for callee_param, (src_param, src_field) in self._mapping(
                    call, callee, ctor
                ).items():
                    if src_param == name and not (whole_object and src_field):
                        yield callee, callee_param

        return self._witness(root, param, hit, step)

    # -- calls -----------------------------------------------------------

    def _resolved_calls(
        self, key: str
    ) -> Iterator[Tuple[CallRef, str, Optional[str]]]:
        """``(call, callee, constructor)`` per resolved call target."""
        for call, targets in self.calls(key):
            for callee, ctor in targets or ():
                yield call, callee, ctor

    def _mapping(
        self, call: CallRef, callee: str, ctor: Optional[str]
    ) -> Dict[str, Tuple[str, str]]:
        """Callee param name -> the caller ``(param, field)`` bound to it."""
        return {
            name: arg.alias
            for name, arg in self.bind(call, callee, ctor, receiver=True)
            if arg.alias is not None
        }

    # -- type canonicalization and catching ----------------------------

    def _canon_type(self, namespace: str, name: str, default: str) -> str:
        """Canonical exception name, or ``default`` when unresolvable.

        ``default`` is :data:`~repro.lint.effects.model.TOP` for raise
        types (we don't know what escapes) and :data:`CATCH_ALL` for
        handler types (we must assume it catches everything) — both
        degrade toward silence.
        """
        if name == TOP:
            return default
        cache_key = (namespace, name, default)
        cached = self._canon_cache.get(cache_key)
        if cached is not None:
            return cached
        canonical = self._graph.resolve_type(namespace, name)
        if canonical is None:
            short = _short(name)
            if short in BUILTIN_EXCEPTION_PARENTS:
                canonical = short
            else:
                canonical = default
        self._canon_cache[cache_key] = canonical
        return canonical

    def _ancestors(self, name: str) -> List[str]:
        seen: List[str] = []
        stack = [name]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.append(current)
            stack.extend(self._hierarchy.get(current, ()))
            parent = BUILTIN_EXCEPTION_PARENTS.get(_short(current))
            if parent is not None:
                stack.append(parent)
        return seen

    def _is_caught(
        self, exc: str, caught: Tuple[str, ...], namespace: str
    ) -> bool:
        if not caught:
            return False
        ancestors = None
        for raw in caught:
            if raw == CATCH_ALL:
                return True
            handler = self._canon_type(namespace, raw, CATCH_ALL)
            if handler == CATCH_ALL:
                return True
            if exc == TOP:
                # Unknown exceptions are assumed Exception-derived.
                if handler in ("Exception", "BaseException"):
                    return True
                continue
            if ancestors is None:
                ancestors = self._ancestors(exc)
            if handler in ancestors:
                return True
        return False

    # -- fixpoint ------------------------------------------------------

    def _local_signature(self, key: str) -> EffectSignature:
        fx = self._records[key]
        namespace = self._nodes[key].namespace
        raises: Set[str] = set()
        raises_top = False
        for site in fx.raises:
            found = self._canon_type(namespace, site.type, TOP)
            if self._is_caught(found, site.caught, namespace):
                continue
            if found == TOP:
                raises_top = True
            else:
                raises.add(found)
        return EffectSignature(
            key=key,
            mutates=frozenset((m.param, m.field) for m in fx.mutations),
            captures=frozenset(c.param for c in fx.captures),
            raises=frozenset(raises),
            raises_top=raises_top,
        )

    def _propagate(self, key: str, local: EffectSignature) -> EffectSignature:
        """The transfer function: ``local`` joined with what every
        resolved callee does to the objects this call hands it."""
        namespace = self._nodes[key].namespace
        mutates = set(local.mutates)
        captures = set(local.captures)
        raises = set(local.raises)
        mutates_top = local.mutates_top
        captures_top = local.captures_top
        raises_top = local.raises_top
        for call, targets in self.calls(key):
            if targets is None:
                # Unknown callee: honest ⊤ for anything handed to it.
                if (
                    call.receiver is not None
                    or any(arg.alias is not None for arg in call.args)
                    or any(arg.alias is not None for _, arg in call.kwargs)
                ):
                    mutates_top = True
                    captures_top = True
                if not self._is_caught(TOP, call.caught, namespace):
                    raises_top = True
                continue
            for callee, ctor in targets:
                csig = self._signatures[callee]
                for exc in csig.raises:
                    if not self._is_caught(exc, call.caught, namespace):
                        raises.add(exc)
                if csig.raises_top and not self._is_caught(
                    TOP, call.caught, namespace
                ):
                    raises_top = True
                mapping = self._mapping(call, callee, ctor)
                if not mapping:
                    continue
                mutates_top = mutates_top or csig.mutates_top
                captures_top = captures_top or csig.captures_top
                for param, fieldname in csig.mutates:
                    source = mapping.get(param)
                    if source is not None:
                        src_param, src_field = source
                        mutates.add((src_param, src_field or fieldname))
                for param in csig.captures:
                    source = mapping.get(param)
                    if source is not None and source[1] == "":
                        captures.add(source[0])
        return EffectSignature(
            key=key,
            mutates=frozenset(mutates),
            captures=frozenset(captures),
            raises=frozenset(raises),
            mutates_top=mutates_top,
            captures_top=captures_top,
            raises_top=raises_top,
        )

    def _update(self, key: str) -> bool:
        updated = self._propagate(key, self._locals[key])
        if updated == self._signatures[key]:
            return False
        self._signatures[key] = updated
        return True
