"""Project symbol table and call graph, assembled from file summaries.

One :class:`ProjectGraph` is built per lint run (the engine caches it
and hands it to every rule that sets ``needs_graph``).  Construction
is a single pass over the :class:`~repro.lint.graph.summary.ModuleSummary`
list: index every module's functions, classes, and aliases, then
resolve each recorded call to a node key.

Resolution order for a call (first match wins):

1. the import-canonical dotted path (``repro.sim.engine.tick`` ->
   longest known module prefix + symbol/method lookup);
2. ``self.x`` / ``cls.x`` inside a method -> the method in its own
   class, then depth-first through resolvable base classes;
3. ``var.x`` where ``var`` was built by a resolvable constructor in
   the same scope -> the method on that class;
4. a bare name -> the module's own defs, then its aliases, then its
   ``from x import name`` bindings, then (uniquely) star-imports.

Anything else — ``getattr(...)()`` dynamic dispatch, calls through
containers, attribute chains on unknown objects — degrades to an
*unknown callee*: counted, serialized, and never guessed at, so the
graph under-approximates rather than over-reports.  Constructor calls
edge into ``__init__`` and ``__post_init__`` when the class defines
them.  Each call is resolved once, here: the node keeps the callees
of every call it makes (:attr:`FunctionNode.callees`), and both
fixpoint analyses read those instead of resolving again, so they walk
exactly the edges the reachability rules do.  First-order callables
passed as arguments (``pool.submit(fn, ...)``, ``map(fn, xs)``)
produce ``ref`` edges from the caller: the callee may invoke them, so
reachability must assume it does.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.lint.graph.summary import (
    ArgRef,
    CallRef,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
)

__all__ = ["CallSite", "Callees", "Edge", "FunctionNode", "ProjectGraph"]

#: Call receivers that mark a process-pool boundary crossing.
_POOL_CLASSES = ("ProcessPoolExecutor",)
#: Methods on a pool that take a callable as their first argument.
_POOL_METHODS = frozenset({"submit", "map"})
#: Module-level tuple annotating extra worker entry points.
_BOUNDARY_NAME = "POOL_BOUNDARY"
#: Methods a constructor call runs, in order, when the class defines them.
_CONSTRUCTORS = ("__init__", "__post_init__")

#: Resolved targets of one call: ``(callee key, constructor name or
#: None)`` pairs (``()`` for a class that defines no constructor), or
#: ``None`` for an unknown callee.
Callees = Optional[Tuple[Tuple[str, Optional[str]], ...]]


@dataclass(frozen=True)
class Edge:
    """One resolved call edge.  ``kind`` is ``"call"`` for a direct
    invocation and ``"ref"`` for a first-order callable argument."""

    to: str
    lineno: int
    kind: str = "call"


@dataclass
class FunctionNode:
    """One function (or module scope) in the project graph."""

    key: str
    namespace: str
    path: str
    layer: str
    summary: FunctionSummary
    edges: List[Edge] = field(default_factory=list)
    unknown_callees: List[str] = field(default_factory=list)
    #: The resolved targets of each of ``summary.calls``, in order.
    callees: List[Callees] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        return self.summary.qualname

    def label(self) -> str:
        """Human-readable name used in call-path renderings."""
        if self.namespace.endswith(".py") or "/" in self.namespace:
            return f"{self.path}::{self.qualname}"
        return f"{self.namespace}.{self.qualname}"


@dataclass(frozen=True)
class CallSite:
    """One pool-boundary call site (``pool.submit(...)``/``pool.map``)."""

    node_key: str
    call: CallRef
    method: str


class ProjectGraph:
    """Whole-project call graph with reachability queries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self._modules: Dict[str, ModuleSummary] = {}
        self._nodes: Dict[str, FunctionNode] = {}
        self._classes: Dict[Tuple[str, str], ClassSummary] = {}
        self._pool_sites: List[CallSite] = []
        self.files_summarized = len(summaries)
        for summary in summaries:
            namespace = summary.module or summary.path
            # Later duplicates (two files claiming one module name can
            # only happen in pathological corpora) keep the first.
            self._modules.setdefault(namespace, summary)
            for function in summary.functions:
                key = f"{namespace}::{function.qualname}"
                if key in self._nodes:
                    continue
                self._nodes[key] = FunctionNode(
                    key=key,
                    namespace=namespace,
                    path=summary.path,
                    layer=summary.layer,
                    summary=function,
                )
            for cls in summary.classes:
                self._classes.setdefault((namespace, cls.name), cls)
        self._resolve_all()

    # -- queries ----------------------------------------------------------

    def __iter__(self) -> Iterator[FunctionNode]:
        for key in sorted(self._nodes):
            yield self._nodes[key]

    def node(self, key: str) -> Optional[FunctionNode]:
        return self._nodes.get(key)

    def nodes_in_layers(self, layers: Iterable[str]) -> List[FunctionNode]:
        wanted = set(layers)
        return [node for node in self if node.layer in wanted]

    def pool_call_sites(self) -> List[CallSite]:
        """Every resolved ``pool.submit``/``pool.map`` call site."""
        return list(self._pool_sites)

    def worker_entry_keys(self) -> List[str]:
        """Node keys that execute inside pool worker processes.

        The union of every resolvable first callable argument at a
        pool call site and every function named by a module-level
        ``POOL_BOUNDARY`` tuple (the explicit annotation for
        boundaries the resolver cannot see).
        """
        keys = set()
        for site in self._pool_sites:
            target = self._first_callable(site)
            if target is not None:
                keys.add(target.key)
        for namespace, summary in self._modules.items():
            for name, values in summary.string_tuples:
                if name != _BOUNDARY_NAME:
                    continue
                for value in values:
                    node = self._nodes.get(f"{namespace}::{value}")
                    if node is not None:
                        keys.add(node.key)
        return sorted(keys)

    def module_summaries(self) -> Dict[str, ModuleSummary]:
        """Namespace -> module summary (annotation discovery)."""
        return dict(self._modules)

    def resolve_type(self, namespace: str, name: str) -> Optional[str]:
        """Canonical name of the class ``name`` denotes in ``namespace``.

        ``None`` when the reference does not resolve to a project
        class (builtins and unknowns land here — callers decide how
        honestly to degrade).
        """
        if "." in name:
            target = self._resolve_canonical(name)
        else:
            target = self._resolve_local(namespace, name)
        if isinstance(target, tuple):
            target_namespace, cls = target
            return f"{target_namespace}.{cls.name}"
        return None

    def class_hierarchy(self) -> Dict[str, Tuple[str, ...]]:
        """Canonical class name -> its base names.

        Bases resolve to canonical project names when possible and
        stay literal otherwise (``"Exception"`` for builtins), so the
        effect analysis can chain project hierarchies into the builtin
        exception tree.
        """
        out: Dict[str, Tuple[str, ...]] = {}
        for (namespace, name), cls in self._classes.items():
            bases = []
            for base in cls.bases:
                resolved = self._resolve_base(namespace, base)
                if resolved is not None:
                    base_namespace, base_cls = resolved
                    bases.append(f"{base_namespace}.{base_cls.name}")
                else:
                    bases.append(base)
            out[f"{namespace}.{name}"] = tuple(bases)
        return out

    def resolve_argument(
        self, site_node_key: str, arg: ArgRef
    ) -> Optional[FunctionNode]:
        """Resolve a callable-looking argument at a call site."""
        node = self._nodes.get(site_node_key)
        if node is None or arg.kind not in ("name", "attribute"):
            return None
        target = self._resolve_ref(node, arg.dotted, arg.canonical, None)
        if isinstance(target, FunctionNode):
            return target
        return None

    def _first_callable(self, site: CallSite) -> Optional[FunctionNode]:
        if not site.call.args:
            return None
        return self.resolve_argument(site.node_key, site.call.args[0])

    def reachable_from(
        self, roots: Iterable[str]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS reachability with shortest call paths.

        Returns ``{node_key: (root_key, ..., node_key)}`` for every
        node reachable from ``roots`` (roots map to one-element
        paths).  Deterministic: roots and adjacency are visited in
        sorted order, so ties always break the same way.
        """
        paths: Dict[str, Tuple[str, ...]] = {}
        queue = deque()
        for root in sorted(set(roots)):
            if root in self._nodes and root not in paths:
                paths[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.popleft()
            node = self._nodes[current]
            for edge in sorted(node.edges, key=lambda e: (e.to, e.lineno)):
                if edge.to not in paths and edge.to in self._nodes:
                    paths[edge.to] = paths[current] + (edge.to,)
                    queue.append(edge.to)
        return paths

    def render_path(self, path: Tuple[str, ...]) -> str:
        """``a -> b -> c`` with human labels, for finding messages."""
        return " -> ".join(
            self._nodes[key].label() if key in self._nodes else key
            for key in path
        )

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Stable JSON document (the CI artifact format)."""
        nodes = []
        for node in self:
            nodes.append(
                {
                    "key": node.key,
                    "path": node.path,
                    "layer": node.layer,
                    "line": node.summary.lineno,
                    "toplevel": node.summary.is_toplevel,
                    "edges": [
                        {"to": e.to, "line": e.lineno, "kind": e.kind}
                        for e in node.edges
                    ],
                    "unknown_callees": sorted(set(node.unknown_callees)),
                }
            )
        document = {
            "version": 1,
            "files": self.files_summarized,
            "functions": len(self._nodes),
            "edges": sum(len(n.edges) for n in self._nodes.values()),
            "worker_entries": self.worker_entry_keys(),
            "nodes": nodes,
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    # -- resolution -------------------------------------------------------

    def _resolve_all(self) -> None:
        for key in sorted(self._nodes):
            node = self._nodes[key]
            for call in node.summary.calls:
                self._resolve_call(node, call)

    def _callees(self, target) -> Callees:
        if isinstance(target, FunctionNode):
            return ((target.key, None),)
        if isinstance(target, tuple):  # a class: edges into construction
            namespace, cls = target
            return tuple(
                (f"{namespace}::{cls.name}.{ctor}", ctor)
                for ctor in _CONSTRUCTORS
                if f"{namespace}::{cls.name}.{ctor}" in self._nodes
            )
        return None

    def _resolve_call(self, node: FunctionNode, call: CallRef) -> None:
        callees = self._callees(
            self._resolve_ref(
                node, call.dotted, call.canonical, call.receiver_class
            )
        )
        node.callees.append(callees)
        if callees is not None:
            for key, _ in callees:
                node.edges.append(Edge(to=key, lineno=call.lineno))
        elif call.canonical is None and call.dotted:
            # Neither an import nor a resolvable project symbol: the
            # honest answer is "unknown callee" (builtins land here
            # too; they have no edges to contribute either way).
            node.unknown_callees.append(call.dotted)
        self._note_pool_site(node, call)
        for arg in call.args:
            if arg.kind in ("name", "attribute"):
                resolved = self.resolve_argument(node.key, arg)
                if resolved is not None:
                    node.edges.append(
                        Edge(to=resolved.key, lineno=call.lineno, kind="ref")
                    )

    def _note_pool_site(self, node: FunctionNode, call: CallRef) -> None:
        if call.dotted is None or "." not in call.dotted:
            return
        method = call.dotted.rpartition(".")[2]
        if method not in _POOL_METHODS:
            return
        receiver = call.receiver_class or ""
        if receiver.rpartition(".")[2] in _POOL_CLASSES:
            self._pool_sites.append(
                CallSite(node_key=node.key, call=call, method=method)
            )

    def _resolve_ref(
        self,
        node: FunctionNode,
        dotted: Optional[str],
        canonical: Optional[str],
        receiver_class: Optional[str],
    ):
        """Resolve one callee reference to a FunctionNode, a
        ``(namespace, Class)`` tuple, or ``None``."""
        if canonical is not None:
            return self._resolve_canonical(canonical)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and node.summary.class_name:
            if len(parts) == 2:
                return self._resolve_method(
                    node.namespace, node.summary.class_name, parts[1]
                )
            return None
        if receiver_class is not None and len(parts) == 2:
            target = self._resolve_canonical(receiver_class)
            if isinstance(target, tuple):
                namespace, cls = target
                return self._resolve_method(namespace, cls.name, parts[1])
            return None
        if len(parts) == 1:
            return self._resolve_local(node.namespace, parts[0])
        if len(parts) == 2:
            # Class.method or imported-module attr without an import
            # binding: try a local class first.
            method = self._resolve_method(node.namespace, parts[0], parts[1])
            if method is not None:
                return method
        return None

    def _resolve_local(self, namespace: str, name: str, *, _depth: int = 0):
        if _depth > 4:
            return None
        key = f"{namespace}::{name}"
        if key in self._nodes:
            return self._nodes[key]
        if (namespace, name) in self._classes:
            return (namespace, self._classes[(namespace, name)])
        summary = self._modules.get(namespace)
        if summary is None:
            return None
        for alias, target in summary.aliases:
            if alias == name:
                return self._resolve_canonical(target) or (
                    self._resolve_local(namespace, target, _depth=_depth + 1)
                    if "." not in target
                    else None
                )
        imports = dict(summary.imports)
        if name in imports:
            return self._resolve_canonical(imports[name])
        hits = []
        for star in sorted(set(summary.star_imports)):
            found = self._resolve_local(star, name, _depth=_depth + 1)
            if found is not None:
                hits.append(found)
        if len(hits) == 1:
            return hits[0]
        return None  # absent or ambiguous: degrade, don't guess

    def _resolve_canonical(self, canonical: str):
        parts = canonical.split(".")
        for split in range(len(parts), 0, -1):
            namespace = ".".join(parts[:split])
            if namespace not in self._modules:
                continue
            rest = parts[split:]
            if not rest:
                return None  # a module reference, not a callable
            if len(rest) == 1:
                return self._resolve_local(namespace, rest[0])
            if len(rest) == 2:
                return self._resolve_method(namespace, rest[0], rest[1])
            return None
        return None

    def _resolve_method(
        self,
        namespace: str,
        class_name: str,
        method: str,
        *,
        _seen: Optional[frozenset] = None,
    ):
        seen = _seen or frozenset()
        if (namespace, class_name) in seen:
            return None
        cls = self._classes.get((namespace, class_name))
        if cls is None:
            return None
        if method in cls.methods:
            return self._nodes.get(f"{namespace}::{class_name}.{method}")
        marker = seen | {(namespace, class_name)}
        for base in cls.bases:
            resolved = self._resolve_base(namespace, base)
            if resolved is None:
                continue
            base_namespace, base_cls = resolved
            found = self._resolve_method(
                base_namespace, base_cls.name, method, _seen=marker
            )
            if found is not None:
                return found
        return None

    def _resolve_base(
        self, namespace: str, base: str
    ) -> Optional[Tuple[str, ClassSummary]]:
        if "." not in base:
            local = self._classes.get((namespace, base))
            if local is not None:
                return (namespace, local)
            target = self._resolve_local(namespace, base)
            if isinstance(target, tuple):
                return target
            return None
        target = self._resolve_canonical(base)
        if isinstance(target, tuple):
            return target
        return None
