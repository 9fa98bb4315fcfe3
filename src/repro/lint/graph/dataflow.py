"""The interprocedural core both whole-program analyses run on.

:class:`~repro.lint.effects.fixpoint.EffectAnalysis` and
:class:`~repro.lint.dimflow.fixpoint.UnitAnalysis` keep only their
lattice and transfer functions.  Everything else about running a
dataflow analysis over the
:class:`~repro.lint.graph.builder.ProjectGraph` lives here, once:

* the **function table** — the graph's own nodes (first definition
  winning per ``namespace::qualname``) that carry the analysis's
  per-function record;
* the **calls** — each node's
  :class:`~repro.lint.graph.summary.CallRef` records with the callees
  the graph resolved for them
  (:attr:`~repro.lint.graph.builder.FunctionNode.callees`), so the
  analyses walk exactly the edges (and apply exactly the constructor
  rule) of the reachability rules, and nothing is resolved twice;
* the **argument binder** — which caller-side
  :class:`~repro.lint.graph.summary.ArgRef` each callee parameter
  receives at a call (the effect analysis reads its ``alias``, the
  unit analysis its ``unit``);
* the **SCC order** (iterative Tarjan, callees first) and the
  **fixpoint driver**, which visits one strongly-connected component
  at a time and re-applies a transfer function to a cyclic component
  until none of its members changes;
* the **witness search** — the breadth-first shortest call path from
  a root to the local site that justifies a fact, so findings print
  the whole chain.

Records are the typed summary records: an analysis names which field
of :class:`~repro.lint.graph.summary.FunctionSummary` holds its
per-function facts, and reads parameters and calls off the summary.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.graph.builder import Callees, FunctionNode, ProjectGraph
from repro.lint.graph.summary import ArgRef, CallRef, FunctionSummary

__all__ = ["Callees", "Interprocedural", "bind_arguments"]

#: One witness state: a function key and what the search tracks there.
_State = Tuple[str, Hashable]


class Interprocedural:
    """Function table, resolved calls and SCC order of one analysis."""

    def __init__(
        self,
        graph: ProjectGraph,
        record_of: Callable[[FunctionSummary], Any],
    ) -> None:
        self._graph = graph
        self._records: Dict[str, Any] = {}
        self._nodes: Dict[str, FunctionNode] = {}
        for node in graph:
            record = record_of(node.summary)
            if record is not None:
                self._records[node.key] = record
                self._nodes[node.key] = node
        self._components = _components(
            {key: node.callees for key, node in self._nodes.items()}
        )

    # -- function table ------------------------------------------------

    def keys(self) -> List[str]:
        return sorted(self._records)

    def node_path(self, key: str) -> str:
        node = self._graph.node(key)
        return node.path if node is not None else ""

    def node_layer(self, key: str) -> str:
        node = self._graph.node(key)
        return node.layer if node is not None else ""

    def node_label(self, key: str) -> str:
        """Human-readable name for ``key`` (call-path rendering)."""
        node = self._graph.node(key)
        return node.label() if node is not None else key

    def render_path(self, path: Tuple[str, ...]) -> str:
        return self._graph.render_path(path)

    # -- calls ---------------------------------------------------------

    def calls(self, key: str) -> Iterator[Tuple[CallRef, Callees]]:
        """``(call, callees)`` for each call ``key`` makes, in order."""
        node = self._nodes[key]
        return zip(node.summary.calls, node.callees)

    def bind(
        self, call: CallRef, callee: str, ctor: Optional[str], receiver: bool = False
    ) -> List[Tuple[str, ArgRef]]:
        """:func:`bind_arguments` against the callee's own parameters."""
        function = self._nodes[callee].summary
        return bind_arguments(
            call,
            function.params,
            function.kwonly,
            function.class_name,
            ctor,
            receiver,
        )

    # -- fixpoint ------------------------------------------------------

    def _solve(
        self, transfer: Callable[[str], bool], *, callers_first: bool = False
    ) -> bool:
        """Apply ``transfer`` (which reports whether its key's value
        changed) one SCC at a time, callees first or callers first.

        An acyclic component is visited once — its value cannot depend
        on itself; a cyclic one is swept until no member changes.
        Returns whether anything changed.
        """
        changed_any = False
        components = self._components[::-1] if callers_first else self._components
        for members, cyclic in components:
            if not cyclic:
                changed_any = transfer(members[0]) or changed_any
                continue
            if callers_first:
                members = members[::-1]
            changed = True
            while changed:
                changed = False
                for key in members:
                    changed = transfer(key) or changed
                changed_any = changed_any or changed
        return changed_any

    # -- witnesses -----------------------------------------------------

    def _witness(
        self,
        root: str,
        start: Hashable,
        hit: Callable[[str, Hashable], Any],
        step: Callable[[str, Hashable], Iterable[_State]],
    ) -> Optional[Tuple[Tuple[str, ...], str, Any]]:
        """Shortest call path from ``root`` to a justifying local site.

        A state is a function key plus what the search tracks there
        (an exception type, or the parameter an object is bound to);
        ``hit`` returns the justifying site in that function's own body
        or ``None``, and ``step`` yields the states reachable through
        its resolved calls.  Breadth-first over deterministic successor
        order, so ties always break the same way.  Returns ``(path,
        site_key, site)``.
        """
        state = (root, start)
        visited: Set[_State] = {state}
        queue = deque([(state, (root,))])
        while queue:
            (key, tracked), path = queue.popleft()
            site = hit(key, tracked)
            if site is not None:
                return path, key, site
            for successor in step(key, tracked):
                if successor not in visited:
                    visited.add(successor)
                    queue.append((successor, path + (successor[0],)))
        return None


def bind_arguments(
    call: CallRef,
    params: Sequence[str],
    kwonly: Sequence[str] = (),
    class_name: Optional[str] = None,
    ctor: Optional[str] = None,
    receiver: bool = False,
) -> List[Tuple[str, ArgRef]]:
    """``(callee parameter, caller-side argument)`` pairs for one call.

    A method called through an instance binds its receiver (when asked
    to, and when the call recorded one) to its first parameter;
    ``Class.method(instance, ...)`` binds the instance positionally
    instead, and a constructor's first parameter is the object under
    construction.  Positional arguments bind in order and stop at the
    first ``*args`` (which parameter the next one reaches depends on
    its length).  None bind to ``__post_init__``: positional arguments
    fill the dataclass's fields, and which of them are the ``InitVar``
    values ``__post_init__`` receives the records cannot tell.
    Keywords bind by name.
    """
    bound: List[Tuple[str, ArgRef]] = []
    offset = 0
    if ctor is not None:
        offset = 1
    elif class_name is not None and params and params[0] in ("self", "cls"):
        if (call.dotted or "").split(".")[0] != class_name:
            offset = 1
            if receiver and call.receiver is not None:
                bound.append((params[0], call.receiver))
    positional = () if ctor == "__post_init__" else call.args[: call.star]
    for index, value in enumerate(positional, start=offset):
        if index < len(params):
            bound.append((params[index], value))
    for name, value in call.kwargs:
        if name in params or name in kwonly:
            bound.append((name, value))
    return bound


def _components(
    callees: Dict[str, Sequence[Callees]]
) -> List[Tuple[List[str], bool]]:
    """Iterative Tarjan over the resolved call edges: ``(sorted
    members, cyclic)`` per strongly connected component, callees first
    (reverse topological order of the condensation), deterministically."""
    adjacency = {
        key: sorted(
            {callee for targets in calls if targets for callee, _ in targets}
        )
        for key, calls in callees.items()
    }
    index_of: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[Tuple[List[str], bool]] = []
    counter = 0
    for start in sorted(adjacency):
        if start in index_of:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index_of[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = adjacency.get(node, [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index_of:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                cyclic = len(component) > 1 or node in adjacency.get(node, ())
                components.append((sorted(component), cyclic))
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return components
