"""Picklable data model of the effect analysis.

Like :mod:`repro.lint.graph.summary`, this module is a *leaf*: plain
frozen dataclasses of strings and tuples, importing only the standard
library, so extraction can run inside ``--jobs`` worker processes and
ship its results across the pool boundary unchanged.

Two layers of record:

* :class:`FunctionEffects` — the *local* (intraprocedural) effects of
  one function body, extracted per file by the one per-file walk
  (:mod:`repro.lint.graph.extract`) and stored on the function's
  :class:`~repro.lint.graph.summary.FunctionSummary`, beside the
  calls through which they propagate;
* :class:`EffectSignature` — the *transitive* summary after the SCC
  fixpoint of :class:`~repro.lint.effects.fixpoint.EffectAnalysis`
  folded callee effects into callers.

``via`` chains record how a mutated or captured object was reached
from the originating parameter (``("task", "t")`` for ``t = task``),
so findings can print the offending alias chain verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = [
    "CATCH_ALL",
    "TOP",
    "EffectSignature",
    "FunctionEffects",
    "CaptureMutation",
    "ParamCapture",
    "ParamMutation",
    "RaiseSite",
]

#: The honest "don't know" value: an unresolvable exception type or an
#: unknown callee's effects.  Signatures record ``⊤`` as a flag, never
#: as a concrete fact, so rules cannot mistake ignorance for evidence.
TOP = "⊤"

#: Sentinel caught-name for a bare ``except:`` (catches everything).
CATCH_ALL = "<any>"


@dataclass(frozen=True)
class ParamMutation:
    """One provable mutation of a parameter (or receiver) object.

    ``field`` is the first-level attribute whose object is mutated
    (``""`` means the parameter object itself); ``kind`` is
    ``"store-attr"`` / ``"store-index"`` / ``"augstore"`` /
    ``"delete"`` / ``"store-attr-deep"`` / ``"call:<method>"``.
    """

    param: str
    field: str
    lineno: int
    via: Tuple[str, ...]
    kind: str

    def chain(self) -> str:
        return " -> ".join(self.via)


@dataclass(frozen=True)
class ParamCapture:
    """A parameter object retained beyond the call.

    ``dest`` is ``"self.<attr>"``, ``"global <name>"``, or
    ``"closure <funcname>"``.
    """

    param: str
    lineno: int
    via: Tuple[str, ...]
    dest: str

    def chain(self) -> str:
        return " -> ".join(self.via)


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise`` statement, with its enclosing ``try`` context.

    ``type`` is the import-canonical (or literal dotted) name of the
    raised class, or :data:`TOP` when unresolvable.  ``caught`` lists
    the exception-type names every enclosing ``try`` in this function
    would catch at this site (``"<any>"`` for a bare ``except``).
    ``kind`` is ``"explicit"`` for ``raise X(...)`` and ``"reraise"``
    for a bare ``raise`` inside a handler (the type then names what
    the handler caught).
    """

    type: str
    lineno: int
    caught: Tuple[str, ...] = ()
    kind: str = "explicit"


@dataclass(frozen=True)
class CaptureMutation:
    """A local captured into ``self.<attr>`` and mutated *afterwards*.

    The flow-sensitive core of the memo-key rule's capture check: once
    ``self.parts = work`` runs, ``work`` and the stored reference are
    one object, so any later ``work.append(...)`` edits state a memo
    key already hashed.  ``name`` is the mutated local, ``via`` the
    alias chain from the captured name to it.
    """

    attr: str
    capture_lineno: int
    lineno: int
    name: str
    via: Tuple[str, ...]
    kind: str

    def chain(self) -> str:
        return " -> ".join(self.via)


@dataclass(frozen=True)
class FunctionEffects:
    """Local (intraprocedural) effects of one function body; its
    parameters and calls are on the enclosing
    :class:`~repro.lint.graph.summary.FunctionSummary`."""

    #: Parameters annotated with an immutable builtin (``int``,
    #: ``str``, ...): capturing their *value* cannot retain mutable
    #: state, so reference-retention rules skip them.
    immutable_params: Tuple[str, ...] = ()
    mutations: Tuple[ParamMutation, ...] = ()
    captures: Tuple[ParamCapture, ...] = ()
    raises: Tuple[RaiseSite, ...] = ()
    capture_mutations: Tuple[CaptureMutation, ...] = ()


@dataclass(frozen=True)
class EffectSignature:
    """Transitive effect summary of one function, post fixpoint.

    Concrete sets contain only *provable* facts; the ``*_top`` flags
    record that unknown callees (or unresolvable raise types) may add
    arbitrarily more.  A signature with ``raises_top=True`` and an
    empty ``raises`` set therefore means "nothing provable, anything
    possible" — rules must treat it as silence, not as evidence.
    """

    key: str
    #: ``(param, field)`` pairs provably mutated (``field == ""`` for
    #: the parameter object itself; ``"self"`` counts as a param).
    mutates: FrozenSet[Tuple[str, str]] = frozenset()
    #: Parameters whose objects are provably retained beyond the call.
    captures: FrozenSet[str] = frozenset()
    #: Canonical exception type names that can escape this function.
    raises: FrozenSet[str] = frozenset()
    mutates_top: bool = False
    captures_top: bool = False
    raises_top: bool = False
