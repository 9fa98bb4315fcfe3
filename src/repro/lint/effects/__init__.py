"""Effect-signature dataflow analysis for ``repro lint``.

The call graph (PR 5) answers *who calls whom*; this package answers
*what a call does to its arguments*.  The one per-file walk
(:mod:`repro.lint.graph.extract`, in the ``--jobs``-parallel pass)
condenses each function into a picklable
:class:`~repro.lint.effects.model.FunctionEffects` record of its
*local* effects: which parameters it mutates (attribute / subscript /
augmented stores and known mutating method calls, traced through local
aliases with one level of field sensitivity), which parameter objects
it captures into ``self`` / closures / globals, and which exception
types it raises (with the enclosing ``try`` context of every site).
The calls through which effects propagate are the function's
:class:`~repro.lint.graph.summary.CallRef` records, which name the
caught types and the argument aliases of every call.

The single-process whole-program phase then runs
:class:`~repro.lint.effects.fixpoint.EffectAnalysis` on the shared
interprocedural core (:mod:`repro.lint.graph.dataflow`): a fixpoint
over the strongly-connected components of the call graph that folds
callee effects into caller
:class:`~repro.lint.effects.model.EffectSignature` records.  Unknown callees degrade honestly to ``⊤`` (recorded as the
``*_top`` flags, never as concrete facts), so every concrete entry in
a signature is *provable* — the rules built on top report only those,
under-approximating exactly the way the call graph itself does.
"""

from repro.lint.effects.model import (
    TOP,
    EffectSignature,
    FunctionEffects,
    ParamCapture,
    ParamMutation,
    RaiseSite,
)

__all__ = [
    "TOP",
    "EffectSignature",
    "FunctionEffects",
    "ParamCapture",
    "ParamMutation",
    "RaiseSite",
]
