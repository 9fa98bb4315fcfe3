"""Determinism rule (RPR102) and the deterministic-layer set.

The simulator layers (``sim``, ``memory``, ``stream``, ``core``) must
be pure functions of their inputs; :data:`DETERMINISTIC_LAYERS` names
them for every rule that roots there (the transitive family,
RPR601–RPR604, owns wall-clock, entropy, environment and ``hash()``
sinks).  Unseeded randomness is checked syntactically in *every*
layer, tests included: a test drawing from the global RNG replays no
better than the model would.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.graph.summary import ImportTable
from repro.lint.rules.base import Rule

__all__ = ["DETERMINISTIC_LAYERS", "UnseededRandomRule"]

#: Layers whose outputs must be bit-reproducible.
DETERMINISTIC_LAYERS = frozenset({"sim", "memory", "stream", "core"})

#: ``random`` module functions that draw from the hidden global RNG.
_GLOBAL_RANDOM = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: ``numpy.random`` legacy functions backed by the global state.
_GLOBAL_NP_RANDOM = frozenset(
    {
        "choice",
        "normal",
        "permutation",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)


class UnseededRandomRule(Rule):
    """RPR102: randomness with no explicit seed (any layer, tests too)."""

    id = "RPR102"
    title = "unseeded or global-state randomness"
    family = "determinism"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportTable(ctx.tree, ctx.display_path)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = imports.resolve(node.func)
            if canonical is None:
                continue
            message = self._violation(canonical, node)
            if message is not None:
                yield self.finding(ctx, node, message)

    @staticmethod
    def _violation(canonical: str, node: ast.Call) -> str | None:
        no_args = not node.args and not node.keywords
        module, _, attr = canonical.rpartition(".")
        if module == "random":
            if attr in _GLOBAL_RANDOM:
                return (
                    f"random.{attr}() draws from the hidden global RNG; "
                    "use random.Random(seed) so every run replays"
                )
            if attr == "seed" and no_args:
                return "random.seed() with no arguments seeds from the OS"
            if attr == "Random" and no_args:
                return "random.Random() without a seed is nondeterministic"
            if attr == "SystemRandom":
                return "random.SystemRandom is nondeterministic by design"
        if module == "numpy.random":
            if attr == "default_rng" and no_args:
                return (
                    "numpy.random.default_rng() without a seed is "
                    "nondeterministic; pass an explicit seed"
                )
            if attr in _GLOBAL_NP_RANDOM:
                return (
                    f"numpy.random.{attr}() uses numpy's global state; "
                    "use numpy.random.default_rng(seed)"
                )
        return None
