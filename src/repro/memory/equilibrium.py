"""Effective-concurrency equilibrium solver.

When every running memory-bound task is a *pure* memory task, the
memory concurrency is simply the number of such tasks, and the paper's
``T_mk = requests * L(k)`` holds directly.  The Figure 13(c) regime
breaks that purity: compute tasks whose footprints overflow the LLC
also issue off-chip requests, so they both *suffer* contention and
*contribute* to it — but only for the fraction of their time actually
spent waiting on memory.

We model each running task ``i`` by its per-work-unit demand: ``a_i``
seconds of CPU work and ``m_i`` off-chip requests.  At a candidate
concurrency ``c`` the task spends a fraction

    ``w_i(c) = m_i * L(c) / (a_i + m_i * L(c))``

of its wall-clock time occupying the memory system, which is exactly
its contribution to concurrency.  The effective concurrency is the
fixed point of ``F(c) = sum_i w_i(c)``.

``F`` is non-decreasing in ``c`` (because ``L`` is) and bounded by the
number of memory-demanding tasks ``N``, so iterating from ``c = N``
produces a monotonically decreasing, convergent sequence; the limit is
the greatest fixed point.  Pure memory tasks have ``a_i = 0`` and
``w_i = 1`` identically, recovering the paper's model exactly.

Hot-path structure (see ``docs/performance.md``):

* **Pure-population fast path** — when every memory-demanding task is
  pure (``a_i == 0``), every ``w_i`` is identically 1 and the damped
  iteration converges on its first step to exactly ``float(N)``.  The
  solver detects this in one scan and returns the closed form without
  building the filtered task list or evaluating any ``w_i`` — after
  one ``latency_fn`` probe that preserves the iterative path's
  positive-latency validation, so the result (and every raised error)
  is bit-identical to the damped iteration's.
* **Solution memo** — :class:`EquilibriumSolver` wraps the solver with
  a dictionary keyed by the population's demand signature, so a
  population already solved under the same latency function costs one
  dict lookup.  Keys preserve demand *order*: float summation is not
  associative, and a canonicalised (sorted) key could return a result
  computed under a different summation order than a cold solve of the
  same sequence would use — breaking the engine's bit-identical
  guarantee for mixed populations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ModelError

__all__ = [
    "MemoryDemand",
    "effective_concurrency",
    "demand_signature",
    "EquilibriumSolver",
]


@dataclass(frozen=True)
class MemoryDemand:
    """Per-work-unit resource demand of one running task.

    Attributes:
        cpu_seconds_per_unit: CPU time ``a_i`` one work unit needs.
        requests_per_unit: Off-chip requests ``m_i`` one work unit
            issues.  A pure memory task has ``cpu_seconds_per_unit=0``
            and ``requests_per_unit=1``; a miss-free compute task has
            ``requests_per_unit=0``.
    """

    cpu_seconds_per_unit: float
    requests_per_unit: float

    def __post_init__(self) -> None:
        if self.cpu_seconds_per_unit < 0:
            raise ModelError(
                f"cpu_seconds_per_unit must be >= 0, got {self.cpu_seconds_per_unit}"
            )
        if self.requests_per_unit < 0:
            raise ModelError(
                f"requests_per_unit must be >= 0, got {self.requests_per_unit}"
            )

    def memory_weight(self, request_latency: float) -> float:
        """Fraction of wall-clock time spent in the memory system when
        each request costs ``request_latency`` seconds."""
        memory_time = self.requests_per_unit * request_latency
        total = self.cpu_seconds_per_unit + memory_time
        if total == 0.0:
            return 0.0
        return memory_time / total


def demand_signature(demands: Sequence[MemoryDemand]) -> bytes:
    """Order-preserving memo key for a demand population.

    The order of ``demands`` is part of the key on purpose: the damped
    iteration sums ``w_i`` in sequence order and float addition is not
    associative, so permutations of one multiset may (in the last ULP)
    converge to different values.  An order-preserving key guarantees a
    memo hit returns exactly what a cold solve of the same call would.

    The key is the little-endian IEEE-754 packing of the per-task
    ``(a_i, m_i)`` pairs rather than a tuple: ``bytes`` caches its hash
    while tuples re-hash every element per lookup, so a precomputed key
    makes a memo hit O(1) regardless of population size.  Packing is
    bit-exact, so distinct demand sequences can never collide (at most,
    ``-0.0`` and ``0.0`` get separate entries — which only splits the
    memo, never merges results).
    """
    values = []
    for d in demands:
        values.append(d.cpu_seconds_per_unit)
        values.append(d.requests_per_unit)
    return struct.pack(f"<{len(values)}d", *values)


def effective_concurrency(
    demands: Sequence[MemoryDemand],
    latency_fn: Callable[[float], float],
    tolerance: float = 1e-9,
    max_iterations: int = 200,
    fast_path: bool = True,
) -> float:
    """Solve ``c = sum_i w_i(c)`` for the running task population.

    Args:
        demands: Demands of every currently running task.
        latency_fn: Maps concurrency to per-request latency (normally a
            bound :meth:`ContentionModel.request_latency`).  Must be
            non-decreasing and positive.
        tolerance: Absolute convergence tolerance on ``c``.
        max_iterations: Iteration cap; exceeding it raises
            :class:`~repro.errors.ModelError` (it indicates a
            non-monotone latency function).
        fast_path: Allow the pure-population closed form.  ``False``
            forces the damped iteration; results are bit-identical
            either way (the regression tests pin this), the flag exists
            so tests and the perf microbenchmark can compare the paths.

    Returns:
        The effective memory concurrency, ``0 <= c <= len(demands)``.
    """
    if fast_path:
        # One scan: count memory tasks, bail to the general path on the
        # first impure one.  ``pure`` ends at -1 for mixed populations.
        pure = 0
        for d in demands:
            if d.requests_per_unit > 0.0:
                if d.cpu_seconds_per_unit != 0.0:
                    pure = -1
                    break
                pure += 1
        if pure == 0:
            return 0.0
        if pure > 0:
            # Every w_i is identically 1, so the iteration's first step
            # returns sum(1.0, ...) == float(pure) exactly.  Probe the
            # latency once to keep the iterative path's validation (a
            # non-positive latency must still raise).
            latency = latency_fn(float(pure))
            if latency <= 0:
                raise ModelError(
                    f"latency_fn returned non-positive latency {latency}"
                )
            for d in demands:
                if (
                    d.requests_per_unit > 0.0
                    and d.requests_per_unit * latency == 0.0
                ):
                    # Denormal underflow: the iteration's first step
                    # sees w_i = 0 for this task (``m * L`` rounds to
                    # zero), so the closed form does not apply — fall
                    # through to the damped iteration.
                    break
            else:
                return float(pure)

    memory_tasks = [d for d in demands if d.requests_per_unit > 0]
    if not memory_tasks:
        return 0.0

    # The per-iteration sum is the hot loop of every cold mixed solve;
    # hoist the attribute reads out of it.  The inlined body replicates
    # :meth:`MemoryDemand.memory_weight` operation for operation — same
    # term order, same ``total == 0`` denormal-underflow guard, and
    # skipping a zero term instead of adding 0.0 leaves a non-negative
    # accumulator bit-identical — so results match the uninlined seed
    # loop float for float (pinned by the equilibrium property tests).
    pairs = [(d.cpu_seconds_per_unit, d.requests_per_unit) for d in memory_tasks]
    c = float(len(memory_tasks))
    for _ in range(max_iterations):
        latency = latency_fn(c)
        if latency <= 0:
            raise ModelError(f"latency_fn returned non-positive latency {latency}")
        updated = 0.0
        for a, m in pairs:
            memory_time = m * latency
            total = a + memory_time
            if total != 0.0:
                updated += memory_time / total
        if abs(updated - c) <= tolerance:
            return updated
        # Damped update: guards against oscillation if latency_fn is
        # only piecewise monotone (e.g. the bandwidth-share model's kink).
        c = 0.5 * (c + updated)
    raise ModelError(
        f"effective_concurrency failed to converge within {max_iterations} "
        f"iterations (last c={c!r})"
    )


class EquilibriumSolver:
    """Memoizing front-end over :func:`effective_concurrency`.

    Bound to one latency function (normally a
    :meth:`~repro.memory.system.MemorySystem.request_latency`), the
    solver caches ``(concurrency, request_latency)`` pairs keyed by the
    population's order-preserving :func:`demand_signature`.  A repeat
    population costs one dict lookup; the cached pair is exactly what a
    cold solve would return, so memoization can never change a result.

    The returned latency is ``latency_fn(max(c, 1.0))`` — the loaded
    per-request latency the simulator charges (a lone request still
    competes with itself; with no memory task running it is the
    unloaded ``L(1)`` a newly arriving request would pay).

    Attributes:
        hits / misses: Lookup counters for perfbench's
            cache-effectiveness report (``BENCH_sim.json``).
    """

    def __init__(
        self,
        latency_fn: Callable[[float], float],
        max_entries: int = 65536,
    ) -> None:
        if max_entries < 1:
            raise ModelError(f"max_entries must be >= 1, got {max_entries}")
        self._latency_fn = latency_fn
        self._max_entries = max_entries
        self._memo: Dict[bytes, Tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._memo)

    def cache_info(self) -> Dict[str, int]:
        """Lookup counters and table size, for telemetry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memo),
        }

    def solve(
        self,
        demands: Sequence[MemoryDemand],
        key: Optional[bytes] = None,
    ) -> Tuple[float, float]:
        """``(concurrency, latency)`` for the population, memoized.

        Args:
            demands: Demands of every currently running task.
            key: Precomputed :func:`demand_signature` of ``demands``;
                callers that already hold one (the rate calculator
                maintains signatures incrementally) skip rebuilding it.
        """
        if key is None:
            key = demand_signature(demands)
        cached = self._memo.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        concurrency = effective_concurrency(demands, self._latency_fn)
        latency = self._latency_fn(concurrency if concurrency > 1.0 else 1.0)
        if len(self._memo) >= self._max_entries:
            # Populations recur in tight cycles; a full table means the
            # workload's working set outgrew it, and starting over is
            # cheaper and simpler than tracking recency.
            self._memo.clear()
        self._memo[key] = (concurrency, latency)
        return concurrency, latency
