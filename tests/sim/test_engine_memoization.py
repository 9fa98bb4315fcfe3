"""Property tests for the rate-snapshot memoization.

The memo must be invisible: for any population — mixed demands,
overhead-phase tasks, populations revisited after MTL changes — the
memoized :meth:`RateCalculator.snapshot` must return exactly what the
always-cold :meth:`RateCalculator.compute_snapshot` computes, float for
float.  ``RateSnapshot`` is a frozen dataclass, so ``==`` compares every
field (including the per-context dicts) exactly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.memory.contention import nehalem_ddr3_contention
from repro.memory.system import MemorySystem
from repro.sim.cores import Processor
from repro.sim.engine import RateCalculator, RunningTask
from repro.stream.task import compute_task, memory_task


def make_calculator(max_entries: int = 65536) -> RateCalculator:
    return RateCalculator(
        Processor(core_count=4, smt_ways=2),
        MemorySystem(contention=nehalem_ddr3_contention()),
        max_entries=max_entries,
    )


def running(task, context_id: int, overhead: float = 0.0) -> RunningTask:
    return RunningTask(
        task=task,
        context_id=context_id,
        core_id=context_id % 4,
        start=0.0,
        remaining_units=task.work_units,
        overhead_remaining=overhead,
        mtl_at_dispatch=4,
    )


#: One running task: kind, demand magnitude, and overhead phase drawn
#: independently so populations mix all three signature dimensions.
task_specs = st.lists(
    st.tuples(
        st.booleans(),                                  # memory task?
        st.integers(min_value=1, max_value=4),          # demand scale
        st.booleans(),                                  # in overhead phase?
    ),
    min_size=1,
    max_size=8,
)


def build_population(specs):
    population = []
    for context_id, (is_memory, scale, in_overhead) in enumerate(specs):
        if is_memory:
            task = memory_task(f"m{context_id}", requests=250.0 * scale)
        else:
            task = compute_task(f"c{context_id}", cpu_seconds=1e-4 * scale)
        population.append(
            running(task, context_id, overhead=1e-6 if in_overhead else 0.0)
        )
    return population


class TestMemoizedSnapshotExactness:
    @settings(max_examples=80)
    @given(specs=task_specs)
    def test_property_hit_equals_cold_recomputation(self, specs):
        calc = make_calculator()
        population = build_population(specs)
        first = calc.snapshot(population)       # miss: fills the memo
        hit = calc.snapshot(population)         # hit: served from memo
        cold = calc.compute_snapshot(population)
        assert hit is first
        assert hit == cold
        assert calc.hits >= 1

    @settings(max_examples=40)
    @given(specs=task_specs)
    def test_property_overhead_transition_selects_fresh_result(self, specs):
        """Finishing the overhead phase must change the memo key: the
        post-transition snapshot must match a cold recomputation, not
        the pre-transition cached one."""
        calc = make_calculator()
        population = build_population(specs)
        population[0].overhead_remaining = 1e-6
        before = calc.snapshot(population)
        population[0].overhead_remaining = 0.0  # work phase begins
        after = calc.snapshot(population)
        assert after == calc.compute_snapshot(population)
        # The transitioned task now has a real speed, so the snapshots
        # genuinely differ (its overhead-phase speed was pinned to 0).
        assert before.speeds[0] == 0.0
        assert after.speeds[0] > 0.0

    def test_revisited_population_after_mtl_style_swap_hits(self):
        """Alternating between two populations (what an offline search
        does across MTL runs) keeps both memo entries live."""
        calc = make_calculator()
        low = build_population([(True, 1, False)])
        high = build_population([(True, 1, False), (True, 2, False)])
        results = [calc.snapshot(p) for p in (low, high, low, high, low)]
        assert calc.misses == 2
        assert calc.hits == 3
        assert results[0] is results[2] is results[4]
        assert results[1] is results[3]
        assert results[0] == calc.compute_snapshot(low)
        assert results[1] == calc.compute_snapshot(high)

    def test_cold_path_never_touches_the_memo(self):
        calc = make_calculator()
        population = build_population([(True, 1, False)])
        calc.compute_snapshot(population)
        assert calc.cache_info() == {"hits": 0, "misses": 0, "entries": 0}


#: CPU demand of one SMT context's task: ``None`` is a memory task;
#: otherwise a compute task with spill traffic (so it has work even at
#: zero CPU), whose demand is ordinary or degenerate — subnormal (it
#: underflows to 0.0 per work unit), zero, or negative zero.  A
#: degenerate demand shares its memo key with a memory task's.
cpu_demands = st.sampled_from([None, 1e-4, 5e-324, 0.0, -0.0])

#: The two SMT contexts of core 0 (context ids 0 and 4).
sibling_specs = st.tuples(
    st.tuples(cpu_demands, st.booleans()),  # demand, in overhead phase?
    st.tuples(cpu_demands, st.booleans()),
)


def sibling_population(specs):
    population = []
    for context_id, (cpu_seconds, in_overhead) in zip((0, 4), specs):
        if cpu_seconds is None:
            task = memory_task(f"m{context_id}", requests=250.0)
        else:
            task = compute_task(
                f"c{context_id}", cpu_seconds=cpu_seconds, spilled_requests=250.0
            )
        population.append(
            running(task, context_id, overhead=1e-6 if in_overhead else 0.0)
        )
    return population


class TestDegenerateCpuDemandsOnSmt:
    @settings(max_examples=150)
    @given(populations=st.lists(sibling_specs, min_size=1, max_size=6))
    def test_property_shared_memo_equals_cold_recomputation(self, populations):
        """Whatever populations warmed the memo, every snapshot is the
        cold one — also when two populations share a key."""
        calc = make_calculator()
        for specs in populations:
            population = sibling_population(specs)
            assert calc.snapshot(population) == calc.compute_snapshot(population)

    def test_subnormal_compute_task_keyed_like_a_memory_task(self):
        calc = make_calculator()
        sibling = running(compute_task("c4", cpu_seconds=1e-3), 4)
        twins = [
            memory_task("m0", requests=1e6),
            compute_task("c0", cpu_seconds=1e-320, spilled_requests=1e6),
        ]
        alone = calc.compute_snapshot([sibling]).speeds[4]
        for task in twins:
            population = [running(task, 0), sibling]
            cold = calc.compute_snapshot(population)
            assert calc.snapshot(population) == cold
            # The subnormal CPU time is 0.0 per work unit: neither twin
            # takes a CPU share from its sibling.
            assert cold.speeds[4] == alone


class TestMemoBounds:
    def test_overflow_clears_and_keeps_serving_exact_results(self):
        calc = make_calculator(max_entries=2)
        populations = [
            build_population([(True, scale, False)]) for scale in (1, 2, 3, 4)
        ]
        for population in populations:
            snap = calc.snapshot(population)
            assert snap == calc.compute_snapshot(population)
            assert calc.cache_info()["entries"] <= 2

    def test_rejects_non_positive_max_entries(self):
        with pytest.raises(SimulationError):
            make_calculator(max_entries=0)
