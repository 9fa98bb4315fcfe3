"""Property tests for the rate-snapshot memoization.

The memo must be invisible: for any population — mixed demands,
overhead-phase tasks, populations revisited after MTL changes, the same
population placed on other contexts and cores — the memoized
:meth:`RateCalculator.snapshot` must return exactly what the
always-cold :meth:`RateCalculator.compute_snapshot` computes, float for
float.  ``RateSnapshot`` is a frozen dataclass, so ``==`` compares every
field (including the per-position tuples) exactly.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.memory.contention import nehalem_ddr3_contention
from repro.memory.system import MemorySystem
from repro.sim.cores import Processor
from repro.sim.engine import RateCalculator, RunningTask, snapshot_key
from repro.sim.machine import i7_860
from repro.sim.simulator import Simulator
from repro.stream.task import compute_task, memory_task


#: Data attributes of :class:`RunningTask` read through a
#: :class:`RecordingTask`.
READS = set()


class RecordingTask(RunningTask):
    """A running task that records every data attribute read."""

    __slots__ = ()

    def __getattribute__(self, name):
        if name in RunningTask.__slots__:
            READS.add(name)
        return super().__getattribute__(name)


def make_calculator(max_entries: int = 65536, smt_ways: int = 2) -> RateCalculator:
    return RateCalculator(
        Processor(core_count=4, smt_ways=smt_ways),
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
        alone = calc.compute_snapshot([sibling]).speeds[0]
        for task in twins:
            population = [running(task, 0), sibling]
            cold = calc.compute_snapshot(population)
            assert calc.snapshot(population) == cold
            # The subnormal CPU time is 0.0 per work unit: neither twin
            # takes a CPU share from its sibling (position 1).
            assert cold.speeds[1] == alone


#: One core's tasks: each a CPU demand (as in ``cpu_demands``) and
#: whether it is in its overhead phase.
def core_tasks(smt_ways):
    return st.lists(
        st.tuples(cpu_demands, st.booleans()), min_size=1, max_size=smt_ways
    )


@st.composite
def placements(draw, smt_ways):
    """Two placements of one population on a 4-core machine.

    The population's tasks are grouped by core; both placements keep
    each task's position, phase and demand and each group together on
    one core, but move the groups to other cores and the tasks to other
    SMT ways.  Every position thus sees the same CPU-active count on its
    core, under different context and core ids.
    """
    groups = draw(st.lists(core_tasks(smt_ways), min_size=1, max_size=4))
    slots = [(group, index) for group, tasks in enumerate(groups)
             for index in range(len(tasks))]
    order = draw(st.permutations(slots))
    populations = []
    for _ in range(2):
        cores = draw(st.permutations(range(4)))
        ways = [draw(st.permutations(range(smt_ways))) for _ in groups]
        population = []
        for group, index in order:
            cpu_seconds, in_overhead = groups[group][index]
            core = cores[group]
            context_id = core * smt_ways + ways[group][index]
            if cpu_seconds is None:
                task = memory_task(f"m{group}.{index}", requests=250.0)
            else:
                task = compute_task(
                    f"c{group}.{index}", cpu_seconds=cpu_seconds,
                    spilled_requests=250.0,
                )
            population.append(RunningTask(
                task=task, context_id=context_id, core_id=core, start=0.0,
                remaining_units=task.work_units,
                overhead_remaining=1e-6 if in_overhead else 0.0,
                mtl_at_dispatch=4,
            ))
        populations.append(population)
    return populations


class TestPlacementFreeKeys:
    """A snapshot is keyed by position, phase, demand and the CPU-active
    count on each position's core: never by context or core id."""

    @pytest.mark.parametrize("smt_ways", [2, 4])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_property_placements_share_one_entry(self, smt_ways, data):
        first, second = data.draw(placements(smt_ways))
        calc = make_calculator(smt_ways=smt_ways)
        assert snapshot_key(first) == snapshot_key(second)
        a = calc.snapshot(first)
        b = calc.snapshot(second)
        assert b is a
        assert calc.cache_info() == {"hits": 1, "misses": 1, "entries": 1}
        # repr spells every float exactly (and tells -0.0 from 0.0).
        assert repr(a) == repr(calc.compute_snapshot(first))
        assert repr(b) == repr(calc.compute_snapshot(second))

    def test_sibling_count_is_part_of_the_key(self):
        """The same two tasks on one core and on two cores differ only
        in the CPU-active count each position sees."""
        calc = make_calculator()
        task = compute_task("c", cpu_seconds=1e-4)
        shared = [running(task, 0), running(task, 4)]  # both on core 0
        apart = [running(task, 0), running(task, 1)]
        assert snapshot_key(shared) != snapshot_key(apart)
        assert calc.snapshot(shared) == calc.compute_snapshot(shared)
        assert calc.snapshot(apart) == calc.compute_snapshot(apart)
        assert calc.snapshot(shared).speeds[0] < calc.snapshot(apart).speeds[0]


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


class TestSharedCpuRates:
    """Snapshots with equal ``cpu_rates`` hold one tuple, and the table
    of shared tuples clears with the memo."""

    #: Populations with distinct keys and equal rates: no core is shared.
    SHAPES = [
        [(True, 1, False), (False, 1, False)],
        [(False, 1, False), (True, 1, False)],
        [(True, 1, True), (False, 2, False)],
    ]

    def test_equal_rates_share_one_tuple(self):
        calc = make_calculator()
        a, b = (calc.snapshot(build_population(shape)) for shape in self.SHAPES[:2])
        assert a != b and a.cpu_rates == b.cpu_rates == (1.0, 1.0)
        assert b.cpu_rates is a.cpu_rates
        cold = calc.compute_snapshot(build_population(self.SHAPES[2]))
        assert cold.cpu_rates is a.cpu_rates

    def test_table_clears_with_the_memo(self):
        calc = make_calculator(max_entries=2)
        first, second, third = (
            calc.snapshot(build_population(shape)) for shape in self.SHAPES
        )
        assert second.cpu_rates is first.cpu_rates
        assert calc.cache_info()["entries"] == 1  # the third cleared the memo
        assert third.cpu_rates == first.cpu_rates
        assert third.cpu_rates is not first.cpu_rates

    def test_snapshots_are_slotted(self):
        snap = make_calculator().snapshot(build_population(self.SHAPES[0]))
        assert not hasattr(snap, "__dict__")


class TestOneMemoPerMachine:
    def test_simulators_on_a_machine_share_its_calculator(self):
        machine = i7_860(smt=2)
        assert Simulator(machine).rate_calculator is machine.rate_calculator
        assert Simulator(machine).rate_calculator is machine.rate_calculator
        assert i7_860(smt=2).rate_calculator is not machine.rate_calculator

    def test_memo_is_left_out_of_equality_repr_and_pickles(self):
        machine = i7_860(smt=2)
        calc = machine.rate_calculator
        calc.snapshot(build_population([(True, 1, False)]))
        assert machine == i7_860(smt=2)
        assert hash(machine) == hash(i7_860(smt=2))
        assert "_rates" not in repr(machine)
        copy = pickle.loads(pickle.dumps(machine))
        assert copy == machine
        assert copy.rate_calculator is not calc
        assert copy.rate_calculator.cache_info() == {
            "hits": 0, "misses": 0, "entries": 0,
        }


class TestMemoKeyDeclaration:
    """``RunningTask.MEMO_KEY`` names exactly the fields the key and the
    cold path read, besides the loop-tracked ``overhead_remaining``.
    A new key input, or a declared field the key stops reading, fails
    here; lint rule RPR202 protects whatever the declaration names."""

    def test_declaration_equals_the_read_set(self):
        memory = memory_task("m", requests=250.0)
        compute = compute_task("c", cpu_seconds=1e-4, spilled_requests=250.0)
        population = [
            RecordingTask(task, context_id, context_id % 4, 0.0,
                          task.work_units, overhead, 4)
            for context_id, (task, overhead) in enumerate([
                (memory, 1e-6), (compute, 1e-6),   # overhead phase
                (memory, 0.0), (compute, 0.0),     # work phase
                (memory, 0.0), (compute, 1e-6),    # SMT siblings of 0, 1
            ])
        ]
        READS.clear()
        snapshot_key(population)
        make_calculator(smt_ways=2).compute_snapshot(population)
        assert "overhead_remaining" in READS
        assert READS - {"overhead_remaining"} == set(RunningTask.MEMO_KEY)
