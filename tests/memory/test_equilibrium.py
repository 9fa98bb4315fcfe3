"""Tests for the effective-concurrency fixed-point solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.memory import equilibrium
from repro.memory.contention import LinearContentionModel
from repro.memory.equilibrium import (
    EquilibriumSolver,
    MemoryDemand,
    demand_signature,
    effective_concurrency,
)
from repro.units import NANOSECONDS


def pure_memory() -> MemoryDemand:
    return MemoryDemand(cpu_seconds_per_unit=0.0, requests_per_unit=1.0)


def pure_compute() -> MemoryDemand:
    return MemoryDemand(cpu_seconds_per_unit=1e-9, requests_per_unit=0.0)


def linear_latency(c: float) -> float:
    return LinearContentionModel(46.3 * NANOSECONDS, 18 * NANOSECONDS).request_latency(c)


class TestMemoryDemand:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ModelError):
            MemoryDemand(cpu_seconds_per_unit=-1.0, requests_per_unit=0.0)
        with pytest.raises(ModelError):
            MemoryDemand(cpu_seconds_per_unit=0.0, requests_per_unit=-1.0)

    def test_pure_memory_weight_is_one(self):
        assert pure_memory().memory_weight(64e-9) == 1.0

    def test_pure_compute_weight_is_zero(self):
        assert pure_compute().memory_weight(64e-9) == 0.0

    def test_degenerate_zero_demand_weight_is_zero(self):
        demand = MemoryDemand(cpu_seconds_per_unit=0.0, requests_per_unit=0.0)
        assert demand.memory_weight(64e-9) == 0.0

    def test_mixed_weight_is_waiting_fraction(self):
        demand = MemoryDemand(cpu_seconds_per_unit=64e-9, requests_per_unit=1.0)
        assert demand.memory_weight(64e-9) == pytest.approx(0.5)


class TestEffectiveConcurrency:
    def test_no_tasks_gives_zero(self):
        assert effective_concurrency([], linear_latency) == 0.0

    def test_compute_only_population_gives_zero(self):
        demands = [pure_compute() for _ in range(8)]
        assert effective_concurrency(demands, linear_latency) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    def test_pure_memory_population_recovers_paper_model(self, k):
        # k pure memory tasks must yield exactly concurrency k, which
        # makes T_mk = requests * L(k) — the paper's assumption.
        demands = [pure_memory() for _ in range(k)]
        assert effective_concurrency(demands, linear_latency) == pytest.approx(k)

    def test_compute_tasks_do_not_perturb_memory_tasks(self):
        demands = [pure_memory(), pure_memory(), pure_compute(), pure_compute()]
        assert effective_concurrency(demands, linear_latency) == pytest.approx(2.0)

    def test_partial_miss_tasks_contribute_fractionally(self):
        # One pure memory task plus one compute task that waits on
        # memory about half the time: concurrency strictly in (1, 2).
        latency_at_2 = linear_latency(2.0)
        mixed = MemoryDemand(
            cpu_seconds_per_unit=latency_at_2, requests_per_unit=1.0
        )
        c = effective_concurrency([pure_memory(), mixed], linear_latency)
        assert 1.0 < c < 2.0

    def test_fixed_point_is_self_consistent(self):
        demands = [
            pure_memory(),
            MemoryDemand(cpu_seconds_per_unit=30e-9, requests_per_unit=0.5),
            MemoryDemand(cpu_seconds_per_unit=100e-9, requests_per_unit=0.1),
        ]
        c = effective_concurrency(demands, linear_latency)
        latency = linear_latency(c)
        reconstructed = sum(d.memory_weight(latency) for d in demands)
        assert reconstructed == pytest.approx(c, abs=1e-6)

    def test_raises_on_non_positive_latency(self):
        with pytest.raises(ModelError):
            effective_concurrency([pure_memory()], lambda c: 0.0)

    @settings(max_examples=60)
    @given(
        cpu=st.lists(
            st.floats(min_value=0.0, max_value=1e-6), min_size=1, max_size=12
        ),
        requests=st.lists(
            st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=12
        ),
    )
    def test_property_result_bounded_by_population(self, cpu, requests):
        demands = [
            MemoryDemand(cpu_seconds_per_unit=a, requests_per_unit=m)
            for a, m in zip(cpu, requests)
        ]
        c = effective_concurrency(demands, linear_latency)
        memory_tasks = sum(1 for d in demands if d.requests_per_unit > 0)
        assert 0.0 <= c <= memory_tasks + 1e-9

    @settings(max_examples=60)
    @given(
        extra=st.integers(min_value=0, max_value=6),
        base=st.integers(min_value=1, max_value=6),
    )
    def test_property_adding_memory_tasks_never_reduces_concurrency(
        self, extra, base
    ):
        small = [pure_memory() for _ in range(base)]
        large = small + [pure_memory() for _ in range(extra)]
        c_small = effective_concurrency(small, linear_latency)
        c_large = effective_concurrency(large, linear_latency)
        assert c_large >= c_small - 1e-9


demand_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e-6),
        st.floats(min_value=0.0, max_value=4.0),
    ).map(lambda t: MemoryDemand(cpu_seconds_per_unit=t[0], requests_per_unit=t[1])),
    max_size=12,
)


class TestFastPath:
    """The pure-population closed form must be indistinguishable from
    the damped iteration — exact equality, not approx."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 8, 64])
    def test_pure_population_exactly_matches_iterative(self, k):
        demands = [pure_memory() for _ in range(k)]
        fast = effective_concurrency(demands, linear_latency)
        slow = effective_concurrency(demands, linear_latency, fast_path=False)
        assert fast == slow  # bit-identical, both float(k)

    def test_pure_population_with_compute_exactly_matches_iterative(self):
        demands = [pure_memory(), pure_compute(), pure_memory(), pure_compute()]
        fast = effective_concurrency(demands, linear_latency)
        slow = effective_concurrency(demands, linear_latency, fast_path=False)
        assert fast == slow == 2.0

    @settings(max_examples=80)
    @given(demands=demand_lists)
    def test_property_fast_path_never_changes_the_result(self, demands):
        fast = effective_concurrency(demands, linear_latency)
        slow = effective_concurrency(demands, linear_latency, fast_path=False)
        assert fast == slow

    def test_denormal_demand_matches_iterative(self):
        # Regression: ``requests_per_unit`` so small that ``m * L``
        # underflows to 0.0 makes the iteration see w_i = 0, so the
        # "every w_i is 1" closed form does not apply; the fast path
        # must detect the underflow and fall through (found by the
        # property test above at ``5e-324``).
        demands = [MemoryDemand(0.0, 5e-324), pure_memory()]
        fast = effective_concurrency(demands, linear_latency)
        slow = effective_concurrency(demands, linear_latency, fast_path=False)
        assert fast == slow

    def test_fast_path_still_validates_latency(self):
        # The closed form must preserve the iterative path's error
        # behaviour: a non-positive latency raises even when the answer
        # would not need the latency at all.
        with pytest.raises(ModelError):
            effective_concurrency([pure_memory()], lambda c: 0.0)


class TestDemandSignature:
    def test_equal_sequences_share_a_signature(self):
        a = [pure_memory(), pure_compute()]
        b = [pure_memory(), pure_compute()]
        assert demand_signature(a) == demand_signature(b)

    def test_signature_preserves_order(self):
        # Float summation is not associative, so permutations of one
        # multiset must land in different memo slots.
        ab = [pure_memory(), pure_compute()]
        ba = [pure_compute(), pure_memory()]
        assert demand_signature(ab) != demand_signature(ba)

    def test_distinct_demands_never_collide(self):
        base = [MemoryDemand(cpu_seconds_per_unit=1e-9, requests_per_unit=1.0)]
        tweaked = [MemoryDemand(cpu_seconds_per_unit=1e-9, requests_per_unit=1.0 + 1e-15)]
        assert demand_signature(base) != demand_signature(tweaked)

    def test_empty_population_has_empty_signature(self):
        assert demand_signature([]) == b""


class TestEquilibriumSolver:
    def test_hit_returns_exactly_the_cold_solution(self):
        solver = EquilibriumSolver(linear_latency)
        demands = [
            pure_memory(),
            MemoryDemand(cpu_seconds_per_unit=30e-9, requests_per_unit=0.5),
        ]
        cold_c = effective_concurrency(demands, linear_latency)
        cold_latency = linear_latency(cold_c if cold_c > 1.0 else 1.0)
        first = solver.solve(demands)
        hit = solver.solve(demands)
        assert first == hit == (cold_c, cold_latency)
        assert (solver.hits, solver.misses) == (1, 1)

    def test_empty_population_charges_unloaded_latency(self):
        solver = EquilibriumSolver(linear_latency)
        assert solver.solve([]) == (0.0, linear_latency(1.0))

    def test_precomputed_key_matches_derived_key(self):
        solver = EquilibriumSolver(linear_latency)
        demands = [pure_memory(), pure_memory()]
        derived = solver.solve(demands)
        keyed = solver.solve(demands, key=demand_signature(demands))
        assert keyed == derived
        assert solver.hits == 1

    def test_overflow_clears_but_results_stay_exact(self):
        solver = EquilibriumSolver(linear_latency, max_entries=2)
        for k in (1, 2, 3, 4):
            demands = [pure_memory() for _ in range(k)]
            c, latency = solver.solve(demands)
            assert c == effective_concurrency(demands, linear_latency)
            assert latency == linear_latency(max(c, 1.0))
            assert len(solver) <= 2

    def test_rejects_non_positive_max_entries(self):
        with pytest.raises(ModelError):
            EquilibriumSolver(linear_latency, max_entries=0)


class TestSolvePath:
    """A memo miss is exactly one cold :func:`effective_concurrency`
    call; there is no second lookup between the memo and the solve."""

    def population(self, cpu: float):
        """Mixed population: fixed memory half, variable pure-CPU half.

        Every ``cpu`` value yields a distinct memo key; the memory
        demands — all that the fixed point depends on — are identical
        across them.
        """
        return [
            pure_memory(),
            MemoryDemand(cpu_seconds_per_unit=30e-9, requests_per_unit=0.5),
            MemoryDemand(cpu_seconds_per_unit=cpu, requests_per_unit=0.0),
        ]

    def test_cache_info_reports_lookups_and_entries(self):
        solver = EquilibriumSolver(linear_latency)
        for cpu in (1e-9, 2e-9, 1e-9):
            solver.solve(self.population(cpu))
        assert solver.cache_info() == {"hits": 1, "misses": 2, "entries": 2}

    def test_each_miss_is_one_cold_solve(self, monkeypatch):
        solved = []
        cold = equilibrium.effective_concurrency

        def counting(demands, latency_fn, **kwargs):
            solved.append(len(demands))
            return cold(demands, latency_fn, **kwargs)

        monkeypatch.setattr(equilibrium, "effective_concurrency", counting)
        solver = EquilibriumSolver(linear_latency)
        for cpu in (1e-9, 2e-9, 1e-9, 3e-9):
            solver.solve(self.population(cpu))
        assert solved == [3, 3, 3]  # three misses; the hit solves nothing

    def test_compute_only_differences_solve_to_identical_floats(self):
        # Zero-request demands are filtered out before the first step,
        # so populations that differ only in their miss-free tasks
        # solve cold, each under its own key, to the same floats.
        solver = EquilibriumSolver(linear_latency)
        results = {solver.solve(self.population(cpu * 1e-9)) for cpu in (1, 2, 3, 4)}
        assert len(results) == 1
        assert solver.cache_info()["misses"] == 4


#: One per-unit demand component: zero, negative zero, subnormal
#: (``m * L`` and ``a + m * L`` underflow) or normal.
degenerate_values = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 30e-9, 0.5, 1.0])

#: A population of running tasks drawn from those components.
degenerate_populations = st.lists(
    st.builds(MemoryDemand, degenerate_values, degenerate_values), max_size=6
)


class TestMemoAgainstCold:
    """Whatever the memo saw before, a solve is the cold solve."""

    @settings(max_examples=150)
    @given(
        pool=st.lists(degenerate_populations, min_size=1, max_size=4),
        order=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12),
    )
    def test_property_memoized_solve_equals_cold_solve(self, pool, order):
        # Revisits hit the memo; the other pool entries are the
        # unrelated solves in between.  ``repr`` keeps the sign of a
        # zero, which ``==`` would not.
        solver = EquilibriumSolver(linear_latency)
        for index in order:
            demands = pool[index % len(pool)]
            c = effective_concurrency(demands, linear_latency)
            cold = (c, linear_latency(c if c > 1.0 else 1.0))
            assert repr(solver.solve(demands)) == repr(cold)

    def test_signed_zeros_keep_separate_exact_entries(self):
        solver = EquilibriumSolver(linear_latency)
        for zero in (0.0, -0.0, 0.0):
            demands = [pure_memory(), MemoryDemand(zero, 5e-324)]
            c = effective_concurrency(demands, linear_latency)
            assert solver.solve(demands) == (c, linear_latency(max(c, 1.0)))
        assert solver.cache_info() == {"hits": 1, "misses": 2, "entries": 2}
