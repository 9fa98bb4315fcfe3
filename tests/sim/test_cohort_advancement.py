"""Equivalence tests for the simulator's default event loop.

The default loop (``cohort_batching=True``) is an optimized per-task
loop; the seed's per-task loop survives as the reference
(``cohort_batching=False``).  The optimization's contract is
*bit-identity*: every record field, every MTL change, float for float,
on every workload/policy/noise/dispatch combination — these tests pin
it.  SMT machines matter here: sibling contexts of a core share one
execution rate, so phase flips and completions on one sibling change
its neighbour's speed mid-task.  Both loops of a comparison run on one
machine, so they fill and read one rate-snapshot memo.  The reference
loop runs first: it keys each snapshot from the population itself, so
a default-loop key that names the wrong population reads a snapshot
of another one and the results part.
"""

import pytest

from repro.core.budget import ActivationBudgetPolicy
from repro.core.policies import OnlineExhaustivePolicy
from repro.core.throttle import DynamicThrottlingPolicy
from repro.sim.engine import RateCalculator, snapshot_key
from repro.sim.machine import i7_860
from repro.sim.noise import noise_for_seed
from repro.sim.scheduler import FixedMtlPolicy, ThrottlePolicyPlugin
from repro.sim.simulator import Simulator
from repro.stream.program import StreamProgram, build_phase
from repro.workloads.base import REFERENCE_SOLO_LATENCY


def synthetic(ratio: float, pairs: int = 12) -> StreamProgram:
    t_m1 = 4096 * REFERENCE_SOLO_LATENCY
    return StreamProgram(
        f"synthetic-{ratio}",
        [build_phase("p", 0, pairs, 4096, t_m1 / ratio)],
    )


def two_phase(pairs: int = 8) -> StreamProgram:
    """Mixed ratios across phases: the population mix shifts mid-run."""
    t_m1 = 4096 * REFERENCE_SOLO_LATENCY
    return StreamProgram(
        "two-phase",
        [
            build_phase("memory-bound", 0, pairs, 4096, t_m1 / 3.0),
            build_phase("compute-bound", 1, pairs, 4096, t_m1 / 0.25),
        ],
    )


POLICIES = {
    "static-2": lambda n: FixedMtlPolicy(2),
    "dynamic": lambda n: DynamicThrottlingPolicy(
        context_count=n, window_pairs=4
    ),
    "online": lambda n: OnlineExhaustivePolicy(context_count=n, window_pairs=4),
    # blocks_context veto: the default loop must consult it exactly
    # where the reference loop does.
    "activation-budget": lambda n: ActivationBudgetPolicy(
        context_count=n, window_pairs=4, budget=1
    ),
}


def run_both(machine_factory, program, policy_name, seed, preference):
    """The default loop's result and the reference loop's, run on one
    machine, reference first, each verified against the graph."""
    machine = machine_factory()
    results = {}
    for batching in (False, True):
        simulator = Simulator(
            machine,
            noise=noise_for_seed(seed) if seed is not None else None,
            dispatch_preference=preference,
            cohort_batching=batching,
        )
        policy = POLICIES[policy_name](machine.context_count)
        results[batching] = simulator.run(program, policy)
        results[batching].verify(program.to_task_graph())
    return results[True], results[False]


def assert_bit_identical(batched, reference):
    assert len(batched.records) == len(reference.records)
    for ours, theirs in zip(batched.records, reference.records):
        assert ours == theirs  # frozen dataclasses: every field, exact
    assert batched.mtl_changes == reference.mtl_changes
    assert batched.makespan == reference.makespan


class TestBatchedMatchesReference:
    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("ratio", [0.25, 1.0, 3.0])
    def test_synthetic_singleton_cohorts(self, policy_name, seed, ratio):
        batched, reference = run_both(
            i7_860, synthetic(ratio), policy_name, seed, "compute-first"
        )
        assert_bit_identical(batched, reference)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("seed", [None, 7])
    def test_smt_shared_cohorts(self, policy_name, seed):
        batched, reference = run_both(
            lambda: i7_860(smt=2), two_phase(), policy_name, seed,
            "compute-first",
        )
        assert_bit_identical(batched, reference)

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    @pytest.mark.parametrize("preference", ["compute-first", "memory-first"])
    def test_dispatch_preference_order(self, policy_name, preference):
        batched, reference = run_both(
            i7_860, two_phase(), policy_name, 11, preference
        )
        assert_bit_identical(batched, reference)

    def test_multi_channel_smt_noisy(self):
        batched, reference = run_both(
            lambda: i7_860(channels=2, smt=2), synthetic(1.0), "dynamic",
            23, "memory-first",
        )
        assert_bit_identical(batched, reference)


class RecordingVeto(ThrottlePolicyPlugin):
    """Static MTL plus a veto that refuses memory tokens to a fixed set
    of contexts, logging every consultation."""

    def __init__(self, mtl, vetoed):
        super().__init__("recording-veto")
        self._mtl = mtl
        self._vetoed = frozenset(vetoed)
        self.consulted = []

    def current_mtl(self):
        return self._mtl

    def blocks_context(self, context_id, now):
        self.consulted.append((context_id, now))
        return context_id in self._vetoed


class TestVetoDispatch:
    """The default loop's single dispatch path under a veto hook: the
    veto comes before the gate, and an empty pick moves the scan on."""

    def run_both(self, preference, vetoed):
        machine = i7_860(smt=2)
        runs = {}
        for batching in (False, True):
            policy = RecordingVeto(mtl=2, vetoed=vetoed)
            simulator = Simulator(
                machine,
                dispatch_preference=preference,
                cohort_batching=batching,
            )
            program = two_phase()
            runs[batching] = (simulator.run(program, policy), policy.consulted)
            runs[batching][0].verify(program.to_task_graph())
        return runs[True], runs[False]

    @pytest.mark.parametrize("preference", ["compute-first", "memory-first"])
    def test_veto_is_consulted_exactly_where_the_reference_consults_it(
        self, preference
    ):
        (ours, our_log), (reference, reference_log) = self.run_both(
            preference, vetoed={0}
        )
        assert our_log == reference_log
        assert_bit_identical(ours, reference)

    def test_vetoed_contexts_do_not_end_the_scan(self):
        (result, _), _ = self.run_both("memory-first", vetoed={0, 1})
        memory_contexts = {r.context_id for r in result.records if r.is_memory}
        # The scan starts at the vetoed contexts every time, so memory
        # work reaches the others only if an empty pick continues.
        assert memory_contexts
        assert not memory_contexts & {0, 1}


class TestIncrementalKey:
    """The default loop keeps the snapshot memo key current by hand;
    at every event it must equal the key computed from the population."""

    @pytest.fixture
    def keys(self, monkeypatch):
        seen = []
        original = RateCalculator.snapshot_keyed

        def checked(calculator, key, running):
            assert key == snapshot_key(running)
            seen.append(key)
            return original(calculator, key, running)

        monkeypatch.setattr(RateCalculator, "snapshot_keyed", checked)
        return seen

    @pytest.mark.parametrize("policy_name", ["dynamic", "activation-budget"])
    @pytest.mark.parametrize("preference", ["compute-first", "memory-first"])
    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("smt", [1, 2, 4])
    def test_key_matches_population_at_every_event(
        self, keys, smt, seed, preference, policy_name
    ):
        machine = i7_860(smt=smt)
        simulator = Simulator(
            machine,
            noise=noise_for_seed(seed) if seed is not None else None,
            dispatch_preference=preference,
        )
        policy = POLICIES[policy_name](machine.context_count)
        simulator.run(two_phase(), policy)
        assert keys
        entries = [entry for key in keys for entry in key]
        # Overhead-phase entries (a bare count) occur exactly when noise
        # adds dispatch overhead; SMT siblings raise some count above 1.
        assert any(isinstance(entry, int) for entry in entries) is (seed is not None)
        counts = [entry if isinstance(entry, int) else entry[0] for entry in entries]
        assert (max(counts) > 1) is (smt > 1)
