"""Unit tests of the throttler's internal machinery."""

from repro.core.mise import MiseFairnessPolicy
from repro.core.plugin import Selection
from repro.core.qos import QosGuaranteePolicy
from repro.core.throttle import DynamicThrottlingPolicy, PairAssembler
from repro.sim.events import TaskRecord
from repro.sim.simulator import simulate
from repro.stream.task import TaskKind
from repro.workloads import synthetic_from_ratio


def record(task_id, kind, start, end, mtl=4, phase=0, pair=0):
    return TaskRecord(
        task_id=task_id, kind=kind, context_id=0, core_id=0,
        start=start, end=end, mtl_at_dispatch=mtl,
        phase_index=phase, pair_index=pair,
    )


class TestPairAssembler:
    def test_joins_memory_then_compute(self):
        assembler = PairAssembler()
        assert assembler.feed(
            record("M", TaskKind.MEMORY, 0.0, 1.0, mtl=2)
        ) is None
        joined = assembler.feed(record("C", TaskKind.COMPUTE, 1.0, 4.0))
        assert joined is not None
        sample, mtl = joined
        assert sample.t_m == 1.0
        assert sample.t_c == 3.0
        assert mtl == 2

    def test_compute_without_memory_is_dropped(self):
        assembler = PairAssembler()
        assert assembler.feed(record("C", TaskKind.COMPUTE, 0.0, 1.0)) is None

    def test_pairs_keyed_by_phase_and_index(self):
        assembler = PairAssembler()
        assembler.feed(record("M0", TaskKind.MEMORY, 0.0, 1.0, phase=0, pair=0))
        assembler.feed(record("M1", TaskKind.MEMORY, 0.0, 2.0, phase=1, pair=0))
        joined = assembler.feed(
            record("C1", TaskKind.COMPUTE, 2.0, 3.0, phase=1, pair=0)
        )
        sample, _ = joined
        assert sample.t_m == 2.0  # matched against phase 1's memory task

    def test_entry_consumed_after_join(self):
        assembler = PairAssembler()
        assembler.feed(record("M", TaskKind.MEMORY, 0.0, 1.0))
        assert assembler.feed(record("C", TaskKind.COMPUTE, 1.0, 2.0))
        assert assembler.feed(record("C2", TaskKind.COMPUTE, 2.0, 3.0)) is None


class TestSelectionEvents:
    def test_selection_event_contents(self):
        policy = DynamicThrottlingPolicy(context_count=4)
        simulate(synthetic_from_ratio(0.5, pairs=160), policy)
        assert len(policy.selections) == 1
        event = policy.selections[0]
        assert isinstance(event, Selection)
        assert event.time > 0
        assert event.trigger == 2  # ratio 0.5 -> bound 2
        assert event.selected_mtl == 2
        # The two D-MTL candidates: MTL_NoIdle = 2 and MTL_Idle = 1,
        # each with its selection metric.
        assert sorted(event.candidates) == [1, 2]
        assert all(metric > 0 for metric in event.candidates.values())
        assert set(event.measured) >= {1, 2}

    def test_straddling_pairs_are_excluded(self):
        # Pairs whose memory task ran under a different MTL than the
        # one currently being measured must not pollute windows; if
        # they did, the selector would receive mixed-MTL samples and
        # could mis-decide.  We verify indirectly: the selection's
        # measurement at each MTL reflects that MTL's latency ordering.
        policy = DynamicThrottlingPolicy(context_count=4)
        simulate(synthetic_from_ratio(0.6, pairs=200), policy)
        measured = policy.selections[0].measured
        t_m1, _ = measured[1]
        t_m2, _ = measured[2]
        assert t_m1 < t_m2  # L(1) < L(2) must survive into the windows

    def test_mise_records_estimates_and_both_windows(self):
        policy = MiseFairnessPolicy(context_count=4)
        simulate(synthetic_from_ratio(0.5, pairs=160), policy)
        (event,) = policy.selections
        assert event.trigger == 2
        # An estimate at every MTL, fitted through the trigger window
        # at MTL 4 and the alone-rate probe at MTL 1.
        assert sorted(event.candidates) == [1, 2, 3, 4]
        assert sorted(event.measured) == [1, 4]
        assert event.selected_mtl == 2  # the smallest estimate

    def test_qos_takes_the_largest_feasible_mtl_else_the_mise_choice(self):
        # Estimates on this workload: 1.33, 1.09, 1.19, 1.28 at MTL 1..4.
        for target, expected, misses in ((1.2, 3, 0.0), (1.05, 2, 1.0)):
            policy = QosGuaranteePolicy(context_count=4, target_slowdown=target)
            simulate(synthetic_from_ratio(0.5, pairs=160), policy)
            assert [e.selected_mtl for e in policy.selections] == [expected]
            assert policy.stats_snapshot()["target_misses"] == misses

    def test_windows_completed_counter(self):
        policy = DynamicThrottlingPolicy(context_count=4, window_pairs=8)
        simulate(synthetic_from_ratio(0.5, pairs=200), policy)
        assert policy.windows_completed >= 2
