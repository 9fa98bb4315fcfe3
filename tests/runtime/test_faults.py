"""Failure-mode tests: chaos injection, retries, graceful degradation.

The contract under test is the headline of the fault-injection
subsystem: a sweep under injected worker crashes, hangs, transient
errors, and cache corruption converges to rows **bit-identical** to
the fault-free run — and when the retry budget is genuinely exhausted,
the sweep degrades into structured :class:`PointFailure` slots instead
of aborting.

All chaos here is deterministic (:mod:`repro.runtime.faults` hashes
``(seed, key, attempt)`` — no wall clock, no global RNG), so these
tests replay exactly, including their fault telemetry.
"""

import io
import itertools
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.runtime.cache import ResultCache
from repro.runtime.experiment import compare_policies
from repro.runtime.faults import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_HANG,
    FaultPlan,
    PointFailure,
    backoff_schedule,
)
from repro.runtime.parallel import (
    PointResult,
    SweepExecutor,
    SweepPoint,
    point_key,
)
from repro.runtime.suite import run_suite
from repro.runtime.telemetry import TelemetryWriter, read_telemetry, validate_record

POINTS = [
    SweepPoint(
        workload={"kind": "synthetic", "ratio": ratio, "pairs": 16},
        policy={"kind": "static", "mtl": mtl},
        label=f"chaos/r={ratio:g}/mtl={mtl}",
    )
    for ratio in (0.2, 1.0)
    for mtl in (1, 2, 4)
]
KEYS = [point_key(p) for p in POINTS]

#: Verified against the plan below: first attempts include at least one
#: crash and one transient error, and no point needs more than one
#: retry (see the fixture guards in TestChaosConvergence).
CRASH_ERROR_PLAN = FaultPlan(seed=1, crash_rate=0.2, error_rate=0.1)

#: At least two of the six points hang on their first attempt; the
#: deepest fault streak is two attempts.
HANG_PLAN = FaultPlan(seed=0, hang_rate=0.5, hang_seconds=5.0)

#: Hang-heavy: four of the six points hang on their first attempt and
#: the deepest streak is four attempts, so a timed-out pool is rebuilt
#: several times with innocent points in flight each round (see the
#: fixture guard in the stale-deadline regression test).
REPEATED_HANG_PLAN = FaultPlan(seed=0, hang_rate=0.7, hang_seconds=5.0)


#: The payload the ``corrupt`` fault appends after a store.
TRUNCATED = '{"schema": '

#: Enough tiny points (about a millisecond each) that the pool gathers
#: them into chunks; the six points above never form one.
TINY_POINTS = [
    SweepPoint(
        workload={"kind": "synthetic", "ratio": 0.05 + 0.01 * step, "pairs": 16},
        policy={"kind": "static", "mtl": 1 + step % 4},
        label=f"tiny/{step}",
    )
    for step in range(300)
]

#: Crashes, hangs and transient errors together, meant to run without
#: a timeout: a hang is a slow worker, and a crash breaks the pool
#: while chunks and faulted points are in flight.
CHUNK_CHAOS_PLAN = FaultPlan.parse(
    "seed=1,crash=0.05,hang=0.05,error=0.05,hang_seconds=0.05"
)


def rows(results):
    return [r.to_dict() for r in results]


class TestBackoffSchedule:
    def test_doubles_and_caps(self):
        assert backoff_schedule(0, 0.5) == 0.5
        assert backoff_schedule(1, 0.5) == 1.0
        assert backoff_schedule(2, 0.5) == 2.0
        assert backoff_schedule(10, 0.5, cap=3.0) == 3.0

    def test_zero_base_disables_backoff(self):
        assert backoff_schedule(5, 0.0) == 0.0

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            backoff_schedule(-1, 0.5)


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        plan = FaultPlan(seed=7, crash_rate=0.3, hang_rate=0.2, error_rate=0.1)
        for key in KEYS:
            for attempt in range(4):
                assert plan.decide(key, attempt) == plan.decide(key, attempt)

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=0, crash_rate=0.5)
        b = FaultPlan(seed=1, crash_rate=0.5)
        decisions_a = [a.decide(k, 0) for k in KEYS]
        decisions_b = [b.decide(k, 0) for k in KEYS]
        assert decisions_a != decisions_b

    def test_rates_partition_one_draw(self):
        # crash takes the low end of the draw, so widening crash_rate
        # can only convert non-crash outcomes into crashes — a fault
        # kind never flips to a *different* fault kind.
        narrow = FaultPlan(seed=3, crash_rate=0.1, error_rate=0.1)
        wide = FaultPlan(seed=3, crash_rate=0.5, error_rate=0.1)
        for key in KEYS:
            if narrow.decide(key, 0) == FAULT_CRASH:
                assert wide.decide(key, 0) == FAULT_CRASH

    def test_zero_rates_inject_nothing(self):
        plan = FaultPlan(seed=9)
        assert all(plan.decide(k, a) is None for k in KEYS for a in range(3))
        assert not any(plan.corrupts(k) for k in KEYS)

    def test_corrupts_is_per_key_not_per_attempt(self):
        plan = FaultPlan(seed=2, corrupt_rate=0.5)
        decisions = [plan.corrupts(k) for k in KEYS]
        assert decisions == [plan.corrupts(k) for k in KEYS]
        assert any(decisions) and not all(decisions)

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError, match="crash_rate"):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ConfigurationError, match="error_rate"):
            FaultPlan(error_rate=-0.1)
        with pytest.raises(ConfigurationError, match="<= 1"):
            FaultPlan(crash_rate=0.5, hang_rate=0.4, error_rate=0.2)
        with pytest.raises(ConfigurationError, match="hang_seconds"):
            FaultPlan(hang_seconds=0.0)
        with pytest.raises(ConfigurationError, match="seed"):
            FaultPlan(seed=True)

    @pytest.mark.parametrize(
        "field, value",
        [
            # NaN would silently disable hangs; an infinity would make
            # a worker's sleep() raise a bare OverflowError.
            ("hang_seconds", math.nan),
            ("hang_seconds", math.inf),
            ("hang_seconds", True),
            ("hang_seconds", "2"),
            ("crash_rate", 10**400),
            ("crash_rate", math.nan),
            ("hang_rate", "0.5"),
            ("error_rate", -math.inf),
            ("corrupt_rate", None),
            ("seed", 1.5),
            ("seed", "7"),
        ],
    )
    def test_bad_values_are_configuration_errors(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            FaultPlan(**{field: value})

    @pytest.mark.parametrize(
        "spec, field",
        [
            ("hang=0.5,hang_seconds=nan", "hang_seconds"),
            ("hang_seconds=inf", "hang_seconds"),
            ("hang_seconds=-inf", "hang_seconds"),
            ("crash=1e400", "crash_rate"),
            ("error=nan", "error_rate"),
            ("corrupt=inf", "corrupt_rate"),
        ],
    )
    def test_parse_rejects_non_finite_values(self, spec, field):
        with pytest.raises(ConfigurationError, match=field):
            FaultPlan.parse(spec)

    def test_parse_round_trips(self):
        plan = FaultPlan.parse(
            "seed=7, crash=0.2, hang=0.1, error=0.05, corrupt=0.5,"
            " hang_seconds=3.5"
        )
        assert plan == FaultPlan(
            seed=7,
            crash_rate=0.2,
            hang_rate=0.1,
            error_rate=0.05,
            corrupt_rate=0.5,
            hang_seconds=3.5,
        )
        assert FaultPlan.parse("") == FaultPlan()

    def test_parse_names_bad_keys(self):
        with pytest.raises(ConfigurationError, match="'boom'"):
            FaultPlan.parse("boom=1")
        with pytest.raises(ConfigurationError, match="key=value"):
            FaultPlan.parse("crash")
        with pytest.raises(ConfigurationError, match="'crash'"):
            FaultPlan.parse("crash=lots")
        with pytest.raises(ConfigurationError, match="'seed'"):
            FaultPlan.parse("seed=1.5")


class TestChaosConvergence:
    """The acceptance criterion: faults never change a number."""

    @pytest.fixture(scope="class")
    def fault_free(self):
        return rows(SweepExecutor(jobs=1).run(POINTS))

    def test_fixture_plans_actually_inject(self):
        # Guard against a silent no-op: the pinned seeds must inject at
        # least one crash, one transient error, and two hangs on first
        # attempts, or the convergence tests below prove nothing.
        first = [CRASH_ERROR_PLAN.decide(k, 0) for k in KEYS]
        assert FAULT_CRASH in first and FAULT_ERROR in first
        assert [HANG_PLAN.decide(k, 0) for k in KEYS].count(FAULT_HANG) >= 2

    def test_serial_chaos_rows_bit_identical(self, fault_free):
        sink = io.StringIO()
        chaos = SweepExecutor(
            jobs=1,
            retries=5,
            fault_plan=CRASH_ERROR_PLAN,
            telemetry=TelemetryWriter(sink),
        ).run(POINTS)
        assert rows(chaos) == fault_free
        faults = read_telemetry(io.StringIO(sink.getvalue()), event="fault")
        retries = read_telemetry(io.StringIO(sink.getvalue()), event="retry")
        assert faults and len(retries) == len(faults)
        (summary,) = read_telemetry(io.StringIO(sink.getvalue()), event="sweep")
        assert summary["faults"] == len(faults)
        assert summary["retries"] == len(retries)
        assert summary["failures"] == 0

    def test_pool_chaos_rows_bit_identical(self, fault_free):
        # Real crashes: workers die via os._exit, the pool breaks, the
        # executor respawns it and retries the culprit.
        chaos = SweepExecutor(
            jobs=3, retries=5, fault_plan=CRASH_ERROR_PLAN
        ).run(POINTS)
        assert rows(chaos) == fault_free

    def test_pool_hang_with_timeout_rows_bit_identical(self, fault_free):
        # Hanging workers sleep 5 s; the 0.3 s per-point timeout
        # abandons them and the retry produces the same bits.  The
        # wall-time bound proves workers were abandoned, not waited out.
        start = time.monotonic()
        chaos = SweepExecutor(
            jobs=3, retries=4, timeout=0.3, fault_plan=HANG_PLAN
        ).run(POINTS)
        elapsed = time.monotonic() - start
        assert rows(chaos) == fault_free
        assert elapsed < HANG_PLAN.hang_seconds

    def test_serial_hang_becomes_timeout_without_sleeping(self, fault_free):
        # In-process hangs cannot be preempted, so serial mode converts
        # a hang the timeout would catch (hang_seconds >= timeout)
        # straight into a timeout-equivalent fault — no sleep.
        sink = io.StringIO()
        start = time.monotonic()
        chaos = SweepExecutor(
            jobs=1, retries=4, timeout=0.3, fault_plan=HANG_PLAN,
            telemetry=TelemetryWriter(sink),
        ).run(POINTS)
        assert time.monotonic() - start < HANG_PLAN.hang_seconds
        assert rows(chaos) == fault_free
        retries = read_telemetry(io.StringIO(sink.getvalue()), event="retry")
        assert any("timeout (injected hang)" in r["reason"] for r in retries)

    def test_hang_without_timeout_recovers_without_retry(self, fault_free):
        # With no timeout a hanging worker is slow, not dead: pool mode
        # waits it out, serial mode runs the point directly (without
        # sleeping), and neither consumes a retry — so retries=0 must
        # still succeed in both modes with identical rows.
        plan = FaultPlan(seed=1, hang_rate=0.5, hang_seconds=0.05)
        sink = io.StringIO()
        serial = SweepExecutor(
            jobs=1, retries=0, fault_plan=plan, telemetry=TelemetryWriter(sink)
        ).run(POINTS)
        assert rows(serial) == fault_free
        faults = read_telemetry(io.StringIO(sink.getvalue()), event="fault")
        assert any(f["kind"] == FAULT_HANG for f in faults)
        assert not read_telemetry(io.StringIO(sink.getvalue()), event="retry")
        pool = SweepExecutor(jobs=3, retries=0, fault_plan=plan).run(POINTS)
        assert rows(pool) == fault_free

    def test_repeated_timeouts_with_innocent_inflight_never_abort(
        self, fault_free
    ):
        # Several consecutive timeout rounds, each abandoning a pool
        # with innocent points still in flight: the abandoned futures'
        # deadlines must die with the pool, or a stale deadline
        # expiring in a later round looks like an overdue future that
        # is no longer in flight and aborts the sweep.
        streaks = []
        for key in KEYS:
            streak = 0
            while REPEATED_HANG_PLAN.decide(key, streak) == FAULT_HANG:
                streak += 1
            streaks.append(streak)
        # Fixture guard: most points hang on their first attempt (so
        # every timeout round has innocent co-in-flight points) and the
        # deepest streak spans several rounds.
        assert sum(1 for s in streaks if s >= 1) >= 3
        assert 3 <= max(streaks) <= 6
        chaos = SweepExecutor(
            jobs=3, retries=6, timeout=0.25, fault_plan=REPEATED_HANG_PLAN
        ).run(POINTS)
        assert rows(chaos) == fault_free

    def test_pool_backoff_chaos_rows_bit_identical(self, fault_free):
        # Backing-off points must not block eligible points queued
        # behind them: the scheduler submits the first *eligible*
        # point, and the sweep still converges to identical rows.
        chaos = SweepExecutor(
            jobs=3, retries=5, backoff_base=0.05, fault_plan=CRASH_ERROR_PLAN
        ).run(POINTS)
        assert rows(chaos) == fault_free

    def test_pool_broken_before_submit_recovers(self, fault_free, monkeypatch):
        # A worker can die between a wait and the next submit, so the
        # submit itself raises BrokenProcessPool: the point must stay
        # queued and the pool be respawned, not the sweep abort.
        real_submit = ProcessPoolExecutor.submit
        calls = itertools.count()

        def submit_breaking_once(pool, *args, **kwargs):
            if next(calls) == 3:
                raise BrokenProcessPool("a worker died since the last wait")
            return real_submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_breaking_once)
        assert rows(SweepExecutor(jobs=2).run(POINTS)) == fault_free

    def test_serial_chaos_telemetry_replays_identically(self):
        def chaos_log():
            sink = io.StringIO()
            SweepExecutor(
                jobs=1,
                retries=5,
                fault_plan=CRASH_ERROR_PLAN,
                telemetry=TelemetryWriter(sink),
            ).run(POINTS)
            return [
                (r["key"], r["kind"], r["attempt"])
                for r in read_telemetry(io.StringIO(sink.getvalue()), event="fault")
            ]

        assert chaos_log() == chaos_log()

    def test_faults_match_parent_side_predictions(self):
        # Telemetry reports exactly the faults the plan predicts — the
        # executor computes injections parent-side, so the record of a
        # crash exists even though the worker died before reporting.
        sink = io.StringIO()
        SweepExecutor(
            jobs=1,
            retries=5,
            fault_plan=CRASH_ERROR_PLAN,
            telemetry=TelemetryWriter(sink),
        ).run(POINTS)
        logged = {
            (r["key"], r["attempt"]): r["kind"]
            for r in read_telemetry(io.StringIO(sink.getvalue()), event="fault")
        }
        predicted = {
            (key, attempt): CRASH_ERROR_PLAN.decide(key, attempt)
            for key in KEYS
            for attempt in range(6)
            if CRASH_ERROR_PLAN.decide(key, attempt) is not None
            and all(
                CRASH_ERROR_PLAN.decide(key, a) is not None
                for a in range(attempt)
            )
        }
        assert logged == predicted

    def test_backoff_delays_serial_retries(self):
        start = time.monotonic()
        chaos = SweepExecutor(
            jobs=1, retries=5, backoff_base=0.05, fault_plan=CRASH_ERROR_PLAN
        ).run(POINTS)
        assert all(isinstance(r, PointResult) for r in chaos)
        # At least one retry happened (fixture guard), each sleeping
        # >= backoff_base.
        assert time.monotonic() - start >= 0.05


def fault_log(sink):
    """The ``(key, attempt, kind)`` of every ``fault`` record."""
    return Counter(
        (r["key"], r["attempt"], r["kind"])
        for r in read_telemetry(io.StringIO(sink.getvalue()), event="fault")
    )


class TestChunkedChaos:
    """Chaos on a sweep large enough that the pool submits chunks."""

    @pytest.fixture(scope="class")
    def runs(self):
        fault_free = rows(SweepExecutor(jobs=1).run(TINY_POINTS))
        serial_sink, pool_sink = io.StringIO(), io.StringIO()
        serial = SweepExecutor(
            jobs=1, retries=6, fault_plan=CHUNK_CHAOS_PLAN,
            telemetry=TelemetryWriter(serial_sink),
        ).run(TINY_POINTS)
        submits = itertools.count()
        real_submit = ProcessPoolExecutor.submit

        def counted_submit(pool, *args, **kwargs):
            next(submits)
            return real_submit(pool, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ProcessPoolExecutor, "submit", counted_submit)
            pooled = SweepExecutor(
                jobs=2, retries=6, fault_plan=CHUNK_CHAOS_PLAN,
                telemetry=TelemetryWriter(pool_sink),
            ).run(TINY_POINTS)
        return {
            "fault_free": fault_free,
            "serial": rows(serial),
            "pool": rows(pooled),
            "serial_sink": serial_sink,
            "pool_sink": pool_sink,
            "submits": next(submits),
        }

    def test_fixture_plan_injects_every_kind(self):
        first = {CHUNK_CHAOS_PLAN.decide(point_key(p), 0) for p in TINY_POINTS}
        assert {FAULT_CRASH, FAULT_HANG, FAULT_ERROR} <= first

    def test_rows_bit_identical(self, runs):
        assert runs["serial"] == runs["fault_free"]
        assert runs["pool"] == runs["fault_free"]

    def test_chunks_formed(self, runs):
        # Every attempt is a first try or a retry; a free resubmission
        # after a pool break adds a submission but no attempt.  Fewer
        # submissions than attempts means points shared submissions.
        (summary,) = read_telemetry(
            io.StringIO(runs["pool_sink"].getvalue()), event="sweep"
        )
        assert summary["failures"] == 0
        assert runs["submits"] < len(TINY_POINTS) + summary["retries"]

    def test_one_fault_record_per_key_and_attempt(self, runs):
        # A free resubmission after a pool break re-injects a faulted
        # point's fault, but the fault was logged when it was first
        # submitted: the pool's log must be the serial run's log.
        serial, pooled = fault_log(runs["serial_sink"]), fault_log(runs["pool_sink"])
        assert serial and pooled == serial
        for name, logged in (("serial_sink", serial), ("pool_sink", pooled)):
            (summary,) = read_telemetry(
                io.StringIO(runs[name].getvalue()), event="sweep"
            )
            assert summary["faults"] == sum(logged.values())


class TestCorruptionChaos:
    def test_corrupt_entries_quarantine_and_reverify(self, tmp_path):
        plan = FaultPlan(seed=5, corrupt_rate=1.0)
        cache = ResultCache(tmp_path)
        sink = io.StringIO()
        executor = SweepExecutor(
            jobs=1, cache=cache, fault_plan=plan,
            telemetry=TelemetryWriter(sink),
        )
        cold = executor.run(POINTS)
        # Every store was followed by a truncated record of its key ...
        newest = dict(
            line.split(" ", 1)
            for bucket in sorted(tmp_path.glob("*.log"))
            for line in bucket.read_text().splitlines()
        )
        assert newest == {key: TRUNCATED for key in KEYS}
        warm = executor.run(POINTS)
        # ... so the warm run quarantines them all, re-runs, and still
        # produces identical rows.
        assert rows(warm) == rows(cold)
        assert cache.stats.quarantined == len(POINTS)
        quarantines = read_telemetry(
            io.StringIO(sink.getvalue()), event="cache_quarantine"
        )
        assert sorted(record["key"] for record in quarantines) == sorted(KEYS)
        for record in quarantines:
            validate_record(record)
            # The evidence stays in the bucket the event names: the one
            # for the key's two-hex-digit prefix.
            bucket = tmp_path / f"{record['key'][:2]}.log"
            assert record["path"] == str(bucket)
            assert f"{record['key']} {TRUNCATED}" in bucket.read_text().splitlines()

    def test_run_leaves_caller_owned_cache_unmutated(self, tmp_path):
        # The executor routes quarantine events into its own telemetry
        # sink for the duration of a run only: a shared ResultCache
        # must come back exactly as it went in, not left wired to a
        # discarded executor's sink — and a cache that brought its own
        # sink keeps it.
        cache = ResultCache(tmp_path / "borrowed")
        SweepExecutor(
            jobs=1, cache=cache, telemetry=TelemetryWriter(io.StringIO())
        ).run(POINTS)
        assert cache.telemetry is None
        own = TelemetryWriter(io.StringIO())
        owned = ResultCache(tmp_path / "owned", telemetry=own)
        SweepExecutor(
            jobs=1, cache=owned, telemetry=TelemetryWriter(io.StringIO())
        ).run(POINTS)
        assert owned.telemetry is own

    def test_healthy_keys_stay_cached_under_partial_corruption(self, tmp_path):
        plan = FaultPlan(seed=2, corrupt_rate=0.5)
        corrupted = sum(plan.corrupts(k) for k in KEYS)
        assert 0 < corrupted < len(KEYS)  # fixture guard
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache, fault_plan=plan)
        cold = executor.run(POINTS)
        warm = executor.run(POINTS)
        assert rows(warm) == rows(cold)
        assert cache.stats.quarantined == corrupted
        assert cache.stats.hits == len(KEYS) - corrupted


class TestGracefulDegradation:
    ALWAYS_FAIL = FaultPlan(seed=0, error_rate=1.0)

    def test_exhausted_retries_degrade_in_order(self):
        sink = io.StringIO()
        results = SweepExecutor(
            jobs=1,
            retries=1,
            fault_plan=self.ALWAYS_FAIL,
            telemetry=TelemetryWriter(sink),
        ).run(POINTS)
        assert [r.key for r in results] == KEYS
        for result, point in zip(results, POINTS):
            assert isinstance(result, PointFailure)
            assert result.label == point.label
            assert result.attempts == 2  # first try + one retry
            assert "injected transient error" in result.reason
        failures = read_telemetry(
            io.StringIO(sink.getvalue()), event="point_failure"
        )
        assert [f["key"] for f in failures] == KEYS
        (summary,) = read_telemetry(io.StringIO(sink.getvalue()), event="sweep")
        assert summary["failures"] == len(POINTS)

    def test_pool_degradation_matches_serial(self):
        serial = SweepExecutor(
            jobs=1, retries=1, fault_plan=self.ALWAYS_FAIL
        ).run(POINTS)
        pool = SweepExecutor(
            jobs=3, retries=1, fault_plan=self.ALWAYS_FAIL
        ).run(POINTS)
        assert [r.to_dict() for r in pool] == [r.to_dict() for r in serial]

    def test_partial_failure_keeps_healthy_rows_identical(self, tmp_path):
        # retries=0 with the crash+error plan: the points faulted on
        # attempt 0 fail, the rest must stay bit-identical.
        doomed = {
            k for k in KEYS if CRASH_ERROR_PLAN.decide(k, 0) is not None
        }
        assert doomed and len(doomed) < len(KEYS)  # fixture guard
        fault_free = SweepExecutor(jobs=1).run(POINTS)
        degraded = SweepExecutor(
            jobs=1, retries=0, fault_plan=CRASH_ERROR_PLAN
        ).run(POINTS)
        for key, healthy, result in zip(KEYS, fault_free, degraded):
            if key in doomed:
                assert isinstance(result, PointFailure)
            else:
                assert result.to_dict() == healthy.to_dict()

    def test_suite_grid_skips_failed_cells(self):
        workloads = {"w": {"kind": "synthetic", "ratio": 0.5, "pairs": 16}}
        machines = [{"preset": "i7_860"}]
        policies = {"static-2": {"kind": "static", "mtl": 2}}
        healthy = run_suite(workloads, machines, policies)
        degraded = run_suite(
            workloads,
            machines,
            policies,
            executor=SweepExecutor(
                jobs=1, retries=0, fault_plan=self.ALWAYS_FAIL
            ),
        )
        assert healthy.rows and not healthy.failures
        assert not degraded.rows
        assert len(degraded.failures) == 2  # baseline + policy point

    def test_compare_grid_failed_baseline_raises(self):
        with pytest.raises(MeasurementError, match="conventional baseline"):
            compare_policies(
                {"kind": "synthetic", "ratio": 0.5, "pairs": 16},
                {"static-2": {"kind": "static", "mtl": 2}},
                executor=SweepExecutor(
                    jobs=1, retries=0, fault_plan=self.ALWAYS_FAIL
                ),
            )

    def test_compare_grid_skips_failed_policy(self):
        # Fail exactly the static-4 measurement point; the baseline and
        # static-2 numbers must stay bit-identical to a healthy run.
        workload = {"kind": "synthetic", "ratio": 0.5, "pairs": 16}
        policies = {
            "static-2": {"kind": "static", "mtl": 2},
            "static-4": {"kind": "static", "mtl": 4},
        }
        doomed_key = point_key(SweepPoint(workload=workload, policy=policies["static-4"]))

        healthy = compare_policies(workload, policies)
        for seed in range(200):
            plan = FaultPlan(seed=seed, error_rate=0.35)
            if plan.decide(doomed_key, 0) == FAULT_ERROR and all(
                plan.decide(point_key(SweepPoint(workload=workload, policy=spec)), 0)
                is None
                for name, spec in [("conventional", {"kind": "conventional"})]
                + list(policies.items())
                if name != "static-4"
            ):
                break
        else:
            pytest.fail("no seed fails only static-4")

        degraded = compare_policies(
            workload,
            policies,
            executor=SweepExecutor(jobs=1, retries=0, fault_plan=plan),
        )
        assert degraded.baseline_makespan == healthy.baseline_makespan
        assert [o.policy_name for o in degraded.outcomes] == ["static-2"]
        assert degraded.outcome("static-2") == healthy.outcome("static-2")
        assert [f.label for f in degraded.failures] == ["static-4/measure"]

    def test_real_persistent_errors_degrade_without_a_plan(self):
        # A workload whose spec fails at build time raises
        # ConfigurationError, not MeasurementError — that is a caller
        # bug and must abort loudly, not degrade.
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=1, retries=1).run(
                [SweepPoint(workload={"kind": "nope"})]
            )


class TestExecutorValidation:
    def test_invalid_resilience_options_rejected(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            SweepExecutor(timeout=0.0)
        with pytest.raises(ConfigurationError, match="retries"):
            SweepExecutor(retries=-1)
        with pytest.raises(ConfigurationError, match="backoff_base"):
            SweepExecutor(backoff_base=-0.5)
