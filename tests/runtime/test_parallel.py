"""Tests for the parallel sweep executor, result cache, and telemetry."""

import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import time
import warnings
from collections import Counter, OrderedDict
from concurrent.futures import ProcessPoolExecutor
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import offline_exhaustive_search
from repro.errors import ConfigurationError, MeasurementError, WorkloadError
from repro.runtime.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    stable_hash,
)
from repro.runtime.experiment import compare_policies
from repro.runtime import cache as cache_module, parallel
from repro.runtime.faults import PointFailure
from repro.runtime.parallel import (
    PointResult,
    SweepExecutor,
    SweepPoint,
    build_machine_from_spec,
    build_policy_from_spec,
    build_workload_from_spec,
    forget_last_builds,
    point_key,
    run_point,
)
from repro.runtime.suite import run_suite
from repro.runtime.telemetry import TelemetryWriter, read_telemetry
from repro.sim.machine import i7_860
from repro.sim.scheduler import FixedMtlPolicy
from repro.sim.simulator import Simulator
from repro.workloads import build_workload, synthetic_from_ratio

SYNTH = {"kind": "synthetic", "ratio": 0.5, "pairs": 24}


def _reference_canonical(value):
    """The canonical form as ``stable_hash`` first built it: every dict
    rebuilt with its keys sorted by ``str``, then encoded by
    ``json.dumps(sort_keys=True)`` (the key bytes are pinned to it)."""
    if isinstance(value, dict):
        return {
            str(k): _reference_canonical(value[k]) for k in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple)):
        return [_reference_canonical(item) for item in value]
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    raise ConfigurationError(f"cannot hash value of type {type(value).__name__}")


def _reference_hash(description):
    canonical = json.dumps(
        _reference_canonical(description), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _SpecDict(dict):
    pass


class _SpecInt(int):
    pass


class _SpecFloat(float):
    pass


class _SpecStr(str):
    pass


#: Floats that print oddly, and integral ones next to the equal ints.
_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 2.0, 1e16, 0.1 + 0.2]
)
_HASH_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.integers(),
    st.text(max_size=6),
    st.floats(),
    _EDGE_FLOATS,
    # Subclasses canonicalise as their base types do.
    st.integers(-2, 2).map(_SpecInt),
    _EDGE_FLOATS.map(_SpecFloat),
    st.text(max_size=3).map(_SpecStr),
)
#: Keys whose ``str`` forms collide ("1" and 1, "True" and True, "1.0"
#: and 1.0), so the last-inserted-wins rule is exercised.
_HASH_KEYS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["0", "1", "1.0", "True", "None", "-0.0"]),
    st.integers(-1, 2),
    st.booleans(),
    st.none(),
    _EDGE_FLOATS,
)
_HASH_VALUES = st.recursive(
    _HASH_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_HASH_KEYS, children, max_size=4),
        st.dictionaries(_HASH_KEYS, children, max_size=4).map(OrderedDict),
        st.dictionaries(_HASH_KEYS, children, max_size=4).map(_SpecDict),
    ),
    max_leaves=12,
)


class TestStableHash:
    def test_key_order_does_not_matter(self):
        a = {"x": 1, "y": {"b": 2.5, "a": [1, 2]}}
        b = {"y": {"a": [1, 2], "b": 2.5}, "x": 1}
        assert stable_hash(a) == stable_hash(b)

    def test_value_changes_change_the_hash(self):
        base = {"ratio": 0.5}
        assert stable_hash(base) != stable_hash({"ratio": 0.25})
        assert stable_hash(base) != stable_hash({"ratio": "0.5"})

    def test_float_precision_is_exact(self):
        assert stable_hash({"r": 0.1 + 0.2}) != stable_hash({"r": 0.3})

    def test_non_json_values_are_rejected(self):
        with pytest.raises(ConfigurationError):
            stable_hash({"bad": object()})

    @pytest.mark.parametrize(
        "bad", [object(), {1, 2}, b"bytes", MappingProxyType({"a": 1})]
    )
    def test_unsupported_types_are_rejected_at_any_depth(self, bad):
        for description in ({"bad": bad}, {"a": [1, {"b": (bad,)}]}):
            with pytest.raises(ConfigurationError, match="cannot hash value"):
                stable_hash(description)
            with pytest.raises(ConfigurationError, match="cannot hash value"):
                _reference_hash(description)

    def test_integral_floats_and_ints_differ(self):
        assert stable_hash({"x": 1}) != stable_hash({"x": 1.0})
        assert stable_hash({"x": [0]}) != stable_hash({"x": [-0.0]})
        assert stable_hash({"x": 0.0}) != stable_hash({"x": -0.0})

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(_HASH_KEYS, _HASH_VALUES, max_size=6))
    def test_digest_matches_the_sorted_rebuild(self, description):
        assert stable_hash(description) == _reference_hash(description)

    @settings(max_examples=100, deadline=None)
    @given(_HASH_VALUES)
    def test_any_value_matches_the_sorted_rebuild(self, value):
        assert stable_hash(value) == _reference_hash(value)


def _store_many(directory, proc, count):
    """Store ``count`` entries from a separate process."""
    cache = ResultCache(directory)
    for n in range(count):
        cache.put(stable_hash({"proc": proc, "n": n}), {"proc": proc, "n": n})


def _same_bucket(key, salt="q"):
    """A key other than ``key`` in ``key``'s bucket."""
    return next(
        other for other in (stable_hash({salt: n}) for n in range(10_000))
        if other[:2] == key[:2] and other != key
    )


@pytest.fixture
def bucket_reads(monkeypatch):
    """The path of every bucket file the cache reads, in order."""
    reads = []
    real_read = cache_module._read

    def counting(bucket):
        reads.append(bucket)
        return real_read(bucket)

    monkeypatch.setattr(cache_module, "_read", counting)
    return reads


def _append_line(directory, key, text):
    """Append raw ``<key> <text>`` to the bucket that holds ``key``, as
    a manual edit or a damaged disk would."""
    bucket = directory / f"{key[:2]}.log"
    with bucket.open("a") as handle:
        handle.write(f"{key} {text}")
    return bucket


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"p": 1})
        assert cache.get(key) is None
        cache.put(key, {"makespan": 1.5}, point={"p": 1})
        assert cache.get(key) == {"makespan": 1.5}
        assert cache.stats == CacheStats(hits=1, misses=1, stores=1)

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"p": 2})
        cache.put(key, {"makespan": 2.0})
        cache.append_truncated(key)
        assert cache.get(key) is None
        # The quarantine record removes the entry from every later
        # view: plain misses, here and in a fresh process's cache.
        assert cache.get(key) is None
        assert cache.stats == CacheStats(misses=2, stores=1, quarantined=1)
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats == CacheStats(misses=1)

    @pytest.mark.parametrize(
        "content, reason",
        [
            pytest.param('{"schema": 1, "resu', "not valid JSON", id="truncated"),
            pytest.param("not json at all", "not valid JSON", id="bad-json"),
            pytest.param('["a", "list"]', "not a result object", id="not-object"),
            pytest.param(
                '{"schema": 1, "key": "x"}', "not a result object", id="no-result"
            ),
            pytest.param(
                '{"schema": 999, "result": {"makespan": 1.0}}',
                "schema version 999",
                id="wrong-schema-version",
            ),
            pytest.param(
                '{"result": {"makespan": 1.0}}',
                "schema version None",
                id="missing-schema-version",
            ),
        ],
    )
    def test_corrupt_entry_is_quarantined(self, tmp_path, content, reason):
        key = stable_hash({"p": 3})
        ResultCache(tmp_path).put(key, {"makespan": 3.0})
        bucket = _append_line(tmp_path, key, f"{content}\n")
        sink = io.StringIO()
        cache = ResultCache(tmp_path, telemetry=TelemetryWriter(sink))

        assert cache.get(key) is None
        # Counted, telemetered with the file holding the evidence, and
        # the evidence is never rewritten.
        assert cache.stats.quarantined == 1
        (record,) = read_telemetry(io.StringIO(sink.getvalue()))
        assert record["event"] == "cache_quarantine"
        assert record["key"] == key
        assert record["path"] == str(bucket)
        assert reason in record["reason"]
        assert f"{key} {content}\n" in bucket.read_text()
        # The slot is freed: later lookups are plain misses.
        assert cache.get(key) is None
        assert ResultCache(tmp_path).get(key) is None
        assert cache.stats.quarantined == 1

        # The slot re-verifies: a fresh store round-trips again, in
        # this cache and a fresh one, and the evidence is untouched.
        cache.put(key, {"makespan": 3.0})
        assert cache.get(key) == {"makespan": 3.0}
        assert ResultCache(tmp_path).get(key) == {"makespan": 3.0}
        assert f"{key} {content}\n" in bucket.read_text()

    def test_healthy_entries_never_quarantine(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"p": 4})
        cache.put(key, {"makespan": 4.0})
        for _ in range(3):
            assert cache.get(key) == {"makespan": 4.0}
        assert cache.stats.quarantined == 0

    def test_malformed_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path).get("../../etc/passwd")

    def test_clear_removes_quarantined_entries_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in range(3):
            cache.put(stable_hash({"p": n}), {"n": n})
        cache.append_truncated(stable_hash({"p": 0}))
        assert cache.get(stable_hash({"p": 0})) is None  # quarantines
        # Entry files of the older one-file-per-entry layout go too.
        legacy = tmp_path / "ab"
        legacy.mkdir()
        (legacy / f"ab{stable_hash({'p': 1})[2:]}.json").write_text("{}")
        (legacy / f"ab{stable_hash({'p': 2})[2:]}.json.corrupt").write_text("{")
        buckets = {stable_hash({"p": n})[:2] for n in range(3)}
        assert cache.clear() == len(buckets) + 2  # + 2 legacy files
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]
        assert cache.get(stable_hash({"p": 1})) is None
        cache.put(stable_hash({"p": 1}), {"n": 1})
        assert ResultCache(tmp_path).get(stable_hash({"p": 1})) == {"n": 1}

    def test_partial_trailing_line_is_never_served(self, tmp_path):
        healthy, torn = stable_hash({"p": 5}), stable_hash({"p": 6})

        def record(n):
            return json.dumps(
                {"schema": CACHE_SCHEMA_VERSION, "key": torn, "result": {"n": n}}
            )

        ResultCache(tmp_path).put(healthy, {"n": 5})
        bucket = _append_line(tmp_path, torn, record(6))
        cache = ResultCache(tmp_path)
        assert cache.get(torn) is None
        assert cache.get(healthy) == {"n": 5}
        # Once the writer finishes the line, the next lookup serves it.
        with bucket.open("a") as handle:
            handle.write("\n")
        assert cache.get(torn) == {"n": 6}
        # A newer line still being written leaves the last whole one.
        _append_line(tmp_path, torn, record(7))
        assert cache.get(torn) == {"n": 6}
        with bucket.open("a") as handle:
            handle.write("\n")
        assert cache.get(torn) == {"n": 7}
        assert cache.stats.quarantined == 0

    def test_line_appended_behind_a_torn_one_is_recomputed(self, tmp_path):
        torn = stable_hash({"p": 12})
        glued = next(
            key for key in (stable_hash({"q": n}) for n in range(10_000))
            if key[:2] == torn[:2]
        )
        _append_line(tmp_path, torn, '{"schema": ')  # a writer killed mid-line
        cache = ResultCache(tmp_path)
        cache.put(glued, {"n": 1})
        # The two read as one corrupt line of the torn key ...
        assert cache.get(torn) is None
        assert cache.stats.quarantined == 1
        # ... and the glued entry is a plain miss until it is re-stored.
        assert cache.get(glued) is None
        cache.put(glued, {"n": 1})
        assert cache.get(glued) == {"n": 1}
        assert cache.stats.quarantined == 1

    def test_sees_stores_made_by_another_instance_after_first_lookup(self, tmp_path):
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        first, second = stable_hash({"p": 7}), stable_hash({"p": 8})
        assert b.get(first) is None  # before any bucket exists
        a.put(first, {"n": 7})
        assert b.get(first) == {"n": 7}
        a.put(second, {"n": 8})
        assert b.get(second) == {"n": 8}
        assert b.stats == CacheStats(hits=2, misses=1)

    def test_store_by_another_instance_into_the_bucket_read_last_is_served(
        self, tmp_path, bucket_reads
    ):
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        first = stable_hash({"p": 20})
        second = _same_bucket(first)
        a.put(first, {"n": 20})
        assert b.get(first) == {"n": 20}
        assert b.get(first) == {"n": 20}
        assert len(bucket_reads) == 1  # the second lookup reused the bytes
        a.put(second, {"n": 21})  # between two lookups of one bucket
        assert b.get(second) == {"n": 21}
        assert b.get(first) == {"n": 20}
        assert len(bucket_reads) == 2
        assert b.stats == CacheStats(hits=4)

    def test_restore_after_clear_into_a_same_size_bucket_is_served(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = stable_hash({"p": 21})
        bucket = tmp_path / f"{key[:2]}.log"
        cache.put(key, {"n": 1})
        assert cache.get(key) == {"n": 1}
        before = bucket.stat()
        assert cache.clear() == 1
        # One line of the same length, in a new file that may reuse the
        # inode, stamped as if in the same clock tick.
        cache.put(key, {"n": 2})
        os.utime(bucket, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert bucket.stat().st_size == before.st_size
        assert cache.get(key) == {"n": 2}
        assert ResultCache(tmp_path).get(key) == {"n": 2}

    def test_partial_line_in_the_bucket_read_last_is_served_once_completed(
        self, tmp_path, bucket_reads
    ):
        healthy = stable_hash({"p": 22})
        torn = _same_bucket(healthy)
        record = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "key": torn, "result": {"n": 23}}
        )
        cache = ResultCache(tmp_path)
        cache.put(healthy, {"n": 22})
        assert cache.get(healthy) == {"n": 22}
        bucket = _append_line(tmp_path, torn, record)  # still being written
        assert cache.get(torn) is None
        assert cache.get(healthy) == {"n": 22}
        assert len(bucket_reads) == 2
        with bucket.open("a") as handle:
            handle.write("\n")
        assert cache.get(torn) == {"n": 23}
        assert len(bucket_reads) == 3
        assert cache.stats.quarantined == 0

    def test_short_writes_still_append_whole_lines(self, tmp_path, monkeypatch):
        # The kernel may accept only part of a write; the rest must
        # follow before the next line starts.
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        entries = {stable_hash({"p": n}): {"n": n} for n in range(3)}
        writer = ResultCache(tmp_path)
        for key, result in entries.items():
            writer.put(key, result)
        monkeypatch.undo()
        reader = ResultCache(tmp_path)
        assert {key: reader.get(key) for key in entries} == entries

    def test_restore_serves_the_last_line_written(self, tmp_path):
        key = stable_hash({"p": 10})
        cache = ResultCache(tmp_path)
        cache.put(key, {"n": 1})
        assert cache.get(key) == {"n": 1}
        cache.put(key, {"n": 2})  # over a key this instance has indexed
        assert cache.get(key) == {"n": 2}
        assert ResultCache(tmp_path).get(key) == {"n": 2}

    def test_restore_after_another_instances_quarantine_is_served(self, tmp_path):
        key = stable_hash({"p": 11})
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        a.put(key, {"n": 11})
        b.append_truncated(key)
        assert b.get(key) is None  # b quarantines the truncated line
        a.put(key, {"n": 11})  # a's re-store comes after b's record
        assert ResultCache(tmp_path).get(key) == {"n": 11}
        assert b.get(key) == {"n": 11}
        assert b.stats.quarantined == 1

    def test_concurrent_writer_processes_leave_every_entry_intact(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(target=_store_many, args=(tmp_path, proc, 500))
            for proc in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert [writer.exitcode for writer in writers] == [0, 0]
        assert all(
            re.fullmatch(r"[0-9a-f]{2}\.log", p.name) for p in tmp_path.iterdir()
        )
        reader = ResultCache(tmp_path)
        for proc in range(2):
            for n in range(500):
                key = stable_hash({"proc": proc, "n": n})
                assert reader.get(key) == {"proc": proc, "n": n}
        assert reader.stats == CacheStats(hits=1000)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="lists open fds via /proc"
    )
    def test_no_file_handle_outlives_a_call(self, tmp_path):
        before = sorted(os.listdir("/proc/self/fd"))
        cache = ResultCache(tmp_path)
        key = stable_hash({"p": 9})
        cache.put(key, {"n": 9})
        cache.append_truncated(key)
        assert cache.get(key) is None  # quarantines
        cache.put(key, {"n": 9})
        assert cache.get(key) == {"n": 9}
        assert sorted(os.listdir("/proc/self/fd")) == before


class TestSpecBuilders:
    def test_registry_workload(self):
        program = build_workload_from_spec({"kind": "registry", "name": "dft"})
        assert program.name == build_workload("dft").name

    def test_unknown_kinds_are_named(self):
        with pytest.raises(ConfigurationError, match="workload kind"):
            build_workload_from_spec({"kind": "nope"})
        with pytest.raises(ConfigurationError, match="machine preset"):
            build_machine_from_spec({"preset": "cray"})
        with pytest.raises(ConfigurationError, match="policy kind"):
            build_policy_from_spec({"kind": "nope"}, i7_860())

    def test_missing_keys_are_named(self):
        with pytest.raises(ConfigurationError, match="'kind'"):
            build_workload_from_spec({})
        with pytest.raises(ConfigurationError, match="'mtl'"):
            build_policy_from_spec({"kind": "static"}, i7_860())

    @pytest.mark.parametrize(
        "ratio",
        [
            math.nan,
            math.inf,
            -math.inf,
            5e-324,
            pytest.param(10**400, id="int-past-float-range"),
        ],
    )
    def test_degenerate_synthetic_ratio_is_named(self, ratio):
        # A NaN, infinite, subnormal or past-float-range ratio fails at
        # the spec, naming the key, rather than mid-run on an infinite
        # time step or with a bare OverflowError.
        spec = {"kind": "synthetic", "ratio": ratio, "pairs": 16}
        with pytest.raises(WorkloadError, match="ratio"):
            build_workload_from_spec(spec)
        with pytest.raises(WorkloadError, match="ratio"):
            SweepExecutor(jobs=1).run([SweepPoint(workload=spec)])

    def test_machine_presets(self):
        assert build_machine_from_spec({"preset": "i7_860"}).context_count == 4
        power7 = build_machine_from_spec(
            {"preset": "power7", "smt": 4, "channels": 2}
        )
        assert power7.context_count == 32


#: Two spellings of one spec each: key order, and a tuple for a list.
WORKLOAD_SPELLINGS = [
    (
        {"kind": "synthetic", "ratio": 0.5, "pairs": 8},
        {"pairs": 8, "ratio": 0.5, "kind": "synthetic"},
    ),
    (
        {
            "kind": "spec",
            "document": {
                "name": "tiny",
                "phases": [{"name": "a", "pairs": 8, "ratio": 0.5}],
            },
        },
        {
            "document": {
                "phases": ({"ratio": 0.5, "pairs": 8, "name": "a"},),
                "name": "tiny",
            },
            "kind": "spec",
        },
    ),
]
MACHINE_SPELLINGS = [
    (
        {"preset": "i7_860", "channels": 2, "smt": 2},
        {"smt": 2, "channels": 2, "preset": "i7_860"},
    ),
    ({"preset": "i7_860"}, {"preset": "i7_860"}),
]
POLICY_SPELLINGS = [
    (
        {"kind": "dynamic", "window_pairs": 4},
        {"window_pairs": 4, "kind": "dynamic"},
    ),
    ({"kind": "offline"}, {"kind": "offline"}),
]


class TestSweepPoint:
    def test_label_excluded_from_key(self):
        a = SweepPoint(workload=SYNTH, label="a")
        b = SweepPoint(workload=SYNTH, label="b")
        assert point_key(a) == point_key(b)

    def test_seed_included_in_key(self):
        assert point_key(SweepPoint(workload=SYNTH, seed=1)) != point_key(
            SweepPoint(workload=SYNTH, seed=2)
        )
        assert point_key(SweepPoint(workload=SYNTH, seed=None)) != point_key(
            SweepPoint(workload=SYNTH, seed=0)
        )

    def test_spec_mutation_after_construction_is_isolated(self):
        spec = {"kind": "synthetic", "ratio": 0.5, "pairs": 24}
        point = SweepPoint(workload=spec)
        key = point_key(point)
        spec["ratio"] = 4.0
        assert point_key(point) == key

    def test_result_round_trips_through_json(self):
        result = run_point(SweepPoint(workload=SYNTH, policy={"kind": "offline"}))
        payload = json.loads(json.dumps(result.to_dict()))
        assert PointResult.from_dict(payload) == result

    @settings(max_examples=30, deadline=None)
    @given(
        workload=st.sampled_from(WORKLOAD_SPELLINGS),
        machine=st.sampled_from(MACHINE_SPELLINGS),
        policy=st.sampled_from(POLICY_SPELLINGS),
        seed=st.sampled_from([None, 5]),
        flips=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        labels=st.tuples(st.text(max_size=4), st.text(max_size=4)),
    )
    def test_property_equal_keys_give_equal_results(
        self, workload, machine, policy, seed, flips, labels
    ):
        # Two spellings of one configuration share a key, so the cache
        # serves one's result for the other: they must run identically
        # (the label is echoed, not part of the configuration).
        first = SweepPoint(workload[0], machine[0], policy[0], seed, labels[0])
        second = SweepPoint(
            *(pair[int(flip)] for pair, flip in zip((workload, machine, policy), flips)),
            seed,
            labels[1],
        )
        assert point_key(first) == point_key(second)
        a, b = _cold(first), _cold(second)
        assert (a.pop("label"), b.pop("label")) == labels
        assert a == b


class TestGoldenCacheKeys:
    """Keys pinned as literal digests: a change to the key scheme (or
    to ``CACHE_SCHEMA_VERSION``) must be deliberate, since it orphans
    every stored entry."""

    POINTS = {
        "synthetic-llc": SweepPoint(
            workload={
                "kind": "synthetic", "ratio": 0.5, "footprint_bytes": 2 << 20,
                "pairs": 24, "llc": {"capacity_bytes": 8 << 20, "sharers": 4},
            },
            policy={"kind": "static", "mtl": 2},
        ),
        "registry-dynamic": SweepPoint(
            workload={"kind": "registry", "name": "dft"},
            machine={"preset": "i7_860", "channels": 2, "smt": 2},
            policy={"kind": "dynamic"},
        ),
        "offline": SweepPoint(
            workload={"kind": "synthetic", "ratio": 1.0, "pairs": 16},
            policy={"kind": "offline"},
        ),
        "ratio-int": SweepPoint(workload={"kind": "synthetic", "ratio": 2, "pairs": 16}),
        "ratio-float": SweepPoint(
            workload={"kind": "synthetic", "ratio": 2.0, "pairs": 16}
        ),
        "seed-7": SweepPoint(
            workload={"kind": "synthetic", "ratio": 2.0, "pairs": 16}, seed=7
        ),
        "power7": SweepPoint(
            workload={"kind": "synthetic", "ratio": 0.25, "pairs": 32},
            machine={"preset": "power7", "smt": 4, "channels": 8},
            policy={"kind": "static", "mtl": 16},
        ),
    }
    KEYS = {
        "synthetic-llc": "b32f1dafe1692a6f2441d808d7cee32941220eb6ecf25c71e5e9560199c9214d",
        "registry-dynamic": "0ad74d6caf97b4d214cca654b62b795b0cca72ca49fa37f1062216deca9bea80",
        "offline": "abecdc99620af579229dfbbc7c25aa396c5ad37626ee45ebf321b14a8b803d04",
        "ratio-int": "a4e5dda201690bb37777c8f90c5432c9c6a3afc15120766e6c9087377b9a12f4",
        "ratio-float": "684fa44b7457c9cd96bbb95459e0c019e4e575df16a247352c139753c96e2bd2",
        "seed-7": "c113fc0e563f9e46cd6819397000d9f3c625402fb3853d3ab854c651bb82e4bb",
        "power7": "1f19c783a9aaa396926daf3457698a7d7f9be2d3c9596fc2b12393908610b4a6",
    }

    def test_schema_version_is_pinned(self):
        assert CACHE_SCHEMA_VERSION == 2

    @pytest.mark.parametrize("name", sorted(KEYS))
    def test_key_is_pinned(self, name):
        assert point_key(self.POINTS[name]) == self.KEYS[name]


class TestRunPoint:
    def test_matches_direct_simulation(self):
        point = SweepPoint(workload=SYNTH, policy={"kind": "static", "mtl": 2})
        direct = Simulator(i7_860()).run(
            synthetic_from_ratio(0.5, pairs=24), FixedMtlPolicy(2)
        )
        result = run_point(point)
        assert result.makespan == direct.makespan
        assert result.task_count == direct.task_count
        assert result.selected_mtl == 2

    def test_offline_matches_offline_search(self):
        point = SweepPoint(workload=SYNTH, policy={"kind": "offline"})
        outcome = offline_exhaustive_search(synthetic_from_ratio(0.5, pairs=24))
        result = run_point(point)
        assert result.selected_mtl == outcome.best_mtl
        assert result.makespan == outcome.best.makespan
        assert result.per_mtl_makespan == {
            mtl: r.makespan for mtl, r in outcome.by_mtl.items()
        }

    def test_seeded_runs_are_deterministic(self):
        point = SweepPoint(workload=SYNTH, seed=42)
        assert run_point(point).makespan == run_point(point).makespan
        unseeded = run_point(SweepPoint(workload=SYNTH))
        assert run_point(point).makespan != unseeded.makespan


def _cold(point):
    """The point's result with no workload or machine remembered."""
    forget_last_builds()
    return run_point(point).to_dict()


@pytest.fixture
def builds(monkeypatch):
    """Forget any remembered workload, then record the spec of every
    build :func:`run_point` makes."""
    forget_last_builds()
    specs = []
    original = parallel.build_workload_from_spec

    def recording(spec):
        specs.append(json.dumps(spec, sort_keys=True))
        return original(spec)

    monkeypatch.setattr(parallel, "build_workload_from_spec", recording)
    yield specs
    forget_last_builds()


#: Small workloads for the reuse property, with int and float
#: spellings of one ratio (distinct canonical forms, built apart).
REUSE_POOL = [
    {"kind": "synthetic", "ratio": 1.0, "pairs": 8},
    {"kind": "synthetic", "ratio": 1, "pairs": 8},
    {"kind": "synthetic", "ratio": 0.25, "pairs": 8},
    {"kind": "streamcluster", "dimension": 32, "rounds": 1, "pairs_per_round": 8},
    {
        "kind": "spec",
        "document": {"name": "tiny", "phases": [{"name": "a", "pairs": 8, "ratio": 1}]},
    },
    {
        "kind": "spec",
        "document": {
            "name": "tiny",
            "phases": [{"name": "a", "pairs": 8, "ratio": 1.0}],
        },
    },
]
REUSE_POLICIES = [
    {"kind": "static", "mtl": 2},
    {"kind": "dynamic", "window_pairs": 4},
    {"kind": "offline"},
]
#: Machines for the reuse property: SMT on and off, and two spellings
#: of one machine (one canonical form, so they share a machine).
REUSE_MACHINES = [
    {"preset": "i7_860"},
    {"preset": "i7_860", "smt": 2},
    {"smt": 2, "preset": "i7_860"},
    {"preset": "i7_860", "channels": 2},
]


class TestWorkloadReuse:
    A = {"kind": "synthetic", "ratio": 1.0, "pairs": 16}
    B = {"kind": "synthetic", "ratio": 0.25, "pairs": 16}
    C = {"kind": "registry", "name": "dft"}

    def test_reuse_never_changes_a_result(self, builds):
        a_int = dict(self.A, ratio=1)
        points = [
            SweepPoint(workload=self.A, policy={"kind": "static", "mtl": 2}),
            SweepPoint(workload=self.A, policy={"kind": "dynamic"}, seed=3),
            SweepPoint(workload=self.B, policy={"kind": "mise"}, seed=5),
            SweepPoint(workload=self.A, policy={"kind": "offline"}, seed=7),
            SweepPoint(workload=a_int, policy={"kind": "offline"}),
        ]
        remembered = [run_point(point).to_dict() for point in points]
        # A, B, A, and A with an int ratio (a different canonical form).
        built = len(builds)
        assert remembered == [_cold(point) for point in points]
        assert built == 4

    def test_int_after_float_spec_is_still_validated(self, builds):
        run_point(SweepPoint(workload={"kind": "synthetic", "ratio": 1.0, "pairs": 16}))
        with pytest.raises(ConfigurationError, match="'pairs'"):
            run_point(
                SweepPoint(workload={"kind": "synthetic", "ratio": 1.0, "pairs": 16.0})
            )

    def test_failing_spec_is_never_remembered(self, builds):
        bad = SweepPoint(workload={"kind": "synthetic", "ratio": -1.0, "pairs": 16})
        run_point(SweepPoint(workload=self.A))
        for _ in range(2):
            with pytest.raises(WorkloadError):
                run_point(bad)
        run_point(SweepPoint(workload=self.A))
        assert len(builds) == 4

    def test_non_json_spec_is_rejected(self, builds):
        point = SweepPoint(workload=dict(self.A, note=object()))
        with pytest.raises(ConfigurationError, match="JSON"):
            run_point(point)
        assert builds == []

    def test_one_build_per_run_of_equal_specs(self, builds):
        specs = [self.A, self.A, self.C, self.C, self.C, self.A, dict(self.A)]
        points = [
            SweepPoint(workload=spec, policy={"kind": "static", "mtl": mtl})
            for spec, mtl in zip(specs, (1, 2, 4, 1, 2, 4, 1))
        ]
        SweepExecutor(jobs=1).run(points)
        assert builds == [
            json.dumps(spec, sort_keys=True) for spec in (self.A, self.C, self.A)
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(REUSE_POOL) - 1),
                st.sampled_from(REUSE_POLICIES),
                st.sampled_from([None, 3]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_property_remembered_workload_equals_cold(self, draws):
        points = [
            SweepPoint(workload=REUSE_POOL[index], policy=policy, seed=seed)
            for index, policy, seed in draws
        ]
        remembered = [run_point(point).to_dict() for point in points]
        assert remembered == [_cold(point) for point in points]

    def test_repeated_spec_grid_rows_match_across_jobs(self):
        grid = dict(
            workloads={"a": self.A, "b": self.B, "c": self.C},
            machines=[
                {"preset": "i7_860", "smt": 2},
                {"preset": "i7_860", "channels": 2},
            ],
            policies={
                "static-2": {"kind": "static", "mtl": 2},
                "dynamic": {"kind": "dynamic"},
                "qos": {"kind": "qos"},
            },
        )
        serial = run_suite(**grid, executor=SweepExecutor(jobs=1))
        pooled = run_suite(**grid, executor=SweepExecutor(jobs=2))
        assert pooled.rows == serial.rows
        assert len(serial.rows) == 18


class TestMachineReuse:
    """``run_point`` keeps the last machine, and with it the machine's
    rate-snapshot and equilibrium memos, for the next point on an equal
    machine spec."""

    SMT = {"preset": "i7_860", "smt": 2}

    @pytest.fixture
    def machines(self, monkeypatch):
        """Forget what is remembered, then record every machine
        :func:`run_point` builds with its memo counters at build time."""
        forget_last_builds()
        built = []
        original = parallel.build_machine_from_spec

        def recording(spec):
            machine = original(spec)
            built.append((
                machine,
                machine.rate_calculator.cache_info(),
                machine.memory.equilibrium_cache_info(),
            ))
            return machine

        monkeypatch.setattr(parallel, "build_machine_from_spec", recording)
        yield built
        forget_last_builds()

    def test_equal_specs_share_one_machine_and_its_memo(self, machines):
        for mtl in (1, 2, 4):
            run_point(SweepPoint(
                workload=TestWorkloadReuse.A, machine=self.SMT,
                policy={"kind": "static", "mtl": mtl},
            ))
        run_point(SweepPoint(
            workload=TestWorkloadReuse.B, machine=dict(reversed(self.SMT.items())),
        ))
        assert len(machines) == 1
        rates = machines[0][0].rate_calculator.cache_info()
        assert rates["hits"] > 0 and rates["misses"] > 0

    def test_cold_reset_builds_a_machine_with_empty_memos(self, machines):
        point = SweepPoint(
            workload=TestWorkloadReuse.A, machine=self.SMT,
            policy={"kind": "dynamic", "window_pairs": 4}, seed=3,
        )
        first = run_point(point).to_dict()
        cold_counts = machines[0][0].rate_calculator.cache_info()
        assert run_point(point).to_dict() == first
        assert len(machines) == 1
        forget_last_builds()
        assert run_point(point).to_dict() == first
        assert len(machines) == 2
        machine, rates, solutions = machines[1]
        assert machine is not machines[0][0]
        empty = {"hits": 0, "misses": 0, "entries": 0}
        assert rates == empty
        assert {key: solutions[key] for key in empty} == empty
        # The reset point starts as cold as the very first one did.
        assert machine.rate_calculator.cache_info() == cold_counts

    @settings(max_examples=40, deadline=None)
    @given(
        draws=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(REUSE_POOL) - 1),
                st.integers(min_value=0, max_value=len(REUSE_MACHINES) - 1),
                st.sampled_from(REUSE_POLICIES),
                st.sampled_from([None, 3]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_property_remembered_machine_equals_cold(self, draws):
        points = [
            SweepPoint(
                workload=REUSE_POOL[workload], machine=REUSE_MACHINES[machine],
                policy=policy, seed=seed,
            )
            for workload, machine, policy, seed in draws
        ]
        remembered = [run_point(point).to_dict() for point in points]
        assert remembered == [_cold(point) for point in points]


class TestSweepExecutor:
    POINTS = [
        SweepPoint(workload={"kind": "synthetic", "ratio": r, "pairs": 16},
                   policy={"kind": "static", "mtl": mtl})
        for r in (0.2, 1.0)
        for mtl in (1, 2, 4)
    ]

    def test_serial_and_parallel_results_are_identical(self):
        serial = SweepExecutor(jobs=1).run(self.POINTS)
        parallel = SweepExecutor(jobs=3).run(self.POINTS)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_results_come_back_in_input_order(self):
        results = SweepExecutor(jobs=3).run(self.POINTS)
        assert [r.selected_mtl for r in results] == [1, 2, 4, 1, 2, 4]

    def test_warm_cache_serves_every_point(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(jobs=1, cache=cache)
        cold = executor.run(self.POINTS)
        warm = executor.run(self.POINTS)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
        assert cache.stats.hits == len(self.POINTS)
        assert cache.stats.stores == len(self.POINTS)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_sweep_reads_each_bucket_at_most_once(
        self, tmp_path, bucket_reads, jobs
    ):
        points = _tiny(60)
        keys = [point_key(point) for point in points]
        assert max(Counter(key[:2] for key in keys).values()) > 1  # shared buckets
        cold = SweepExecutor(jobs=jobs, cache=ResultCache(tmp_path)).run(points)
        bucket_reads.clear()
        cache = ResultCache(tmp_path)
        warm = SweepExecutor(jobs=jobs, cache=cache).run(points)
        assert [r.to_dict() for r in warm] == [r.to_dict() for r in cold]
        assert cache.stats == CacheStats(hits=len(points))
        assert sorted(bucket_reads) == sorted(
            str(tmp_path / f"{prefix}.log") for prefix in {key[:2] for key in keys}
        )

    def test_quarantines_match_per_point_lookups(self, tmp_path):
        # Key-order lookups quarantine exactly what the per-point order
        # did: each quarantine record only affects its own key.
        points = _tiny(40) + _tiny(3)  # three points asked twice
        keys = [point_key(point) for point in points]
        source = tmp_path / "source"
        seeded = ResultCache(source)
        SweepExecutor(cache=seeded).run(points)
        for key in keys[::4]:
            seeded.append_truncated(key)
        for key in keys[1::7]:
            _append_line(source, key, '["not", "a", "result"]\n')
        _append_line(source, keys[2], '{"schema": 1, "result": {}}\n')

        def quarantined(cache, sink):
            log = io.StringIO(sink.getvalue())
            return cache.stats.quarantined, sorted(
                (r["key"], os.path.basename(r["path"]), r["reason"])
                for r in read_telemetry(log, "cache_quarantine")
            )

        shutil.copytree(source, tmp_path / "swept")
        sink = io.StringIO()
        swept = ResultCache(tmp_path / "swept", telemetry=TelemetryWriter(sink))
        SweepExecutor(cache=swept).run(points)
        shutil.copytree(source, tmp_path / "looked-up")
        reference = io.StringIO()
        looked_up = ResultCache(
            tmp_path / "looked-up", telemetry=TelemetryWriter(reference)
        )
        for key in keys:  # input order, one lookup per point
            looked_up.get(key)
        assert quarantined(swept, sink) == quarantined(looked_up, reference)
        corrupt = set(keys[::4]) | set(keys[1::7]) | {keys[2]}
        assert swept.stats.quarantined == len(corrupt)
        assert swept.stats.misses == looked_up.stats.misses

    def test_cache_is_shared_between_serial_and_parallel(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor(jobs=3, cache=cache).run(self.POINTS)
        sink = io.StringIO()
        SweepExecutor(
            jobs=1, cache=cache, telemetry=TelemetryWriter(sink)
        ).run(self.POINTS)
        records = read_telemetry(io.StringIO(sink.getvalue()), event="point")
        assert all(record["cache_hit"] for record in records)

    def test_telemetry_schema(self):
        sink = io.StringIO()
        results = SweepExecutor(jobs=1, telemetry=TelemetryWriter(sink)).run(
            self.POINTS[:2]
        )
        # One record per point, the policy counters inside it, plus the
        # summary: nothing per counter.
        records = read_telemetry(io.StringIO(sink.getvalue()))
        assert [r["event"] for r in records] == ["point", "point", "sweep"]
        for record, result in zip(records, results):
            for field in ("key", "workload", "machine", "policy", "seed",
                          "cache_hit", "wall_seconds", "worker", "jobs",
                          "makespan", "sim_events", "label", "policy_stats"):
                assert field in record, field
            assert record["policy_stats"] == result.policy_stats
        assert set(records[0]["policy_stats"]) >= {
            "phase_changes", "selections", "windows_closed"
        }
        assert records[-1]["points"] == 2

    def test_cache_hit_takes_this_points_label(self, tmp_path):
        # Labels are not part of the key, so a hit served from an entry
        # another point stored must still echo the asking point's label.
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache).run([SweepPoint(workload=SYNTH, label="first")])
        sink = io.StringIO()
        (hit,) = SweepExecutor(cache=cache, telemetry=TelemetryWriter(sink)).run(
            [SweepPoint(workload=SYNTH, label="second")]
        )
        assert cache.stats.hits == 1
        assert hit.label == "second"
        (record,) = read_telemetry(io.StringIO(sink.getvalue()), event="point")
        assert record["cache_hit"] and record["label"] == "second"

    def test_pool_workers_never_touch_cache_or_telemetry(self, tmp_path, monkeypatch):
        # Workers fork from this process, so they inherit the recording
        # wrappers: a cache or telemetry call in a worker logs its pid.
        callers = tmp_path / "callers"

        def recorded(method):
            def wrapper(self, *args, **kwargs):
                with callers.open("a") as log:
                    log.write(f"{os.getpid()}\n")
                return method(self, *args, **kwargs)

            return wrapper

        for owner, name in (
            (ResultCache, "get"), (ResultCache, "put"), (TelemetryWriter, "emit")
        ):
            monkeypatch.setattr(owner, name, recorded(getattr(owner, name)))
        results = SweepExecutor(
            jobs=3,
            cache=ResultCache(tmp_path / "cache"),
            telemetry=TelemetryWriter(tmp_path / "log.jsonl"),
        ).run(self.POINTS)
        assert {r.selected_mtl for r in results} == {1, 2, 4}
        assert set(callers.read_text().split()) == {str(os.getpid())}
        # One line per point, each stored once, by the parent.
        stored = [
            line.split(" ", 1)[0]
            for bucket in (tmp_path / "cache").glob("*.log")
            for line in bucket.read_text().splitlines()
        ]
        assert sorted(stored) == sorted(
            point_key(point) for point in self.POINTS
        )

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=0)


def _tiny(count, doomed_at=None, doomed_workload=None):
    """``count`` points of about a millisecond each, labelled
    ``tiny/<index>``; the one at ``doomed_at`` is labelled ``doomed``
    and may carry its own workload spec."""
    points = []
    for step in range(count):
        workload = {"kind": "synthetic", "ratio": 0.1 + 0.01 * step, "pairs": 16}
        label = f"tiny/{step}"
        if step == doomed_at:
            label = "doomed"
            workload = doomed_workload or workload
        points.append(
            SweepPoint(
                workload=workload,
                policy={"kind": "static", "mtl": 1 + step % 4},
                label=label,
            )
        )
    return points


@pytest.fixture
def submissions(monkeypatch):
    """The labels of the points of every pool submission, in order."""
    chunks = []
    real_submit = ProcessPoolExecutor.submit

    def recording(pool, fn, points, *args, **kwargs):
        chunks.append([point.label for point in points])
        return real_submit(pool, fn, points, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    return chunks


class TestChunkedSubmission:
    A = {"kind": "synthetic", "ratio": 1.0, "pairs": 16}
    B = {"kind": "synthetic", "ratio": 0.25, "pairs": 16}

    def test_chunk_size_rule(self):
        chunk = parallel._CHUNK_SECONDS
        # One point per submission until a point has completed.
        assert parallel._chunk_size(0.0, 0, 1000, 8) == 1
        # About _CHUNK_SECONDS of work at the completed points' mean ...
        per_point = chunk / 20.5
        assert parallel._chunk_size(41 * per_point, 41, 1000, 8) == 20
        # ... but at most an even share of the queue per in-flight slot,
        assert parallel._chunk_size(41 * per_point, 41, 80, 8) == 10
        assert parallel._chunk_size(41 * per_point, 41, 5, 8) == 1
        # and points costing more than _CHUNK_SECONDS go one at a time.
        assert parallel._chunk_size(6 * chunk, 4, 1000, 8) == 1

    def test_worker_reuses_the_workload_inside_a_chunk(self, builds):
        specs = [self.A, self.A, self.A, self.B, self.B, self.A]
        points = [
            SweepPoint(workload=spec, policy={"kind": "static", "mtl": mtl})
            for spec, mtl in zip(specs, (1, 2, 4, 1, 2, 4))
        ]
        outcomes = parallel._pool_run_points(points)
        assert builds == [
            json.dumps(spec, sort_keys=True) for spec in (self.A, self.B, self.A)
        ]
        assert [payload for payload, _, _, _ in outcomes] == [
            _cold(point) for point in points
        ]
        assert {pid for _, _, _, pid in outcomes} == {os.getpid()}
        assert all(0.0 <= cpu for _, _, cpu, _ in outcomes)

    def test_repeated_specs_in_chunks_match_serial(self, submissions):
        specs = [self.A, self.A, self.A, self.B, self.B, self.A] * 25
        points = [
            SweepPoint(
                workload=spec,
                policy={"kind": "static", "mtl": 1 + index % 4},
                label=f"repeat/{index}",
            )
            for index, spec in enumerate(specs)
        ]
        serial = SweepExecutor(jobs=1).run(points)
        pooled = SweepExecutor(jobs=2).run(points)
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]
        assert len(submissions) < len(points)

    def test_measurement_error_in_a_chunk_degrades_only_its_point(
        self, monkeypatch, submissions
    ):
        # Workers fork from this process and inherit the failing
        # run_point; a chunk size bounded only by the queue share makes
        # the doomed point ride with chunk-mates.
        real_run_point = parallel.run_point

        def failing(point):
            if point.label == "doomed":
                raise MeasurementError("persistent measurement failure")
            return real_run_point(point)

        monkeypatch.setattr(parallel, "run_point", failing)
        monkeypatch.setattr(parallel, "_CHUNK_SECONDS", 60.0)
        points = _tiny(200, doomed_at=60)
        serial = SweepExecutor(jobs=1, retries=1).run(points)
        pooled = SweepExecutor(jobs=2, retries=1).run(points)
        assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]
        failed = [r for r in pooled if isinstance(r, PointFailure)]
        assert [(f.label, f.attempts) for f in failed] == [("doomed", 2)]
        assert failed[0].reason == "persistent measurement failure"
        first = next(chunk for chunk in submissions if "doomed" in chunk)
        assert len(first) > 1

    def test_configuration_error_in_a_chunk_aborts_the_sweep(
        self, monkeypatch, submissions
    ):
        monkeypatch.setattr(parallel, "_CHUNK_SECONDS", 60.0)
        points = _tiny(
            200,
            doomed_at=60,
            doomed_workload={"kind": "synthetic", "ratio": 1.0, "pairs": 16.0},
        )
        for jobs in (1, 2):
            with pytest.raises(ConfigurationError, match="'pairs'"):
                SweepExecutor(jobs=jobs, retries=2).run(points)
        first = next(chunk for chunk in submissions if "doomed" in chunk)
        assert len(first) > 1

    def test_points_costing_more_than_a_chunk_go_alone(
        self, monkeypatch, submissions
    ):
        monkeypatch.setattr(parallel, "_CHUNK_SECONDS", 1e-9)
        points = _tiny(60)
        results = SweepExecutor(jobs=2).run(points)
        assert [r.label for r in results] == [p.label for p in points]
        assert submissions == [[p.label] for p in points]

    def test_chunks_are_sized_from_cpu_time_not_wall(
        self, monkeypatch, submissions
    ):
        # Each point waits 30 ms off the CPU, as a worker does on a
        # busy host: its wall exceeds _CHUNK_SECONDS, its CPU time does
        # not, so points still share submissions.
        real_run_point = parallel.run_point

        def waiting(point):
            time.sleep(0.03)
            return real_run_point(point)

        monkeypatch.setattr(parallel, "run_point", waiting)
        points = _tiny(40)
        results = SweepExecutor(jobs=2).run(points)
        assert [r.label for r in results] == [p.label for p in points]
        assert max(len(chunk) for chunk in submissions) > 1

    def test_a_timeout_means_one_point_per_submission(self, submissions):
        points = _tiny(60)
        serial = SweepExecutor(jobs=1).run(points)
        timed = SweepExecutor(jobs=2, timeout=60.0).run(points)
        assert [r.to_dict() for r in timed] == [r.to_dict() for r in serial]
        assert sorted(submissions) == sorted([p.label] for p in points)

    def test_wall_and_worker_come_from_each_points_own_timing(self):
        sink = io.StringIO()
        SweepExecutor(jobs=2, telemetry=TelemetryWriter(sink)).run(_tiny(120))
        records = read_telemetry(io.StringIO(sink.getvalue()), event="point")
        assert [r["label"] for r in records] == [f"tiny/{i}" for i in range(120)]
        assert all(0.0 < r["wall_seconds"] < 1.0 for r in records)
        assert os.getpid() not in {r["worker"] for r in records}
        # One chunk's points were timed one by one, not given its total.
        assert len({r["wall_seconds"] for r in records}) > 100


class TestTelemetryIO:
    def test_file_sink_appends(self, tmp_path):
        path = tmp_path / "t" / "log.jsonl"
        writer = TelemetryWriter(path)
        writer.emit({"event": "point", "n": 1})
        writer.emit({"event": "sweep", "n": 2})
        assert len(read_telemetry(path)) == 2
        assert [r["n"] for r in read_telemetry(path, event="sweep")] == [2]

    def test_writers_sharing_a_log_write_whole_lines_in_order(self, tmp_path):
        # Repeated CLI runs append to one log; records larger than any
        # I/O buffer must still land as whole lines.
        path = tmp_path / "shared.jsonl"
        writers = [TelemetryWriter(path), TelemetryWriter(path)]
        for n in range(200):
            for number, writer in enumerate(writers):
                writer.emit({"writer": number, "n": n, "pad": "x" * (n * 100)})
        lines = path.read_text().split("\n")
        assert lines.pop() == ""
        records = [json.loads(line) for line in lines]
        for number in range(2):
            mine = [r for r in records if r["writer"] == number]
            assert [r["n"] for r in mine] == list(range(200))
            assert all(len(r["pad"]) == r["n"] * 100 for r in mine)

    def test_short_writes_still_emit_whole_lines(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:7]))
        path = tmp_path / "log.jsonl"
        writer = TelemetryWriter(path)
        records = [{"event": "point", "n": n} for n in range(3)]
        for record in records:
            writer.emit(record)
        monkeypatch.undo()
        assert read_telemetry(path) == records

    def test_dropping_a_writer_closes_its_handle(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "log.jsonl")
        writer.emit({"event": "point"})
        fd = writer._fd
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            del writer
            gc.collect()
        with pytest.raises(OSError):
            os.fstat(fd)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(MeasurementError, match="line 2"):
            read_telemetry(path)


class TestGridHarnesses:
    def test_run_suite_validation(self):
        with pytest.raises(ConfigurationError):
            run_suite({}, [{"preset": "i7_860"}], {"p": {"kind": "static", "mtl": 1}})
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_suite(
                {"w": SYNTH},
                [{"preset": "i7_860"}, {"preset": "i7_860"}],
                {"p": {"kind": "static", "mtl": 1}},
            )

    def test_compare_grid_repeated_runs_protocol(self):
        grid = compare_policies(
            {"kind": "synthetic", "ratio": 0.5, "pairs": 16},
            {"static-2": {"kind": "static", "mtl": 2}},
            repeated_runs=4,
            executor=SweepExecutor(jobs=2),
        )
        outcome = grid.outcome("static-2")
        assert outcome.makespan > 0
        assert outcome.selected_mtl == 2
        # The repeated-run protocol is deterministic given the seeds.
        again = compare_policies(
            {"kind": "synthetic", "ratio": 0.5, "pairs": 16},
            {"static-2": {"kind": "static", "mtl": 2}},
            repeated_runs=4,
        )
        assert again.outcome("static-2").makespan == outcome.makespan
