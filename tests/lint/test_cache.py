"""The ``--cache-dir`` scan cache and run records: identity,
invalidation, resilience."""

import json
import pickle

import pytest

import repro.lint.cache as cache_module
import repro.units as units
from repro.lint import FileScan, LintEngine, build_rules, render_json
from repro.lint.cache import RunRecord, ScanCache, cache_token
from repro.lint.dimflow.fixpoint import UnitAnalysis
from repro.lint.effects.fixpoint import EffectAnalysis
from repro.lint.graph.builder import ProjectGraph
from repro.lint.rules.telemetry import OrphanSchemaRule


def make_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "clean.py").write_text("__all__ = []\n")
    (corpus / "dirty.py").write_text("def f(x=[]):\n    return x\n")
    return corpus


#: Declared memo-key fields written in place and from another module:
#: RPR202 reads ``MEMO_KEY`` off the class summary, so a summary field
#: the cache or the pool's pickling dropped would lose both findings.
MEMO_FILES = {
    "repro/sim/book.py": (
        '__all__ = ["Book"]\n\n\n'
        "class Book:\n"
        '    MEMO_KEY = ("parts",)\n\n'
        "    def __init__(self, parts):\n"
        "        self.parts = list(parts)\n\n"
        "    def widen(self, part):\n"
        "        self.parts.append(part)\n"
    ),
    "repro/core/loop.py": (
        "from repro.sim.book import Book\n\n"
        '__all__ = ["reset"]\n\n\n'
        "def reset():\n"
        "    book = Book([])\n"
        "    book.parts = []\n"
        "    return book\n"
    ),
}


def make_memo_corpus(tmp_path):
    corpus = make_corpus(tmp_path)
    for relative, text in MEMO_FILES.items():
        path = corpus / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return corpus


#: Corpus builder -> RPR202 findings it holds.
CORPORA = pytest.mark.parametrize(
    "build, memo_findings", [(make_corpus, 0), (make_memo_corpus, 2)]
)


def run_cached(corpus, cache_dir, jobs=1, rules=None, **options):
    engine = LintEngine(
        rules=build_rules() if rules is None else rules,
        root=corpus.parent,
        jobs=jobs,
        cache_dir=cache_dir,
        **options,
    )
    return engine.run([corpus])


def comparable(report):
    document = json.loads(render_json(report))
    document.pop("wall_seconds")
    document.pop("cache_hits")
    return document


def drop_records(cache_dir):
    """Delete the run records, so the next run uses scan entries only."""
    records = list(cache_dir.glob("*.run"))
    assert records
    for record in records:
        record.unlink()


def py_files(corpus):
    return len(list(corpus.rglob("*.py")))


@pytest.fixture
def record_loads(monkeypatch):
    """Per ``load_run`` call: did a run record serve the run?"""
    loads = []
    load_run = ScanCache.load_run

    def spy(cache, key):
        record = load_run(cache, key)
        loads.append(record is not None)
        return record

    monkeypatch.setattr(ScanCache, "load_run", spy)
    return loads


class TestWarmRuns:
    @CORPORA
    def test_warm_run_is_byte_identical_and_all_hits(
        self, tmp_path, build, memo_findings
    ):
        corpus = build(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir)
        warm = run_cached(corpus, cache_dir)
        drop_records(cache_dir)
        per_file = run_cached(corpus, cache_dir)
        assert cold.cache_hits == 0
        assert warm.cache_hits == per_file.cache_hits == py_files(corpus)
        assert [f.rule for f in cold.findings].count("RPR202") == memo_findings
        assert comparable(cold) == comparable(warm) == comparable(per_file)

    def test_editing_one_file_invalidates_only_it(self, tmp_path):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        (corpus / "clean.py").write_text("__all__ = ['x']\n\nx = 1\n")
        warm = run_cached(corpus, cache_dir)
        assert warm.cache_hits == 1

    @CORPORA
    def test_cache_composes_with_jobs_fanout(
        self, tmp_path, build, memo_findings
    ):
        corpus = build(tmp_path)
        for index in range(4):
            (corpus / f"extra{index}.py").write_text("__all__ = []\n")
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir, jobs=3)
        warm = run_cached(corpus, cache_dir, jobs=3)
        drop_records(cache_dir)
        per_file = run_cached(corpus, cache_dir, jobs=3)
        assert warm.cache_hits == per_file.cache_hits == py_files(corpus)
        assert [f.rule for f in cold.findings].count("RPR202") == memo_findings
        assert comparable(cold) == comparable(warm) == comparable(per_file)

    def test_uncached_run_reports_zero_hits(self, tmp_path):
        corpus = make_corpus(tmp_path)
        report = run_cached(corpus, cache_dir=None)
        assert report.cache_hits == 0


def _refuse(*args, **kwargs):
    raise AssertionError("a record-served run must not get here")


# Changes after which the run record must miss.  Each edits the
# corpus or the environment; one that changes the rules returns a
# factory of the next run's rules.
def _edit(corpus, monkeypatch):
    (corpus / "clean.py").write_text("__all__ = ['x']\n\nx = 1\n")


def _add(corpus, monkeypatch):
    (corpus / "added.py").write_text("def g(y={}):\n    return y\n")


def _remove(corpus, monkeypatch):
    (corpus / "repro" / "core" / "loop.py").unlink()


def _rename(corpus, monkeypatch):
    (corpus / "dirty.py").rename(corpus / "renamed.py")


def _drop_corpus_rule(corpus, monkeypatch):
    return lambda: [rule for rule in build_rules() if rule.id != "RPR302"]


def _corpus_rule_schemas(corpus, monkeypatch):
    return lambda: [
        OrphanSchemaRule(schemas={"never_emitted"})
        if rule.id == "RPR302"
        else rule
        for rule in build_rules()
    ]


def _schemas(corpus, monkeypatch):
    return lambda: build_rules(telemetry_schemas={"never_emitted"})


def _unit_table(corpus, monkeypatch):
    monkeypatch.setitem(
        units.UNIT_PARAMS, "repro.sim.book.Book.widen", {"part": "bytes"}
    )


def _source_digest(corpus, monkeypatch):
    monkeypatch.setattr(cache_module, "source_digest", lambda: "edited")


#: Changes to the corpus rules alone, which leave the run token and
#: every file as they were: the scan entries still serve every file.
_CORPUS_RULES_ONLY = (_drop_corpus_rule, _corpus_rule_schemas)


class TestRunRecord:
    def test_matching_run_skips_scans_and_whole_program_phase(
        self, tmp_path, monkeypatch, record_loads
    ):
        corpus = make_memo_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir)
        for owner in (ProjectGraph, EffectAnalysis, UnitAnalysis):
            monkeypatch.setattr(owner, "__init__", _refuse)
        monkeypatch.setattr(ScanCache, "load", _refuse)
        warm = run_cached(corpus, cache_dir)
        assert record_loads == [False, True]
        assert warm.cache_hits == py_files(corpus)
        assert comparable(warm) == comparable(cold)

    @pytest.mark.parametrize(
        "change",
        [
            _edit,
            _add,
            _remove,
            _rename,
            _drop_corpus_rule,
            _corpus_rule_schemas,
            _schemas,
            _unit_table,
            _source_digest,
        ],
    )
    def test_record_misses_after_a_change(
        self, tmp_path, monkeypatch, record_loads, change
    ):
        corpus = make_memo_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        make_rules = change(corpus, monkeypatch) or build_rules
        warm = run_cached(corpus, cache_dir, rules=make_rules())
        assert record_loads == [False, False]
        fresh = run_cached(corpus, None, rules=make_rules())
        assert comparable(warm) == comparable(fresh)
        if change in _CORPUS_RULES_ONLY:
            assert warm.cache_hits == py_files(corpus)

    @pytest.mark.parametrize("option", ["want_graph", "want_units"])
    def test_graph_and_units_outputs_bypass_the_record(
        self, tmp_path, record_loads, option
    ):
        corpus = make_memo_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir)
        records = sorted(cache_dir.glob("*.run"))
        engine = LintEngine(
            rules=build_rules(),
            root=tmp_path,
            cache_dir=cache_dir,
            **{option: True},
        )
        warm = engine.run([corpus])
        assert record_loads == [False]  # the cold run's lookup only
        assert sorted(cache_dir.glob("*.run")) == records
        assert engine.graph is not None and engine.units is not None
        assert warm.cache_hits == py_files(corpus)
        assert comparable(warm) == comparable(cold)

    def test_unreadable_file_bypasses_the_record(self, tmp_path, record_loads):
        corpus = make_corpus(tmp_path)
        (corpus / "unreadable.py").mkdir()  # walked like a file, unreadable
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir)
        warm = run_cached(corpus, cache_dir)
        assert record_loads == []
        assert not list(cache_dir.glob("*.run"))
        assert warm.cache_hits == 2
        assert "RPR001" in {f.rule for f in warm.findings}
        assert comparable(warm) == comparable(cold)

    @pytest.mark.parametrize("first", ["baseline", "enabled"])
    def test_enabled_and_baseline_apply_after_a_hit(
        self, tmp_path, record_loads, first
    ):
        corpus = make_memo_corpus(tmp_path)
        expected = run_cached(corpus, None)
        assert sorted({f.rule for f in expected.findings}) == ["RPR202", "RPR402"]
        mutable_default = next(f for f in expected.findings if f.rule == "RPR402")
        filters = {
            "baseline": {"baseline": {mutable_default.fingerprint()}},
            "enabled": {"enabled": {"RPR202"}},
        }
        second = "enabled" if first == "baseline" else "baseline"
        cache_dir = tmp_path / "cache"
        reports = {first: run_cached(corpus, cache_dir, **filters[first])}
        plain = run_cached(corpus, cache_dir)
        reports[second] = run_cached(corpus, cache_dir, **filters[second])
        assert record_loads == [False, True, True]
        assert comparable(plain) == comparable(expected)
        assert reports["baseline"].baselined == 1
        assert reports["baseline"].findings == [
            f for f in expected.findings if f != mutable_default
        ]
        assert reports["enabled"].findings == [
            f for f in expected.findings if f.rule == "RPR202"
        ]


class TestInvalidation:
    def test_rule_set_change_invalidates(self, tmp_path):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        engine = LintEngine(
            rules=build_rules(only=["RPR402"]),
            enabled={"RPR402"},
            root=tmp_path,
            cache_dir=cache_dir,
        )
        report = engine.run([corpus])
        assert report.cache_hits == 0  # different rule set, different keys

    def test_source_digest_change_invalidates(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        monkeypatch.setattr(cache_module, "source_digest", lambda: "edited")
        warm = run_cached(corpus, cache_dir)
        assert warm.cache_hits == 0

    def test_token_folds_every_input(self, monkeypatch):
        rules = build_rules(only=["RPR402"])
        base = cache_token(rules, {"RPR402"}, need_summary=True)
        assert cache_token(rules, {"RPR402"}, need_summary=True) == base
        changed = [
            cache_token(rules, {"RPR402"}, need_summary=False),
            cache_token(rules, {"RPR402", "RPR401"}, True),
            cache_token(build_rules(only=["RPR401"]), {"RPR402"}, True),
            cache_token(
                build_rules(only=["RPR301"], telemetry_schemas={"a"}),
                {"RPR402"},
                True,
            ),
        ]
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "source_digest", lambda: "edited")
            changed.append(cache_token(rules, {"RPR402"}, True))
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "_PYTHON_VERSION", "3.99")
            changed.append(cache_token(rules, {"RPR402"}, True))
        for table in (
            "UNIT_CONSTANTS",
            "UNIT_RETURNS",
            "UNIT_PARAMS",
            "UNIT_POLYMORPHIC",
            "UNIT_SUFFIXES",
        ):
            with monkeypatch.context() as patch:
                patch.setattr(units, table, frozenset({"edited"}))
                changed.append(cache_token(rules, {"RPR402"}, True))
        assert base not in changed
        assert len(set(changed)) == len(changed)
        assert cache_token(
            build_rules(only=["RPR301"], telemetry_schemas={"b"}),
            {"RPR402"},
            True,
        ) not in changed

    def test_schema_change_reaches_cached_files(self, tmp_path):
        corpus = tmp_path / "pkg"
        corpus.mkdir()
        (corpus / "m.py").write_text(
            'def emit(log):\n    log({"event": "foo"})\n'
        )
        cache_dir = tmp_path / "cache"
        for schemas in ({"foo"}, {"bar"}):
            report = run_cached(
                corpus,
                cache_dir,
                rules=build_rules(only=["RPR301"], telemetry_schemas=schemas),
            )
        assert report.cache_hits == 0
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            ("RPR301", "pkg/m.py", 2)
        ]

    def test_unit_table_change_reaches_cached_summaries(
        self, tmp_path, monkeypatch
    ):
        corpus = tmp_path / "corpus"
        package = corpus / "repro" / "memory"
        package.mkdir(parents=True)
        (package / "limits.py").write_text('__all__ = ["WIDTH"]\n\nWIDTH = 64\n')
        (package / "budget.py").write_text(
            "from repro.memory.limits import WIDTH\n\n"
            '__all__ = ["slack"]\n\n\n'
            "def slack(deadline_seconds):\n"
            "    return deadline_seconds - WIDTH\n"
        )
        cache_dir = tmp_path / "cache"
        assert run_cached(corpus, cache_dir).findings == []
        monkeypatch.setitem(
            units.UNIT_CONSTANTS, "repro.memory.limits.WIDTH", "bytes"
        )
        report = run_cached(corpus, cache_dir)
        assert report.cache_hits == 0
        assert [(f.rule, f.path, f.line) for f in report.findings] == [
            ("RPR813", "corpus/repro/memory/budget.py", 7)
        ]


class TestResilience:
    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        entries = list(cache_dir.glob("*.scan")) + list(cache_dir.glob("*.run"))
        assert {entry.suffix for entry in entries} == {".scan", ".run"}
        for entry in entries:
            entry.write_bytes(b"not a pickle")
        warm = run_cached(corpus, cache_dir)
        assert warm.cache_hits == 0
        assert comparable(warm) == comparable(run_cached(corpus, None))

    def test_corrupt_record_is_a_miss(self, tmp_path, record_loads):
        corpus = make_memo_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        for record in cache_dir.glob("*.run"):
            record.write_bytes(b"not a pickle")
        warm = run_cached(corpus, cache_dir)
        again = run_cached(corpus, cache_dir)
        assert record_loads == [False, False, True]  # rewritten by the miss
        assert warm.cache_hits == py_files(corpus)
        assert comparable(warm) == comparable(run_cached(corpus, None))
        assert comparable(again) == comparable(warm)

    def test_non_filescan_payload_is_a_miss(self, tmp_path):
        cache = ScanCache(tmp_path / "cache", token="t")
        key = cache.key("m.py", b"content")
        entry = tmp_path / "cache" / key
        entry.with_suffix(".scan").write_bytes(
            pickle.dumps(RunRecord(findings=(), suppressed=0))
        )
        entry.with_suffix(".run").write_bytes(
            pickle.dumps(FileScan(display_path="m.py"))
        )
        assert cache.load(key) is None
        assert cache.load_run(key) is None
        assert cache.hits == 0
