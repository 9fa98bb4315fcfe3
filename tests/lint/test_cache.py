"""The ``--cache-dir`` scan cache: identity, invalidation, resilience."""

import json

import pytest

import repro.lint.cache as cache_module
from repro.lint import LintEngine, build_rules, render_json
from repro.lint.cache import ScanCache, cache_token


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
    "repro/core/book.py": (
        '__all__ = ["Book"]\n\n\n'
        "class Book:\n"
        '    MEMO_KEY = ("parts",)\n\n'
        "    def __init__(self, parts):\n"
        "        self.parts = list(parts)\n\n"
        "    def widen(self, part):\n"
        "        self.parts.append(part)\n"
    ),
    "repro/sim/loop.py": (
        "from repro.core.book import Book\n\n"
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


def run_cached(corpus, cache_dir, jobs=1):
    engine = LintEngine(
        rules=build_rules(), root=corpus.parent, jobs=jobs, cache_dir=cache_dir
    )
    return engine.run([corpus])


def comparable(report):
    document = json.loads(render_json(report))
    document.pop("wall_seconds")
    document.pop("cache_hits")
    return document


class TestWarmRuns:
    @CORPORA
    def test_warm_run_is_byte_identical_and_all_hits(
        self, tmp_path, build, memo_findings
    ):
        corpus = build(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = run_cached(corpus, cache_dir)
        warm = run_cached(corpus, cache_dir)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(list(corpus.rglob("*.py")))
        assert [f.rule for f in cold.findings].count("RPR202") == memo_findings
        assert comparable(cold) == comparable(warm)

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
        assert warm.cache_hits == len(list(corpus.rglob("*.py")))
        assert [f.rule for f in cold.findings].count("RPR202") == memo_findings
        assert comparable(cold) == comparable(warm)

    def test_uncached_run_reports_zero_hits(self, tmp_path):
        corpus = make_corpus(tmp_path)
        report = run_cached(corpus, cache_dir=None)
        assert report.cache_hits == 0


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

    def test_cache_version_bump_invalidates(self, tmp_path, monkeypatch):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        monkeypatch.setattr(cache_module, "LINT_CACHE_VERSION", 999)
        warm = run_cached(corpus, cache_dir)
        assert warm.cache_hits == 0

    def test_token_folds_version_rules_and_summary_flag(self):
        rules = build_rules(only=["RPR402"])
        base = cache_token(rules, {"RPR402"}, need_summary=True)
        assert cache_token(rules, {"RPR402"}, need_summary=False) != base
        assert cache_token(rules, {"RPR402", "RPR401"}, True) != base
        assert f"v{cache_module.LINT_CACHE_VERSION}" in base


class TestResilience:
    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        corpus = make_corpus(tmp_path)
        cache_dir = tmp_path / "cache"
        run_cached(corpus, cache_dir)
        for entry in cache_dir.glob("*.scan"):
            entry.write_bytes(b"not a pickle")
        warm = run_cached(corpus, cache_dir)
        assert warm.cache_hits == 0
        assert comparable(warm) == comparable(run_cached(corpus, None))

    def test_non_filescan_payload_is_a_miss(self, tmp_path):
        cache = ScanCache(tmp_path / "cache", token="t")
        key = cache.key("m.py", b"content")
        (tmp_path / "cache" / f"{key}.scan").write_bytes(
            __import__("pickle").dumps({"not": "a FileScan"})
        )
        assert cache.load(key) is None
        assert cache.hits == 0
