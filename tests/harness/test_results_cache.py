"""Results-cache bookkeeping shared by concurrent sweeps.

Covers the ``flock``-serialized lifetime counters under concurrent
writers, corrupt-sidecar recovery, and the human/machine size rendering
behind ``repro cache stats``.
"""

import json
import threading

import pytest

from repro.__main__ import main as cli_main
from repro.harness.results_cache import ResultsCache, human_bytes

TD = "cache-test-digest"


def _key(i: int) -> str:
    return f"{i:064x}"


class TestConcurrentCounters:
    def test_parallel_bumps_are_never_lost(self, tmp_path):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        per_thread, threads = 25, 8

        def bump():
            for _ in range(per_thread):
                cache._bump_lifetime(hits=1)

        workers = [threading.Thread(target=bump)
                   for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert cache._lifetime()["hits"] == per_thread * threads

    def test_two_instances_share_one_ledger(self, tmp_path):
        a = ResultsCache(tmp_path, tree_digest=TD)
        b = ResultsCache(tmp_path, tree_digest=TD)
        a._bump_lifetime(stores=2)
        b._bump_lifetime(stores=3)
        assert a._lifetime()["stores"] == 5
        assert b._lifetime()["stores"] == 5


class TestCorruptSidecar:
    @pytest.mark.parametrize("junk", [
        b"not json at all", b"[1, 2, 3]", b'"hits"', b"{trunc",
    ])
    def test_corrupt_stats_file_resets_to_zero(self, tmp_path, junk):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        (tmp_path / cache._STATS_FILE).write_bytes(junk)
        assert cache._lifetime() == {
            "hits": 0, "misses": 0, "stores": 0, "errors": 0}
        # Bumping on top of the wreck recovers a clean ledger.
        cache._bump_lifetime(hits=1)
        assert cache._lifetime()["hits"] == 1

    def test_non_integer_counter_values_reset(self, tmp_path):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        (tmp_path / cache._STATS_FILE).write_text(
            json.dumps({"hits": "zebra", "misses": 4,
                        "stores": None}))
        life = cache._lifetime()
        assert life["hits"] == 0
        assert life["misses"] == 4
        assert life["stores"] == 0


class TestSizeRendering:
    @pytest.mark.parametrize("size,expected", [
        (0, "0 B"), (512, "512 B"), (1536, "1.5 KiB"),
        (1024 ** 2, "1.0 MiB"), (3 * 1024 ** 3, "3.0 GiB"),
        (2 * 1024 ** 4, "2.0 TiB"),
    ])
    def test_human_bytes(self, size, expected):
        assert human_bytes(size) == expected


class TestDescribe:
    def test_describe_dict_shape(self, tmp_path):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        cache.put(_key(0), b"payload")
        assert cache.get(_key(0)) == b"payload"
        assert cache.get(_key(1)) is None
        doc = cache.describe_dict()
        assert doc["root"] == str(tmp_path)
        assert doc["entries"] == 1
        assert doc["size_bytes"] > 0
        assert doc["size_human"] == human_bytes(doc["size_bytes"])
        assert doc["source_digest"] == TD
        assert doc["lifetime"]["hits"] == 1
        assert doc["lifetime"]["misses"] == 1
        assert doc["lifetime_hit_rate"] == 0.5
        assert doc["session"] == cache.stats.to_dict()
        # The whole document is JSON-serializable (``--json``).
        json.dumps(doc)

    def test_describe_reports_size_and_counters(self, tmp_path):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        cache.put(_key(0), b"x" * 2048)
        assert cache.get(_key(0)) is not None
        text = cache.describe()
        assert human_bytes(cache.size_bytes()) in text
        assert "1 hit(s) / 1 lookup(s) — 100.0% hit rate" in text
        assert cache.stats.summary() in text


def test_cache_json_is_refused_with_clear(tmp_path, capsys):
    """``--json`` only formats ``stats``: ``clear --json`` exits 2 and
    leaves every entry in place."""
    cache = ResultsCache(tmp_path, tree_digest=TD)
    cache.put(_key(0), b"payload")
    assert cli_main(["cache", "clear", "--json",
                     "--results-cache", str(tmp_path)]) == 2
    assert "only to 'stats'" in capsys.readouterr().err
    assert len(cache) == 1
