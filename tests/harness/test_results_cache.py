"""Results-cache bookkeeping shared by concurrent sweeps.

Covers the ``flock``-serialized lifetime counters under concurrent
writers, their fold into the sidecar once per sweep, corrupt-sidecar
recovery, and the human/machine size rendering behind ``repro cache
stats``.
"""

import json
import sys
import threading

import pytest

from repro.__main__ import main as cli_main
from repro.harness.parallel import sweep
from repro.harness.results_cache import ResultsCache, human_bytes
from repro.pipeline import SimStats

TD = "cache-test-digest"

#: 3 models x 2 workloads: the six cells of the fold tests' sweeps.
FOLD_MODELS = ("inorder", "multipass", "ooo")
FOLD_WORKLOADS = ("vpr", "parser")


def _key(i: int) -> str:
    return f"{i:064x}"


def _stand_in(spec):
    """A runner that simulates nothing: one distinct stats per cell."""
    return SimStats(spec.model, spec.workload,
                    cycles=len(spec.model) * len(spec.workload))


def _sweep(cache):
    return sweep(FOLD_MODELS, FOLD_WORKLOADS, scale=0.05, jobs=1,
                 results_cache=cache, runner=_stand_in)


def _counts(hits=0, misses=0, stores=0, errors=0):
    return {"hits": hits, "misses": misses, "stores": stores,
            "errors": errors}


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


class TestFoldOncePerSweep:
    def test_get_and_put_leave_the_sidecar_unwritten(self, tmp_path):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        cache.put(_key(0), b"payload")
        assert cache.get(_key(0)) == b"payload"
        assert cache.get(_key(1)) is None
        assert not (tmp_path / cache._STATS_FILE).exists()
        assert cache.stats.to_dict() == _counts(hits=1, misses=1,
                                                stores=1)

    def test_warm_sweep_folds_once(self, tmp_path, monkeypatch):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        _sweep(cache)
        bumps = []
        bump = ResultsCache._bump_lifetime

        def counted(self, **deltas):
            bumps.append(deltas)
            bump(self, **deltas)

        monkeypatch.setattr(ResultsCache, "_bump_lifetime", counted)
        report = _sweep(cache)
        assert (report.cache_hits, report.simulated) == (6, 0)
        assert bumps == [_counts(hits=6)]
        assert cache._lifetime() == cache.stats.to_dict() == _counts(
            hits=6, misses=6, stores=6)

    def test_second_instance_adds_to_the_ledger(self, tmp_path):
        _sweep(ResultsCache(tmp_path, tree_digest=TD))
        warm = ResultsCache(tmp_path, tree_digest=TD)
        _sweep(warm)
        assert warm.stats.to_dict() == _counts(hits=6)
        assert warm._lifetime() == _counts(hits=6, misses=6, stores=6)

    def test_sweep_interrupted_by_a_put_still_folds(self, tmp_path,
                                                    monkeypatch):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        put = ResultsCache.put
        stored = []

        def second_put_fails(self, key, stats):
            if len(stored) == 1:
                raise OSError("no space left on device")
            put(self, key, stats)
            stored.append(key)

        monkeypatch.setattr(ResultsCache, "put", second_put_fails)
        with pytest.raises(OSError):
            _sweep(cache)
        assert cache._lifetime() == _counts(misses=6, stores=1)

    def test_threads_sharing_an_instance_never_fold_twice(self, tmp_path):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        cache.put(_key(0), b"payload")
        per_thread, threads = 25, 8

        def look_up_and_fold():
            for i in range(per_thread):
                cache.get(_key(i % 2))
                cache.flush()

        workers = [threading.Thread(target=look_up_and_fold)
                   for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        life = cache._lifetime()
        assert life["hits"] + life["misses"] == per_thread * threads
        assert life == cache.stats.to_dict()

    def test_nothing_to_fold_writes_nothing(self, tmp_path):
        cache = ResultsCache(tmp_path, tree_digest=TD)
        cache.flush()
        assert cache.describe_dict()["lifetime"] == _counts()
        assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("action", ("stats", "clear"))
def test_cache_command_refuses_a_missing_directory(tmp_path, capsys,
                                                   monkeypatch, action):
    """A mistyped path is an error (exit 2), not a new empty cache:
    nothing is created, from the flag or from the environment."""
    missing = tmp_path / "no" / "such" / "cache"
    assert cli_main(["cache", action, "--results-cache", str(missing)]) == 2
    assert f"no results cache at {missing}" in capsys.readouterr().err
    monkeypatch.setenv("REPRO_RESULTS_CACHE", str(missing))
    assert cli_main(["cache", action]) == 2
    assert f"no results cache at {missing}" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()
