"""Disk-cache administration: code-fingerprint key salting, usage
stats served by the per-shard index, size-bounded pruning, the
in-memory hot tier, and the ``repro cache`` CLI."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.eval import diskcache


@pytest.fixture(autouse=True)
def _cache_enabled(monkeypatch):
    """These tests exist to exercise the disk cache: force it on even
    under the hermetic-CI ``REPRO_NO_CACHE=1`` environment, and
    restore the module-level configuration afterwards."""
    saved = (diskcache._dir_override, diskcache._force_disabled,
             os.environ.get(diskcache.ENV_CACHE_DIR))
    monkeypatch.delenv(diskcache.ENV_NO_CACHE, raising=False)
    diskcache._force_disabled = False
    yield
    diskcache._dir_override, diskcache._force_disabled = saved[:2]
    if saved[2] is None:
        os.environ.pop(diskcache.ENV_CACHE_DIR, None)
    else:
        os.environ[diskcache.ENV_CACHE_DIR] = saved[2]
    diskcache.hot_clear()
    diskcache.reset_stats()


def _populate(tmp_path, n=4, size=1000):
    diskcache.configure(cache_dir=str(tmp_path))
    keys = []
    for i in range(n):
        key = diskcache.cache_key("admin", i)
        diskcache.store(key, b"x" * size)
        keys.append(key)
    return keys


class TestCodeFingerprintSalt:
    def test_key_changes_with_code_fingerprint(self, monkeypatch):
        key = diskcache.cache_key("point", 1)
        assert key == diskcache.cache_key("point", 1)  # deterministic
        monkeypatch.setattr(diskcache, "_code_fp", "different-code")
        assert diskcache.cache_key("point", 1) != key

    def test_fingerprint_hashed_once_per_interpreter(self,
                                                     monkeypatch):
        # the package walk + hash is paid at most once per process:
        # repeated runner.run entry points (and every cache_key call)
        # must reuse the memoized digest
        calls = []
        real_walk = os.walk

        def counting_walk(*args, **kw):
            calls.append(args)
            return real_walk(*args, **kw)

        monkeypatch.setattr(diskcache, "_code_fp", None)
        monkeypatch.setattr(diskcache.os, "walk", counting_walk)
        fp = diskcache.code_fingerprint()
        assert diskcache.code_fingerprint() == fp
        diskcache.cache_key("point", 1)
        diskcache.cache_key("point", 2)
        assert len(calls) == 1

    def test_fingerprint_covers_package_sources(self):
        fp = diskcache.code_fingerprint()
        assert fp == diskcache.code_fingerprint()  # memoized
        assert len(fp) == 64
        # the fingerprint hashes this very package: its root holds
        # the repro sources the walk is defined over
        root = os.path.dirname(os.path.abspath(diskcache.__file__))
        assert os.path.exists(os.path.join(root, "diskcache.py"))


class TestDiskStatsAndPrune:
    def test_stats_count_records_and_bytes(self, tmp_path):
        _populate(tmp_path, n=3)
        st = diskcache.disk_stats()
        assert st["dir"] == str(tmp_path)
        assert st["records"] == 3
        assert st["bytes"] > 3 * 1000

    def test_prune_keeps_newest_within_budget(self, tmp_path):
        keys = _populate(tmp_path, n=4)
        # make the first record clearly the oldest; aging the file
        # from outside must also touch its shard directory, which is
        # exactly the signal the per-shard index watches to notice
        # out-of-band modifications and rescan
        old = diskcache._record_path(keys[0])
        past = time.time() - 1000
        os.utime(old, (past, past))
        os.utime(os.path.dirname(old))
        st = diskcache.disk_stats()
        budget = st["bytes"] - 1  # force exactly one eviction
        removed, freed = diskcache.prune(budget)
        assert removed == 1
        assert freed > 0
        assert not os.path.exists(old)
        assert diskcache.load(keys[-1]) is not None

    def test_prune_to_zero_removes_everything(self, tmp_path):
        _populate(tmp_path, n=3)
        removed, _freed = diskcache.prune(0)
        assert removed == 3
        assert diskcache.disk_stats()["records"] == 0


class TestShardIndex:
    """The per-shard persistent index: stats without O(n) scans,
    self-healing on out-of-band changes, legacy caches untouched."""

    def test_stats_are_index_served(self, tmp_path):
        keys = _populate(tmp_path, n=6)
        st = diskcache.disk_stats()
        assert st["records"] == 6
        # every populated shard now has an index file, and the index
        # directory itself is never mistaken for a record shard
        shard = keys[0][:2]
        assert os.path.exists(
            os.path.join(str(tmp_path), diskcache.INDEX_DIRNAME,
                         shard + ".json"))
        # a second stats call over a quiescent cache rescans nothing
        before = diskcache.stats["index_rebuilds"]
        again = diskcache.disk_stats()
        assert again["records"] == 6
        assert diskcache.stats["index_rebuilds"] == before

    def test_external_delete_is_noticed(self, tmp_path):
        keys = _populate(tmp_path, n=4)
        assert diskcache.disk_stats()["records"] == 4
        # removing a record out-of-band bumps its shard dir's mtime,
        # which invalidates that shard's index on the next read
        os.unlink(diskcache._record_path(keys[0]))
        assert diskcache.disk_stats()["records"] == 3

    def test_legacy_cache_without_indexes(self, tmp_path):
        import shutil
        _populate(tmp_path, n=5)
        shutil.rmtree(os.path.join(str(tmp_path),
                                   diskcache.INDEX_DIRNAME))
        # a pre-index cache directory serves stats (lazily rebuilding
        # its indexes) and records without any migration step
        st = diskcache.disk_stats()
        assert st["records"] == 5
        assert os.path.isdir(os.path.join(str(tmp_path),
                                          diskcache.INDEX_DIRNAME))

    def test_garbage_index_is_rebuilt(self, tmp_path):
        keys = _populate(tmp_path, n=3)
        idx = os.path.join(str(tmp_path), diskcache.INDEX_DIRNAME,
                           keys[0][:2] + ".json")
        with open(idx, "w") as f:
            f.write("{not json")
        assert diskcache.disk_stats()["records"] == 3

    def test_fsck_rebuilds_indexes(self, tmp_path):
        import shutil
        _populate(tmp_path, n=4)
        shutil.rmtree(os.path.join(str(tmp_path),
                                   diskcache.INDEX_DIRNAME))
        report = diskcache.fsck()
        assert report["checked"] == 4
        assert report["indexed"] >= 1
        assert diskcache.disk_stats()["records"] == 4


class TestHotTier:
    """The in-memory decoded-record LRU in front of the disk store."""

    def _loadable(self, tmp_path, n=3, size=500):
        keys = _populate(tmp_path, n=n, size=size)
        diskcache.hot_clear()
        diskcache.reset_stats()
        return keys

    def test_load_populates_and_hits(self, tmp_path):
        keys = self._loadable(tmp_path)
        assert diskcache.load(keys[0]) is not None   # disk, fills hot
        hits = diskcache.stats["hot_hits"]
        assert diskcache.load(keys[0]) is not None   # hot
        assert diskcache.stats["hot_hits"] == hits + 1
        assert diskcache.hot_stats()["entries"] == 1

    def test_hot_serves_without_disk(self, tmp_path):
        keys = self._loadable(tmp_path)
        assert diskcache.load(keys[0]) is not None
        # the record is gone from disk; the hot tier still serves it
        # (records are content-addressed and immutable, so this can
        # never serve stale data)
        os.unlink(diskcache._record_path(keys[0]))
        assert diskcache.load(keys[0]) is not None

    def test_lru_eviction_under_budget(self, tmp_path, monkeypatch):
        keys = self._loadable(tmp_path, n=6, size=400)
        # ~1 KiB budget: two ~430-byte decoded records fit, six do not
        monkeypatch.setenv(diskcache.ENV_HOT_MB, "0.001")
        for key in keys:
            assert diskcache.load(key) is not None
        hot = diskcache.hot_stats()
        assert hot["evictions"] > 0
        assert hot["bytes"] <= hot["limit_bytes"]
        assert 0 < hot["entries"] < len(keys)

    def test_zero_budget_disables(self, tmp_path, monkeypatch):
        keys = self._loadable(tmp_path)
        monkeypatch.setenv(diskcache.ENV_HOT_MB, "0")
        assert diskcache.load(keys[0]) is not None
        assert diskcache.load(keys[0]) is not None
        hot = diskcache.hot_stats()
        assert hot["entries"] == 0 and hot["hits"] == 0

    def test_clear_drops_hot_entries(self, tmp_path):
        keys = self._loadable(tmp_path)
        assert diskcache.load(keys[0]) is not None
        assert diskcache.hot_stats()["entries"] == 1
        diskcache.clear()
        assert diskcache.hot_stats()["entries"] == 0
        assert diskcache.load(keys[0]) is None


class TestResultKeys:
    """The runner's memo key and disk fingerprint name the point and
    nothing else: not the backend rung that simulated it (every rung
    is exact), but always the kernel (kernels may share a source)."""

    @pytest.fixture(autouse=True)
    def _cold_runner(self, tmp_path):
        from repro.eval import runner
        diskcache.configure(cache_dir=str(tmp_path))
        runner.clear_cache(keep_disk=True)
        yield
        runner.clear_cache(keep_disk=True)

    def test_kernels_sharing_a_source_get_their_own_records(self):
        # ksack-sm-om and ksack-lg-om compile the same MiniC source and
        # differ only in their workload's item weights
        from repro.eval import runner
        from repro.kernels import get_kernel
        assert get_kernel("ksack-sm-om").source \
            == get_kernel("ksack-lg-om").source
        point = dict(mode="specialized", scale="small")
        runner.run("ksack-sm-om", "io+x", **point)
        runner.clear_cache(keep_disk=True)
        before = runner.simulations
        served = runner.run("ksack-lg-om", "io+x", **point)
        assert runner.simulations == before + 1   # not served
        runner.clear_cache(keep_disk=True)
        fresh = runner.run("ksack-lg-om", "io+x", use_disk_cache=False,
                           **point)
        assert served.kernel == "ksack-lg-om"
        assert served.cycles == fresh.cycles

    def test_record_from_one_rung_serves_another(self):
        from repro.eval import runner
        point = dict(mode="specialized", scale="tiny")
        interp = runner.run("vvadd-uc", "io+x", backend="interp",
                            **point)
        runner.clear_cache(keep_disk=True)   # memo gone, disk kept
        before = runner.simulations
        top = runner.run("vvadd-uc", "io+x", backend="auto", **point)
        assert runner.simulations == before
        assert top.cycles == interp.cycles


class TestCacheCLI:
    def test_stats(self, tmp_path, capsys):
        _populate(tmp_path, n=2)
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "2" in out

    def test_clear(self, tmp_path, capsys):
        _populate(tmp_path, n=2)
        assert main(["cache", "clear"]) == 0
        assert diskcache.disk_stats()["records"] == 0

    def test_prune_with_size_suffix(self, tmp_path, capsys):
        _populate(tmp_path, n=4, size=1024)
        assert main(["cache", "prune", "--max-size", "2K"]) == 0
        assert diskcache.disk_stats()["bytes"] <= 2048

    def test_cache_dir_flag(self, tmp_path, capsys):
        other = tmp_path / "elsewhere"
        other.mkdir()
        assert main(["cache", "stats",
                     "--cache-dir", str(other)]) == 0
        assert str(other) in capsys.readouterr().out

    def test_stats_json(self, tmp_path, capsys):
        keys = _populate(tmp_path, n=3)
        assert main(["cache", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 3
        assert {"entries", "bytes", "hits",
                "evictions"} <= set(payload["hot"])
        dist = payload["shard_distribution"]
        assert sum(e["records"] for e in dist.values()) == 3
        assert keys[0][:2] in dist
