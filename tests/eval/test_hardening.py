"""Hardened sweep execution: crash/hang isolation, retry with
backoff, quarantine, in-process fallback, resume from the result
store, fail-fast backend resolution, and the runner's fast-to-slow
degradation ladder.

Chaos (deterministic worker sabotage via ``$REPRO_CHAOS``) only acts
inside forked worker children, so every recovery path here exercises
the real machinery: real dead processes, real kills, real retries.
"""

import dataclasses
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.eval import diskcache, hardening, runner
from repro.eval.parallel import SweepPoint, sweep

SCALE = "tiny"

POINTS = [
    SweepPoint("sgemm-uc", "io", scale=SCALE),
    SweepPoint("sgemm-uc", "io+x", mode="specialized", scale=SCALE),
    SweepPoint("dither-or", "io", scale=SCALE),
    SweepPoint("dither-or", "io+x", mode="specialized", scale=SCALE),
]


@pytest.fixture(autouse=True)
def _fresh_state(tmp_path, monkeypatch):
    saved = (diskcache._dir_override, diskcache._force_disabled,
             os.environ.get(diskcache.ENV_CACHE_DIR),
             os.environ.get(diskcache.ENV_NO_CACHE))
    # these tests exercise the disk cache and chaos machinery: force
    # the cache on even under the hermetic-CI REPRO_NO_CACHE=1 env
    monkeypatch.delenv(diskcache.ENV_NO_CACHE, raising=False)
    diskcache._force_disabled = False
    diskcache.configure(cache_dir=str(tmp_path / "cache"))
    runner.clear_cache()
    runner.drain_incidents()
    monkeypatch.delenv(hardening.CHAOS_ENV, raising=False)
    yield
    diskcache._dir_override, diskcache._force_disabled = saved[:2]
    for var, value in ((diskcache.ENV_CACHE_DIR, saved[2]),
                       (diskcache.ENV_NO_CACHE, saved[3])):
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
    diskcache.reset_stats()
    runner.clear_cache(keep_disk=True)
    runner.drain_incidents()


def _reference():
    """Clean serial results for POINTS, as plain data."""
    ref = {}
    for pt in POINTS:
        r = runner.run(pt.kernel, pt.config, use_disk_cache=False,
                       **pt.run_kwargs())
        ref[pt.memo_key()] = dataclasses.asdict(r)
    runner.clear_cache(keep_disk=True)
    return ref


class _BrokenCtx:
    """A multiprocessing context that cannot start a process."""

    @staticmethod
    def Pipe(duplex=False):
        import multiprocessing
        return multiprocessing.Pipe(duplex)

    @staticmethod
    def Process(*args, **kwargs):
        raise OSError("process table full")


def _assert_matches(ref):
    for pt in POINTS:
        r = runner.run(pt.kernel, pt.config, **pt.run_kwargs())
        assert dataclasses.asdict(r) == ref[pt.memo_key()], pt.label()


class TestChaosRecovery:
    def test_worker_crash_is_retried(self, monkeypatch):
        ref = _reference()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"sgemm-uc/io/traditional": {"crash": [0]}}))
        summary = sweep(POINTS, jobs=2, retries=3, backoff=0.01)
        assert summary.ok
        assert any(ev.kind == "crash" for ev in summary.retries)
        _assert_matches(ref)

    def test_worker_hang_is_killed_and_retried(self, monkeypatch):
        ref = _reference()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"dither-or/io+x/specialized": {"hang": [0]}}))
        summary = sweep(POINTS, jobs=2, timeout=3.0, retries=3,
                        backoff=0.01)
        assert summary.ok
        assert any(ev.kind == "hang" for ev in summary.retries)
        _assert_matches(ref)

    def test_crash_and_hang_together_bit_identical(self, monkeypatch):
        """The acceptance scenario: one crashing worker, one hanging
        worker, and the sweep still completes with every healthy point
        bit-identical to the clean reference."""
        ref = _reference()
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps({
            "sgemm-uc/io/traditional": {"crash": [0]},
            "dither-or/io+x/specialized": {"hang": [0]}}))
        summary = sweep(POINTS, jobs=4, timeout=3.0, retries=3,
                        backoff=0.01)
        assert summary.ok
        assert summary.points == len(POINTS)
        kinds = sorted(ev.kind for ev in summary.retries)
        assert kinds == ["crash", "hang"]
        _assert_matches(ref)

    def test_unrecoverable_point_is_quarantined(self, monkeypatch):
        """A point that fails every attempt is quarantined with a
        structured record; the rest of the sweep still completes."""
        monkeypatch.setenv(hardening.CHAOS_ENV, json.dumps(
            {"sgemm-uc/io/traditional": {"crash": [0, 1, 2]}}))
        summary = sweep(POINTS, jobs=2, retries=3, backoff=0.01)
        assert not summary.ok
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert "sgemm-uc/io/traditional" in failure.label
        assert failure.attempts == 3
        assert failure.kind == "crash"
        assert summary.points == len(POINTS) - 1
        assert "QUARANTINED" in summary.render()


class TestSerialFallback:
    def test_jobs_one_runs_in_process(self):
        ref = _reference()
        summary = sweep(POINTS, jobs=1)
        assert summary.ok and summary.jobs == 1
        assert summary.misses == summary.points
        _assert_matches(ref)

    def test_broken_mp_context_degrades_to_serial(self, monkeypatch):
        """If worker processes cannot be spawned at all, every attempt
        runs in-process instead (recorded as an incident) and the sweep
        still produces bit-identical results."""
        ref = _reference()
        monkeypatch.setattr(hardening, "_mp_context",
                            lambda: _BrokenCtx())
        summary = sweep(POINTS, jobs=4)
        assert summary.ok
        assert summary.degraded
        assert any(inc.kind == "parallel-to-serial"
                   for inc in summary.incidents)
        assert summary.points == len(POINTS)
        _assert_matches(ref)

    def test_serial_retry_ladder(self, monkeypatch):
        """The in-process path shares the retry/quarantine ladder."""
        calls = {"n": 0}
        real_run = runner.run

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(runner, "run", flaky)
        summary = sweep(POINTS[:1], jobs=1, retries=2, backoff=0.01)
        assert summary.ok
        assert len(summary.retries) == 1
        assert summary.retries[0].kind == "error"


    def test_execute_one_falls_back_in_process_one_at_a_time(
            self, monkeypatch):
        """``execute_one`` with no forkable worker returns the
        bit-identical result and a ``parallel-to-serial`` incident;
        threads calling it concurrently never overlap their in-process
        attempts (more threads than cores, short switch interval)."""
        ref = _reference()
        monkeypatch.setattr(hardening, "_mp_context",
                            lambda: _BrokenCtx())
        real_run = runner.run
        guard = threading.Lock()
        active = {"now": 0, "peak": 0}

        def counting_run(*args, **kwargs):
            with guard:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            try:
                time.sleep(0.05)     # widen any overlap window
                return real_run(*args, **kwargs)
            finally:
                with guard:
                    active["now"] -= 1

        monkeypatch.setattr(runner, "run", counting_run)
        policy = hardening.HardeningPolicy(retries=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(POINTS)) as pool:
                outcomes = list(pool.map(
                    lambda pt: hardening.execute_one(pt, policy), POINTS,
                    timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert active["peak"] == 1
        for pt, out in zip(POINTS, outcomes):
            assert out.failure is None and out.simulated, pt.label()
            assert dataclasses.asdict(out.result) == ref[pt.memo_key()]
            assert [inc.kind for inc in out.incidents] == \
                ["parallel-to-serial"]


class TestResume:
    def test_resume_skips_completed_points(self):
        """An interrupted sweep resumes by being rerun with the same
        cache: the points it finished are served from the store and
        only the rest simulate."""
        first = sweep(POINTS[:2], jobs=2)
        assert first.ok and first.misses == 2

        runner.clear_cache(keep_disk=True)   # as a fresh process sees it
        second = sweep(POINTS, jobs=2)
        assert second.ok
        assert second.points == len(POINTS)
        assert second.misses == 2   # only the unfinished half reran


class TestBadBackend:
    def test_unknown_backend_fails_before_any_point(self, monkeypatch):
        """A backend that cannot resolve is a configuration error, not
        a transient fault: the sweep raises before running a point."""
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        monkeypatch.setattr(runner, "_DEFAULT_BACKEND", None)
        before = runner.simulations
        with pytest.raises(ValueError, match="bogus"):
            sweep(POINTS, jobs=2)
        assert runner.simulations == before
        assert all(runner.cached_result(pt.kernel, pt.config,
                                        **pt.run_kwargs()) is None
                   for pt in POINTS)


class TestRunnerDegradation:
    def test_fast_path_exception_falls_back_to_slow(self, monkeypatch):
        """An unexpected crash on a compiled rung retries on ``interp``
        and records an incident instead of failing."""
        import repro.uarch.system as system

        def boom(*args, **kwargs):
            raise RuntimeError("fast path exploded")

        ref = dataclasses.asdict(
            runner.run("sgemm-uc", "io+x", mode="specialized",
                       scale=SCALE, use_disk_cache=False,
                       backend="interp"))
        runner.clear_cache(keep_disk=True)
        runner.drain_incidents()

        monkeypatch.setattr(system, "fused_blocks", boom)
        r = runner.run("sgemm-uc", "io+x", mode="specialized",
                       scale=SCALE, use_disk_cache=False, backend="fused")
        incidents = runner.drain_incidents()
        assert len(incidents) == 1
        assert incidents[0].kind == "fast-path-fallback"
        assert "fast path exploded" in incidents[0].detail
        assert dataclasses.asdict(r) == ref

    def test_violations_are_never_masked(self, monkeypatch):
        """The ladder must not swallow an InvariantViolation."""
        from repro.verify import InvariantViolation
        import repro.uarch.system as system

        def raising_run(self, *args, **kwargs):
            raise InvariantViolation("mivt", "synthetic violation")

        monkeypatch.setattr(system.SystemSimulator, "run", raising_run)
        with pytest.raises(InvariantViolation):
            runner.run("sgemm-uc", "io+x", mode="specialized",
                       scale=SCALE, use_disk_cache=False, backend="fused")


class TestDiskCacheIntegrity:
    def test_truncated_record_quarantined_and_resimulated(self):
        point = dict(kernel_name="sgemm-uc", config_name="io",
                     mode="traditional", scale=SCALE)
        runner.run(**point)
        key = runner._fingerprint(runner.memo_key(
            "sgemm-uc", "io", mode="traditional", scale=SCALE))
        path = diskcache._record_path(key)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:len(blob) // 2])   # torn write

        runner.clear_cache(keep_disk=True)
        diskcache.reset_stats()
        n = runner.simulations
        r = runner.run(**point)
        assert runner.simulations == n + 1   # re-simulated, not served
        assert diskcache.stats["corrupt"] == 1
        assert diskcache.stats["quarantined"] == 1
        assert r.cycles > 0
        qdir = os.path.join(diskcache.cache_dir(), "quarantine")
        assert os.listdir(qdir)

    def test_bitflip_fails_checksum(self):
        key = diskcache.cache_key("bitflip-target")
        assert diskcache.store(key, {"cycles": 99})
        path = diskcache._record_path(key)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0x40                     # flip one payload bit
        with open(path, "wb") as f:
            f.write(bytes(blob))
        assert diskcache.load(key) is None
        assert diskcache.stats["corrupt"] >= 1

    def test_legacy_bare_pickle_still_served(self):
        import pickle
        key = diskcache.cache_key("legacy-record")
        path = diskcache._record_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            pickle.dump({"cycles": 7}, f)
        assert diskcache.load(key) == {"cycles": 7}

    def test_fsck_quarantines_and_sweeps(self, tmp_path):
        diskcache.configure(cache_dir=str(tmp_path))
        good = diskcache.cache_key("good")
        bad = diskcache.cache_key("bad")
        diskcache.store(good, [1])
        diskcache.store(bad, [2])
        bad_path = diskcache._record_path(bad)
        with open(bad_path, "wb") as f:
            f.write(b"RPR1garbage-that-fails-the-checksum")
        stale = os.path.join(str(tmp_path), good[:2], "old.tmp")
        with open(stale, "w") as f:
            f.write("leftover")
        os.utime(stale, (0, 0))              # ancient

        report = diskcache.fsck()
        assert report["checked"] == 2
        assert report["ok"] == 1
        assert report["corrupt"] == 1
        assert len(report["quarantined"]) == 1
        assert report["stale_tmp"] == 1
        assert not os.path.exists(bad_path)
        assert diskcache.load(good) == [1]
