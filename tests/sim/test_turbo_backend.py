"""Backend-ladder edge cases and selection contracts.

The top rung (``auto``: vector with numpy, fused without) must stay
bit-identical to the reference interpreter where its batching has the
least to work with: trip counts too short to engage, a data-dependent
``xloop.break`` late in a long stream, and adaptive-mode migrations.

The selection and cache-key tests pin the rest of the contract:
``verify=True`` always runs on the interp tier and is never served
from (or stored to) the result caches, every rung shares one result
key, and a name outside ``BACKEND_CHOICES`` is rejected everywhere a
rung is chosen.
"""

import pytest

from repro.eval import runner
from repro.kernels import get_kernel
from repro.lang import compile_source
from repro.sim import Memory
from repro.sim.backends import resolve_backend
from repro.uarch import IO, LPSUConfig, SystemConfig, simulate
from repro.uarch.system import SystemSimulator

_STREAM_SRC = """
void vvadd(int* x, int* y, int* z, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        z[i] = x[i] + y[i];
    }
}
"""

_FIND_SRC = """
int find(int* x, int n) {
    int hit = 0 - 1;
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        if (x[i] == 12345) {
            hit = i;
            break;
        }
    }
    return hit;
}
"""


def _config():
    return SystemConfig("t", IO, LPSUConfig())


def _identical(a, b):
    (ra, ma), (rb, mb) = a, b
    assert ra.cycles == rb.cycles
    assert ra.return_value == rb.return_value
    assert repr(ra.lpsu_stats) == repr(rb.lpsu_stats)
    assert dict(vars(ra.events)) == dict(vars(rb.events))
    assert ma.pages_equal(mb)


def _stream_run(backend, n):
    program = compile_source(_STREAM_SRC).program
    mem = Memory()
    xa, ya, za = 0x100000, 0x140000, 0x180000
    mem.write_words(xa, [(3 * i + 1) & 0xFFFFFFFF for i in range(n)])
    mem.write_words(ya, [(7 * i) & 0xFFFFFFFF for i in range(n)])
    r = simulate(program, _config(), entry="vvadd",
                 args=(xa, ya, za, n), mem=mem, mode="specialized",
                 backend=backend)
    return r, mem


def _kernel_run(name, backend, mode="specialized", **kw):
    spec = get_kernel(name)
    program = compile_source(spec.source).program
    mem = Memory()
    args = spec.workload("tiny", 0).apply(mem)
    r = simulate(program, _config(), entry=spec.entry, args=args,
                 mem=mem, mode=mode, backend=backend, **kw)
    return r, mem


class TestShortAndBrokenSteadyState:
    @pytest.mark.parametrize("n", (1, 2, 5, 8, 16, 48))
    def test_trip_count_below_detection_window(self, n):
        # trips shorter than the vector tier's engagement floor, down
        # to a single iteration: the top rung must match interp
        _identical(_stream_run("auto", n), _stream_run("interp", n))

    def test_xbreak_after_steady_state(self):
        # the needle sits at 3/4 of a long stream: the schedule
        # reaches steady state on the fused engine, and then the
        # data-dependent exit fires mid-stream
        program = compile_source(_FIND_SRC).program
        n, needle_at = 2048, 1536
        results = []
        for backend in ("auto", "interp"):
            mem = Memory()
            xa = 0x100000
            data = [(5 * i + 2) & 0x3FFFFFFF for i in range(n)]
            data[needle_at] = 12345
            mem.write_words(xa, data)
            r = simulate(program, _config(), entry="find",
                         args=(xa, n), mem=mem, mode="specialized",
                         backend=backend)
            results.append((r, mem))
        _identical(results[0], results[1])
        assert results[0][0].return_value == needle_at

    def test_adaptive_mode_identical_across_backends(self):
        # adaptive dispatch migrates a loop between the GPP and the
        # LPSU mid-run after a bounded profiling phase; decisions and
        # timing must not depend on the backend tier
        interp = _kernel_run("war-om", "interp", mode="adaptive")
        assert dict(interp[0].adaptive_decisions)
        for backend in ("fused", "auto"):
            run = _kernel_run("war-om", backend, mode="adaptive")
            assert dict(run[0].adaptive_decisions) \
                == dict(interp[0].adaptive_decisions)
            _identical(run, interp)


class TestBackendSelection:
    def test_verify_forces_interp(self):
        spec = get_kernel("sgemm-uc")
        program = compile_source(spec.source).program
        sim = SystemSimulator(program, _config(), verify=True,
                              backend="vector")
        assert sim.backend == "interp"
        assert not sim.fast

    def test_auto_resolves_to_highest_rung(self, monkeypatch):
        from repro.sim import backends as backends_mod
        monkeypatch.setattr(backends_mod, "_have_numpy", lambda: True)
        assert resolve_backend("auto").name == "vector"
        assert resolve_backend(None).name == "vector"
        monkeypatch.setattr(backends_mod, "_have_numpy", lambda: False)
        assert resolve_backend("auto").name == "fused"
        # an explicit request is taken as is
        assert resolve_backend("interp").name == "interp"

    def test_unknown_rung_rejected_everywhere(self, monkeypatch, capsys):
        # a rung that no longer exists (turbo) is refused with the
        # valid choices listed: as backend=, as --backend, and as
        # $REPRO_BACKEND
        from repro.cli import main
        from repro.sim.backends import BACKEND_CHOICES
        choices = "/".join(BACKEND_CHOICES)
        assert BACKEND_CHOICES == ("auto", "interp", "fused", "vector")
        with pytest.raises(ValueError, match=choices):
            simulate(compile_source(_STREAM_SRC).program, _config(),
                     entry="vvadd", args=(0, 0, 0, 0), backend="turbo")
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "vvadd-uc", "--backend", "turbo"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'turbo'" in err
        assert all(repr(c) in err for c in BACKEND_CHOICES)
        monkeypatch.setattr(runner, "_DEFAULT_BACKEND", None)
        monkeypatch.setenv("REPRO_BACKEND", "turbo")
        with pytest.raises(ValueError, match="REPRO_BACKEND.*" + choices):
            runner.default_backend()


class TestCacheKeys:
    def test_exact_rungs_share_one_key(self, monkeypatch):
        # the default rung must not leak into either key: a record is
        # found again whichever rung the process is set to
        from repro.sim.vector import HAS_NUMPY
        rungs = ("interp", "fused") + (
            ("vector",) if HAS_NUMPY else ())
        keys, prints = set(), set()
        for rung in rungs:
            monkeypatch.setattr(runner, "_DEFAULT_BACKEND", rung)
            key = runner.memo_key("vvadd-uc", "io+x",
                                  mode="specialized", scale="tiny")
            keys.add(key)
            prints.add(runner._fingerprint(key))
        assert len(keys) == len(prints) == 1
        # ...and a result simulated on one rung is memo-served to all
        runner.clear_cache(keep_disk=True)
        common = dict(mode="specialized", scale="tiny",
                      use_disk_cache=False)
        first = runner.run("vvadd-uc", "io+x", backend=rungs[0], **common)
        before = runner.simulations
        for rung in rungs[1:]:
            assert runner.run("vvadd-uc", "io+x", backend=rung,
                              **common) is first
        assert runner.simulations == before
        runner.clear_cache(keep_disk=True)

    def test_verified_run_never_served_from_cache(self):
        runner.clear_cache(keep_disk=True)
        before = runner.simulations
        common = dict(mode="specialized", scale="tiny",
                      use_disk_cache=False)
        runner.run("vvadd-uc", "io+x", **common)
        assert runner.simulations == before + 1
        # a verified run must re-simulate (on interp) even though an
        # unverified result for the same point is already memoized...
        r = runner.run("vvadd-uc", "io+x", verify=True, **common)
        assert runner.simulations == before + 2
        assert r.cycles > 0
        # ...and must not have poisoned the cache for later requests
        runner.run("vvadd-uc", "io+x", verify=True, **common)
        assert runner.simulations == before + 3
        runner.clear_cache(keep_disk=True)
