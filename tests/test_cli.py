"""CLI smoke tests (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main

DEMO = """
void scale(int* a, int* b, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) { b[i] = 3 * a[i] + 1; }
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(DEMO)
    return str(path)


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_isa(capsys):
    assert main(["isa"]) == 0
    out = capsys.readouterr().out
    assert "xloop.uc" in out and "addiu.xi" in out


def test_compile(demo_file, capsys):
    assert main(["compile", demo_file]) == 0
    captured = capsys.readouterr()
    assert "xloop.uc" in captured.out
    assert "xloop.uc" in captured.err   # loop report on stderr


def test_compile_gp_mode(demo_file, capsys):
    assert main(["compile", demo_file, "--gp"]) == 0
    out = capsys.readouterr().out
    assert "xloop" not in out
    assert "blt" in out


def test_compile_no_xi(demo_file, capsys):
    assert main(["compile", demo_file, "--no-xi"]) == 0
    assert ".xi" not in capsys.readouterr().out


def test_disasm(demo_file, capsys):
    assert main(["disasm", demo_file]) == 0
    out = capsys.readouterr().out
    assert "scale:" in out
    assert "00001000:" in out


def test_disasm_assembly_file(tmp_path, capsys):
    path = tmp_path / "tiny.s"
    path.write_text("main:\n addi a0, zero, 7\n ret\n")
    assert main(["disasm", str(path)]) == 0
    assert "addi" in capsys.readouterr().out


def test_run_specialized(demo_file, capsys):
    rc = main(["run", demo_file, "scale",
               "0x100000", "0x200000", "16",
               "--config", "io+x", "--mode", "specialized"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "specialized:" in out
    assert "cycles:" in out


def test_run_rejects_lpsu_mode_on_baseline(demo_file, capsys):
    rc = main(["run", demo_file, "scale", "0", "0", "0",
               "--config", "io", "--mode", "specialized"])
    assert rc == 2


def test_kernels_listing(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    assert "sgemm-uc" in out and "bfs-uc-db" in out


def test_kernel_run(capsys):
    rc = main(["kernel", "sha-or", "--scale", "tiny",
               "--config", "io+x"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "speedup:" in out
    assert "verified against the golden model: yes" in out


def test_table5(capsys):
    assert main(["table", "table5"]) == 0
    assert "lpsu+i128+ln4" in capsys.readouterr().out


def test_fig6_restricted_kernels(capsys):
    rc = main(["table", "fig6", "--scale", "tiny",
               "--kernels", "sha-or"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sha-or" in out


def test_compile_schedule_flag(tmp_path, capsys):
    path = tmp_path / "or.c"
    path.write_text("""
void k(int* g, int* out, int* nxt, int n) {
    int err = 0;
    #pragma xloops ordered
    for (int x = 0; x < n; x++) {
        int old = g[x] + err;
        out[x] = old;
        err = (old * 7) / 16;
    }
}
""")
    assert main(["compile", str(path), "--schedule"]) == 0
    out = capsys.readouterr().out
    assert "xloop.or" in out


def test_table3(capsys):
    assert main(["table", "table3"]) == 0
    out = capsys.readouterr().out
    assert "ooo/4" in out and "LPSU" in out


def test_verify_ladder(capsys):
    rc = main(["verify", "--ladder", "vvadd-uc", "sha-or"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out
    assert "0 failed" in out


def test_kernel_backend_flag(capsys):
    from repro.eval import runner
    try:
        assert main(["kernel", "vvadd-uc", "--scale", "tiny",
                     "--backend", "fused"]) == 0
        fused_out = capsys.readouterr().out
        runner.clear_cache()   # results are rung-independent
        assert main(["kernel", "vvadd-uc", "--scale", "tiny",
                     "--backend", "interp"]) == 0
        assert capsys.readouterr().out == fused_out
    finally:
        import os
        runner.set_default_backend("auto")
        os.environ.pop("REPRO_BACKEND", None)
        runner.clear_cache(keep_disk=True)


def test_kernel_no_fast_matches_fast(capsys):
    assert main(["kernel", "sha-or", "--scale", "tiny"]) == 0
    fast_out = capsys.readouterr().out
    from repro.eval import runner
    runner.clear_cache()
    try:
        rc = main(["kernel", "sha-or", "--scale", "tiny",
                   "--backend", "interp"])
        assert rc == 0
        assert capsys.readouterr().out == fast_out
    finally:
        import os
        runner.set_default_backend("auto")
        os.environ.pop("REPRO_BACKEND", None)
        runner.clear_cache()


def test_cache_prune_requires_max_size(capsys):
    assert main(["cache", "prune"]) == 2
    assert "--max-size" in capsys.readouterr().err


def test_profile_prints_hotspots(capsys):
    rc = main(["profile", "sha-or", "--scale", "tiny", "--top", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sha-or on io+x" in out
    assert "cycles:" in out
    # pstats table with the requested restriction applied
    assert "cumtime" in out
    assert "due to restriction <5>" in out


def test_profile_backend_flag(capsys):
    from repro.eval import runner
    try:
        rc = main(["profile", "vvadd-uc", "--scale", "tiny",
                   "--backend", "fused", "--top", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend=fused" in out
        assert "cycles:" in out
    finally:
        import os
        runner.set_default_backend("auto")
        os.environ.pop("REPRO_BACKEND", None)


@pytest.mark.parametrize("argv,bad", [
    (["kernel", "nosuch"], "nosuch"),
    (["profile", "nosuch"], "nosuch"),
    (["table", "table2", "--kernels", "sgemm-uc,dither-or"],
     "sgemm-uc,dither-or"),
    (["verify", "sgemm-uc", "nosuch"], "nosuch"),
])
def test_unknown_kernel_is_one_line_exit_2(capsys, argv, bad):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("repro: unknown kernel %r (known: " % bad)
    assert "sgemm-uc" in lines[0]


def _assert_one_line_exit_2(capsys, argv, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: ")
    assert needle in lines[0]


def test_unknown_backend_env_is_one_line_exit_2(capsys, monkeypatch):
    from repro.eval import runner
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    monkeypatch.setattr(runner, "_DEFAULT_BACKEND", None)
    before = runner.simulations
    _assert_one_line_exit_2(capsys, ["kernel", "vvadd-uc"], "bogus")
    _assert_one_line_exit_2(
        capsys, ["sweep", "table2", "--scale", "tiny", "--kernels",
                 "vvadd-uc", "--no-cache"], "bogus")
    # the server takes no --backend but simulates every miss with it
    _assert_one_line_exit_2(
        capsys, ["serve", "--socket", "/nonexistent/repro.sock"], "bogus")
    assert runner.simulations == before


def test_vector_without_numpy_is_one_line_exit_2(capsys, monkeypatch):
    from repro.eval import runner
    from repro.sim import backends
    monkeypatch.setattr(backends, "_have_numpy", lambda: False)
    before = runner.simulations
    _assert_one_line_exit_2(
        capsys, ["kernel", "vvadd-uc", "--backend", "vector"], "numpy")
    assert runner.simulations == before


def test_prove_named_kernels(capsys):
    assert main(["prove", "vvadd-uc", "war-uc", "hsort-ua"]) == 0
    out = capsys.readouterr().out
    assert "ok   vvadd-uc" in out
    assert "3 kernels proved, 0 failed, 0 whitelisted" in out


def test_prove_verbose_prints_certificates(capsys):
    assert main(["prove", "dynprog-om", "-v"]) == 0
    out = capsys.readouterr().out
    assert "xloop.om proved" in out
    assert "minimal" in out          # per-loop describe() line


def test_prove_fuzz_and_json(tmp_path, capsys):
    import json
    report = tmp_path / "proofs.json"
    assert main(["prove", "saxpy-uc", "--fuzz", "5", "--seed", "2",
                 "--json", str(report)]) == 0
    records = json.loads(report.read_text())
    assert records[0]["name"] == "saxpy-uc"
    assert records[0]["ok"] is True
    assert records[0]["loops"][0]["verdict"] == "proved"


def test_prove_replay_on_sound_kernels_is_noop(capsys):
    # no registered kernel is refuted, so --replay replays nothing
    assert main(["prove", "mm-orm", "--replay"]) == 0
    out = capsys.readouterr().out
    assert "counterexample replay" not in out


def test_compile_auto_annotate(tmp_path, capsys):
    path = tmp_path / "plain.c"
    path.write_text("""
void scale(int* a, int* b, int n) {
    for (int i = 0; i < n; i++) { b[i] = 3 * a[i] + 1; }
}
""")
    assert main(["compile", str(path), "--auto-annotate"]) == 0
    err = capsys.readouterr()
    assert "xloop.uc" in err.out + err.err


def test_run_auto_annotate(tmp_path, capsys):
    path = tmp_path / "plain.c"
    path.write_text("""
int total(int* a, int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc = acc + a[i]; }
    return acc;
}
""")
    rc = main(["run", str(path), "total", "0x100000", "0",
               "--auto-annotate"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "return value:  0" in out


def test_worker_parser_flags():
    args = build_parser().parse_args(
        ["worker", "--connect", "/tmp/s.sock", "--jobs", "3",
         "--name", "w1", "--poll", "0.5"])
    assert args.connect == "/tmp/s.sock"
    assert args.jobs == 3 and args.name == "w1"
    assert args.poll == 0.5


def test_worker_requires_connect():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["worker"])


def test_serve_distributed_flags():
    args = build_parser().parse_args(
        ["serve", "--socket", "/tmp/s.sock", "--distributed",
         "--journal", "/tmp/q.journal", "--lease-ttl", "5",
         "--requeue-budget", "3", "--drain-timeout", "10"])
    assert args.distributed and args.journal == "/tmp/q.journal"
    assert args.lease_ttl == 5.0 and args.requeue_budget == 3
    assert args.drain_timeout == 10.0
    status = build_parser().parse_args(
        ["serve", "--status", "/tmp/s.sock", "--json"])
    assert status.status == "/tmp/s.sock" and status.json


def test_sweep_exact_accounting_flags():
    args = build_parser().parse_args(
        ["sweep", "table2", "--scale", "tiny",
         "--expect-sims-exact", "24", "--expect-points", "28"])
    assert args.expect_sims_exact == 24
    assert args.expect_points == 28


def test_serve_status_against_dead_socket(capsys):
    assert main(["serve", "--status", "/tmp/no-such-repro.sock"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
