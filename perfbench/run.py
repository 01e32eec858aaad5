"""perfbench: the paper-artifact benchmark of the XLOOPS reproduction.

Runs one workload for about ``--seconds`` seconds as repeated fresh
interpreters (``child.py``), each with a fresh, empty disk-cache
directory, checks every returned record (``check.py``), prints a
report and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones (``spans.py``), with the
tracing overhead.  README.md lists every metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2-cold --seed 0 \\
        --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check      # noqa: E402
import spans      # noqa: E402
import workloads  # noqa: E402

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "sim_kips": ("kinstr/s", "higher"),
    "point_ms_p50": ("ms", "lower"),
    "point_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "uarch.gpp.ooo.self_s": ("s", "lower"),
    "uarch.gpp.ooo.ns_per_instr": ("ns", "lower"),
    "uarch.gpp.io.self_s": ("s", "lower"),
    "uarch.gpp.io.ns_per_instr": ("ns", "lower"),
    "uarch.gpp.instrs": ("count", "lower"),
    "uarch.lpsu.calls": ("count", "lower"),
    "uarch.lpsu.busy_s": ("s", "lower"),
    "uarch.lpsu.instrs": ("count", "lower"),
    "uarch.lpsu.ns_per_instr": ("ns", "lower"),
    "uarch.lpsu.squashes": ("count", "lower"),
    "sim.backend.memo_hit_ratio": ("ratio", "higher"),
    "sim.backend.vector_iterations": ("count", "higher"),
    "sim.backend.vector_refusals": ("count", "lower"),
    "sim.vector.engine.busy_s": ("s", "lower"),
    "lang.compile.calls": ("count", "lower"),
    "lang.compile.busy_s": ("s", "lower"),
    "sim.fusion.blocks.calls": ("count", "lower"),
    "sim.fusion.blocks.busy_s": ("s", "lower"),
    "sim.fusion.lpsu_engine.calls": ("count", "lower"),
    "sim.fusion.lpsu_engine.busy_s": ("s", "lower"),
    "eval.hardening.execute.calls": ("count", "lower"),
    "eval.hardening.execute.busy_s": ("s", "lower"),
    "eval.hardening.child_sim_s": ("s", "lower"),
    "eval.hardening.overhead_s": ("s", "lower"),
    "eval.hardening.retries": ("count", "lower"),
    "eval.hardening.worker_util": ("ratio", "higher"),
    "eval.runner.calls": ("count", "lower"),
    "eval.runner.memo_hits": ("count", "higher"),
    "eval.runner.disk_hits": ("count", "higher"),
    "eval.runner.simulations": ("count", "lower"),
    "eval.diskcache.load.calls": ("count", "lower"),
    "eval.diskcache.load.busy_s": ("s", "lower"),
    "eval.diskcache.load.hit_ratio": ("ratio", "higher"),
    "eval.diskcache.store.calls": ("count", "lower"),
    "eval.diskcache.store.busy_s": ("s", "lower"),
    "eval.diskcache.hot.hit_ratio": ("ratio", "higher"),
    "serve.protocol.pack_s": ("s", "lower"),
    "serve.protocol.unpack_s": ("s", "lower"),
    "serve.server.served_cache": ("count", "higher"),
    "serve.server.served_inflight": ("count", "higher"),
    "serve.server.simulated": ("count", "lower"),
    "serve.server.failed": ("count", "lower"),
    "serve.client.cold_s": ("s", "lower"),
    "serve.client.warm_s": ("s", "lower"),
    "kernels.apply_s": ("s", "lower"),
    "kernels.check_s": ("s", "lower"),
    "energy.busy_s": ("s", "lower"),
    "uarch.cache.accesses": ("count", "lower"),
    "uarch.cache.miss_ratio": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

#: untimed set-up-only interpreters before measuring (load what set-up
#: reads into the file cache)
WARMUP = 1

#: set-up-only interpreters measured besides the timed repetitions
SETUP_PROBES = 3

#: a run never starts a repetition that could end after this
RUN_BUDGET_S = 150.0

#: a repetition still running this long after the run began is killed
DEADLINE_S = 170.0


def tail(values):
    """``(value, percentile)``: the highest whole percentile with at
    least ten samples beyond it (nearest-rank), or the maximum when
    there are too few samples."""
    xs = sorted(values)
    n = len(xs)
    pct = max(50, math.floor(100.0 * (n - 10) / n)) if n > 10 else 100
    rank = max(1, math.ceil(pct / 100.0 * n))
    return xs[rank - 1], pct


def scrubbed_env():
    """The measured interpreters' environment: every ``REPRO_*`` knob
    cleared (returned for the record), hash seed pinned, bytecode
    caching on (as for an installed package)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if env.pop("PYTHONDONTWRITEBYTECODE", None) is not None:
        cleared.append("PYTHONDONTWRITEBYTECODE")
    env["PYTHONHASHSEED"] = "0"
    return env, cleared


class Runner:
    """Starts the measured interpreters of one benchmark run."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        #: no repetition may outlive this (perf_counter seconds)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.env, self.cleared = scrubbed_env()
        self.env["TMPDIR"] = os.path.join(work, "tmp")
        os.makedirs(self.env["TMPDIR"])

    def compile(self):
        """Compile the bytecode of ``src/`` and of the benchmark, as an
        installed package has it, so that no timed repetition compiles
        a module that the sweep imports lazily."""
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        "--invalidation-mode", "timestamp", "src",
                        os.path.relpath(HERE, ROOT)],
                       env=self.env, cwd=ROOT, stdout=sys.stderr,
                       check=True,
                       timeout=max(1.0, self.deadline - time.perf_counter()))

    def rep(self, setup_only=False, trace=False):
        d = tempfile.mkdtemp(dir=self.work)
        out = os.path.join(d, "rep.json")
        env = dict(self.env, REPRO_CACHE_DIR=os.path.join(d, "cache"))
        trace_dir = os.path.join(d, "trace")
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--socket-dir", os.path.relpath(os.path.join(d, "s"),
                                               ROOT),
               "--out", out]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            os.makedirs(trace_dir)
            cmd += ["--trace-dir", trace_dir]
        t0 = time.perf_counter()
        # its own session, so that every process it forks goes too
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env,
                                cwd=ROOT, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - t0))
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code:
            raise RuntimeError("%s exited with code %d" % (cmd[1], code))
        with open(out) as fh:
            result = json.load(fh)
        result["wall_s"] = time.perf_counter() - t0
        if trace:
            result["spans"] = spans.load_spans(trace_dir)
        shutil.rmtree(d)
        return result


def measure(runner, seconds, trace):
    """Set-up probes, then timed repetitions for about *seconds*
    (at least one; with *trace*, alternating untraced and traced)."""
    begin = time.perf_counter()
    runner.compile()
    for _ in range(WARMUP):
        runner.rep(setup_only=True)
    setups = [runner.rep(setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.perf_counter()
    limit = min(seconds, RUN_BUDGET_S - (start - begin))
    while True:
        want_trace = trace and len(traced) < len(plain)
        rep = runner.rep(trace=want_trace)
        if want_trace:
            traced.append(rep)
        else:
            plain.append(rep)
            setups.append(rep["setup_s"])
        if trace and not traced:
            continue
        est = statistics.median(r["wall_s"] for r in plain + traced)
        if time.perf_counter() - start + est > limit:
            break
    return setups, plain, traced


def median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def point_times(plain):
    """Host seconds per simulated point: each point's median over the
    repetitions, so that a stall landing on one point in one
    repetition does not move the percentiles."""
    times = {}
    for rep in plain:
        for label, seconds, _n in rep["simulated"]:
            times.setdefault(label, []).append(seconds)
    return [statistics.median(v) for v in times.values()]


def end_to_end(setups, plain):
    """The end-to-end metrics, and the tail's percentile and sample
    count.  Sweep figures are medians over the untraced repetitions;
    set-up is the median over every set-up measured."""
    per_rep = [{"sweep_s": r["facts"]["sweep_s"],
                "sim_kips": sum(n for _l, _s, n in r["simulated"])
                / r["facts"]["sweep_s"] / 1e3,
                "peak_rss_mb": r["peak_rss_mb"]} for r in plain]
    times = point_times(plain)
    p_tail, pct = tail(times)
    out = {"setup_s": statistics.median(setups),
           "sweep_s": median_of(per_rep, "sweep_s"),
           "sim_kips": median_of(per_rep, "sim_kips"),
           "point_ms_p50": statistics.median(times) * 1e3,
           "point_ms_tail": p_tail * 1e3,
           "peak_rss_mb": median_of(per_rep, "peak_rss_mb")}
    return out, (pct, len(times))


def per_layer(traced, sweep_s):
    """The per-layer metrics: medians over the traced repetitions;
    the tracing overhead against the untraced *sweep_s*."""
    layers = [spans.layer_metrics(r["spans"], r["facts"],
                                  workloads.SERVICE_JOBS)
              for r in traced]
    out = {k: median_of(layers, k) for k in PER_LAYER
           if k != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (
        median_of([r["facts"] for r in traced], "sweep_s") / sweep_s
        - 1.0)
    return out


def check_reps(reps, reference):
    """``(attempted, failed, {label: (reason, known defect)})`` over
    every repetition's returned records."""
    attempted = failed = 0
    failures = {}
    for rep in reps:
        bad = check.check_records(rep["records"], reference)
        attempted += len(rep["records"])
        failed += len(bad)
        failures.update((label, (reason, known))
                        for label, reason, known in bad)
    return attempted, failed, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        sys.exit("perfbench: no src/repro under %s; run from a checkout "
                 "of the repository" % ROOT)

    wseed = check.workload_seed(args.seed)
    reference = check.load_reference(args.workload, wseed)
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        runner = Runner(args.workload, wseed, work)
        setups, plain, traced = measure(runner, args.seconds,
                                        bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, failures = check_reps(plain + traced, reference)
    e2e, (pct, npoints) = end_to_end(setups, plain)
    env = plain[0]["env"]
    print("perfbench %s  seed %d (workload seed %d)  %d+%d repetitions"
          % (args.workload, args.seed, wseed, len(plain), len(traced)))
    print("env: backend=%s nproc=%s python=%s numpy=%s PYTHONHASHSEED=0 "
          "cleared=%s" % (env["backend"], env["nproc"], env["python"],
                          env["numpy"], ",".join(runner.cleared) or "-"))
    for name, value in e2e.items():
        note = ("  (p%d of %d simulated points)" % (pct, npoints)
                if name == "point_ms_tail" else "")
        print("  %-22s %12.4f %s%s" % (name, value, END_TO_END[name][0],
                                       note))
    print("  %-22s %12.4f   (%d failed of %d points requested)"
          % ("failed_frac", failed / attempted, failed, attempted))
    facts = [r["facts"] for r in plain]
    for key, unit in (("warm_points_per_s", "1/s"),
                      ("paper_dir_agree", ""), ("paper_rho", "")):
        if key in facts[0]:
            print("  %-22s %12.4f %s" % (key, median_of(facts, key),
                                         unit))
    for label, (reason, known) in sorted(failures.items()):
        print("  FAILED %s: %s%s" % (
            label, reason,
            " [known ksack cache-key collision]" if known else ""))

    if args.trace:
        metrics, units = per_layer(traced, e2e["sweep_s"]), PER_LAYER
        print("per-layer (median of %d traced repetitions):"
              % len(traced))
        for name in PER_LAYER:
            print("  %-34s %14.6f %s" % (name, metrics[name],
                                         units[name][0]))
    else:
        metrics, units = e2e, END_TO_END
    correct = all(known for _reason, known in failures.values())
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]}
                    for k, v in metrics.items()}}), flush=True)


if __name__ == "__main__":
    main()
