"""One repetition of a perfbench workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with a fresh, empty
disk-cache directory and a scrubbed environment, so every repetition
pays what a user's ``repro sweep`` pays.  It writes one JSON document
(``--out``) with the repetition's timings, the identity and digest of
every returned record, and -- with ``--trace-dir`` -- leaves span files
for ``spans.py`` to fold into per-layer metrics.

Usage (normally only from ``run.py``)::

    python3 perfbench/child.py --workload table2-cold --seed 3 \\
        --t0 <monotonic spawn time> --socket-dir D --out rep.json \\
        [--trace-dir T] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


class Probe:
    """Timing probes that stay on in untraced repetitions: they read
    what the program already reports (sweep summaries, hardened
    outcomes) and add one clock pair per served point."""

    def __init__(self):
        self.summaries = []
        self.executes = []    # (label, seconds, simulated, instrs)

    def install(self):
        import repro.eval
        from repro.eval import parallel
        from repro.serve import server
        sweep, execute_one = parallel.sweep, server.execute_one

        def probed_sweep(*args, **kwargs):
            summary = sweep(*args, **kwargs)
            self.summaries.append(summary)
            return summary

        def probed_execute_one(point, policy):
            t0 = time.perf_counter()
            outcome = execute_one(point, policy)
            instrs = (outcome.result.total_instrs
                      if outcome.simulated and outcome.result is not None
                      else 0)
            self.executes.append((point.label(),
                                  time.perf_counter() - t0,
                                  outcome.simulated, instrs))
            return outcome

        parallel.sweep = repro.eval.sweep = probed_sweep
        server.execute_one = probed_execute_one

    @staticmethod
    def _record(pt):
        from repro.eval import runner
        return runner.cached_result(pt.kernel, pt.config,
                                    **pt.run_kwargs())

    def summary_records(self, points):
        """Records the in-process sweeps returned for *points*."""
        failed = {f.label for s in self.summaries for f in s.failures}
        return [(pt, None if pt.label() in failed else self._record(pt))
                for pt in dict.fromkeys(points)]

    def client_records(self, points, summary):
        """Records one ``ServeClient.submit`` returned for *points*."""
        answered = {o.point for o in summary.outcomes}
        return [(pt, self._record(pt) if pt in answered else None)
                for pt in dict.fromkeys(points)]

    def simulated(self):
        """``(label, seconds, instructions)`` of every simulated point,
        timed by the caller of the executing layer."""
        if self.executes:
            return [(label, s, n) for label, s, sim, n in self.executes
                    if sim]
        return [(o.point.label(), o.wall_time,
                 self._record(o.point).total_instrs)
                for summary in self.summaries for o in summary.outcomes
                if o.simulated]


def environment():
    """What must match for two results to be comparable."""
    import platform
    from repro.eval import runner
    from repro.sim.backends import resolve_backend
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"backend": resolve_backend(runner.default_backend()).name,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--socket-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-dir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up: imports, the kernel registry and (service) the server
    import repro.eval      # noqa: F401 - imports are part of set-up
    import repro.serve     # noqa: F401
    from repro.kernels import TABLE2_KERNELS, TABLE4_KERNELS  # noqa: F401
    import check
    import workloads
    tracer = None
    if args.trace_dir:
        import spans
        tracer = spans.Tracer(args.trace_dir)
        tracer.install()
    probe = Probe()
    probe.install()
    rep = workloads.make_rep(args.workload, args.seed, probe,
                             args.socket_dir)
    try:
        rep.setup()
        out = {"setup_s": time.perf_counter() - args.t0,
               "env": environment()}
        if not args.setup_only:
            root = tracer.begin("bench.sweep") if tracer else None
            returned = rep.run()
            if tracer:
                tracer.end(root)
            out["facts"] = rep.facts
            out["records"] = [
                [pt.label(), check.identity(rec), check.digest(rec)]
                for pt, rec in returned]
            out["simulated"] = probe.simulated()
    finally:
        rep.close()
    if tracer:
        tracer.dump("main")
    # the larger peak, not the sum: a forked child's peak already
    # counts the pages it shares with this process
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(own, kids) / 1024.0
    with open(args.out, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
