"""The three perfbench workloads: their point sets and how one timed
repetition drives them through repro's public entry points.

Imported only inside a measured interpreter (``child.py``) or by
``make_reference.py``, after ``src`` is on ``sys.path``.

Every workload takes the *workload seed* (``--seed`` folded into the
committed reference range, see ``check.py``) and nothing else; the
program only ever sees the generated points.
"""

from __future__ import annotations

import time

#: jobs of the service workload's server (the host has 2 CPUs)
SERVICE_JOBS = 2


def _table2_names():
    from repro.kernels import TABLE2_KERNELS
    return [k.name for k in TABLE2_KERNELS]


def table2_cold_points(seed):
    """The Table II point set at small scale (350 requested, 300
    unique)."""
    from repro.eval import table2_points
    return table2_points(scale="small", seed=seed)


def specialized_large_points(seed):
    """Fig 8's specialized points at large scale: every Table II
    kernel on io+x, ooo/2+x and ooo/4+x (75 points)."""
    from repro.eval import SweepPoint, XLOOPS_NAMES
    return [SweepPoint(name, cfg, mode="specialized", scale="large",
                       seed=seed)
            for cfg in XLOOPS_NAMES for name in _table2_names()]


def service_phases(seed):
    """The artifacts a user regenerates, in order, at tiny scale:
    ``[(artifact, points), ...]``."""
    from repro.eval import FIG9_KERNELS
    from repro.eval import parallel as p
    scale = "tiny"
    names = _table2_names()
    fig5 = p.fig5_points(names, scale, seed)
    fig5 += [p.baseline_point(k, "ooo/2", scale, seed) for k in names]
    return [
        ("table2", p.table2_points(names, scale, seed)),
        ("fig5", fig5),
        ("fig7", p.fig7_points(names, scale, seed)),
        ("fig8", p.fig8_points(names, scale=scale, seed=seed)),
        ("table4", p.table4_points(scale=scale, seed=seed)),
        ("fig9", p.fig9_points(FIG9_KERNELS, scale=scale, seed=seed)),
    ]


def unique_points(name, seed):
    """Every distinct point *name* requests, in first-request order
    (what the reference digests cover)."""
    if name == "service-mixed":
        pts = [pt for _a, phase in service_phases(seed) for pt in phase]
    else:
        pts = POINTS[name](seed)
    return list(dict.fromkeys(pts))


POINTS = {"table2-cold": table2_cold_points,
          "specialized-large": specialized_large_points}


class Rep:
    """One repetition.  ``setup()`` makes the workload ready to run
    its first point; ``run()`` runs the whole point set and returns
    the returned records as ``[(requested point, record or None)]``
    plus workload facts; ``close()`` releases what setup acquired."""

    def __init__(self, seed, probe):
        self.seed = seed
        self.probe = probe
        self.facts = {}

    def setup(self):
        pass

    def close(self):
        pass


class Table2Cold(Rep):
    """``build_table2`` at small scale, serial in-process."""

    def run(self):
        from repro.eval import build_table2, compare_table2
        t0 = time.perf_counter()
        rows = build_table2(scale="small", seed=self.seed)
        self.facts["sweep_s"] = time.perf_counter() - t0
        shape = compare_table2({r.kernel: r.speedups[("io", "S")]
                                for r in rows})
        self.facts["paper_dir_agree"] = shape.direction_agreement
        self.facts["paper_rho"] = shape.spearman_rho
        return self.probe.summary_records(table2_cold_points(self.seed))


class SpecializedLarge(Rep):
    """``repro.eval.sweep`` over Fig 8's specialized points at large
    scale, serial in-process."""

    def run(self):
        from repro.eval import sweep
        points = specialized_large_points(self.seed)
        t0 = time.perf_counter()
        sweep(points)
        self.facts["sweep_s"] = time.perf_counter() - t0
        return self.probe.summary_records(points)


class ServiceMixed(Rep):
    """A local ``ServerThread(jobs=2)`` on a unix socket over an empty
    store, one closed-loop ``ServeClient`` submitting the artifacts in
    order; then a server restart on the same store and the whole set
    resubmitted warm."""

    def __init__(self, seed, probe, socket_dir):
        super().__init__(seed, probe)
        self.socket_dir = socket_dir
        self.server = self.client = None
        self.counters = {}

    def _start(self):
        from repro.serve import ServeClient, ServerThread
        self.server = ServerThread(jobs=SERVICE_JOBS,
                                   socket_dir=self.socket_dir).start()
        self.client = ServeClient(self.server.address)
        self.client.ping()

    def _stop(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            for k, v in self.server.server.counters.items():
                self.counters[k] = self.counters.get(k, 0) + v
            self.server.stop()
            self.server = None

    def setup(self):
        self._start()

    def close(self):
        self._stop()

    def _submit_all(self, phases, returned):
        for _artifact, points in phases:
            summary = self.client.submit(points)
            returned.extend(self.probe.client_records(points, summary))

    def run(self):
        from repro.eval import diskcache, runner
        phases = service_phases(self.seed)
        returned = []
        t0 = time.perf_counter()
        self._submit_all(phases, returned)
        t1 = time.perf_counter()
        # restart on the same store: a new server process would start
        # with an empty memo and hot tier, so this one does too
        self._stop()
        runner.clear_cache(keep_disk=True)
        diskcache.hot_clear()
        self._start()
        t2 = time.perf_counter()
        warm_from = len(returned)
        self._submit_all(phases, returned)
        t3 = time.perf_counter()
        self._stop()
        self.facts.update(
            sweep_s=t3 - t0, cold_s=t1 - t0, warm_s=t3 - t2,
            restart_s=t2 - t1,
            warm_points_per_s=(len(returned) - warm_from) / (t3 - t2),
            server=self.counters)
        return returned


def make_rep(name, seed, probe, socket_dir):
    if name == "table2-cold":
        return Table2Cold(seed, probe)
    if name == "specialized-large":
        return SpecializedLarge(seed, probe)
    if name == "service-mixed":
        return ServiceMixed(seed, probe, socket_dir)
    raise KeyError(name)


WORKLOADS = ("table2-cold", "specialized-large", "service-mixed")
