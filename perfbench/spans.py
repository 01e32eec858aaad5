"""Traced repetitions: spans recorded around repro's layer boundaries,
from outside the program, and the per-layer metrics made from them.

:meth:`Tracer.install` wraps the public boundary functions where their
callers look them up -- modules import most of them by name, so the
wrapper goes on the importing module's attribute (for example
``repro.uarch.system.fused_blocks`` and
``repro.eval.runner.compile_source``).  Each span records a name,
start, end, its parent span, the point it belongs to and a few
counters, and stays in memory until :meth:`Tracer.dump` writes it out.
Forked simulation workers (the service's hardened executor) inherit
the wrappers, start a span list of their own under the span that
forked them, and dump it when their point is done.

:func:`layer_metrics` folds one repetition's span files into the
per-layer metrics.  A layer's self time is its spans' duration minus
the part their child spans cover; the sweep time no span covers is
reported as ``trace.unattributed_s`` rather than spread over layers.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import threading
import time


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self._local = threading.local()
        self._fresh(None)
        #: id -> (object, (hits, misses, vector iterations, refusals))
        #: last seen, per turbo memo and vector engine: the objects are
        #: shared across points and accumulate, so count only deltas
        self._seen = {}

    def _fresh(self, root_parent):
        self.spans = []
        self._ids = itertools.count(1)
        self._prefix = "%d-%d" % (os.getpid(), time.monotonic_ns())
        self._root_parent = root_parent
        self._local.stack = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, point=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if point is None and parent is not None:
            point = parent["point"]
        span = {"id": "%s.%d" % (self._prefix, next(self._ids)),
                "parent": parent["id"] if parent else self._root_parent,
                "name": name, "point": point,
                "start": time.perf_counter(), "end": None}
        stack.append(span)
        return span

    def end(self, span, **attrs):
        span["end"] = time.perf_counter()
        if attrs:
            span.update(attrs)
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def dump(self, tag):
        path = os.path.join(self.out_dir, "spans-%s-%s.json"
                            % (tag, self._prefix))
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # -- wrapping ----------------------------------------------------

    def wrap(self, owner, attr, name, point=None, before=None,
             after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.
        *point(args, kwargs)* names the point, *before(args)* captures
        state and *after(result, state, args)* returns span counters."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self.begin(name,
                              point(args, kwargs) if point else None)
            state = before(args) if before else None
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self.end(span, error=True)
                raise
            self.end(span, **(after(result, state, args) if after
                               else {}))
            return result

        setattr(owner, attr, wrapper)
        return orig

    def install(self):
        import repro.eval
        import repro.lang
        from repro.eval import diskcache, figures, hardening, runner
        from repro.eval import table2
        from repro.kernels.base import Workload
        from repro.serve import protocol, server
        from repro.sim import vector
        from repro.uarch import system
        from repro.uarch.lpsu import LPSU

        def run_point(args, kwargs):
            return "%s/%s/%s" % (args[0], args[1],
                                 kwargs.get("mode", "traditional"))

        def run_before(_args):
            return runner.simulations, diskcache.stats["hits"]

        def run_after(_result, state, _args):
            if runner.simulations > state[0]:
                return {"outcome": "sim"}
            if diskcache.stats["hits"] > state[1]:
                return {"outcome": "disk"}
            return {"outcome": "memo"}

        traced_run = None
        for mod in (runner, table2, figures, repro.eval):
            if traced_run is None:
                self.wrap(mod, "run", "eval.runner", run_point,
                          run_before, run_after)
                traced_run = mod.run
            else:
                mod.run = traced_run
        for mod in (runner, repro.lang):
            self.wrap(mod, "compile_source", "lang.compile")
        self.wrap(system, "fused_blocks", "sim.fusion.blocks")
        self.wrap(system, "lpsu_engine", "sim.fusion.lpsu_engine")
        self.wrap(vector, "vector_engine", "sim.vector.engine")
        self.wrap(system.SystemSimulator, "run", "uarch.gpp",
                  after=self._gpp_after)
        self.wrap(LPSU, "run", "uarch.lpsu",
                  after=lambda r, _s, _a: {
                      "instrs": r.stats.instrs,
                      "squashes": r.stats.squashes})
        self.wrap(Workload, "apply", "kernels.apply")
        self.wrap(Workload, "check", "kernels.check")
        self.wrap(runner, "system_energy", "energy")

        def load_before(_args):
            return diskcache.stats["hot_hits"]

        self.wrap(diskcache, "load", "eval.diskcache.load",
                  before=load_before,
                  after=lambda r, hot, _a: {
                      "hit": r is not None,
                      "hot": diskcache.stats["hot_hits"] > hot})
        self.wrap(diskcache, "store", "eval.diskcache.store")
        self.wrap(protocol, "pack_record", "serve.protocol.pack")
        self.wrap(protocol, "unpack_record", "serve.protocol.unpack")

        def execute_after(outcome, _state, _args):
            return {"child_s": outcome.wall, "retries": outcome.retries,
                    "simulated": outcome.simulated}

        self.wrap(server, "execute_one", "eval.hardening.execute",
                  point=lambda args, _kw: args[0].label(),
                  after=execute_after)
        child_main = hardening._child_main

        def traced_child_main(conn, point, attempt, fast):
            # a forked worker: keep only its own spans, under the span
            # that forked it
            stack = self._stack()
            self._fresh(stack[-1]["id"] if stack else None)
            span = self.begin("eval.hardening.child", point.label())
            try:
                child_main(conn, point, attempt, fast)
            finally:
                self.end(span)
                self.dump("child")

        hardening._child_main = traced_child_main

    def _gpp_after(self, result, _state, args):
        sim = args[0]
        attrs = {"kind": "ooo" if sim.config.gpp.is_ooo else "io",
                 "gpp_instrs": result.gpp_instrs,
                 "cache_accesses": result.cache_accesses,
                 "cache_misses": result.cache_misses}
        deltas = [0, 0, 0, 0]
        for obj in (list(sim._memos.values())
                    + list(sim._vec_engines.values())):
            now = (getattr(obj, "hits", 0), getattr(obj, "misses", 0),
                   getattr(obj, "batched_iterations", 0),
                   getattr(obj, "refusals", 0))
            seen = self._seen.get(id(obj))
            last = seen[1] if seen is not None and seen[0] is obj \
                else (0, 0, 0, 0)
            self._seen[id(obj)] = (obj, now)
            for i in range(4):
                deltas[i] += now[i] - last[i]
        attrs.update(memo_hits=deltas[0], memo_misses=deltas[1],
                     vector_iterations=deltas[2],
                     vector_refusals=deltas[3])
        return attrs


# ---------------------------------------------------------------------------
# per-layer metrics from span files
# ---------------------------------------------------------------------------


def load_spans(trace_dir):
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir,
                                              "spans-*.json"))):
        with open(path) as fh:
            spans.extend(json.load(fh))
    return spans


def _covered(intervals):
    """Length of the union of ``[(start, end)]``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """``{span id: duration minus the union of its children}``."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(
            (sp["start"], sp["end"]))
    return {sp["id"]: (sp["end"] - sp["start"])
            - _covered(children.get(sp["id"], ()))
            for sp in spans}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, facts, jobs):
    """The per-layer metrics of one traced repetition.  *facts* are
    the repetition's workload facts (client phase times, server
    counters); *jobs* the service's simulation processes."""
    own = self_times(spans)
    by = {}
    for sp in spans:
        by.setdefault(sp["name"], []).append(sp)

    def calls(name):
        return len(by.get(name, ()))

    def busy(name):
        return sum(sp["end"] - sp["start"] for sp in by.get(name, ()))

    def total(name, key, pred=None):
        return sum(sp.get(key, 0) or 0 for sp in by.get(name, ())
                   if pred is None or pred(sp))

    m = {}
    gpp = by.get("uarch.gpp", ())
    for kind in ("ooo", "io"):
        ks = [sp for sp in gpp if sp.get("kind") == kind]
        self_s = sum(own[sp["id"]] for sp in ks)
        instrs = sum(sp.get("gpp_instrs", 0) for sp in ks)
        m["uarch.gpp.%s.self_s" % kind] = self_s
        m["uarch.gpp.%s.ns_per_instr" % kind] = _ratio(self_s * 1e9,
                                                       instrs)
    m["uarch.gpp.instrs"] = total("uarch.gpp", "gpp_instrs")

    m["uarch.lpsu.calls"] = calls("uarch.lpsu")
    m["uarch.lpsu.busy_s"] = busy("uarch.lpsu")
    m["uarch.lpsu.instrs"] = total("uarch.lpsu", "instrs")
    m["uarch.lpsu.ns_per_instr"] = _ratio(m["uarch.lpsu.busy_s"] * 1e9,
                                          m["uarch.lpsu.instrs"])
    m["uarch.lpsu.squashes"] = total("uarch.lpsu", "squashes")
    hits = total("uarch.gpp", "memo_hits")
    m["sim.backend.memo_hit_ratio"] = _ratio(
        hits, hits + total("uarch.gpp", "memo_misses"))
    m["sim.backend.vector_iterations"] = total("uarch.gpp",
                                               "vector_iterations")
    m["sim.backend.vector_refusals"] = total("uarch.gpp",
                                             "vector_refusals")
    m["sim.vector.engine.busy_s"] = busy("sim.vector.engine")

    for layer, name in (("lang.compile", "lang.compile"),
                        ("sim.fusion.blocks", "sim.fusion.blocks"),
                        ("sim.fusion.lpsu_engine",
                         "sim.fusion.lpsu_engine")):
        m[layer + ".calls"] = calls(name)
        m[layer + ".busy_s"] = busy(name)

    sweep = by.get("bench.sweep", [])
    sweep_s = sum(sp["end"] - sp["start"] for sp in sweep)
    ex = "eval.hardening.execute"
    m[ex + ".calls"] = calls(ex)
    m[ex + ".busy_s"] = busy(ex)
    m["eval.hardening.child_sim_s"] = total(ex, "child_s")
    m["eval.hardening.overhead_s"] = (m[ex + ".busy_s"]
                                      - m["eval.hardening.child_sim_s"])
    m["eval.hardening.retries"] = total(ex, "retries")
    m["eval.hardening.worker_util"] = _ratio(m[ex + ".busy_s"],
                                             sweep_s * jobs)

    runs = by.get("eval.runner", ())
    m["eval.runner.calls"] = len(runs)
    for outcome, key in (("memo", "memo_hits"), ("disk", "disk_hits"),
                         ("sim", "simulations")):
        m["eval.runner." + key] = sum(1 for sp in runs
                                      if sp.get("outcome") == outcome)
    loads = by.get("eval.diskcache.load", ())
    m["eval.diskcache.load.calls"] = len(loads)
    m["eval.diskcache.load.busy_s"] = busy("eval.diskcache.load")
    m["eval.diskcache.load.hit_ratio"] = _ratio(
        sum(1 for sp in loads if sp.get("hit")), len(loads))
    m["eval.diskcache.store.calls"] = calls("eval.diskcache.store")
    m["eval.diskcache.store.busy_s"] = busy("eval.diskcache.store")
    m["eval.diskcache.hot.hit_ratio"] = _ratio(
        sum(1 for sp in loads if sp.get("hot")), len(loads))

    m["serve.protocol.pack_s"] = busy("serve.protocol.pack")
    m["serve.protocol.unpack_s"] = busy("serve.protocol.unpack")
    counters = facts.get("server", {})
    for key in ("served_cache", "served_inflight", "simulated",
                "failed"):
        m["serve.server." + key] = counters.get(key, 0)
    m["serve.client.cold_s"] = facts.get("cold_s", 0.0)
    m["serve.client.warm_s"] = facts.get("warm_s", 0.0)

    m["kernels.apply_s"] = busy("kernels.apply")
    m["kernels.check_s"] = busy("kernels.check")
    m["energy.busy_s"] = busy("energy")
    accesses = total("uarch.gpp", "cache_accesses")
    m["uarch.cache.accesses"] = accesses
    m["uarch.cache.miss_ratio"] = _ratio(
        total("uarch.gpp", "cache_misses"), accesses)

    # sweep time no span in the measuring process covers
    main_pid = sweep[0]["id"].split("-")[0] if sweep else None
    inner = [(sp["start"], sp["end"]) for sp in spans
             if not sp["name"].startswith("bench.")
             and sp["id"].split("-")[0] == main_pid
             and any(s["start"] <= sp["start"] and sp["end"] <= s["end"]
                     for s in sweep)]
    m["trace.unattributed_s"] = sweep_s - _covered(inner)
    return m
