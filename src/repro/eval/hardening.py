"""Hardened point execution: watchdogs, retry, quarantine, resume.

The sweep executor hands its pending points to this module.  Each
point runs in its own forked worker process (one process per point,
bounded concurrency), which buys three properties a shared pool cannot
provide:

* a *hung* worker can be killed without poisoning siblings (a Pool
  worker stuck in C code would wedge ``imap_unordered`` forever),
* a *crashed* worker (hard exit, OOM kill, corrupted interpreter) is
  detected from its exit code instead of deadlocking the parent, and
* a failure is attributable to exactly one point.

Failures are retried with exponential backoff up to a bounded attempt
count; the final attempt runs on the ``interp`` backend rung (the most
likely software cause of a crash is a compiled rung itself).
A point that exhausts its attempts is *quarantined*: the sweep
completes without it and the summary carries a structured
:class:`PointFailure` record instead of the whole run aborting.

When worker processes cannot be created at all the engine degrades to
serial in-process execution (recorded as an incident), which is also
the ``jobs <= 1`` path.  Long sweeps can checkpoint completed points
to disk (:class:`SweepCheckpoint`) and resume after an interruption.

Deterministic failure injection for tests and drills: set
``$REPRO_CHAOS`` to a JSON object mapping a point-label substring to
the attempts to sabotage, e.g.::

    {"sgemm-uc/io/": {"crash": [0]}, "dither-or": {"hang": [0, 1]}}

Chaos is consulted *only inside worker children* (never in the parent
or the serial path), so it exercises exactly the crash/hang recovery
machinery.

The distributed serve tier (:mod:`repro.serve.worker`) reads the same
plan for three additional modes keyed by the *server-assigned requeue
attempt* rather than the in-process retry attempt: ``kill_worker``
(the worker process dies before touching the point), ``hang_worker``
(the worker wedges -- heartbeats stop, the lease expires) and
``sever`` (the worker's socket is cut mid-frame).  All three strike
*before* the point simulates, so the requeued attempt is the first
and only simulation -- the accounting invariant the chaos acceptance
test pins down.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass

from ..resilience.watchdog import DeadlineExceeded, deadline
from . import runner

#: env var holding the JSON chaos plan (worker-side fault injection)
CHAOS_ENV = "REPRO_CHAOS"

#: exit code a chaos-crashed worker dies with
CHAOS_EXIT = 13


@dataclass
class HardeningPolicy:
    """Knobs for the hardened engine (defaults are production-safe)."""

    timeout: float = 0.0      # per-point wall-clock bound, 0 = none
    retries: int = 3          # max attempts per point
    backoff: float = 0.25     # base backoff (doubles per attempt)
    checkpoint: str = ""      # checkpoint file path, "" = disabled


@dataclass
class RetryEvent:
    """One failed attempt that will be retried."""

    label: str
    attempt: int     # the attempt that failed (0-based)
    kind: str        # "crash" | "hang" | "error"
    error: str
    backoff: float   # seconds until the next attempt is eligible


@dataclass
class PointFailure:
    """A quarantined point: every attempt failed."""

    label: str
    attempts: int
    kind: str        # classification of the *last* failure
    error: str


# ---------------------------------------------------------------------------
# chaos (worker-side deterministic failure injection)
# ---------------------------------------------------------------------------


def chaos_plan():
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return {}
    try:
        plan = json.loads(raw)
    except ValueError:
        return {}
    return plan if isinstance(plan, dict) else {}


def chaos_modes(label):
    """Every chaos mode whose pattern matches *label*, merged into one
    ``{mode: [attempts]}`` map -- the shared lookup for the in-process
    ladder here and the distributed worker's fault injection."""
    merged = {}
    for pattern, modes in chaos_plan().items():
        if pattern in label and isinstance(modes, dict):
            for mode, attempts in modes.items():
                merged.setdefault(mode, []).extend(attempts or ())
    return merged


def _apply_chaos(label, attempt):
    """Sabotage this attempt if the plan says so.  Only ever acts
    inside a worker child: the parent and the serial path must stay
    healthy so recovery itself can be tested."""
    import multiprocessing
    if multiprocessing.parent_process() is None:
        return
    modes = chaos_modes(label)
    if attempt in modes.get("crash", ()):
        os._exit(CHAOS_EXIT)
    if attempt in modes.get("hang", ()):
        time.sleep(3600)


# ---------------------------------------------------------------------------
# checkpoint / resume
# ---------------------------------------------------------------------------


class SweepCheckpoint:
    """Atomic on-disk record of a sweep in progress.

    Maps point memo-keys to finished results (and quarantined points
    to their failure records) so an interrupted sweep resumes where it
    stopped.  Written with the same write-to-temp-then-rename
    discipline as the disk cache; a truncated or corrupt checkpoint is
    treated as absent, never as an error.
    """

    def __init__(self, path):
        self.path = str(path)
        self.completed = {}   # memo_key -> (result, wall)
        self.failed = {}      # memo_key -> PointFailure
        self._load()

    def _load(self):
        try:
            with open(self.path, "rb") as fh:
                state = pickle.load(fh)
            self.completed = dict(state.get("completed", {}))
            self.failed = dict(state.get("failed", {}))
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ValueError, KeyError):
            self.completed = {}
            self.failed = {}

    def save(self):
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump({"completed": self.completed,
                             "failed": self.failed}, fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self.path)
        except OSError:  # checkpointing must never fail the sweep
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def record_result(self, key, result, wall):
        self.completed[key] = (result, wall)
        self.save()

    def record_failure(self, key, failure):
        self.failed[key] = failure
        self.save()


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _child_main(conn, point, attempt, backend):
    """Worker entry: run one point on *backend* (None = the process
    default), ship the outcome up the pipe."""
    try:
        _apply_chaos(point.label(), attempt)
        t0 = time.perf_counter()
        before = runner.simulations
        result = runner.run(point.kernel, point.config, backend=backend,
                            **point.run_kwargs())
        wall = time.perf_counter() - t0
        conn.send(("ok", result, wall, runner.simulations > before,
                   runner.drain_incidents()))
    except BaseException as exc:  # noqa: BLE001 - full report, then die
        try:
            conn.send(("error", "%s: %s" % (type(exc).__name__, exc)))
        except Exception:
            pass
        conn.close()
        os._exit(1)
    conn.close()


def _mp_context():
    import multiprocessing
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context("spawn")


class _Task:
    __slots__ = ("point", "attempt", "proc", "conn", "kill_at")

    def __init__(self, point, attempt, proc, conn, kill_at):
        self.point = point
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.kill_at = kill_at


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


@dataclass
class OneOutcome:
    """What hardened execution of a single point produced."""

    result: object           # KernelRun, or None when quarantined
    failure: object          # PointFailure, or None on success
    wall: float              # last attempt's wall time (seconds)
    simulated: bool          # False -> a cache served it after all
    retries: int = 0         # failed attempts that were retried


def execute_one(point, policy):
    """Run one point under the full hardened ladder -- its own forked
    worker, wall-clock watchdog, retry with backoff, quarantine on
    exhaustion -- and return a :class:`OneOutcome`.

    This is the sweep server's executor: each cache miss goes through
    exactly the isolation a parallel sweep gives it, one point at a
    time (the server bounds concurrency itself).  The finished result
    is seeded into the runner memo, so subsequent submissions of the
    same point are cache-served.  Never raises: an engine-level
    surprise becomes a quarantine record like any other failure."""
    from .parallel import SweepSummary
    summary = SweepSummary(jobs=1)
    try:
        _run_parallel([point], 1, policy, summary, None)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 - report, don't kill the server
        return OneOutcome(None, PointFailure(
            point.label(), 0, "error",
            "engine: %s: %s" % (type(exc).__name__, exc)),
            0.0, False, len(summary.retries))
    if summary.failures:
        return OneOutcome(None, summary.failures[0], 0.0, False,
                          len(summary.retries))
    if not summary.outcomes:   # pragma: no cover - engine invariant
        return OneOutcome(None, PointFailure(
            point.label(), 0, "error", "engine produced no outcome"),
            0.0, False, len(summary.retries))
    out = summary.outcomes[0]
    result = runner._RESULTS.get(point.memo_key())
    return OneOutcome(result, None, out.wall_time, out.simulated,
                      len(summary.retries))


def execute_points(points, jobs, policy, summary):
    """Run *points* under *policy*, appending outcomes, retries,
    failures and incidents to *summary* and seeding the runner memo
    with every finished result."""
    from .parallel import PointOutcome

    ckpt = SweepCheckpoint(policy.checkpoint) if policy.checkpoint \
        else None
    pending = []
    for pt in points:
        key = pt.memo_key()
        if ckpt is not None and key in ckpt.completed:
            result, wall = ckpt.completed[key]
            runner.seed_result(key, result)
            summary.outcomes.append(PointOutcome(pt, wall, False))
        elif ckpt is not None and key in ckpt.failed:
            summary.failures.append(ckpt.failed[key])
        else:
            pending.append(pt)

    if jobs <= 1 or len(pending) <= 1:
        _run_serial(pending, policy, summary, ckpt)
    else:
        _run_parallel(pending, jobs, policy, summary, ckpt)
    summary.incidents.extend(runner.drain_incidents())


def _attempt_backend(policy, attempt):
    """The backend for this attempt number: the final retry drops to
    the ``interp`` reference rung; earlier ones use the default."""
    if policy.retries > 1 and attempt == policy.retries - 1:
        return "interp"
    return None


def _run_serial(points, policy, summary, ckpt):
    """In-process execution with the same retry/quarantine ladder.
    The wall-clock bound uses the SIGALRM watchdog where available
    (there is no process to kill)."""
    from .parallel import PointOutcome

    for pt in points:
        key, label = pt.memo_key(), pt.label()
        for attempt in range(policy.retries):
            try:
                t0 = time.perf_counter()
                before = runner.simulations
                with deadline(policy.timeout):
                    result = runner.run(
                        pt.kernel, pt.config,
                        backend=_attempt_backend(policy, attempt),
                        **pt.run_kwargs())
                wall = time.perf_counter() - t0
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001
                kind = "hang" if isinstance(exc, DeadlineExceeded) \
                    else "error"
                error = "%s: %s" % (type(exc).__name__, exc)
                if attempt + 1 < policy.retries:
                    delay = policy.backoff * (2 ** attempt)
                    summary.retries.append(
                        RetryEvent(label, attempt, kind, error, delay))
                    time.sleep(delay)
                    continue
                failure = PointFailure(label, attempt + 1, kind, error)
                summary.failures.append(failure)
                if ckpt is not None:
                    ckpt.record_failure(key, failure)
                break
            else:
                runner.seed_result(key, result)
                summary.outcomes.append(PointOutcome(
                    pt, wall, runner.simulations > before))
                if ckpt is not None:
                    ckpt.record_result(key, result, wall)
                break


def _run_parallel(points, jobs, policy, summary, ckpt):
    from .parallel import PointOutcome

    ctx = _mp_context()
    #: (point, attempt, not_before) - a retry waits out its backoff
    queue = deque((pt, 0, 0.0) for pt in points)
    running = []

    def fail(point, attempt, kind, error):
        label = point.label()
        if attempt + 1 < policy.retries:
            delay = policy.backoff * (2 ** attempt)
            summary.retries.append(
                RetryEvent(label, attempt, kind, error, delay))
            queue.append((point, attempt + 1,
                          time.monotonic() + delay))
        else:
            failure = PointFailure(label, attempt + 1, kind, error)
            summary.failures.append(failure)
            if ckpt is not None:
                ckpt.record_failure(point.memo_key(), failure)

    def finish(task, result, wall, simulated, incidents):
        runner.seed_result(task.point.memo_key(), result)
        summary.outcomes.append(
            PointOutcome(task.point, wall, simulated))
        summary.incidents.extend(incidents)
        if ckpt is not None:
            ckpt.record_result(task.point.memo_key(), result, wall)

    def reap(task):
        try:
            task.conn.close()
        except OSError:
            pass
        task.proc.join(timeout=2)

    while queue or running:
        # spawn up to the concurrency bound (skipping entries still
        # waiting out their backoff)
        now = time.monotonic()
        spawned = True
        while queue and len(running) < jobs and spawned:
            spawned = False
            for _ in range(len(queue)):
                pt, attempt, not_before = queue.popleft()
                if now < not_before:
                    queue.append((pt, attempt, not_before))
                    continue
                parent_conn = child_conn = None
                try:
                    parent_conn, child_conn = ctx.Pipe(duplex=False)
                    proc = ctx.Process(
                        target=_child_main,
                        args=(child_conn, pt, attempt,
                              _attempt_backend(policy, attempt)))
                    proc.start()
                except OSError as exc:
                    for conn in (parent_conn, child_conn):
                        if conn is not None:
                            try:
                                conn.close()
                            except OSError:
                                pass
                    # cannot create workers at all: degrade the whole
                    # sweep to serial in-process execution
                    summary.degraded = True
                    summary.incidents.append(runner.Incident(
                        kind="parallel-to-serial", context=pt.label(),
                        detail="worker spawn failed: %s" % exc))
                    queue.appendleft((pt, attempt, 0.0))
                    _drain_parallel(running, policy, summary, ckpt,
                                    fail, finish, reap)
                    running = []
                    _run_serial([q[0] for q in queue], policy,
                                summary, ckpt)
                    return
                child_conn.close()
                kill_at = (time.monotonic() + policy.timeout
                           if policy.timeout else 0.0)
                running.append(_Task(pt, attempt, proc, parent_conn,
                                     kill_at))
                spawned = True
                break

        progressed = _poll_once(running, policy, fail, finish, reap)
        if not progressed:
            time.sleep(0.005)


def _poll_once(running, policy, fail, finish, reap):
    """One scheduler pass over the live workers; prunes *running* in
    place and reports whether anything completed."""
    progressed = False
    now = time.monotonic()
    for task in list(running):
        msg = None
        try:
            if task.conn.poll(0):
                msg = task.conn.recv()
        except (EOFError, OSError):
            msg = None
        if msg is None and not task.proc.is_alive():
            # the child exited; give an in-flight message one last
            # chance to arrive before calling it a crash
            try:
                if task.conn.poll(0.2):
                    msg = task.conn.recv()
            except (EOFError, OSError):
                msg = None
        if msg is not None:
            running.remove(task)
            reap(task)
            if msg[0] == "ok":
                finish(task, *msg[1:])
            else:
                fail(task.point, task.attempt, "error", msg[1])
            progressed = True
        elif not task.proc.is_alive():
            running.remove(task)
            reap(task)
            fail(task.point, task.attempt, "crash",
                 "worker exited with code %s" % task.proc.exitcode)
            progressed = True
        elif task.kill_at and now > task.kill_at:
            task.proc.terminate()
            task.proc.join(timeout=2)
            if task.proc.is_alive():  # pragma: no cover - stubborn child
                task.proc.kill()
                task.proc.join(timeout=2)
            running.remove(task)
            try:
                task.conn.close()
            except OSError:
                pass
            fail(task.point, task.attempt, "hang",
                 "killed after %.3gs wall-clock" % policy.timeout)
            progressed = True
    return progressed


def _drain_parallel(running, policy, summary, ckpt, fail, finish, reap):
    """Wait out (or time out) workers already in flight before a
    degradation to serial execution."""
    while running:
        if not _poll_once(running, policy, fail, finish, reap):
            time.sleep(0.005)
