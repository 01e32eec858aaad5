"""Hardened point execution: watchdogs, retry, backoff, quarantine.

Every sweep point runs through one retry ladder (:func:`_execute`)
whose attempts are either in-process or forked:

* ``jobs <= 1`` (or a single pending point) runs each attempt
  in-process, bounded by the SIGALRM watchdog;
* otherwise :func:`execute_one` runs on ``jobs`` threads, and each
  attempt forks one worker process and blocks on its pipe.  A *hung*
  worker is killed when the wall-clock bound expires, a *crashed* one
  (hard exit, OOM kill, corrupted interpreter) shows up as EOF on the
  pipe, and a failure is attributable to exactly one point.  The
  sweep server and the distributed worker call :func:`execute_one`
  the same way.

Failures are retried with exponential backoff up to a bounded attempt
count; the final attempt runs on the ``interp`` backend rung (the most
likely software cause of a crash is a compiled rung itself).
A point that exhausts its attempts is *quarantined*: the sweep
completes without it and the summary carries a structured
:class:`PointFailure` record instead of the whole run aborting.

When a worker cannot be forked, that attempt runs in-process instead
and records a ``parallel-to-serial`` incident.  Resume needs no
machinery here: every finished point is in the disk cache, so
rerunning an interrupted sweep simulates only what is missing.

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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
# worker side
# ---------------------------------------------------------------------------


def _child_main(conn, point, attempt, backend):
    """Worker entry: run one point on *backend* (None = the process
    default), ship the outcome up the pipe."""
    try:
        _apply_chaos(point.label(), attempt)
        incidents = []   # the parent enforces the wall-clock bound
        outcome = _in_process(point, attempt, backend, HardeningPolicy(),
                              incidents)
        conn.send(("ok",) + outcome + (incidents,))
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


#: serializes the fork window with the in-process fallback: no child
#: inherits another attempt's pipe write end (which would hide that
#: attempt's crash EOF) or a half-run in-process simulation, and two
#: in-process attempts never share the runner's globals at once
_LOCK = threading.Lock()


class _AttemptFailed(Exception):
    """A forked attempt failed; ``args`` is ``(kind, error)`` with kind
    ``"crash"``, ``"hang"`` or ``"error"``."""


# ---------------------------------------------------------------------------
# attempts: one run of one point, in-process or in a forked worker
# ---------------------------------------------------------------------------


def _in_process(point, attempt, backend, policy, incidents):
    """Run *point* here, bounded by the SIGALRM watchdog where one can
    be armed (the main thread); returns ``(result, wall, simulated)``."""
    t0, before = time.perf_counter(), runner.simulations
    try:
        with deadline(policy.timeout):
            result = runner.run(point.kernel, point.config,
                                backend=backend, **point.run_kwargs())
    finally:
        incidents.extend(runner.drain_incidents())
    return result, time.perf_counter() - t0, runner.simulations > before


def _forked(point, attempt, backend, policy, incidents):
    """Run *point* in its own forked worker and block on its pipe: a
    message is the outcome, EOF is a crash, and a poll timeout kills
    the worker as hung.  If no worker can be forked, the attempt runs
    in-process instead and records a ``parallel-to-serial`` incident."""
    ctx = _mp_context()
    with _LOCK:
        conns = ()
        try:
            conns = parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child_main,
                               args=(child_conn, point, attempt, backend))
            proc.start()
        except OSError as exc:
            for conn in conns:
                conn.close()
            incidents.append(runner.Incident(
                kind="parallel-to-serial", context=point.label(),
                detail="worker spawn failed: %s" % exc))
            return _in_process(point, attempt, backend, policy, incidents)
        child_conn.close()
    msg = None
    try:
        if not parent_conn.poll(policy.timeout or None):
            proc.kill()
            raise _AttemptFailed("hang", "killed after %.3gs wall-clock"
                                 % policy.timeout)
        msg = parent_conn.recv()
    except (EOFError, OSError):
        pass
    finally:
        parent_conn.close()
        proc.join(timeout=2)
        proc.kill()          # a no-op unless the worker lingers
        proc.join()
    if msg is None:
        raise _AttemptFailed("crash", "worker exited with code %s"
                             % proc.exitcode)
    if msg[0] != "ok":
        raise _AttemptFailed("error", msg[1])
    incidents.extend(msg[4])
    return msg[1:4]


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
    events: list = field(default_factory=list)     # RetryEvent
    incidents: list = field(default_factory=list)  # runner.Incident

    @property
    def retries(self):
        """Failed attempts that were retried."""
        return len(self.events)


def _execute(point, policy, attempt_fn):
    """The one retry/backoff/quarantine ladder: up to
    ``policy.retries`` calls of *attempt_fn*, doubling the backoff
    after each failure.  Never raises (bar an interrupt): an exhausted
    point becomes a :class:`PointFailure`.  A finished result is seeded
    into the runner memo."""
    label, tries = point.label(), max(1, policy.retries)
    out = OneOutcome(None, None, 0.0, False)
    for attempt in range(tries):
        # the final retry drops to the ``interp`` reference rung
        backend = "interp" if 1 < tries == attempt + 1 else None
        try:
            result, wall, simulated = attempt_fn(
                point, attempt, backend, policy, out.incidents)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - classify, retry
            if isinstance(exc, _AttemptFailed):
                kind, error = exc.args
            else:
                kind = "hang" if isinstance(exc, DeadlineExceeded) \
                    else "error"
                error = "%s: %s" % (type(exc).__name__, exc)
            if attempt + 1 == tries:
                out.failure = PointFailure(label, attempt + 1, kind, error)
                return out
            delay = policy.backoff * (2 ** attempt)
            out.events.append(RetryEvent(label, attempt, kind, error,
                                         delay))
            time.sleep(delay)
        else:
            runner.seed_result(point.memo_key(), result)
            out.result, out.wall, out.simulated = result, wall, simulated
            return out


def execute_one(point, policy):
    """Run one point under the full hardened ladder -- each attempt in
    its own forked worker under the wall-clock bound, retry with
    backoff, quarantine on exhaustion -- and return a
    :class:`OneOutcome`.  Never raises.

    This is the executor of parallel sweeps, the sweep server and the
    distributed worker, which all call it from threads and bound the
    concurrency themselves."""
    return _execute(point, policy, _forked)


def execute_points(points, jobs, policy, summary):
    """Run *points* under *policy*, appending outcomes, retries,
    failures and incidents to *summary* and seeding the runner memo
    with every finished result.  ``jobs <= 1`` (or a single point)
    runs in-process; otherwise :func:`execute_one` runs on *jobs*
    threads."""
    from .parallel import PointOutcome

    if jobs <= 1 or len(points) <= 1:
        outcomes = [_execute(pt, policy, _in_process) for pt in points]
    else:
        pool = ThreadPoolExecutor(min(jobs, len(points)))
        try:
            outcomes = list(pool.map(execute_one, points,
                                     [policy] * len(points)))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
    for pt, out in zip(points, outcomes):
        summary.retries.extend(out.events)
        summary.incidents.extend(out.incidents)
        if out.failure is not None:
            summary.failures.append(out.failure)
        else:
            summary.outcomes.append(
                PointOutcome(pt, out.wall, out.simulated))
