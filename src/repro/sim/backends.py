"""The simulation backend ladder: ``interp`` -> ``fused`` -> ``vector``.

Every tier simulates the same machine and must produce bit-identical
results (cycles, energy events, final memory); they differ only in how
much per-cycle interpretation they elide:

``interp``
    The reference path: per-instruction decoded handlers, per-cycle
    LPSU stepping.  Slowest, structurally closest to the paper's
    description; verification and fault injection always run here.
``fused``
    Superblock fusion (:mod:`repro.sim.fusion`): exec-compiled GPP
    basic blocks and the compiled fused-lane LPSU engine.  Same
    schedule, less dispatch.
``vector``
    Everything in ``fused`` plus whole-block iteration batching
    (:mod:`repro.sim.vector`): every ``xloop.uc`` body the vector
    engine accepts is executed functionally as a numpy array program
    over blocks of iterations (active-mask wavefront, gather/scatter
    subscripts), then the exact cycle/energy schedule is reconstructed
    by an event-compressed replay of the per-instruction meta table.
    Needs the optional ``repro[vector]`` extra (numpy).

``auto`` resolves to the highest applicable tier: ``vector`` when
numpy is importable, else ``fused``; explicitly requesting ``vector``
without numpy installed is an error.  ``repro verify --ladder``
enforces the bit-identity contract pairwise across all tiers.

A backend is chosen in exactly one way: the ``backend=`` parameter,
the CLI's ``--backend`` or ``$REPRO_BACKEND``.  Because every rung
computes the same result, the rung is a *how*, never a *what*: result
cache keys (in-process memo and disk fingerprint) leave it out, so a
record simulated on one rung serves a request for any other.
"""

from __future__ import annotations

from dataclasses import dataclass

#: names accepted anywhere a backend is selected
BACKEND_CHOICES = ("auto", "interp", "fused", "vector")


@dataclass(frozen=True)
class Backend:
    """One rung of the simulation-backend ladder."""

    name: str
    fast: bool    # fused superblocks + LPSU engine enabled
    vector: bool  # numpy whole-block iteration batching enabled
    description: str


BACKENDS = {
    "interp": Backend(
        "interp", False, False,
        "per-instruction reference interpreter"),
    "fused": Backend(
        "fused", True, False,
        "superblock fusion + compiled LPSU lane engine"),
    "vector": Backend(
        "vector", True, True,
        "fused + numpy whole-block iteration batching"),
}


def _have_numpy():
    from .vector import HAS_NUMPY
    return HAS_NUMPY


def resolve_backend(name=None):
    """Resolve a backend selection to a :class:`Backend`.

    *name* may be any of :data:`BACKEND_CHOICES`; None means ``auto``,
    which resolves to ``vector`` when numpy is importable, else
    ``fused``.
    """
    if name is None or name == "auto":
        name = "vector" if _have_numpy() else "fused"
    elif name == "vector" and not _have_numpy():
        raise ValueError(
            "backend 'vector' requires numpy (install the repro[vector] "
            "extra); 'auto' falls back to fused without it")
    b = BACKENDS.get(name)
    if b is None:
        raise ValueError("unknown backend %r (choose from %s)"
                         % (name, "/".join(BACKEND_CHOICES)))
    return b
