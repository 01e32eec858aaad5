"""The output check: every returned record against its request and
against a committed reference.

Two tests per requested point, and a point failing either counts as
failed:

* **identity** -- the record's ``kernel``, ``config``, ``mode`` and
  ``binary`` are the requested point's;
* **digest** -- a hash of the record's simulated statistics (cycles,
  GPP and LPSU instructions, squashes, energy) equals the reference
  digest for that point and workload seed, made by
  ``make_reference.py`` from uncached serial ``runner.run`` calls.

References exist for workload seeds ``0 .. REFERENCE_SEEDS-1``; a
benchmark ``--seed`` is folded into that range (:func:`workload_seed`).

Known defect: ``runner._fingerprint`` keys the disk cache on the kernel
source alone, and ``ksack-sm-om`` and ``ksack-lg-om`` share a source,
so whichever of the two runs second is served the other's record.
Those points fail the check and are counted.  ``correct`` in the
benchmark's result stays true only while every failure is that
collision exactly (:func:`known_defect`); any other failure makes it
false.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

#: workload seeds with committed reference digests
REFERENCE_SEEDS = 10

#: hex digits kept per point digest
DIGEST_LEN = 10

#: kernels that share one MiniC source (the disk-cache key collision)
SOURCE_TWINS = {"ksack-sm-om": "ksack-lg-om", "ksack-lg-om": "ksack-sm-om"}


def workload_seed(seed):
    """The workload seed a benchmark ``--seed`` selects."""
    return seed % REFERENCE_SEEDS


def identity(rec):
    """What a record claims to be, or None for a missing record."""
    if rec is None:
        return None
    return [rec.kernel, rec.config, rec.mode, rec.binary]


def digest(rec):
    """Hash of a record's simulated statistics, or None."""
    if rec is None:
        return None
    stats = (rec.cycles, rec.gpp_instrs, rec.lpsu_instrs,
             rec.lpsu_stats.squashes, rec.energy_nj)
    return hashlib.sha256(repr(stats).encode()).hexdigest()[:DIGEST_LEN]


def requested_identity(label):
    """The identity a point label asks for (``kernel/config/mode/
    binary/scale``; config names may contain ``/``)."""
    parts = label.split("/")
    kernel, mode, binary = parts[0], parts[-3], parts[-2]
    return [kernel, "/".join(parts[1:-3]), mode, binary]


def twin_label(label):
    kernel, rest = label.split("/", 1)
    twin = SOURCE_TWINS.get(kernel)
    return None if twin is None else twin + "/" + rest


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json")


def load_reference(workload, seed):
    """``{label: digest}`` for one workload seed."""
    with open(reference_path(workload)) as fh:
        ref = json.load(fh)
    digests = ref["seeds"][str(seed)].split()
    return dict(zip(ref["labels"], digests))


def check_point(label, ident, dig, reference):
    """``None`` when the returned record is right, else the reason."""
    if ident is None:
        return "no record returned"
    want = requested_identity(label)
    if ident != want:
        return "identity %s, requested %s" % ("/".join(ident),
                                                "/".join(want))
    if label not in reference:
        return "no reference digest"
    if dig != reference[label]:
        return "digest %s, reference %s" % (dig, reference[label])
    return None


def known_defect(label, ident, dig, reference):
    """True when a failed point is exactly the ksack source collision:
    the record of the point's source twin, bit for bit."""
    twin = twin_label(label)
    return (twin is not None and ident == requested_identity(twin)
            and reference.get(twin) == dig)


def check_records(records, reference):
    """Check ``[(label, identity, digest)]``; returns the failures as
    ``[(label, reason, known_defect)]``."""
    failures = []
    for label, ident, dig in records:
        reason = check_point(label, ident, dig, reference)
        if reason is not None:
            failures.append((label, reason,
                             known_defect(label, ident, dig, reference)))
    return failures
