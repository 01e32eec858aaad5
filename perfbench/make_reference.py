"""Regenerate the committed reference digests in ``reference/``.

Every distinct point of a workload is simulated with the disk cache
off, serially through ``runner.run`` -- the path no cache collision
can reach -- for each workload seed ``0 .. REFERENCE_SEEDS-1``.  A
change that moves any simulated statistic on purpose regenerates
these files in the same change and says so.

Usage::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check      # noqa: E402
import workloads  # noqa: E402


def digests(task):
    """``(workload, seed, labels, digests)`` for one workload seed."""
    name, seed = task
    os.environ["REPRO_NO_CACHE"] = "1"
    from repro.eval import runner
    labels, out = [], []
    for pt in workloads.unique_points(name, seed):
        rec = runner.run(pt.kernel, pt.config, use_disk_cache=False,
                         **pt.run_kwargs())
        labels.append(pt.label())
        out.append(check.digest(rec))
    return name, seed, labels, out


def main():
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tasks = [(w, s) for w in workloads.WORKLOADS
             for s in range(check.REFERENCE_SEEDS)]
    ctx = multiprocessing.get_context("spawn")
    refs = {w: {"labels": None, "seeds": {}} for w in workloads.WORKLOADS}
    with ctx.Pool(os.cpu_count()) as pool:
        for name, seed, labels, out in pool.imap_unordered(digests,
                                                           tasks):
            ref = refs[name]
            if ref["labels"] is None:
                ref["labels"] = labels
            elif ref["labels"] != labels:
                raise SystemExit("%s: seed %d enumerates other points"
                                 % (name, seed))
            ref["seeds"][str(seed)] = " ".join(out)
            print("%s seed %d: %d points" % (name, seed, len(out)),
                  flush=True)
    for name, ref in refs.items():
        ref["seeds"] = dict(sorted(ref["seeds"].items(),
                                   key=lambda kv: int(kv[0])))
        doc = {"digest": "sha256 of repr((cycles, gpp_instrs, "
                         "lpsu_instrs, squashes, energy_nj)), first %d "
                         "hex digits" % check.DIGEST_LEN, **ref}
        with open(check.reference_path(name), "w") as fh:
            json.dump(doc, fh, indent=0)
            fh.write("\n")


if __name__ == "__main__":
    main()
