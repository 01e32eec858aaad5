"""Self-test of the benchmark: the output check catches wrong records,
and BENCHMARK.json names exactly the metrics the command prints.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check      # noqa: E402
import run        # noqa: E402
import spans      # noqa: E402
import workloads  # noqa: E402

LABEL = "sgemm-uc/io/traditional/xloops/tiny"
TWIN = "ksack-sm-om/io+x/specialized/xloops/tiny"


def _record(label):
    """A real record for *label*, simulated uncached."""
    from repro.eval import runner
    kernel, config, mode, binary = check.requested_identity(label)
    return runner.run(kernel, config, mode=mode, binary=binary,
                      scale=label.rsplit("/", 1)[1],
                      use_disk_cache=False)


def _failures(label, rec, reference):
    return check.check_records(
        [(label, check.identity(rec), check.digest(rec))], reference)


def test_reference_matches_the_program():
    reference = check.load_reference("service-mixed", 0)
    assert _failures(LABEL, _record(LABEL), reference) == []


def test_swapped_kernel_fails():
    reference = check.load_reference("service-mixed", 0)
    rec = copy.deepcopy(_record(LABEL))
    rec.kernel = "dither-or"
    (failure,) = _failures(LABEL, rec, reference)
    assert failure[0] == LABEL and "identity" in failure[1]
    assert failure[2] is False       # not the known collision


def test_perturbed_cycles_fail():
    reference = check.load_reference("service-mixed", 0)
    rec = copy.deepcopy(_record(LABEL))
    rec.cycles += 1
    (failure,) = _failures(LABEL, rec, reference)
    assert "digest" in failure[1] and failure[2] is False


def test_missing_record_fails():
    reference = check.load_reference("service-mixed", 0)
    assert _failures(LABEL, None, reference)[0][1] == "no record returned"


def test_ksack_collision_is_failed_and_known():
    reference = check.load_reference("service-mixed", 0)
    served = _record(TWIN)            # what the colliding cache serves
    label = check.twin_label(TWIN)
    (failure,) = _failures(label, served, reference)
    assert failure[2] is True
    served = copy.deepcopy(served)
    served.cycles += 1                # not bit for bit: not the defect
    (failure,) = _failures(label, served, reference)
    assert failure[2] is False


def test_requested_identity_splits_config_names_with_slashes():
    assert check.requested_identity("knn-om/ooo/4+x/adaptive/xloops/"
                                    "small") == ["knn-om", "ooo/4+x",
                                                 "adaptive", "xloops"]


def test_every_reference_covers_its_points():
    for name in workloads.WORKLOADS:
        with open(check.reference_path(name)) as fh:
            ref = json.load(fh)
        labels = [pt.label() for pt in workloads.unique_points(name, 0)]
        assert ref["labels"] == labels
        assert sorted(map(int, ref["seeds"])) == list(
            range(check.REFERENCE_SEEDS))
        for digests in ref["seeds"].values():
            assert len(digests.split()) == len(labels)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_command_prints():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(
        workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"])
           for m in bench["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"])
             for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER

    rep = {"facts": {"sweep_s": 2.0}, "peak_rss_mb": 50.0,
           "simulated": [("p%d" % i, 0.01 * i, 1000)
                         for i in range(1, 40)]}
    printed, (pct, npoints) = run.end_to_end([0.5, 0.6, 0.7], [rep])
    assert set(printed) == set(e2e) and (pct, npoints) == (74, 39)
    assert all(v > 0 for v in printed.values())

    t = 100.0
    fake = [
        {"id": "1-1.1", "parent": None, "name": "bench.sweep",
         "point": None, "start": t, "end": t + 2.0},
        {"id": "1-1.2", "parent": "1-1.1", "name": "eval.runner",
         "point": "p", "start": t + 0.1, "end": t + 1.5,
         "outcome": "sim"},
        {"id": "1-1.3", "parent": "1-1.2", "name": "uarch.gpp",
         "point": "p", "start": t + 0.2, "end": t + 1.2, "kind": "io",
         "gpp_instrs": 1000, "cache_accesses": 10, "cache_misses": 1},
        {"id": "1-1.4", "parent": "1-1.3", "name": "uarch.lpsu",
         "point": "p", "start": t + 0.5, "end": t + 0.9, "instrs": 400,
         "squashes": 2},
    ]
    layers = spans.layer_metrics(fake, {"sweep_s": 2.0}, 2)
    layers["trace.overhead_frac"] = 0.0   # made by run.py from two runs
    assert set(layers) == set(layer)
    assert abs(layers["uarch.gpp.io.self_s"] - 0.6) < 1e-9
    assert abs(layers["trace.unattributed_s"] - 0.6) < 1e-9


def test_tail_percentile_leaves_ten_samples_beyond():
    value, pct = run.tail(list(range(1, 301)))
    assert pct == 96 and value == 288
    assert sum(1 for x in range(1, 301) if x > value) >= 10


def test_self_time_subtracts_union_of_children():
    sp = [{"id": "a", "parent": None, "start": 0.0, "end": 10.0},
          {"id": "b", "parent": "a", "start": 1.0, "end": 4.0},
          {"id": "c", "parent": "a", "start": 3.0, "end": 5.0}]
    assert spans.self_times(sp)["a"] == 6.0
