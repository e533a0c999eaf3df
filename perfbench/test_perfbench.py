"""Self-tests of the benchmark on small inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import signal
from pathlib import Path

import pytest
from primindex import graphs

import bench
import tracer
import workloads as W

SMALL = {
    "table": ({"n_max": 5, "rank": 2, "jobs": 1},
              {"f_prim": (1, 1, 1, 2, 2), "f_simp": (1, 1, 1, 2, 2), "sha256": None}),
    "index-hard": ({"rank": 2, "words": ["aabaabABB", "aaaabAAAB"]},
                   {"classes": (("aabaabABB", 3, 3), ("aaaabAAAB", 4, 2)), "degree": 4}),
    "experiment": ({"rank": 2, "length": 12, "trials": 6, "d_cap": 3, "seed": 0},
                   {"sha256": {}}),
    "census": ({"census": [[2, 3], [3, 2]], "witnesses": [[2, 2]]},
               {"counts": {2: (1, 3, 13), 3: (1, 7)}, "lengths": {(2, 2): None}}),
}


@pytest.fixture(scope="module")
def census_length():
    # the witness length is an output, so pin it from one untraced call
    payload = bench.run_once(W.WORKLOADS["census"], SMALL["census"][0]).payload
    return payload["witnesses"][0]["length"]


def _small(name, census_length):
    """(workload, small inputs, a fresh copy of their references)"""
    inputs, refs = SMALL[name]
    refs = dict(refs)
    if name == "census":
        refs["lengths"] = {(2, 2): census_length}
    return W.WORKLOADS[name], inputs, refs


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_payload_is_byte_identical_and_checks_pass(name, census_length):
    wl, inputs, refs = _small(name, census_length)
    originals = [getattr(m, a) for m, a, _, _ in tracer.SPECS]
    handler = signal.getsignal(signal.SIGALRM)
    call = bench.run_once(wl, inputs)
    assert call.probes >= 1 and 0 < call.norm
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    plain = call.payload
    rec = tracer.Recorder()
    traced = bench.run_once(wl, inputs, rec).payload
    assert [getattr(m, a) for m, a, _, _ in tracer.SPECS] == originals
    assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)
    assert wl.check(inputs, traced, refs) == []

    metrics, by_name = tracer.layer_metrics(rec, graphs.out_map.cache_info())
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_self == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["trace.spans"] == sum(v["calls"] for v in by_name.values())


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("table", lambda r: r.update(f_prim=(1, 1, 1, 2, 3))),
        ("table", lambda r: r.update(sha256="0" * 64)),
        ("index-hard", lambda r: r.update(classes=(("aabaabABB", 3, 2), ("aaaabAAAB", 4, 2)))),
        ("experiment", lambda r: r.update(sha256={0: "0" * 64})),
        ("census", lambda r: r.update(counts={2: (1, 3, 14), 3: (1, 7)})),
        ("census", lambda r: r.update(lengths={(2, 2): 1})),
    ],
)
def test_wrong_reference_fails_the_check(name, corrupt, census_length):
    wl, inputs, refs = _small(name, census_length)
    payload = bench.run_once(wl, inputs).payload
    assert wl.check(inputs, payload, refs) == []
    corrupt(refs)
    assert wl.check(inputs, payload, refs)


def test_changed_payload_fails_every_item_of_that_call():
    wl, inputs, refs = _small("table", None)
    payload = bench.run_once(wl, inputs).payload
    other = json.loads(json.dumps(payload))
    other["rows"][-1]["f_prim"] += 1
    wl_small = W.Workload(wl.name, wl.seeded, wl.inputs, wl.run, wl.payload,
                          wl.items, wl.check, refs)
    attempted, failed = bench.check(wl_small, inputs, [payload, other])
    assert attempted == 10 and len(failed) == 5


@pytest.mark.parametrize("seed", [0, 1])
def test_seeded_hard_words_keep_their_index_values(seed):
    inputs = W.WORKLOADS["index-hard"].inputs(seed)
    assert inputs == W.WORKLOADS["index-hard"].inputs(seed)
    assert inputs != W.WORKLOADS["index-hard"].inputs(seed + 1)
    for text, (_, d_prim, d_simp) in zip(inputs["words"][-2:], W.HARD_CLASSES[-2:]):
        w = W._cyclic(text, 2)
        assert W.index.d_prim_census_oracle(w, 4) == d_prim
        assert W.index.d_simp_census(w, 4) == d_simp


def test_hall_recursion_matches_pinned_counts():
    for rank, counts in W.CENSUS_COUNTS.items():
        assert tuple(W.hall_subgroup_counts(rank, len(counts))) == counts


def test_traced_run_reports_exactly_the_declared_per_layer_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    wl, inputs, _ = _small("census", None)
    rec = tracer.Recorder()
    bench.run_once(wl, inputs, rec)
    metrics, _ = tracer.layer_metrics(rec, graphs.out_map.cache_info())
    # run.py adds the overhead, which needs an untraced call as well
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted([*metrics, "trace.overhead_frac"])
    assert all(m["unit"] == tracer.unit(m["name"]) for m in spec["per_layer"])
