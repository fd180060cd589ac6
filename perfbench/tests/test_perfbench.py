"""Tests of the benchmark itself: inputs, oracle, open loop, span arithmetic.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from collections import Counter

import numpy as np
import pytest

import loadgen
import oracle
import run
import tracing
import workloads
from repro.core.objects import ObjectCollection

# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.DATASETS))
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 3)
    assert first == workloads.generate(workload, 3)
    assert workloads.fingerprint(first) == workloads.fingerprint(
        workloads.generate(workload, 3)
    )
    assert workloads.fingerprint(first) != workloads.fingerprint(
        workloads.generate(workload, 4)
    )


def test_adhoc_cycle_is_stratified_over_r():
    ops = workloads.generate("adhoc", 9)["ops"]
    assert len(ops) == 30
    assert sum(op["kind"] == "topk" for op in ops) == 6
    strata = sorted(int((op["r"] - 3.0) / (7.0 / 30)) for op in ops)
    assert strata == list(range(30))


def test_churn_cycle_covers_every_sweep_threshold():
    ops = workloads.generate("churn", 5)["ops"]
    rs = [op["r"] for op in ops if op["kind"] == "query"]
    assert len(rs) == 36
    assert {round(c - 0.1 * s, 1) for c in (4, 6, 8) for s in range(10)} == set(rs)


def test_churn_cycle_restores_the_initial_contents():
    spec = workloads.generate("churn", 2)
    mutations = [op for op in spec["ops"] if op["kind"] == "mutate"]
    assert mutations and len(mutations) % 2 == 0
    base = oracle.build_collection(spec["dataset"])
    states = oracle.state_collections(base, spec["ops"])
    assert len(states) == len(mutations) + 1

    def contents(collection):
        return Counter(obj.points.tobytes() for obj in collection)

    assert contents(states[-1]) == contents(states[0])
    assert contents(states[1]) != contents(states[0])


def test_serve_cycle_has_a_fixed_mix_and_threshold_count():
    requests = workloads.generate("serve", 7)["requests"]
    kinds = Counter(req["kind"] for req in requests)
    assert kinds == {"query": 39, "topk": 12, "batch": 3}
    singles = [req for req in requests if req["kind"] != "batch"]
    tight = [req for req in singles if "timeout_ms" in req]
    assert len(tight) == round(len(singles) / 4)
    asked = Counter(r for req in requests for r in req.get("rs", [req.get("r")]))
    assert asked == {r: 4 for r in workloads.SERVE_GRID}


def test_serve_warmup_covers_every_threshold_and_kind():
    spec = workloads.generate("serve", 1)
    warm = spec["warmup"]
    assert {req["r"] for req in warm if req["kind"] == "query"} == set(workloads.SERVE_GRID)
    assert {req["r"] for req in warm if req["kind"] == "topk"} == set(workloads.SERVE_GRID)
    assert any(req["kind"] == "batch" for req in warm)
    # The warm-up touches every threshold the timed stream asks.
    requested = {r for req in warm + spec["requests"] for r in req.get("rs", [req.get("r")])}
    assert requested <= set(workloads.SERVE_GRID)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def _line_collection():
    # Objects on a line, 1 apart: at r=1.5 the middle ones score 2.
    return ObjectCollection.from_point_arrays(
        [np.array([[float(x), 0.0]]) for x in range(5)]
    )


def test_true_score_counts_partners_within_r():
    collection = _line_collection()
    assert [oracle.true_score(collection, oid, 1.5) for oid in range(5)] == [1, 2, 2, 2, 1]
    assert oracle.reference_scores(collection, 1.5, 3) == [2, 2, 2]


def test_oracle_catches_an_injected_wrong_answer():
    good = {"r": 1.5, "k": 1, "winner": 2, "score": 2, "exact": True}
    assert oracle.check_answer([2], good) is None
    assert "reference" in oracle.check_answer([2], dict(good, score=1))
    topk = dict(good, k=3, scores=[2, 2, 1])
    assert "top-k" in oracle.check_answer([2, 2, 2], topk)


def test_oracle_checks_anytime_answers_against_corollary_1():
    collection = _line_collection()
    anytime = {"r": 1.5, "k": 1, "winner": 0, "score": 1, "exact": False}
    assert oracle.check_answer([2], anytime, collection) is None
    assert "exceeds" in oracle.check_answer([2], dict(anytime, score=3), collection)
    assert "true score" in oracle.check_answer([2], dict(anytime, score=2), collection)
    vacuous = dict(anytime, winner=-1, score=0)
    assert oracle.check_answer([2], vacuous, collection) is None


def test_scoring_counts_a_wrong_exact_answer_as_failed():
    reference = {(0, 1.5): [2]}
    records = [
        {"state": 0, "error": None, "answers": [
            {"r": 1.5, "k": 1, "winner": 1, "score": 2, "exact": True}]},
        {"state": 0, "error": None, "answers": [
            {"r": 1.5, "k": 1, "winner": 1, "score": 3, "exact": True}]},
        {"state": 0, "error": "QueryTimeout: x", "answers": []},
    ]
    scored = run.score_records(records, reference, None)
    assert (scored["attempted"], scored["failed"], scored["exact_correct"]) == (3, 2, 1)


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_closed_loop_sends_back_to_back_until_time_is_up():
    clock = FakeClock()

    def send(index):
        clock.now += 0.3 + 0.1 * index  # request i takes 300 + 100 i ms
        return {"status": 200}

    records = loadgen.run_closed_loop(send, lanes=1, seconds=1.0, clock=clock)
    # Issued at 0, 0.3 and 0.7 s; the third ends past the limit but counts.
    assert [rec["index"] for rec in records] == [0, 1, 2]
    assert [round(loadgen.latency(rec), 9) for rec in records] == [0.3, 0.4, 0.5]
    assert [round(rec["sent"] - 100.0, 9) for rec in records] == [0.0, 0.3, 0.7]


def test_closed_loop_stops_at_count():
    clock = FakeClock()

    def send(index):
        clock.now += 0.01
        return {}

    records = loadgen.run_closed_loop(send, lanes=1, seconds=60.0, count=4, clock=clock)
    assert [rec["index"] for rec in records] == [0, 1, 2, 3]


def test_serve_scoring_counts_shed_and_late_as_misses():
    tight = {"kind": "query", "r": 1.5, "timeout_ms": 100.0}
    plain = {"kind": "query", "r": 1.5}
    ok = {"r": 1.5, "k": 1, "winner": 2, "score": 2, "exact": True}
    records = [
        {"request": tight, "sent": 0.0, "done": 0.2, "status": 200, "payload": ok},
        {"request": plain, "sent": 0.0, "done": 0.2, "status": 200, "payload": ok},
        {"request": plain, "sent": 0.0, "done": 0.01, "status": 429, "payload": {}},
    ]
    scored = run.score_serve(records, {(0, 1.5): [2]}, None)
    assert (scored["failed"], scored["shed"], scored["missed"]) == (0, 1, 2)
    assert scored["exact_correct"] == 2


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def _span(span_id, name, parent, start, end, request="op-0"):
    return {"id": span_id, "name": name, "parent": parent, "request": request,
            "start": start, "end": end}


def test_self_time_and_residual_on_a_hand_built_tree():
    # op [0, 10]: build [1, 3], verify [3, 8] containing memory [5, 7].
    spans = [
        _span(0, "op", None, 0.0, 10.0),
        _span(1, "kernels.build_bigrid", 0, 1.0, 3.0),
        _span(2, "kernels.verify_candidates", 0, 3.0, 8.0),
        _span(3, "grid.memory_bytes", 2, 5.0, 7.0),
        _span(4, "op", None, 20.0, 21.0, request="op-1"),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 3.0, 3: 2.0, 4: 1.0}
    table = tracing.per_request(spans)
    assert dict(table["op-0"]) == {
        "residual": 3.0, "wall": 10.0, "kernels.build_bigrid": 2.0,
        "kernels.verify_candidates": 3.0, "grid.memory_bytes": 2.0,
    }
    # Median over the operations that entered the layer only.
    assert tracing.median_ms(table, "grid.memory_bytes") == 2000.0
    assert tracing.median_ms(table, "labels.input") == 0.0


def test_recorder_nests_spans_and_skips_calls_outside_operations():
    ticks = iter(range(100))
    recorder = tracing.Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda: 7, "inner")
    assert inner() == 7 and recorder.spans == []
    root = recorder.begin("op", request="op-0")
    inner()
    recorder.count("things", 2)
    recorder.end(root)
    assert [(s["name"], s["parent"], s["request"]) for s in recorder.spans] == [
        ("op", None, "op-0"), ("inner", 0, "op-0"),
    ]
    assert recorder.counts["op-0"]["things"] == 2


def test_reported_metrics_match_benchmark_json():
    import json
    import os

    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.DATASETS)
