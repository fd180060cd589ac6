"""The process that answers a closed-loop workload's queries.

Usage: ``python perfbench/worker.py SPEC.json``.  The spec carries the
generated inputs only (dataset recipe, operation cycle) plus the run's
mode; the worker builds the dataset and the engine or session, prints
``READY`` (the parent times set-up from process start to that line), and
in ``run`` mode drives the operations back to back until the time is up
or, for a replay, until ``iterations`` operations have run.  It writes
per-operation latencies and answers, its session statistics, its peak
resident memory and, when traced, its spans to ``SPEC.json``'s
``output`` path.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def answer_record(result, r: float, k: int) -> dict:
    record = {
        "r": r,
        "k": k,
        "winner": int(result.winner),
        "score": int(result.score),
        "exact": bool(result.exact),
    }
    if k > 1 and result.topk is not None:
        record["scores"] = [int(score) for _, score in result.topk]
    return record


class Target:
    """The workload's system under test, built from generated inputs."""

    def __init__(self, spec: dict) -> None:
        from oracle import build_collection
        from repro import DynamicMIO, MIOEngine, QuerySession

        workload = spec["workload"]
        self.collection = build_collection(spec["dataset"])
        self.engine = self.session = self.dynamic = None
        self.handles = {}
        if workload == "adhoc":
            self.engine = MIOEngine(self.collection, kernel="auto")
        else:
            self.dynamic = DynamicMIO()
            for slot, obj in enumerate(self.collection):
                self.handles[slot] = self.dynamic.add_object(obj.points)
            self.session = QuerySession(self.dynamic, kernel="auto")

    def mutate(self, op: dict) -> None:
        from oracle import displaced

        slot = int(op["slot"])
        points = self.collection[slot].points
        if op["action"] == "displace":
            points = displaced(points, op)
        self.dynamic.remove_object(self.handles[slot])
        self.handles[slot] = self.dynamic.add_object(points)

    def run(self, op: dict) -> list:
        target = self.engine if self.engine is not None else self.session
        if op["kind"] == "topk":
            return [answer_record(target.query_topk(op["r"], op["k"]), op["r"], op["k"])]
        return [answer_record(target.query(op["r"]), op["r"], 1)]

    def stats(self) -> dict:
        return self.session.stats() if self.session is not None else {}


def drive(target: Target, ops: list, seconds: float, iterations, recorder=None) -> dict:
    """Run the cycle back to back; one record per timed operation."""
    records = []
    state = 0
    step = 0
    clock = time.perf_counter
    started = clock()
    while True:
        if iterations is None:
            if clock() - started >= seconds:
                break
        elif step >= iterations:
            break
        op = ops[step % len(ops)]
        if step % len(ops) == 0:
            state = 0
        step += 1
        if op["kind"] == "mutate":
            target.mutate(op)
            state += 1
            continue
        root = recorder.begin("op", request=f"op-{len(records)}") if recorder else None
        began = clock()
        try:
            answers = target.run(op)
            error = None
        except Exception as exc:  # noqa: BLE001 -- every failure is counted
            answers, error = [], f"{type(exc).__name__}: {exc}"
        latency = clock() - began
        if root is not None:
            recorder.end(root)
        records.append({"latency_s": latency, "state": state, "answers": answers,
                        "error": error})
    return {"records": records, "wall_s": clock() - started, "iterations": step}


def main(path: str) -> int:
    with open(path) as handle:
        spec = json.load(handle)
    target = Target(spec)
    print("READY", flush=True)
    if spec["mode"] == "setup":
        return 0
    recorder = None
    if spec.get("trace"):
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    output = drive(target, spec["ops"], spec["seconds"], spec.get("iterations"), recorder)
    output["stats"] = target.stats()
    output["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        output["spans"] = recorder.spans
        output["counts"] = recorder.counts
    with open(spec["output"], "w") as handle:
        json.dump(output, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
