"""The MIO benchmark: one command, three seeded workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adhoc --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the workload twice more -- once plain, once with the
span wrappers of :mod:`tracing` installed -- and reports the per-layer
metrics plus the tracing overhead.  Every answer is checked against the
pure-python reference (:mod:`oracle`).  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer is correct.

``adhoc`` and ``churn`` run in a child process (:mod:`worker`);
``serve`` runs ``repro serve`` as its own process, warms it up with one
pass over its thresholds and then drives it with two back-to-back HTTP
clients (:mod:`loadgen`).  Set-up time is measured from process spawn
until the first query can be issued, several times per run, and reported
as the median.  Reference answers are computed before any timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import loadgen
import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-up samples per untraced run (the reported setup_s is their median).
SETUP_SAMPLES = 7

#: Clients the ``serve`` load generator runs (the reference host's nproc).
SERVE_LANES = 2

#: Metric name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed with every run but not gated: they are legitimately 0.
END_TO_END_REPORTED = {
    "failed_frac": "ratio",
    "inexact_frac": "ratio",
    "deadline_miss_frac": "ratio",
    "shed_frac": "ratio",
}
PER_LAYER = {
    "kernels.build_bigrid_ms": "ms",
    "kernels.lower_bounds_ms": "ms",
    "kernels.upper_bounds_ms": "ms",
    "kernels.verify_candidates_ms": "ms",
    "kernels.candidates": "count",
    "kernels.settled_ratio": "ratio",
    "grid.memory_bytes_ms": "ms",
    "grid.index_kib": "KiB",
    "bitset.ewah_from_int_calls": "count",
    "labels.input_ms": "ms",
    "labels.output_ms": "ms",
    "labels.points_skipped": "count",
    "pipeline.residual_ms": "ms",
    "session.label_hit_ratio": "ratio",
    "session.key_cache_hit_ratio": "ratio",
    "session.lower_cache_hit_ratio": "ratio",
    "session.invalidations": "count",
    "dynamic.snapshot_ms": "ms",
    "service.queue_wait_ms_p90": "ms",
    "service.server_ms_p50": "ms",
    "service.transport_ms_p50": "ms",
    "service.degraded": "count",
    "service.breaker_transitions": "count",
    "trace.overhead_frac": "ratio",
}


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def percentile(values: List[float], pct: int) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``, inclusive)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def source_digest() -> str:
    """The commit when available, else a digest of the sources under src/."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def stop(process: subprocess.Popen, sig: int = signal.SIGINT, timeout: float = 20.0) -> None:
    """Signal a child and wait for it; kill it if it will not end."""
    if process.poll() is None:
        process.send_signal(sig)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=timeout)


# ----------------------------------------------------------------------
# Reference answers
# ----------------------------------------------------------------------


def reference_table(spec: dict, collection) -> Dict[Tuple[int, float], List[int]]:
    """(state, r) -> reference top-k scores for every query in the inputs."""
    if spec["workload"] == "serve":
        requests = spec["warmup"] + spec["requests"]
        wanted = {(0, r) for req in requests for r in req.get("rs", [req.get("r")])}
        k = max([int(req.get("k", 1)) for req in requests])
        states = [collection]
    else:
        wanted = set()
        state = 0
        for op in spec["ops"]:
            if op["kind"] == "mutate":
                state += 1
            else:
                wanted.add((state, op["r"]))
        k = max([int(op.get("k", 1)) for op in spec["ops"]])
        states = oracle.state_collections(collection, spec["ops"])
    return {key: oracle.reference_scores(states[key[0]], key[1], k) for key in sorted(wanted)}


def check(reference, state: int, answer: dict, collection) -> Optional[str]:
    expected = reference[(state, answer["r"])][: int(answer.get("k", 1))]
    return oracle.check_answer(expected, answer, collection)


# ----------------------------------------------------------------------
# Closed-loop workloads (adhoc, churn)
# ----------------------------------------------------------------------


def spawn_worker(spec: dict, mode: str, name: str, **extra) -> Tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to READY, its output)."""
    path = WORK / f"{name}.json"
    output = WORK / f"{name}.out.json"
    path.write_text(json.dumps({**spec, **extra, "mode": mode, "output": str(output)}))
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(path)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env(),
    )
    try:
        ready = None
        for line in process.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - started
                break
        process.stdout.read()
        code = process.wait(timeout=170)
    finally:
        stop(process, signal.SIGKILL)
    if ready is None or code != 0:
        raise RuntimeError(f"worker {name} failed with exit code {code}")
    return ready, json.loads(output.read_text()) if mode == "run" else {}


def score_records(records, reference, collection) -> dict:
    """Count attempted/failed/inexact operations and correct exact answers."""
    failed = inexact = exact_correct = 0
    reasons = []
    for record in records:
        bad = record["error"]
        for answer in record["answers"]:
            problem = check(reference, record["state"], answer, collection)
            bad = bad or problem
            if problem is None and answer["exact"]:
                exact_correct += 1
        if any(not answer["exact"] for answer in record["answers"]):
            inexact += 1
        if bad:
            failed += 1
            reasons.append(bad)
    return {"attempted": len(records), "failed": failed, "inexact": inexact,
            "exact_correct": exact_correct, "reasons": reasons}


def run_closed(spec: dict, seconds: float, trace: bool, collection, reference) -> dict:
    name = f"{spec['workload']}-{spec['seed']}"
    if not trace:
        setups = [spawn_worker(spec, "setup", f"{name}-setup{i}")[0]
                  for i in range(SETUP_SAMPLES - 1)]
        ready, out = spawn_worker(spec, "run", f"{name}-run", seconds=seconds)
        setups.append(ready)
        scored = score_records(out["records"], reference, collection)
        latencies = [record["latency_s"] for record in out["records"]]
        return {
            **scored,
            "setups": setups,
            "latencies": latencies,
            "wall_s": out["wall_s"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
    _, plain = spawn_worker(spec, "run", f"{name}-plain", seconds=seconds / 2)
    _, traced = spawn_worker(spec, "run", f"{name}-traced", trace=True,
                             iterations=plain["iterations"], seconds=seconds)
    scored = score_records(plain["records"] + traced["records"], reference, collection)
    layers = layer_metrics(traced["spans"], traced["counts"], traced["stats"])
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return {**scored, "layers": layers}


# ----------------------------------------------------------------------
# Open-loop workload (serve)
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, dataset_path: Path, spans_out: Optional[Path] = None) -> None:
        serve_args = [str(dataset_path), "--port", "0"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            command = [sys.executable, str(HERE / "server.py"), str(spans_out), "--",
                       *serve_args]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stderr=subprocess.PIPE, stdout=subprocess.DEVNULL, text=True,
            cwd=ROOT, env=child_env(),
        )
        try:
            self.port = self._await_port()
            self.ready_s = self._await_ready()
        except BaseException:
            stop(self.process, signal.SIGKILL)
            raise

    def _await_port(self) -> int:
        for line in self.process.stderr:
            if line.startswith("serving ") and " on http://" in line:
                return int(line.rsplit(":", 1)[1])
        raise RuntimeError(f"server exited with code {self.process.wait()}")

    def _await_ready(self) -> float:
        deadline = time.perf_counter() + 120
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(self.url("/readyz"), timeout=5) as reply:
                    if reply.status == 200:
                        return time.perf_counter() - self.started
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("server never became ready")

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.port}{path}"

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(self.url(path), timeout=30) as reply:
            return json.loads(reply.read())

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        stop(self.process)
        self.process.stderr.close()


def drive_server(server: Server, warmup: List[dict], cycle: List[dict], seconds: float,
                 count: Optional[int] = None) -> Tuple[List[dict], List[dict]]:
    """Send the warm-up requests one by one, then run the timed closed loop.

    Returns one record per warm-up request and one per timed request;
    each record carries the request it answers.  Only timed requests
    carry a ``pb-`` trace id, so a traced server records spans for them
    alone.
    """
    sender = loadgen.HttpSender("127.0.0.1", server.port)

    def send(index: int) -> dict:
        request = cycle[index % len(cycle)]
        return {"request": request, **sender.send(request, f"pb-{index}")}

    warm = []
    for index, request in enumerate(warmup):
        sent = time.perf_counter()
        outcome = sender.send(request, f"warm-{index}")
        warm.append({"request": request, "sent": sent, "done": time.perf_counter(), **outcome})
    return warm, loadgen.run_closed_loop(send, SERVE_LANES, seconds, count)


def score_serve(records, reference, collection) -> dict:
    """Classify each request: failed, shed, inexact, deadline miss."""
    failed = shed = inexact = missed = exact_correct = 0
    reasons = []
    for record in records:
        request, status = record["request"], record["status"]
        budget_ms = request.get("timeout_ms", workloads.SERVE_DEFAULT_TIMEOUT_MS)
        late = 1000.0 * loadgen.latency(record) > budget_ms
        if status == 429:
            shed += 1
            missed += 1
            continue
        problem = record.get("error") or (None if status == 200 else f"HTTP {status}")
        if problem is None:
            payload = record["payload"]
            answers = payload["results"] if request["kind"] == "batch" else [payload]
            for answer in answers:
                if answer["k"] > 1 and answer.get("topk"):
                    answer = dict(answer, scores=[score for _, score in answer["topk"]])
                wrong = check(reference, 0, answer, collection)
                problem = problem or wrong
                if wrong is None and answer["exact"]:
                    exact_correct += 1
            if any(not answer["exact"] for answer in answers):
                inexact += 1
        if problem:
            failed += 1
            reasons.append(problem)
        if problem or late:
            missed += 1
    return {"attempted": len(records), "failed": failed, "shed": shed,
            "inexact": inexact, "missed": missed, "exact_correct": exact_correct,
            "reasons": reasons}


def busy(records: List[dict]) -> float:
    return sum(loadgen.latency(record) for record in records)


def run_serve(spec: dict, seconds: float, trace: bool, collection, reference) -> dict:
    from repro.datasets.io import save_collection

    dataset_path = WORK / f"serve-{spec['seed']}.npz"
    save_collection(dataset_path, collection)
    cycle, warmup = spec["requests"], spec["warmup"]
    if not trace:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            probe = Server(dataset_path)
            setups.append(probe.ready_s)
            probe.close()
        server = Server(dataset_path)
        setups.append(server.ready_s)
        try:
            warm, records = drive_server(server, warmup, cycle, seconds)
            peak = server.peak_rss_mb()
        finally:
            server.close()
        return {
            **score_serve(records, reference, collection),
            "warmup": score_serve(warm, reference, collection),
            "setups": setups,
            "latencies": [loadgen.latency(record) for record in records],
            "wall_s": max(rec["done"] for rec in records) - min(rec["sent"] for rec in records),
            "peak_rss_mb": peak,
        }
    server = Server(dataset_path)
    try:
        warm_plain, plain = drive_server(server, warmup, cycle, seconds / 2)
    finally:
        server.close()
    spans_path = WORK / f"serve-{spec['seed']}.spans.json"
    server = Server(dataset_path, spans_out=spans_path)
    try:
        # The same requests again, traced (cut short if they overrun).
        warm_traced, traced = drive_server(server, warmup, cycle, seconds, count=len(plain))
        status = server.get_json("/statusz")
    finally:
        server.close()
    dump = json.loads(spans_path.read_text())
    scored = score_serve(plain + traced, reference, collection)
    scored["warmup"] = score_serve(warm_plain + warm_traced, reference, collection)
    session = status["service"]["session"]
    layers = layer_metrics(dump["spans"], dump["counts"], session)
    table = tracing.per_request(dump["spans"])
    server_s = {req: row["wall"] for req, row in table.items()}
    transport = [
        loadgen.latency(rec) - server_s[f"pb-{rec['index']}"]
        for rec in traced if f"pb-{rec['index']}" in server_s
    ]
    admit = [row.get("service.admit", 0.0) for row in table.values()]
    layers.update({
        "service.queue_wait_ms_p90": 1000.0 * percentile(admit, 90),
        "service.server_ms_p50": 1000.0 * percentile(list(server_s.values()), 50),
        "service.transport_ms_p50": 1000.0 * percentile(transport, 50),
        "service.degraded": float(status["service"]["degraded"]),
        "service.breaker_transitions": float(
            sum(status["service"]["breaker"]["transitions"].values())
        ),
        "trace.overhead_frac": busy(traced) / busy(plain[:len(traced)]) - 1.0,
    })
    return {**scored, "layers": layers}


# ----------------------------------------------------------------------
# Per-layer metrics from a span dump
# ----------------------------------------------------------------------


def layer_metrics(spans: List[dict], counts: Dict[str, Dict[str, float]],
                  stats: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric this span dump and these session stats give."""
    table = tracing.per_request(spans)
    rows = list(counts.values())
    layers = {name: 0.0 for name in PER_LAYER}
    for op in tracing.KERNEL_OPS:
        layers[f"kernels.{op}_ms"] = tracing.median_ms(table, f"kernels.{op}")
    for name in ("grid.memory_bytes", "labels.input", "labels.output", "dynamic.snapshot"):
        layers[f"{name}_ms"] = tracing.median_ms(table, name)
    candidates = [row["candidates"] for row in rows if "candidates" in row]
    if candidates:
        layers["kernels.candidates"] = statistics.median(candidates)
    layers["kernels.settled_ratio"] = ratio(
        sum(row.get("settled", 0) for row in rows), sum(candidates)
    )
    indexed = [row["index_bytes"] / row["index_calls"] / 1024.0
               for row in rows if row.get("index_calls")]
    if indexed:
        layers["grid.index_kib"] = statistics.median(indexed)
    layers["bitset.ewah_from_int_calls"] = statistics.median(
        [counts.get(req, {}).get("ewah_from_int", 0) for req in table]
    ) if table else 0.0
    layers["pipeline.residual_ms"] = 1000.0 * statistics.median(
        [row["residual"] for row in table.values()]
    ) if table else 0.0
    queries = stats.get("queries", 0)
    layers["labels.points_skipped"] = ratio(stats.get("points_skipped_by_labels", 0), queries)
    for metric, prefix in (("label_hit_ratio", "label_"), ("key_cache_hit_ratio", "grid_key_cache_"),
                           ("lower_cache_hit_ratio", "lower_cache_")):
        hits = stats.get(f"{prefix}hits", 0)
        misses = stats.get(f"{prefix}misses", 0)
        layers[f"session.{metric}"] = ratio(hits, hits + misses)
    layers["session.invalidations"] = float(stats.get("invalidations", 0))
    return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def provenance(spec: dict, collection) -> dict:
    import numpy
    from repro.kernels import resolve_kernel

    info = {
        "source": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": resolve_kernel("auto").name,
        "dataset": {**spec["dataset"], "n": collection.n,
                    "total_points": collection.total_points},
    }
    if spec["workload"] == "serve":
        info["lanes"] = SERVE_LANES
    return info


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.DATASETS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the cleanup in finally blocks stops
    # every worker and server this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    spec = workloads.generate(args.workload, args.seed)
    collection = oracle.build_collection(spec["dataset"])
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} inputs={workloads.fingerprint(spec)}")
    print("provenance " + json.dumps(provenance(spec, collection), sort_keys=True))
    reference = reference_table(spec, collection)
    run = run_serve if args.workload == "serve" else run_closed
    outcome = run(spec, args.seconds, bool(args.trace), collection, reference)

    attempted, failed = outcome["attempted"], outcome["failed"]
    # Warm-up answers are checked like timed ones but are not timed.
    warm = outcome.get("warmup", {"attempted": 0, "failed": 0, "reasons": []})
    for reason in (outcome["reasons"] + warm["reasons"])[:10]:
        print(f"FAILED {reason}")
    if args.trace:
        metrics = {name: {"value": float(outcome["layers"][name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        latencies = outcome["latencies"]
        values = {
            "setup_s": statistics.median(outcome["setups"]),
            "latency_p50_ms": 1000.0 * percentile(latencies, 50),
            "latency_p90_ms": 1000.0 * percentile(latencies, 90),
            "throughput_qps": outcome["exact_correct"] / outcome["wall_s"],
            "peak_rss_mb": outcome["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        reported = {
            "failed_frac": ratio(failed, attempted),
            "inexact_frac": ratio(outcome["inexact"], attempted),
            "deadline_miss_frac": ratio(outcome.get("missed", 0), attempted),
            "shed_frac": ratio(outcome.get("shed", 0), attempted),
        }
        print(f"samples latency={len(latencies)} setup={len(outcome['setups'])} "
              f"warmup={warm['attempted']}")
        if len(latencies) < 100:
            print(f"warning: only {len(latencies)} timed operations (p90 needs 100)")
        for name, unit in END_TO_END_REPORTED.items():
            print(f"metric {name} = {reported[name]:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    attempted += warm["attempted"]
    failed += warm["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
