"""Seeded workload generators for the MIO benchmark.

Every workload is a pure function of ``--seed``: the seed fixes the
request stream (thresholds, top-k choices, batches, timeouts) and the
mutation stream.  The datasets themselves are the
registry analogues at a fixed dataset seed, scaled so that a run holds at
least 100 timed operations; varying the seed therefore varies what is
asked of a fixed database, which keeps the figures comparable across
seeds.

Every workload is a closed loop: it generates one *cycle* of operations
that its callers repeat, back to back, until the run's time is up.
Each cycle is stratified -- it covers the whole ``r`` range in fixed
proportions, only the draw inside each stratum and the order change with
the seed -- so a run's latency distribution does not hinge on one lucky
draw.  The ``churn`` cycle displaces objects and restores them, so the
collection is back to its initial contents at the end of every cycle and
the oracle only has to replay one cycle.

This module imports nothing from ``repro``: the parent process builds
inputs and fingerprints them before any engine exists.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

#: Dataset registry seed shared by every workload (the registry default).
DATASET_SEED = 7

#: Per-workload dataset: registry name and scale.  Scales are chosen so a
#: 20-second run holds well over 100 timed operations on a 2-CPU host.
DATASETS: Dict[str, Dict[str, object]] = {
    "adhoc": {"name": "syn", "scale": 0.15},
    "churn": {"name": "bird-2", "scale": 0.2},
    "serve": {"name": "bird-2", "scale": 0.1},
}

#: Server default budget (``repro serve --default-timeout-ms``) used as
#: the deadline of requests that carry no ``timeout_ms`` of their own.
SERVE_DEFAULT_TIMEOUT_MS = 1000.0

#: The tight budget about a quarter of ``serve`` requests carry.
SERVE_TIGHT_TIMEOUT_MS = 25.0

#: Top-k size of the top-k share of ``adhoc`` and ``serve``.
TOPK_K = 5

#: The ``serve`` threshold grid: 3.0, 3.5, ..., 10.0.
SERVE_GRID = [3.0 + 0.5 * step for step in range(15)]


def _sweep_queries(rng: random.Random) -> List[float]:
    """One analyst cycle: every 0.1-step r below ceilings 4, 6 and 8.

    Each sweep starts at its ceiling and tightens the threshold step by
    step down to ``ceiling - 0.9``, stepping back to re-ask a recent
    threshold twice along the way: 30 distinct thresholds plus 6 repeats,
    12 per ceiling.  The seed picks the ceiling order and the repeats.
    """
    order = [4, 6, 8]
    rng.shuffle(order)
    queries: List[float] = []
    for ceiling in order:
        sweep = [round(ceiling - 0.1 * step, 1) for step in range(10)]
        for at in sorted(rng.sample(range(2, 11), 2), reverse=True):
            sweep.insert(at, sweep[at - 1 - rng.randrange(2)])
        queries.extend(sweep)
    return queries


def generate(workload: str, seed: int) -> Dict[str, object]:
    """The full input of one run: dataset recipe plus request stream."""
    if workload not in DATASETS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    spec: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "dataset": dict(DATASETS[workload], seed=DATASET_SEED),
    }
    if workload == "adhoc":
        # 30 strata over [3, 10): one uniform draw in each, 6 of them top-k.
        strata = 30
        topk = set(rng.sample(range(strata), strata // 5))
        ops = []
        for index in range(strata):
            r = round(3.0 + (index + rng.random()) * 7.0 / strata, 3)
            ops.append({"kind": "topk", "r": r, "k": TOPK_K} if index in topk
                       else {"kind": "query", "r": r})
        rng.shuffle(ops)
        spec["ops"] = ops
    elif workload == "churn":
        # The sweep thresholds as single queries, with a mutation before
        # every 6th: three objects are displaced, then restored in a
        # seeded order, so each cycle ends on the initial contents.
        queries = _sweep_queries(rng)
        n_objects = int(320 * float(DATASETS["churn"]["scale"]))
        victims = rng.sample(range(n_objects), len(queries) // 12)
        restores = rng.sample(victims, len(victims))
        mutations = [
            {"kind": "mutate", "action": "displace", "slot": slot,
             "dx": round(rng.uniform(-30, 30), 3), "dy": round(rng.uniform(-30, 30), 3)}
            for slot in victims
        ] + [{"kind": "mutate", "action": "restore", "slot": slot} for slot in restores]
        ops = []
        for index, r in enumerate(queries):
            if index % 6 == 0:
                ops.append(mutations[index // 6])
            ops.append({"kind": "query", "r": r})
        spec["ops"] = ops
    else:
        spec["requests"] = _serve_requests(rng)
        spec["warmup"] = serve_warmup()
    return spec


def serve_warmup() -> List[Dict[str, object]]:
    """Requests sent before ``serve`` is timed: every threshold once as
    ``/query`` and once as ``/topk``, then one ``/batch``, so the server's
    caches are warm when timing starts."""
    return ([{"kind": "query", "r": r} for r in SERVE_GRID]
            + [{"kind": "topk", "r": r, "k": TOPK_K} for r in SERVE_GRID]
            + [{"kind": "batch", "rs": SERVE_GRID[:3]}])


def _serve_requests(rng: random.Random) -> List[Dict[str, object]]:
    """One cycle of ``serve`` requests, which the clients repeat.

    54 requests: 39 ``/query``, 12 ``/topk`` (k=5) and 3 ``/batch`` of 3
    (72/22/6%), in seeded order.  A quarter of the single requests carry
    a tight ``timeout_ms``.  The 60 thresholds they ask are four shuffled
    decks of the 15-value grid, so every cycle asks each threshold
    equally often.
    """
    kinds = ["query"] * 39 + ["topk"] * 12 + ["batch"] * 3
    rng.shuffle(kinds)
    singles = [index for index, kind in enumerate(kinds) if kind != "batch"]
    tight = set(rng.sample(singles, round(len(singles) / 4)))
    deck: List[float] = []

    def deal() -> float:
        if not deck:
            deck.extend(rng.sample(SERVE_GRID, len(SERVE_GRID)))
        return deck.pop()

    requests = []
    for index, kind in enumerate(kinds):
        request: Dict[str, object] = {"kind": kind}
        if kind == "batch":
            request["rs"] = [deal() for _ in range(3)]
        else:
            request["r"] = deal()
            if kind == "topk":
                request["k"] = TOPK_K
            if index in tight:
                request["timeout_ms"] = SERVE_TIGHT_TIMEOUT_MS
        requests.append(request)
    return requests


def fingerprint(spec: Dict[str, object]) -> str:
    """A short hash of a run's generated request and mutation stream."""
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
