"""Reference answers and answer checks.

Reference answers come from the pure-python kernel (``kernel="python"``,
no labels, no caches), computed before any timed region starts.  Answers
are compared by *score*: tied winners are arbitrary (Definition 1), so
two correct engines may name different objects.

Anytime answers (``exact=False``) are checked against Corollary 1: the
reported score may not exceed the true optimum, and the reported
winner's true score may not fall below the reported score.  The true
score of one object is counted directly from point distances, with the
same ``squared distance <= r * r`` test the kernels use.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


def build_collection(dataset: Dict[str, object]):
    from repro import load_dataset

    return load_dataset(str(dataset["name"]), scale=float(dataset["scale"]),
                        seed=int(dataset["seed"]))


def displaced(points: np.ndarray, mutation: Dict[str, object]) -> np.ndarray:
    """A trajectory shifted by the mutation's (dx, dy) offset."""
    shift = np.zeros(points.shape[1])
    shift[:2] = (float(mutation["dx"]), float(mutation["dy"]))
    return points + shift


def state_collections(collection, ops: List[Dict[str, object]]):
    """The collection at each mutation state of a ``churn`` cycle.

    State 0 is the initial contents; each ``mutate`` op starts a new one.
    Positions follow :class:`~repro.dynamic.DynamicMIO` snapshot order
    (ascending handle): a re-added object moves to the end.
    """
    from repro.core.objects import ObjectCollection

    order = list(range(collection.n))  # position -> original object slot
    arrays = {slot: collection[slot].points for slot in order}
    states = [ObjectCollection.from_point_arrays([arrays[s] for s in order])]
    for op in ops:
        if op["kind"] != "mutate":
            continue
        slot = int(op["slot"])
        order.remove(slot)
        order.append(slot)
        arrays[slot] = (
            displaced(collection[slot].points, op) if op["action"] == "displace"
            else collection[slot].points
        )
        states.append(ObjectCollection.from_point_arrays([arrays[s] for s in order]))
    return states


def reference_scores(collection, r: float, k: int) -> List[int]:
    """Top-k scores, best first, from the reference python kernel."""
    from repro import MIOEngine

    engine = MIOEngine(collection, kernel="python")
    if k == 1:
        return [engine.query(r).score]
    return [score for _, score in engine.query_topk(r, k).topk]


def true_score(collection, oid: int, r: float) -> int:
    """tau(oid): objects with some point within ``r`` of one of oid's points."""
    mine = collection[oid].points
    limit = r * r
    count = 0
    for other in range(collection.n):
        if other == oid:
            continue
        theirs = collection[other].points
        for point in mine:
            diff = theirs - point
            if np.einsum("ij,ij->i", diff, diff).min() <= limit:
                count += 1
                break
    return count


def check_answer(
    expected: List[int],
    answer: Dict[str, object],
    collection=None,
) -> Optional[str]:
    """None if ``answer`` is correct for the reference ``expected``.

    ``answer`` holds ``score``, ``winner``, ``exact`` and, for top-k,
    ``scores`` (the reported ranking's scores).  Returns a one-line
    reason otherwise.
    """
    score = int(answer["score"])
    if answer["exact"]:
        reported = answer.get("scores")
        if reported is not None:
            if list(reported) != list(expected):
                return f"top-k scores {reported} != reference {expected}"
        elif score != expected[0]:
            return f"score {score} != reference {expected[0]}"
        return None
    if score > expected[0]:
        return f"anytime score {score} exceeds the optimum {expected[0]}"
    winner = int(answer["winner"])
    if winner < 0:
        return None if score == 0 else f"vacuous answer with score {score}"
    if collection is None:
        return "anytime answer where no deadline was set"
    actual = true_score(collection, winner, float(answer["r"]))
    if actual < score:
        return f"anytime winner {winner} has true score {actual} < reported {score}"
    return None
