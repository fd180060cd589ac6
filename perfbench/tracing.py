"""Outside-in span recording for the traced benchmark run.

Nothing under ``src/`` is instrumented for this: :func:`install` wraps
public functions of each layer at run time, from the benchmark's own
files, and every call through a wrapper records one span -- name, start,
end, parent and request id -- in memory.  Spans are written out once, at
the end of the run.

Per-layer *self time* is a span's duration minus the durations of its
direct children; the *residual* of an operation is its root span's
duration minus the sum of its top-level layer spans, i.e. the time no
wrapped layer accounts for.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: The four kernel ops, timed on the resolved kernel instance.
KERNEL_OPS = ("build_bigrid", "lower_bounds", "upper_bounds", "verify_candidates")


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[dict] = []
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self) -> Optional[str]:
        stack = self._stack()
        return stack[0]["request"] if stack else None

    def begin(self, name: str, request: Optional[str] = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": 0,
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": request if parent is None else parent["request"],
            "start": self.clock(),
            "end": None,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a per-request counter (no span: cheap enough for hot calls)."""
        request = self.current_request()
        if request is not None:
            self.counts[request][name] += amount

    def wrap(self, function: Callable, name: str,
             on_result: Optional[Callable[["Recorder", object], None]] = None) -> Callable:
        """``function`` recording one span named ``name`` per call.

        Calls outside any operation (no open root span) pass through
        unrecorded, so set-up work never lands in a layer's figures.
        """

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self._stack():
                return function(*args, **kwargs)
            span = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(span)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def counter(self, function: Callable, name: str) -> Callable:
        @functools.wraps(function)
        def counted(*args, **kwargs):
            self.count(name)
            return function(*args, **kwargs)

        return counted


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------


def _count_candidates(recorder: Recorder, upper) -> None:
    recorder.count("candidates", len(upper.candidates))


def _count_settled(recorder: Recorder, verification) -> None:
    recorder.count("settled", verification.verified)


def _count_index(recorder: Recorder, size: int) -> None:
    recorder.count("index_bytes", size)
    recorder.count("index_calls", 1)


def install(recorder: Recorder) -> None:
    """Wrap each measured layer's public functions in ``recorder`` spans.

    * ``repro.kernels`` -- the four ops on the instance ``kernel="auto"``
      resolves to;
    * ``repro.grid`` -- ``BIGrid.memory_bytes`` (and any subclass
      override), plus its return value;
    * ``repro.bitset`` -- ``EWAHBitset.from_int`` calls, counted only;
    * ``repro.core`` -- ``LabelStore.get`` / ``LabelStore.put``;
    * ``repro.dynamic`` -- ``DynamicMIO.snapshot``;
    * ``repro.service`` -- ``AdmissionController.admit`` (queue wait).
    """
    from repro.bitset.ewah import EWAHBitset
    from repro.core.labels import LabelStore
    from repro.dynamic import DynamicMIO
    from repro.grid.bigrid import BIGrid
    from repro.kernels import resolve_kernel
    from repro.service.admission import AdmissionController

    kernel = resolve_kernel("auto")
    hooks = {"upper_bounds": _count_candidates, "verify_candidates": _count_settled}
    for op in KERNEL_OPS:
        setattr(kernel, op, recorder.wrap(getattr(kernel, op), f"kernels.{op}", hooks.get(op)))

    pending = [BIGrid]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "memory_bytes" in cls.__dict__:
            cls.memory_bytes = recorder.wrap(
                cls.__dict__["memory_bytes"], "grid.memory_bytes", _count_index
            )

    from_int = EWAHBitset.__dict__["from_int"].__func__
    EWAHBitset.from_int = classmethod(recorder.counter(from_int, "ewah_from_int"))

    LabelStore.get = recorder.wrap(LabelStore.get, "labels.input")
    LabelStore.put = recorder.wrap(LabelStore.put, "labels.output")
    DynamicMIO.snapshot = recorder.wrap(DynamicMIO.snapshot, "dynamic.snapshot")
    AdmissionController.admit = recorder.wrap(AdmissionController.admit, "service.admit")


# ----------------------------------------------------------------------
# Span-tree arithmetic
# ----------------------------------------------------------------------


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def per_request(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Request id -> {layer name: summed self seconds, "residual": ...}.

    The root span of a request is its operation; ``residual`` is the
    root's duration minus its direct children's, the unattributed rest.
    """
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span["end"] is None or span["request"] is None:
            continue
        row = table[span["request"]]
        if span["parent"] is None:
            row["residual"] += own[span["id"]]
            row["wall"] += span["end"] - span["start"]
        else:
            row[span["name"]] += own[span["id"]]
    return table


def median_ms(table: Dict[str, Dict[str, float]], name: str) -> float:
    """Median per-operation self time of a layer, in milliseconds.

    Taken over the operations that entered the layer; 0.0 when none did.
    """
    values = [row[name] for row in table.values() if name in row]
    return 1000.0 * statistics.median(values) if values else 0.0
