"""Closed-loop HTTP load generation for the ``serve`` workload.

A fixed number of clients ("lanes") send requests back to back: a lane
sends its next request as soon as its previous answer has arrived.  The
lanes share one cursor over the request cycle, so together they walk the
cycle in order and wrap around at its end.  A request's latency runs
from send to receive.

Each request opens its own connection and closes it after the answer,
as the bundled :class:`repro.service.client.ServiceClient` does.  On a
reused keep-alive connection the server's separate header and body
writes meet the client's delayed ACK (Nagle), and every answer waits for
the kernel's adaptive delayed-ACK timer, 40 ms to 200 ms in timer ticks:
that measures the TCP stack's timer, not the service.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, Dict, List, Optional


def run_closed_loop(
    send: Callable[[int], Dict[str, object]],
    lanes: int,
    seconds: float,
    count: Optional[int] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Dict[str, object]]:
    """Send requests 0, 1, 2, ... through ``send(index)``.

    Lanes stop issuing once ``seconds`` have passed or ``count`` requests
    have gone out, whichever comes first, and finish the request they are
    in.  Returns one record per request, in index order: its ``index``,
    ``sent`` and ``done`` clock readings plus whatever ``send`` returned.
    With one lane everything runs on the calling thread, which keeps
    fake-clock tests exact.
    """
    start = clock()
    cursor = [0]
    lock = threading.Lock()
    records: List[Dict[str, object]] = []

    def lane() -> None:
        while True:
            with lock:
                index = cursor[0]
                if clock() - start >= seconds or (count is not None and index >= count):
                    return
                cursor[0] += 1
            sent = clock()
            outcome = send(index)
            done = clock()
            with lock:
                records.append({"index": index, "sent": sent, "done": done, **outcome})

    if lanes == 1:
        lane()
    else:
        threads = [threading.Thread(target=lane, daemon=True) for _ in range(lanes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return sorted(records, key=lambda record: record["index"])


def latency(record: Dict[str, object]) -> float:
    return float(record["done"]) - float(record["sent"])


def request_body(request: Dict[str, object]) -> Dict[str, object]:
    """The JSON body of one generated ``serve`` request."""
    if request["kind"] == "batch":
        return {"queries": [{"r": r} for r in request["rs"]]}
    body: Dict[str, object] = {"r": request["r"]}
    for field in ("k", "timeout_ms"):
        if field in request:
            body[field] = request[field]
    return body


class HttpSender:
    """Sends each request over a fresh HTTP connection to a running server."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def send(self, request: Dict[str, object], trace_id: str) -> Dict[str, object]:
        path = {"query": "/query", "topk": "/topk", "batch": "/batch"}[request["kind"]]
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(
                "POST", path, body=json.dumps(request_body(request)),
                headers={"Content-Type": "application/json", "X-Trace-Id": trace_id},
            )
            response = connection.getresponse()
            status, payload = response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            return {"status": 0, "error": f"{type(exc).__name__}: {exc}"}
        finally:
            connection.close()
        return {"status": status, "payload": payload}
