"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/server.py SPANS.json -- <repro serve arguments>``.
Runs the unmodified CLI ``serve`` command in this process after wrapping
the measured layers (see :func:`tracing.install`) and
``ServiceApp.handle`` as each request's root span, keyed by the
``X-Trace-Id`` the load generator sends.  On SIGINT the server drains as
usual; the spans are then written to ``SPANS.json``.

The untraced benchmark runs ``python -m repro serve`` directly.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    from repro.cli import main as cli_main
    from repro.service.app import ServiceApp
    from tracing import Recorder, install

    spans_out, serve_args = argv[0], argv[argv.index("--") + 1:]
    recorder = Recorder()
    install(recorder)
    handle = ServiceApp.handle

    def traced_handle(self, method, path, params=None, body=None, trace_id=None):
        if not (trace_id or "").startswith("pb-"):
            return handle(self, method, path, params, body, trace_id=trace_id)
        span = recorder.begin("service.handle", request=trace_id)
        try:
            return handle(self, method, path, params, body, trace_id=trace_id)
        finally:
            recorder.end(span)

    ServiceApp.handle = traced_handle
    try:
        return cli_main(["serve", *serve_args])
    finally:
        with open(spans_out, "w") as out:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
