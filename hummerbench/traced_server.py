"""Run ``repro.cli serve`` with the benchmark's pipeline and service hooks.

Usage (the service workload does this; PYTHONPATH must hold ``src`` and the
repository root)::

    python3 hummerbench/traced_server.py TRACE_OUT serve --port 0 --data-dir DIR

Every request the server handles is traced; on SIGINT the server shuts down
as usual and the spans are written to TRACE_OUT as Chrome trace events.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from hummerbench.layers import pipeline_hooks, service_hooks
from hummerbench.spans import Tracer


def main(argv) -> int:
    from repro import cli

    trace_out, serve_argv = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.installed(pipeline_hooks() + service_hooks()):
        status = cli.main(serve_argv)
    Path(trace_out).write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
