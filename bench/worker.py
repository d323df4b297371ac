"""One workload in a fresh process: set up, report READY, measure, report.

    python bench/worker.py WORKLOAD SEED SECONDS TRACE SETUP_ONLY

``run.py`` spawns this; the time from the spawn to the ``READY`` line
is one set-up sample (interpreter start, imports, and for the service
workload the daemon answering ``ping``).  With SETUP_ONLY=1 the
process tears down what it set up and exits there; otherwise it runs
the workload and prints one ``RESULT <json>`` line.  Anything the
program itself prints goes to stderr.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import workloads as wl
from tracer import Tracer


def main(argv: list[str]) -> int:
    name, seed, seconds = argv[0], int(argv[1]), float(argv[2])
    trace, setup_only = argv[3] == "1", argv[4] == "1"
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    wl.OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    trace_path = wl.OUT_DIR / f"{name}.trace.json"

    def ready() -> None:
        print("READY", file=channel, flush=True)

    if name == wl.SERVICE:
        importlib.import_module("repro.service")
        fleet = wl.Fleet(wl.OUT_DIR / f"svc-{os.getpid()}", trace=trace, trace_path=trace_path)
        try:
            fleet.start()
            ready()
            if setup_only:
                return 0
            out = wl.run_service(fleet, seed, seconds, tracer=tracer)
        finally:
            fleet.stop()
            fleet.remove_root()
    else:
        workload = wl.INPROCESS[name]
        for module in workload.imports:
            importlib.import_module(module)
        ready()
        if setup_only:
            return 0
        out = wl.run_inprocess(workload, seed, seconds, tracer=tracer, trace_path=trace_path)
    if trace:
        out["layers"] = wl.layer_metrics(out)
    for heavy in ("all_results", "tracer", "verb_wait_ns"):
        out.pop(heavy, None)
    print("RESULT " + json.dumps(out), file=channel, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
