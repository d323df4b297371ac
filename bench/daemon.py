"""The traced service daemon: install the tracer, then serve.

    python bench/daemon.py ROOT STATE_JSON [TRACE_JSON]

Runs the daemon ``repro serve`` runs, with the pinned flags of
``workloads.SERVE_FLAGS``, inside one root span.  At shutdown it writes
the tracer's aggregates and the root span's ledger to STATE_JSON, and
the spans up to the first ``finalize`` -- each tagged with the session
it served -- to TRACE_JSON as Chrome trace-event JSON.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer
from workloads import SERVE_FLAGS


def main(argv: list[str]) -> int:
    root, state_path = argv[0], argv[1]
    trace_path = argv[2] if len(argv) > 2 and argv[2] else None
    tracer = Tracer()
    tracer.install()
    from repro.service.server import ServiceDaemon, serve
    from repro.service.session import MigrationSession

    def leave_session(session, result, args, previous) -> None:
        tracer.op_id = previous

    def enter_session(session) -> str:
        previous, tracer.op_id = tracer.op_id, session.id
        return previous

    for name in ("start", "step_slice", "finalize"):
        tracer.hook(MigrationSession, name, leave_session, before=enter_session)

    def handled(daemon, response, args, snap) -> None:
        if args and args[0].get("op") == "finalize":
            tracer.stop_recording()

    tracer.hook(ServiceDaemon, "handle", handled)
    with tracer.op("daemon", record=trace_path is not None) as ledger:
        serve(
            root,
            max_active=SERVE_FLAGS["max_active"],
            slice_s=SERVE_FLAGS["slice_s"],
            checkpoint_every_s=SERVE_FLAGS["checkpoint_every_s"],
            checkpoint_overhead=SERVE_FLAGS["checkpoint_budget_pct"] / 100.0,
        )
    if trace_path is not None:
        tracer.write_chrome_trace(trace_path)
    with open(state_path, "w", encoding="utf-8") as fh:
        json.dump({"tracer": tracer.state(), "ledgers": [ledger]}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
