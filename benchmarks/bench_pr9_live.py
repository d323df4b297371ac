"""Live-streaming overhead benchmark (PR 9 acceptance gate).

Runs the telemetry sweep — each workload migrated with ``xen`` and with
``javmm`` under the :class:`MigrationSupervisor`, probe live — twice:

- **telemetry** — spans, metrics, series samples and the batch JSONL
  export at the end (the PR 3/8 baseline configuration);
- **live** — the same sweep with a line-flushed :class:`JsonlSink`
  attached (every instant/sample/event mirrored to disk as it
  happens), a :class:`FileTail` polled after every migration, each
  stream folded into a :class:`LiveStatus`, and the fleet aggregated
  through :class:`FleetBoard.to_prom_text`.

The gated number is **live vs telemetry**: tailing a migration and
maintaining its board must cost < 5 % wall time on top of telemetry
itself.  The sink adds one dict+write per streamed record and the
status replay is O(iterations) per poll, so the expected overhead is
small.

The payload also carries ``board_ok`` per run — the tailed board must
equal the post-mortem recomputation bit-for-bit; the gate fails on any
mismatch, not just on wall time — and per-run simulated measures that
``make check-bench`` diffs against the checked-in baseline.

Plain script on purpose (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_pr9_live.py [OUT.json]
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.supervisor import supervised_migrate
from repro.net.link import Link
from repro.telemetry.attribution import attribute_report
from repro.telemetry.export import write_jsonl
from repro.telemetry.live import FleetBoard, JsonlSink, LiveStatus, watch_file
from repro.units import MiB

WORKLOADS = ("derby", "crypto", "scimark")
ENGINES = ("xen", "javmm")
#: sweep repetitions; the median wall time absorbs scheduler noise
ROUNDS = 5


def _sweep(live: bool, export_dir: Path) -> tuple[float, list[dict]]:
    """One full sweep; returns (total wall seconds, per-run details)."""
    details = []
    total = 0.0
    board = FleetBoard()
    for workload in WORKLOADS:
        for engine in ENGINES:
            link = Link()
            path = export_dir / f"{workload}-{engine}.jsonl"
            t0 = time.perf_counter()
            sink = JsonlSink(path) if live else None
            result, vm = supervised_migrate(
                workload=workload,
                engine_name=engine,
                link=link,
                vm_kwargs={
                    "mem_bytes": MiB(512),
                    "max_young_bytes": MiB(128),
                },
                telemetry=True,
                telemetry_sink=sink,
            )
            ledgers = [
                attribute_report(rec.report).to_dict()
                for rec in result.attempts
                if rec.report is not None
            ]
            board_ok = True
            if live:
                # The gated extra work: finalize the stream, tail it,
                # fold the status, aggregate the fleet exposition.
                sink.finalize(probe=vm.probe, attributions=ledgers)
                status = watch_file(path, name=f"{workload}-{engine}")
                board.update(status)
                board.to_prom_text()
                post = LiveStatus.from_result(
                    result, name=f"{workload}-{engine}"
                )
                board_ok = status.to_dict() == post.to_dict()
            else:
                write_jsonl(path, probe=vm.probe, attributions=ledgers)
            elapsed = time.perf_counter() - t0
            total += elapsed
            assert result.ok, (workload, engine)
            report = result.report
            row = {
                "workload": workload,
                "engine": engine,
                "wall_s": round(elapsed, 4),
                "migration_total_s": round(report.completion_time_s, 4),
                "downtime_s": round(report.downtime.vm_downtime_s, 5),
                "wire_bytes": report.total_wire_bytes,
                "n_iterations": len(report.iterations),
            }
            if live:
                # Distinguishes this row's comparator key from the
                # batch-telemetry sweep.
                row["live"] = True
                row["board_ok"] = board_ok
            details.append(row)
    return total, details


def main(out_path: "str | None" = None) -> int:
    telemetry: list[float] = []
    live: list[float] = []
    details: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-pr9-") as tmp:
        # One discarded warm-up sweep: the first round otherwise pays
        # interpreter/caching costs that read as (fake) overhead.
        _sweep(live=False, export_dir=Path(tmp))
        for _ in range(ROUNDS):
            for rounds, flag in ((telemetry, False), (live, True)):
                total, rows = _sweep(live=flag, export_dir=Path(tmp))
                rounds.append(total)
                details.extend(rows)

    telemetry_s = statistics.median(telemetry)
    live_s = statistics.median(live)
    overhead_pct = 100.0 * (live_s - telemetry_s) / telemetry_s
    board_ok = all(row["board_ok"] for row in details if "board_ok" in row)
    payload = {
        "benchmark": "pr9-live-overhead",
        "sweep": {"workloads": WORKLOADS, "engines": ENGINES, "rounds": ROUNDS},
        "telemetry_s": round(telemetry_s, 4),
        "live_s": round(live_s, 4),
        "live_overhead_pct": round(overhead_pct, 2),
        "board_ok": board_ok,
        "telemetry_rounds_s": [round(x, 4) for x in telemetry],
        "live_rounds_s": [round(x, 4) for x in live],
        "runs": details,
    }
    out = (
        Path(out_path)
        if out_path
        else Path(__file__).resolve().parent.parent / "BENCH_PR9.json"
    )
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"telemetry {telemetry_s:.2f}s, live {live_s:.2f}s "
        f"-> overhead {overhead_pct:+.1f}%, boards "
        f"{'OK' if board_ok else 'MISMATCHED'} (wrote {out})"
    )
    # Two gates: tailing must be cheap AND every board must match its
    # post-mortem recomputation bit-for-bit.
    return 0 if overhead_pct < 5.0 and board_ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1] if len(sys.argv) > 1 else None))
