"""Checkpoint overhead benchmark (PR 6 acceptance gate).

Runs a small migration matrix three ways:

- **plain** — no checkpointer (the reference wall time);
- **checkpointed** — default :class:`CheckpointConfig` (5 sim-second
  cadence, 3 % wall-overhead throttle), measuring the wall time the
  checkpointer itself spends writing;
- **crash+resume** — killed mid-flight at a fixed tick and resumed,
  with the restore latency timed.

Three things gate:

1. **overhead** — the wall time spent writing checkpoints, summed over
   the checkpointed sweep, must stay under ``OVERHEAD_GATE_PCT`` (5 %)
   of that sweep's total wall time.  The checkpointer's own
   ``wall_spent_s`` accounting is the numerator — a direct measure,
   immune to the run-to-run scheduler noise that swamps a
   plain-vs-checkpointed wall *difference* at these run lengths (the
   difference is still reported, un-gated).
2. **invisibility** — every checkpointed report must be bit-identical
   to its plain twin (``report.to_dict()`` compared whole).
3. **resume equivalence** — the crashed-and-resumed run's report must
   be bit-identical to the plain twin too.

Restore latency is recorded (median ms across the matrix), not gated:
it is dominated by unpickling one engine graph and stays in single-digit
milliseconds at these VM sizes.

Every run row records its simulated measures, deterministic for the
fixed seed — ``make check-bench`` diffs them against the checked-in
``BENCH_PR6.json`` with ``repro compare``.  Plain script on purpose::

    PYTHONPATH=src python benchmarks/bench_pr6_checkpoint.py [OUT.json]
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.checkpoint import CheckpointConfig, Checkpointer, SimulatedCrash, resume
from repro.core import MigrationExperiment
from repro.core.experiment import ExperimentRun
from repro.units import MiB

MIGRATIONS = (
    ("derby", "javmm"),
    ("derby", "xen"),
    ("scimark", "javmm"),
)
WARMUP_S = 30.0
COOLDOWN_S = 5.0
ROUNDS = 3
OVERHEAD_GATE_PCT = 5.0
#: tick the crash+resume leg dies at (27.5 s — late in the warm-up)
CRASH_AT_TICK = 5500


def _experiment(workload: str, engine: str) -> MigrationExperiment:
    return MigrationExperiment(
        workload=workload,
        engine=engine,
        mem_bytes=MiB(512),
        max_young_bytes=MiB(128),
        warmup_s=WARMUP_S,
        cooldown_s=COOLDOWN_S,
    )


def _row(workload: str, engine: str, tag: str, wall: float, report) -> dict:
    return {
        "workload": workload,
        "engine": f"{engine}-{tag}",
        "wall_s": round(wall, 4),
        "migration_total_s": round(report.completion_time_s, 6),
        "downtime_s": round(report.downtime.vm_downtime_s, 6),
        "wire_bytes": report.total_wire_bytes,
        "n_iterations": report.n_iterations,
    }


def main(out_path: "str | None" = None) -> int:
    # One discarded pass pays the interpreter/numpy caching costs.
    ExperimentRun(_experiment("derby", "javmm")).run()

    plain_walls: list[float] = []
    ckpt_walls: list[float] = []
    spent_walls: list[float] = []
    rows: list[dict] = []
    written = deferred = 0
    identical = True
    plain_reports: dict[tuple, dict] = {}

    for round_i in range(ROUNDS):
        for workload, engine in MIGRATIONS:
            t0 = time.perf_counter()
            result = ExperimentRun(_experiment(workload, engine)).run()
            wall = time.perf_counter() - t0
            plain_walls.append(wall)
            if round_i == 0:
                plain_reports[(workload, engine)] = result.report.to_dict()
                rows.append(_row(workload, engine, "plain", wall, result.report))
        for workload, engine in MIGRATIONS:
            with tempfile.TemporaryDirectory() as d:
                ck = Checkpointer(CheckpointConfig(directory=d))  # all defaults
                t0 = time.perf_counter()
                result = ExperimentRun(_experiment(workload, engine)).run(ck)
                wall = time.perf_counter() - t0
            ckpt_walls.append(wall)
            spent_walls.append(ck.wall_spent_s)
            written += ck.written
            deferred += ck.deferred
            assert ck.written >= 1, "the baseline checkpoint must always land"
            if result.report.to_dict() != plain_reports[(workload, engine)]:
                identical = False
            if round_i == 0:
                rows.append(_row(workload, engine, "checkpointed", wall, result.report))

    # -- crash + resume, restore latency -------------------------------------------
    restore_ms: list[float] = []
    resume_identical = True
    for workload, engine in MIGRATIONS:
        with tempfile.TemporaryDirectory() as d:
            exp = _experiment(workload, engine)
            config = {"workload": workload, "engine": engine}
            cfg = CheckpointConfig(
                directory=d, every_s=5.0, max_overhead=None,
                crash_at_tick=CRASH_AT_TICK, config=config,
            )
            try:
                ExperimentRun(exp).run(Checkpointer(cfg))
                raise AssertionError("chaos crash did not fire")
            except SimulatedCrash:
                pass
            t0 = time.perf_counter()
            resumed = resume(d, expect_config=config)
            restore_ms.append((time.perf_counter() - t0) * 1e3)
            result = resumed.controller.run()
            if result.report.to_dict() != plain_reports[(workload, engine)]:
                resume_identical = False

    overhead_pct = 100.0 * sum(spent_walls) / sum(ckpt_walls)
    delta_pct = 100.0 * (sum(ckpt_walls) - sum(plain_walls)) / sum(plain_walls)
    payload = {
        "benchmark": "pr6-checkpoint",
        "sweep": {
            "migrations": [list(m) for m in MIGRATIONS],
            "warmup_s": WARMUP_S,
            "cooldown_s": COOLDOWN_S,
            "rounds": ROUNDS,
            "crash_at_tick": CRASH_AT_TICK,
        },
        "plain_wall_s": round(sum(plain_walls), 4),
        "checkpointed_wall_s": round(sum(ckpt_walls), 4),
        "checkpoint_wall_spent_s": round(sum(spent_walls), 4),
        "overhead_pct": round(overhead_pct, 3),
        "overhead_gate_pct": OVERHEAD_GATE_PCT,
        "wall_delta_pct_ungated": round(delta_pct, 3),
        "checkpoints_written": written,
        "checkpoints_deferred": deferred,
        "restore_latency_ms": round(statistics.median(restore_ms), 3),
        "bit_identical": {
            "checkpointed": identical,
            "resumed": resume_identical,
        },
        "runs": rows,
    }
    out = (
        Path(out_path)
        if out_path
        else Path(__file__).resolve().parent.parent / "BENCH_PR6.json"
    )
    out.write_text(json.dumps(payload, indent=2) + "\n")
    ok = (
        overhead_pct < OVERHEAD_GATE_PCT
        and identical
        and resume_identical
    )
    print(
        f"checkpoint overhead: {overhead_pct:.2f}% of wall "
        f"(gate < {OVERHEAD_GATE_PCT:.1f}%; raw delta {delta_pct:+.2f}%), "
        f"{written} written / {deferred} deferred, "
        f"restore {statistics.median(restore_ms):.1f}ms; "
        f"bit-identical: checkpointed={identical} resumed={resume_identical} "
        f"(wrote {out})"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1] if len(sys.argv) > 1 else None))
