"""Wall-clock overhead gates of the optional layers, in one script.

Each optional layer must stay cheap next to the work it observes or
hosts.  The legs below run interleaved (the sweep legs cell by cell),
once per round, and every gate takes the median of its per-round
ratio, so machine drift hits both sides of each ratio alike:

- the **Figure-10 sweep** (derby, crypto and scimark, each migrated
  supervised with ``xen`` and ``javmm`` on a 512 MiB VM) once per leg:

  - ``plain`` — telemetry off;
  - ``telemetry`` — the probe records spans, metrics and series;
  - ``analysis`` — telemetry plus the online convergence monitor;
  - ``attribution`` — telemetry plus the audited attribution ledgers,
    the link-meter reconciliation and a batch JSONL export;
  - ``live`` — the attribution leg's work, but the stream goes through
    a line-flushed sink while the run goes, is tailed back into a live
    status, and is folded into a fleet board and its exposition;
  - ``checkpointed`` — plain, with a default :class:`Checkpointer`
    (and the 30 s warm-up its gate was set on, see
    :data:`CHECKPOINTED_WARMUP_S`);

- the **quiet sweeps** (Figure-5 heap profiles and Table-2 warm-ups, no
  migration) under the ``fixed`` and the ``event`` kernel;
- a **64-session fleet** run standalone one after another, and
  multiplexed on one :class:`~repro.service.MigrationManager`.

The script prints one row per gate and exits 1 if any gate fails.  It
checks wall time only: every simulated outcome these legs produce is
pinned or compared bit for bit by the test suite (the kernel
equivalence, checkpoint, attribution, live and service suites, and
``tests/test_outcome_pins.py``).  Run it from the repository root::

    PYTHONPATH=src python benchmarks/overheads.py
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.checkpoint import CheckpointConfig, Checkpointer
from repro.core.supervisor import SupervisedRun
from repro.experiments.fig05 import profile_workload
from repro.experiments.table2 import observe
from repro.net.link import Link
from repro.service import MigrationManager, SessionConfig, run_standalone
from repro.sim.engine import KERNEL_ENV_VAR
from repro.telemetry.attribution import assert_conserved, audit_meter
from repro.telemetry.export import write_jsonl
from repro.telemetry.live import FleetBoard, JsonlSink, watch_file
from repro.units import MiB

WORKLOADS = ("derby", "crypto", "scimark")
ENGINES = ("xen", "javmm")
VM = {"mem_bytes": MiB(512), "max_young_bytes": MiB(128)}
FIG05_WORKLOADS = ("derby", "compiler", "crypto", "scimark", "compress")
FIG05_DURATION_S = 240.0
FLEET = 64
#: measured rounds; each gate takes the median of its per-round ratio
ROUNDS = 5
#: the checkpointed leg's warm-up.  A run always writes its baseline
#: checkpoint, a fixed cost of some 10 ms, so the leg keeps the 30 s
#: warm-up its gate was set on: after the default 5 s one the baseline
#: alone is about 5% of a run.
CHECKPOINTED_WARMUP_S = 30.0


# -- the Figure-10 sweep, one cell per call ----------------------------------------------


def _migrate(workload, engine, checkpointer=None, **kwargs):
    run = SupervisedRun(workload=workload, engine_name=engine, vm_kwargs=VM, **kwargs)
    result = run.run(checkpointer)
    assert result.ok, (workload, engine)
    return result, run.vm


def _audited_ledgers(result, link: Link) -> list[dict]:
    reports = [rec.report for rec in result.attempts if rec.report is not None]
    ledgers = [assert_conserved(report).to_dict() for report in reports]
    assert not audit_meter(link.meter, reports)
    return ledgers


def _plain(workload, engine, out: Path) -> None:
    _migrate(workload, engine)


def _telemetry(workload, engine, out: Path) -> None:
    _migrate(workload, engine, telemetry=True)


def _analysis(workload, engine, out: Path) -> None:
    _migrate(workload, engine, telemetry=True, analysis=True)


def _attribution(workload, engine, out: Path) -> None:
    link = Link()
    result, vm = _migrate(workload, engine, link=link, telemetry=True)
    write_jsonl(
        out / f"{workload}-{engine}.jsonl", probe=vm.probe,
        attributions=_audited_ledgers(result, link),
    )


def _live(workload, engine, out: Path) -> None:
    link = Link()
    path = out / f"{workload}-{engine}.jsonl"
    sink = JsonlSink(path)
    result, vm = _migrate(
        workload, engine, link=link, telemetry=True, telemetry_sink=sink
    )
    sink.finalize(probe=vm.probe, attributions=_audited_ledgers(result, link))
    board = FleetBoard()
    board.update(watch_file(path, name=f"{workload}-{engine}"))
    board.to_prom_text()


def _checkpointed(workload, engine, out: Path) -> float:
    checkpointer = Checkpointer(
        CheckpointConfig(directory=tempfile.mkdtemp(dir=out))  # all defaults
    )
    _migrate(workload, engine, checkpointer, warmup_s=CHECKPOINTED_WARMUP_S)
    return checkpointer.wall_spent_s


SWEEP_LEGS = {
    "plain": _plain,
    "telemetry": _telemetry,
    "analysis": _analysis,
    "attribution": _attribution,
    "live": _live,
    "checkpointed": _checkpointed,
}


# -- the quiet sweeps under one kernel ---------------------------------------------------


def _quiet(kernel: str) -> float:
    saved = os.environ.get(KERNEL_ENV_VAR)
    os.environ[KERNEL_ENV_VAR] = kernel  # what make_engine() reads
    try:
        t0 = time.perf_counter()
        for workload in FIG05_WORKLOADS:
            profile_workload(workload, duration_s=FIG05_DURATION_S)
        for workload in WORKLOADS:
            observe(workload)
        return time.perf_counter() - t0
    finally:
        if saved is None:
            del os.environ[KERNEL_ENV_VAR]
        else:
            os.environ[KERNEL_ENV_VAR] = saved


# -- the fleet, sequential and multiplexed -----------------------------------------------


def fleet_configs(n: int = FLEET) -> list[SessionConfig]:
    """*n* distinct small configs: workloads round-robined, every
    eighth session supervised, seeds all different."""
    return [
        SessionConfig(
            workload=WORKLOADS[i % len(WORKLOADS)], mem_mb=512, young_mb=128,
            seed=1000 + i, supervise=(i % 8 == 7),
        )
        for i in range(n)
    ]


def _sequential(configs: list[SessionConfig]) -> float:
    gc.collect()  # the same collector state at every leg boundary
    t0 = time.perf_counter()
    for config in configs:
        run_standalone(config)
    return time.perf_counter() - t0


def _multiplexed(configs: list[SessionConfig]) -> float:
    """Every config live at once on one memoryless manager: no sinks and
    no checkpoints, so the leg measures multiplexing alone."""
    gc.collect()
    manager = MigrationManager(root_dir=None, max_active=len(configs))
    for config in configs:
        manager.submit(config)
    t0 = time.perf_counter()
    manager.drain()
    return time.perf_counter() - t0


# -- the gates -------------------------------------------------------------------------


#: (gate, how its per-round value is computed, bound, True: value must
#: stay below the bound / False: reach it).  Bounds are the retired
#: ratio benches' bounds, unchanged.
GATES = (
    ("telemetry vs plain, wall %",
     lambda r: _pct(r["telemetry"], r["plain"]), 5.0, True),
    ("analysis vs telemetry, wall %",
     lambda r: _pct(r["analysis"], r["telemetry"]), 5.0, True),
    ("attribution vs telemetry, wall %",
     lambda r: _pct(r["attribution"], r["telemetry"]), 5.0, True),
    ("live vs batch export (attribution leg), wall %",
     lambda r: _pct(r["live"], r["attribution"]), 5.0, True),
    ("checkpoint writes / checkpointed sweep wall, %",
     lambda r: 100.0 * r["checkpoint_spent"] / r["checkpointed"], 5.0, True),
    ("quiet sweeps, fixed / event kernel, x",
     lambda r: r["quiet_fixed"] / r["quiet_event"], 3.0, False),
    ("fleet multiplexed vs sequential, wall per migration %",
     lambda r: _pct(r["multiplexed"], r["sequential"]), 10.0, True),
)


def _pct(candidate: float, baseline: float) -> float:
    return 100.0 * (candidate - baseline) / baseline


def _rotated(items: list, by: int) -> list:
    by %= len(items)
    return items[by:] + items[:by]


def one_round(out: Path, configs: list[SessionConfig], i: int) -> dict[str, float]:
    """Every leg once; wall seconds per leg.  The sweep legs take turns
    cell by cell, and round *i* rotates which leg goes first, so drift
    and ordering hit every leg alike."""
    walls = dict.fromkeys(SWEEP_LEGS, 0.0)
    walls["checkpoint_spent"] = 0.0
    for workload in WORKLOADS:
        for engine in ENGINES:
            for leg in _rotated(list(SWEEP_LEGS), i):
                gc.collect()  # the same collector state before every cell
                t0 = time.perf_counter()
                spent = SWEEP_LEGS[leg](workload, engine, out)
                walls[leg] += time.perf_counter() - t0
                walls["checkpoint_spent"] += spent or 0.0
    for kernel in _rotated(["fixed", "event"], i):
        walls[f"quiet_{kernel}"] = _quiet(kernel)
    for leg, run in _rotated([("sequential", _sequential), ("multiplexed", _multiplexed)], i):
        walls[leg] = run(configs)
    return walls


def main() -> int:
    configs = fleet_configs()
    rounds = []
    with tempfile.TemporaryDirectory(prefix="overheads-") as tmp:
        # One discarded warm-up: the first cells otherwise pay the
        # interpreter's and numpy's one-time costs, and the first
        # multiplexed fleet grows the allocator's high-water mark.
        for workload in WORKLOADS:
            for engine in ENGINES:
                _plain(workload, engine, Path(tmp))
        _multiplexed(configs)
        for i in range(ROUNDS):
            rounds.append(one_round(Path(tmp), configs, i))
            print(f"round {i + 1}/{ROUNDS}: " + ", ".join(
                f"{leg} {wall:.2f}s" for leg, wall in rounds[-1].items()
            ), file=sys.stderr)

    failed = 0
    print(f"{'gate':<54} {'median':>8} {'bound':>8}  verdict")
    for name, value_of, bound, below in GATES:
        value = statistics.median(value_of(r) for r in rounds)
        ok = value < bound if below else value >= bound
        failed += not ok
        relation = "<" if below else ">="
        print(
            f"{name:<54} {value:>8.2f} {relation:>3}{bound:>5.1f}  "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
