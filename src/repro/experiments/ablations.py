"""Design-choice ablations (DESIGN.md §4).

Not paper figures, but experiments that justify the design decisions
the paper discusses:

- ``final_update_modes`` — Section 3.3.4: deferred-expand final update
  (with shrink notifications + PFN cache) vs the alternative full
  re-walk; the re-walk needs no shrink notifications but takes far
  longer while the applications are paused.
- ``no_enforced_gc`` — Section 4.3: what breaks if the agent reports
  suspension-readiness without the enforced GC: the live survivor data
  in the Young generation is silently lost at the destination.
- ``baseline_comparison`` — Section 2: JAVMM vs throttling, compression,
  free-page skipping and stop-and-copy on the derby workload.
- ``policy_decisions`` — Section 6: the advisor chooses plain pre-copy
  exactly for the scimark-like profiles.
- ``straggler_timeout`` — Section 6: a non-cooperative application
  cannot stall migration when LKM timeouts are enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.builders import build_java_vm, make_migrator
from repro.core.policy import choose_engine
from repro.experiments.common import ascii_table, run_migration
from repro.guest.participant import Participant
from repro.mem.address import VARange
from repro.net.link import Link
from repro.sim.engine import make_engine
from repro.units import GIB, MiB
from repro.workloads.spec import REGISTRY


# -- final update modes ---------------------------------------------------------------------


@dataclass(frozen=True)
class FinalUpdateResult:
    mode: str
    final_update_s: float
    completion_s: float
    verified: bool


def final_update_modes(seed: int = 20150421) -> list[FinalUpdateResult]:
    """Deferred-expand reconciliation vs full re-walk final update."""
    out = []
    for mode, full_rewalk in (("deferred-expand", False), ("full-rewalk", True)):
        result = run_migration(
            "derby",
            "javmm",
            seed=seed,
            vm_kwargs={"lkm_full_rewalk": full_rewalk},
        )
        out.append(
            FinalUpdateResult(
                mode=mode,
                final_update_s=result.report.downtime.final_update_s,
                completion_s=result.report.completion_time_s,
                verified=bool(result.report.verified),
            )
        )
    return out


# -- the enforced GC matters ------------------------------------------------------------------


class UnsafeNoGcAgent(Participant):
    """A (wrong) agent that skips the enforced GC before suspension.

    It reports the Young generation as skip-over but claims readiness
    immediately, without collecting and without declaring the live data
    as leaving.  Migration "succeeds", but the live Young-generation
    data is stale at the destination — which is exactly why JAVMM
    enforces the GC and transfers the occupied From space.
    """

    label = "unsafe agent"

    def __init__(self, jvm, lkm) -> None:
        self.jvm = jvm
        super().__init__(jvm.process, lkm)

    def skip_areas(self):
        return (self.jvm.heap.young_committed_range(),)

    def quiesce(self) -> None:
        self.ready()

    def release(self, resumed: bool) -> None:
        pass  # no safepoint was held


@dataclass(frozen=True)
class NoGcResult:
    live_young_pages: int
    stale_pages_at_destination: int
    data_loss: bool


def no_enforced_gc(seed: int = 20150421) -> NoGcResult:
    """Show that skipping the enforced GC silently loses live data."""
    engine = make_engine()
    vm = build_java_vm(workload="derby", seed=seed, with_agent=False)
    UnsafeNoGcAgent(vm.jvm, vm.lkm)  # in place of the real TI agent
    vm.register(engine)
    migrator = make_migrator("javmm", vm, Link())
    engine.add(migrator)
    vm.jvm.migration_load = migrator.load_fraction

    engine.run_until(15.0)
    migrator.start(engine.now)

    stale = {}

    def check_at_resume(orig=migrator._verify):
        orig()
        # Live data at pause: occupied Eden + From spans.
        heap = vm.heap
        live_ranges = []
        eden = heap.layout.eden
        if heap.eden_used:
            live_ranges.append(VARange(eden.start, eden.start + heap.eden_used))
        if heap.from_used:
            live_ranges.append(heap.occupied_from_range())
        pfns = np.concatenate(
            [vm.process.write_pfns_of(r) for r in live_ranges]
        ) if live_ranges else np.empty(0, dtype=np.int64)
        src = vm.domain.pages.read(pfns)
        dst = migrator.dest_domain.pages.read(pfns)
        stale["live"] = int(pfns.size)
        stale["stale"] = int((src != dst).sum())

    migrator._verify = check_at_resume
    engine.run_while(lambda: not migrator.done, timeout=600)
    return NoGcResult(
        live_young_pages=stale["live"],
        stale_pages_at_destination=stale["stale"],
        data_loss=stale["stale"] > 0,
    )


# -- related-work baselines ---------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineRow:
    engine: str
    completion_s: float
    traffic_gb: float
    app_downtime_s: float
    cpu_s: float
    throughput_drop_pct: float
    verified: bool


BASELINE_ENGINES = (
    "xen",
    "javmm",
    "javmm+compress",
    "throttle",
    "compress",
    "freepage",
    "stopcopy",
    "postcopy",
    "alb",
)


def baseline_comparison(
    workload: str = "derby", seed: int = 20150421
) -> list[BaselineRow]:
    rows = []
    for engine in BASELINE_ENGINES:
        result = run_migration(workload, engine, seed=seed)
        during = [
            s.ops_per_s
            for s in result.throughput
            if result.report.started_s <= s.time_s <= result.report.finished_s
        ]
        during_mean = sum(during) / len(during) if during else 0.0
        drop = (
            100.0 * (1.0 - during_mean / result.mean_throughput_before)
            if result.mean_throughput_before
            else 0.0
        )
        rows.append(
            BaselineRow(
                engine=engine,
                completion_s=result.report.completion_time_s,
                traffic_gb=result.report.total_wire_bytes / GIB,
                app_downtime_s=result.report.downtime.app_downtime_s,
                cpu_s=result.report.cpu_seconds,
                throughput_drop_pct=drop,
                verified=bool(result.report.verified),
            )
        )
    return rows


# -- policy advisor ----------------------------------------------------------------------------


def policy_decisions(max_young_mb: int = 1024) -> list[tuple[str, str, str]]:
    out = []
    for name, spec in sorted(REGISTRY.items()):
        decision = choose_engine(spec, MiB(max_young_mb))
        out.append((name, decision.engine, decision.reason))
    return out


# -- straggler timeout --------------------------------------------------------------------------


@dataclass(frozen=True)
class StragglerResult:
    completed: bool
    verified: bool
    timed_out_apps: int
    completion_s: float


def straggler_timeout(timeout_s: float = 0.5, seed: int = 20150421) -> StragglerResult:
    """A subscribed app that never replies must not stall migration."""
    engine = make_engine()
    vm = build_java_vm(
        workload="derby", seed=seed, lkm_reply_timeout_s=timeout_s
    )
    # The non-cooperative app: subscribes, registers memory, stays mute.
    mute = vm.kernel.spawn("mute-app")
    mute_area = mute.mmap(MiB(32))
    mute.write_range(mute_area.start, mute_area.end)
    vm.kernel.netlink.subscribe(mute.pid, lambda message: None)
    vm.lkm.register_app(mute.pid, mute)
    vm.register(engine)
    migrator = make_migrator("javmm", vm, Link())
    engine.add(migrator)
    vm.jvm.migration_load = migrator.load_fraction
    engine.run_until(15.0)
    migrator.start(engine.now)
    engine.run_while(lambda: not migrator.done, timeout=600)
    return StragglerResult(
        completed=migrator.done,
        verified=bool(migrator.report.verified),
        timed_out_apps=vm.lkm.stats.timed_out_apps,
        completion_s=migrator.report.completion_time_s,
    )


def main(seed: int = 20150421) -> None:
    print("Ablation 1: final transfer bitmap update modes")
    modes = final_update_modes(seed=seed)
    print(
        ascii_table(
            ["mode", "final update (s)", "completion (s)", "verified"],
            [
                [m.mode, f"{m.final_update_s * 1e3:.3f} ms", f"{m.completion_s:.1f}", str(m.verified)]
                for m in modes
            ],
        )
    )
    print()
    print("Ablation 2: skipping the enforced GC loses live data")
    nogc = no_enforced_gc(seed=seed)
    print(
        f"  live Young pages at pause: {nogc.live_young_pages}, "
        f"stale at destination: {nogc.stale_pages_at_destination} "
        f"=> data loss: {nogc.data_loss}"
    )
    print()
    print("Ablation 3: related-work baselines (derby)")
    rows = baseline_comparison(seed=seed)
    print(
        ascii_table(
            ["engine", "time (s)", "traffic (GiB)", "downtime (s)", "CPU (s)", "drop", "verified"],
            [
                [
                    r.engine,
                    f"{r.completion_s:.1f}",
                    f"{r.traffic_gb:.2f}",
                    f"{r.app_downtime_s:.2f}",
                    f"{r.cpu_s:.1f}",
                    f"{r.throughput_drop_pct:.0f}%",
                    str(r.verified),
                ]
                for r in rows
            ],
        )
    )
    print()
    print("Ablation 4: policy advisor decisions")
    for name, engine, reason in policy_decisions():
        print(f"  {name:9s} -> {engine:5s} ({reason})")
    print()
    print("Ablation 5: straggler timeout")
    s = straggler_timeout(seed=seed)
    print(
        f"  completed={s.completed} verified={s.verified} "
        f"timed_out_apps={s.timed_out_apps} completion={s.completion_s:.1f}s"
    )


if __name__ == "__main__":
    main()
