"""End-to-end migration experiments (the Section 5 methodology).

An experiment warms a Java VM up (the paper runs each workload for five
minutes before migrating; the builder seeds the observed Old generation
so a short warm-up reaches the same state), starts the chosen migration
engine, runs until it completes, cools down, and returns everything the
evaluation plots need.

The drive loop lives in :class:`ExperimentRun`, an explicit phase
machine (warmup → choose → migrate → cooldown → done) whose every
deadline is an *absolute* simulated instant stored on the object — so
the whole run, engine graph included, can be checkpointed between
engine advances and resumed in another process exactly where it died
(see :mod:`repro.checkpoint`).  ``MigrationExperiment.run()`` simply
drives an :class:`ExperimentRun` with no checkpointer, which makes the
uncheckpointed path the same code as the crash-safe one.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass, field

from repro.core.builders import JavaVM, build_java_vm, make_migrator
from repro.errors import MigrationError
from repro.jvm.gc_model import MinorGcStats
from repro.migration.precopy import PrecopyMigrator
from repro.migration.report import MigrationReport
from repro.net.link import Link
from repro.sim.engine import Engine, make_engine
from repro.units import GiB
from repro.workloads.analyzer import ThroughputSample


@dataclass
class ExperimentResult:
    """Everything measured around one migration."""

    workload: str
    engine: str
    report: MigrationReport
    throughput: list[ThroughputSample]
    gc_log: list[MinorGcStats]
    young_committed_at_migration: int
    old_used_at_migration: int
    observed_app_downtime_s: float
    mean_throughput_before: float
    mean_throughput_after: float
    #: set when engine="auto": the live policy decision that was taken
    policy_decision: object | None = None
    #: the guest's shared event log (daemon + LKM + JVM narratives)
    event_log: object | None = None
    #: the guest's telemetry probe (NULL_PROBE unless telemetry=True)
    probe: object | None = None

    @property
    def ok(self) -> bool:
        """The migration completed rather than aborting."""
        return not self.report.aborted

    def summary(self) -> str:
        """The live policy decision of an ``engine="auto"`` run, or ""
        (the report renders its own summary)."""
        if self.policy_decision is None:
            return ""
        return f"policy: chose {self.engine} — {self.policy_decision.reason}"

    @property
    def throughput_drop_fraction(self) -> float:
        """Relative post- vs pre-migration steady-state throughput drop."""
        if self.mean_throughput_before <= 0:
            return 0.0
        return 1.0 - self.mean_throughput_after / self.mean_throughput_before


@dataclass
class MigrationExperiment:
    """One workload, one engine, one migration."""

    workload: "str | object" = "derby"  # name or a WorkloadSpec
    engine: str = "javmm"
    mem_bytes: int = GiB(2)
    max_young_bytes: int = GiB(1)
    link: Link | None = None
    warmup_s: float = 20.0
    cooldown_s: float = 10.0
    dt: float = 0.005
    #: simulation kernel ("fixed"/"event"); None defers to REPRO_SIM_KERNEL
    kernel: str | None = None
    seed: int = 20150421
    migration_timeout_s: float = 600.0
    vm_kwargs: dict = field(default_factory=dict)
    migrator_kwargs: dict = field(default_factory=dict)
    #: build the guest with a live telemetry probe (spans + metrics)
    telemetry: bool = False

    def build(self) -> tuple[Engine, JavaVM, PrecopyMigrator | None]:
        """Assemble the simulation without running it (for tests).

        With ``engine="auto"`` the migrator is deferred: the Section-6
        policy picks it from the live heap profile after warm-up.
        """
        engine = make_engine(self.dt, kernel=self.kernel)
        vm = build_java_vm(
            workload=self.workload,
            mem_bytes=self.mem_bytes,
            max_young_bytes=self.max_young_bytes,
            seed=self.seed,
            telemetry=self.telemetry,
            **self.vm_kwargs,
        )
        vm.register(engine)
        self._link = self.link if self.link is not None else Link()
        if self.engine == "auto":
            return engine, vm, None
        migrator = make_migrator(self.engine, vm, self._link, **self.migrator_kwargs)
        engine.add(migrator)
        vm.jvm.migration_load = migrator.load_fraction
        return engine, vm, migrator

    def config_fingerprint(self) -> dict:
        """The scalar config a checkpoint manifest hashes: two
        experiments with equal fingerprints are interchangeable resume
        sources."""
        return {
            "driver": "MigrationExperiment",
            "workload": (
                self.workload
                if isinstance(self.workload, str)
                else self.workload.name
            ),
            "engine": self.engine,
            "mem_bytes": self.mem_bytes,
            "max_young_bytes": self.max_young_bytes,
            "warmup_s": self.warmup_s,
            "cooldown_s": self.cooldown_s,
            "dt": self.dt,
            "seed": self.seed,
            "migration_timeout_s": self.migration_timeout_s,
            "vm_kwargs": {k: str(v) for k, v in sorted(self.vm_kwargs.items())},
            "migrator_kwargs": {
                k: str(v) for k, v in sorted(self.migrator_kwargs.items())
            },
        }

    def run(self, checkpointer=None) -> ExperimentResult:
        return ExperimentRun(self).run(checkpointer)


class ExperimentRun:
    """The resumable phase machine behind ``MigrationExperiment.run``.

    All mutable drive state — the current phase, every deadline (as an
    absolute simulated instant), the captured mid-run measurements —
    lives on this object, and the object is the checkpoint's pickle
    root, so a restored run continues mid-phase with nothing recomputed.
    """

    def __init__(self, experiment: MigrationExperiment) -> None:
        self.experiment = experiment
        engine, vm, migrator = experiment.build()
        self.engine = engine
        self.vm = vm
        self.migrator = migrator
        self.link = experiment._link
        self.phase = "warmup"
        self.decision = None
        self.young_at_migration: int | None = None
        self.old_at_migration: int | None = None
        self.migration_start: float | None = None
        self.migration_end: float | None = None
        #: absolute deadline of the migrate phase (run_while semantics)
        self._migrate_deadline: float | None = None
        self.result: ExperimentResult | None = None

    # -- checkpoint hooks ---------------------------------------------------------------

    @property
    def probe(self):
        return self.vm.probe

    def checkpoint_arrays(self) -> dict:
        """Inspectable numpy mirror: the source page versions."""
        domain = self.vm.domain
        return {"page_versions": domain.read_pages(np.arange(domain.n_pages))}

    def checkpoint_extra(self) -> dict:
        return {
            "driver": "experiment",
            "phase": self.phase,
            "engine": (
                self.decision.engine
                if self.decision is not None
                else self.experiment.engine
            ),
        }

    # -- the phase machine --------------------------------------------------------------

    def run(self, checkpointer=None) -> ExperimentResult:
        if checkpointer is not None and checkpointer.written == 0:
            checkpointer.arm(self)
        while self.phase != "done":
            self._step_phase(None, checkpointer)
        return self.result

    @property
    def done(self) -> bool:
        return self.phase == "done"

    @property
    def live_migrator(self):
        """The migrator while the migrate phase runs, else None."""
        return self.migrator if self.phase == "migrate" else None

    #: a plain run is a single attempt
    attempt = 1

    def step(self, limit: float, checkpointer=None) -> bool:
        """Advance the run up to the absolute simulated instant *limit*.

        The cooperative-scheduling form of :meth:`run`: a session
        scheduler (see :mod:`repro.service`) calls this repeatedly with
        a rising *limit*, interleaving many runs on one thread.  Each
        slice executes the same advance chunking as :meth:`run` — only
        tightened at the slice boundary — so a sliced run's simulated
        measures are bit-identical to an unsliced one's.  Returns True
        once the run is done (``self.result`` is set).
        """
        if checkpointer is not None and checkpointer.written == 0:
            checkpointer.arm(self)
        while self.phase != "done" and self.engine.now < limit:
            self._step_phase(limit, checkpointer)
        return self.phase == "done"

    def _step_phase(self, limit: float | None, checkpointer) -> None:
        """Execute one bounded slice of the current phase.

        Phase *transitions* happen only when the phase's own target is
        reached; hitting *limit* first returns with the phase (and its
        absolute deadlines) untouched, to be continued next slice.
        """
        from repro.checkpoint.runner import advance_to, advance_while

        exp = self.experiment
        if self.phase == "warmup":
            advance_to(self, exp.warmup_s, checkpointer, limit=limit)
            if self.engine.now >= exp.warmup_s:
                self.phase = "choose"
        elif self.phase == "choose":
            if self.migrator is None:
                from repro.core.auto import choose_engine_live

                self.decision = choose_engine_live(
                    self.vm, exp.warmup_s, link=self.link
                )
                self.migrator = make_migrator(
                    self.decision.engine, self.vm, self.link,
                    **exp.migrator_kwargs,
                )
                self.engine.add(self.migrator)
                self.vm.jvm.migration_load = self.migrator.load_fraction
            self.young_at_migration = self.vm.heap.young_committed
            self.old_at_migration = self.vm.heap.old_used
            self.migration_start = self.engine.now
            self._migrate_deadline = self.engine.now + exp.migration_timeout_s
            self.migrator.start(self.engine.now)
            self.phase = "migrate"
        elif self.phase == "migrate":
            migrator = self.migrator
            advance_while(
                self,
                lambda: not migrator.done,
                self._migrate_deadline,
                exp.migration_timeout_s,
                checkpointer,
                limit=limit,
            )
            if not migrator.done:
                if limit is not None and self.engine.now >= limit:
                    return  # slice boundary; keep migrating next slice
                raise MigrationError(
                    "migration did not finish within the timeout"
                )
            self.migration_end = self.engine.now
            self.phase = "cooldown"
        elif self.phase == "cooldown":
            target = self.migration_end + exp.cooldown_s
            advance_to(self, target, checkpointer, limit=limit)
            if self.engine.now >= target:
                self.result = self._finish()
                self.phase = "done"

    def _finish(self) -> ExperimentResult:
        exp = self.experiment
        vm = self.vm
        analyzer = vm.analyzer
        before = analyzer.mean_throughput(
            start_s=max(0.0, self.migration_start - 15.0),
            end_s=self.migration_start,
        )
        settle = min(2.0, exp.cooldown_s / 2.0)
        after = analyzer.mean_throughput(start_s=self.migration_end + settle)
        observed_downtime = analyzer.max_zero_run_seconds(
            start_s=self.migration_start
        )
        workload_name = (
            exp.workload if isinstance(exp.workload, str) else exp.workload.name
        )
        if vm.probe.enabled:
            vm.probe.finish(self.engine.now)
        return ExperimentResult(
            workload=workload_name,
            engine=self.decision.engine if self.decision is not None else exp.engine,
            report=self.migrator.report,
            throughput=list(analyzer.samples),
            gc_log=list(vm.heap.counters.minor_log),
            young_committed_at_migration=self.young_at_migration,
            old_used_at_migration=self.old_at_migration,
            observed_app_downtime_s=observed_downtime,
            mean_throughput_before=before,
            mean_throughput_after=after,
            policy_decision=self.decision,
            event_log=vm.event_log,
            probe=vm.probe,
        )
