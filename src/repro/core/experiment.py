"""End-to-end migration experiments (the Section 5 methodology).

An experiment warms a Java VM up (the paper runs each workload for five
minutes before migrating; the builder seeds the observed Old generation
so a short warm-up reaches the same state), starts the chosen migration
engine, runs until it completes, cools down, and returns everything the
evaluation plots need.

The drive loop lives in :class:`ExperimentRun`, the one run driver: an
explicit phase machine (warmup → choose → migrate → cooldown → done)
whose every deadline is an *absolute* simulated instant stored on the
object — so the whole run, engine graph included, can be checkpointed
between engine advances and resumed in another process exactly where
it died (see :mod:`repro.checkpoint`).  The migrate phase always steps
a :class:`~repro.core.supervisor.MigrationSupervisor`: a supervised run
(``supervision=``) retries, backs off, degrades and rescues; a plain run
is its degenerate case, one attempt with no recovery.
``MigrationExperiment.run()`` simply drives an :class:`ExperimentRun`
with no checkpointer, which makes the uncheckpointed path the same code
as the crash-safe one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checkpoint.runner import advance_to
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


#: a plain run's supervision: one attempt, no rescue ladder or
#: convergence monitor, no watchdogs, and ``migration_timeout_s`` as the
#: unscaled attempt budget
ONE_ATTEMPT = dict(
    max_attempts=1, rescue=False, analysis=False, stall_timeout_s=None,
    phase_timeouts={}, scale_timeouts=False,
)


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
    #: the attempt budget (a supervisor may override it)
    migration_timeout_s: float = 600.0
    vm_kwargs: dict = field(default_factory=dict)
    migrator_kwargs: dict = field(default_factory=dict)
    #: build the guest with a live telemetry probe (spans + metrics)
    telemetry: bool = False
    #: :class:`~repro.core.supervisor.MigrationSupervisor` arguments
    #: (retry, backoff, degrade, rescue) for a supervised run; None
    #: runs one plain attempt
    supervision: dict | None = None
    #: a :class:`~repro.faults.FaultPlan` armed when the migration starts
    plan: object | None = None

    @property
    def supervised(self) -> bool:
        return self.supervision is not None

    def assemble(self) -> tuple[Engine, JavaVM, Link]:
        """The engine, the registered guest and the link: the
        simulation before any migrator exists."""
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
        return engine, vm, self.link if self.link is not None else Link()

    def build(self) -> tuple[Engine, JavaVM, PrecopyMigrator | None]:
        """Assemble the simulation with an unstarted migrator, without
        running it (for tests).

        With ``engine="auto"`` the migrator is deferred: the Section-6
        policy picks it from the live heap profile after warm-up.
        """
        engine, vm, link = self.assemble()
        if self.engine == "auto":
            return engine, vm, None
        migrator = make_migrator(self.engine, vm, link, **self.migrator_kwargs)
        engine.add(migrator)
        vm.jvm.migration_load = migrator.load_fraction
        return engine, vm, migrator

    def run(self, checkpointer=None) -> ExperimentResult:
        return ExperimentRun(self).run(checkpointer)


class ExperimentRun:
    """The resumable phase machine behind ``MigrationExperiment.run``,
    for plain and supervised runs alike.

    All mutable drive state — the current phase, every deadline (as an
    absolute simulated instant), the captured mid-run measurements, the
    supervisor — lives on this object, and the object is the
    checkpoint's pickle root, so a restored run continues mid-phase
    with nothing recomputed.  :attr:`result` is an
    :class:`ExperimentResult` for a plain run and the
    :class:`~repro.core.supervisor.SupervisionResult` for a supervised
    one.  Entering ``done`` unwires the guest (:meth:`JavaVM.unwire`),
    so a finished run is freed as soon as its owner drops it.
    """

    def __init__(self, experiment: MigrationExperiment) -> None:
        self.experiment = experiment
        self.engine, self.vm, self.link = experiment.assemble()
        self.phase = "warmup"
        self.decision = None
        self.supervisor = None
        self.young_at_migration: int | None = None
        self.old_at_migration: int | None = None
        self.migration_start: float | None = None
        self.migration_end: float | None = None
        self.result = None

    @property
    def engine_name(self) -> str:
        """The engine migrated with: the policy's pick under "auto"."""
        if self.decision is not None:
            return self.decision.engine
        return self.experiment.engine

    # -- checkpoint hooks ---------------------------------------------------------------

    @property
    def probe(self):
        return self.vm.probe

    def checkpoint_arrays(self) -> dict:
        """Inspectable numpy mirror: the source page versions."""
        domain = self.vm.domain
        return {"page_versions": domain.read_pages(np.arange(domain.n_pages))}

    def checkpoint_extra(self) -> dict:
        sup = self.supervisor
        extra = {
            "driver": "supervisor" if self.experiment.supervised else "experiment",
            "phase": self.phase,
            "engine": self.engine_name if sup is None else sup._current,
            "attempt": self.attempt,
        }
        if sup is not None and sup.injector is not None:
            extra["faults_fired"] = len(sup.injector.injected)
        return extra

    # -- the phase machine --------------------------------------------------------------

    def run(self, checkpointer=None):
        self.step(checkpointer)
        return self.result

    @property
    def live_migrator(self):
        """The current attempt's migrator, or None outside one."""
        return None if self.supervisor is None else self.supervisor._migrator

    @property
    def attempt(self) -> int:
        return 1 if self.supervisor is None else self.supervisor._attempt

    def step(self, checkpointer=None) -> bool:
        """Advance the run to the end of the engine's current slice.

        The cooperative-scheduling form of :meth:`run`: a session
        scheduler (see :mod:`repro.service`) calls this inside one
        :meth:`Engine.slice` after another, interleaving many runs on
        one thread; outside a slice it runs to the end.  Each slice
        executes the same advance chunking as :meth:`run` — only
        tightened at the slice's end — so a sliced run's simulated
        measures are bit-identical to an unsliced one's.  A fresh
        *checkpointer* is armed with a baseline checkpoint first.
        Returns True once the run is done (``self.result`` is set).
        """
        if checkpointer is not None and checkpointer.written == 0:
            checkpointer.arm(self)
        engine = self.engine
        while self.phase != "done" and engine.now < engine.slice_end:
            self._step_phase(checkpointer)
        return self.phase == "done"

    def _step_phase(self, checkpointer) -> None:
        """Execute one bounded slice of the current phase.

        Phase *transitions* happen only when the phase's own target is
        reached; reaching the slice's end first returns with the phase
        (and its absolute deadlines) untouched, to be continued next
        slice.
        """
        exp = self.experiment
        if self.phase == "warmup":
            advance_to(self, exp.warmup_s, checkpointer)
            if self.engine.now >= exp.warmup_s:
                self.phase = "choose"
        elif self.phase == "choose":
            self._launch()
            self.phase = "migrate"
        elif self.phase == "migrate":
            if not self.supervisor.step(checkpointer, self):
                return  # slice boundary; keep migrating next slice
            last = self.supervisor.result.attempts[-1]
            if not exp.supervised and last.reason == "supervision timeout":
                raise MigrationError("migration did not finish within the timeout")
            self.migration_end = self.engine.now
            self.phase = "cooldown"
        elif self.phase == "cooldown":
            target = self.migration_end + exp.cooldown_s
            advance_to(self, target, checkpointer)
            if self.engine.now >= target:
                self.result = self._finish()
                self.phase = "done"
                self.vm.unwire()

    def _launch(self) -> None:
        """Warm-up is over: pick the engine (``engine="auto"``), arm the
        link driver and the fault plan, and build the supervisor."""
        from repro.core.supervisor import MigrationSupervisor

        exp = self.experiment
        sim, vm, link = self.engine, self.vm, self.link
        if exp.engine == "auto":
            from repro.core.auto import choose_engine_live

            self.decision = choose_engine_live(vm, exp.warmup_s, link=link)
        if hasattr(link, "install"):
            # A WanLink brings its own driver actor (burst loss,
            # weather); armed here so weather offsets count from the
            # migration's start, exactly like a fault plan's.
            link.install(sim)
        injector = None
        if exp.plan is not None:
            from repro.faults import FaultInjector

            injector = FaultInjector(
                exp.plan, link=link, lkm=vm.lkm, agent=vm.agent,
                netlink=vm.kernel.netlink,
            )
            if vm.probe.enabled:
                injector.probe = vm.probe
            injector.arm(sim.now)
            sim.add(injector)
        self.young_at_migration = vm.heap.young_committed
        self.old_at_migration = vm.heap.old_used
        self.migration_start = sim.now
        self.supervisor = MigrationSupervisor(
            sim, vm, link, engine_name=self.engine_name, injector=injector,
            **{
                "attempt_timeout_s": exp.migration_timeout_s,
                "migrator_kwargs": exp.migrator_kwargs,
                **(exp.supervision if exp.supervised else ONE_ATTEMPT),
            },
        )

    def _finish(self):
        vm = self.vm
        if vm.probe.enabled:
            vm.probe.finish(self.engine.now)
        outcome = self.supervisor.result
        exp = self.experiment
        if exp.supervised:
            return outcome
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
        return ExperimentResult(
            workload=vm.workload.name,
            engine=self.engine_name,
            report=outcome.report,
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
