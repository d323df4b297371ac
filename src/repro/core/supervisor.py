"""Supervised migration: retry, back off, degrade.

A single migration attempt can die mid-flight — the link drops, the
in-guest agent stops answering, the destination host disappears.  The
watchdogs in :class:`~repro.migration.precopy.PrecopyMigrator` turn
those into a clean abort (source keeps running); this module turns the
abort into a *policy*:

- **retry** the migration with exponential backoff (the guest runs
  normally while the supervisor waits out a transient outage); on a
  WAN-grade link the backoff is optionally jittered and every watchdog
  deadline is rescaled by the link's measured RTT and goodput
  (:meth:`~repro.net.link.Link.watchdog_scale`), so LAN-tuned timeouts
  do not fire spuriously on a slow link;
- **rescue** a STALLED/DIVERGING migration before giving up assistance
  (the adaptive ladder, see :mod:`repro.core.rescue`): staged
  auto-converge guest throttling first, then wire compression, both
  mid-flight (:class:`~repro.core.rescue.RescueController`) and
  between attempts — engine degradation is the last rung, and a
  circuit breaker stops re-attempting across a link whose recent
  attempts all died in the same phase;
- **degrade** the engine when the assist path itself is implicated:
  ``javmm`` → ``assisted`` → ``xen``.  An abort during
  ``waiting-for-apps`` means the guest side stopped answering, so the
  next attempt drops one level of assistance immediately; repeated
  aborts on the same engine degrade too.  When a workload profile is
  available the Section-6 policy (:func:`~repro.core.policy.choose_engine`)
  is consulted on the way down — if it vetoes JAVMM anyway, the
  supervisor skips straight to plain pre-copy rather than burning an
  attempt on ``assisted``.

Every attempt builds a *fresh* daemon via
:func:`~repro.core.builders.make_migrator`; the LKM rollback performed
by the aborted attempt guarantees the guest protocol state machine is
back in INITIALIZED, so a new ``MigrationBegin`` is always legal.

Every run's migrate phase is a supervision: the run driver
(:class:`~repro.core.experiment.ExperimentRun`) steps a supervisor
with the experiment's arguments, or — for a plain run — the degenerate
one attempt with none of the above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.checkpoint.runner import Checkpointer, advance_to, advance_while
from repro.core.builders import JavaVM, make_migrator
from repro.core.experiment import ExperimentRun, MigrationExperiment
from repro.core.policy import choose_engine
from repro.core.rescue import (
    RESCUE_STATES,
    CircuitBreaker,
    RescueController,
    supports_wire_compression,
)
from repro.errors import ConfigurationError, MigrationAbortedError, SimulationError
from repro.guest.throttle import DEFAULT_THROTTLE_STAGES, GuestThrottle
from repro.migration.report import MigrationReport
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.sim.rng import SimRng
from repro.telemetry.analysis.convergence import (
    NO_DIAGNOSIS,
    ConvergenceMonitor,
    ConvergenceState,
)

#: Assistance levels, most to least assisted.  Degradation walks right.
DEGRADATION_CHAIN = ("javmm", "assisted", "xen")


@dataclass
class AttemptRecord:
    """One supervised migration attempt, successful or not."""

    attempt: int
    engine: str
    report: MigrationReport
    aborted: bool
    reason: str = ""
    waited_before_s: float = 0.0  # backoff slept before this attempt
    #: the ConvergenceMonitor's final verdict for this attempt
    diagnosis: str = ""


@dataclass
class SupervisionResult:
    """Outcome of a supervised migration."""

    ok: bool
    engine: str  # engine of the final attempt
    report: MigrationReport | None
    attempts: list[AttemptRecord] = field(default_factory=list)
    degradations: list[str] = field(default_factory=list)  # engines tried, in order
    migrator: object | None = None  # the final daemon (holds dest_domain)
    #: rescue-ladder decisions (throttle/compress), in order applied
    rescues: list[dict] = field(default_factory=list)
    #: the circuit breaker gave up on the link before max_attempts
    breaker_tripped: bool = False

    @property
    def n_attempts(self) -> int:
        return len(self.attempts)

    def summary(self) -> str:
        lines = [
            f"supervised migration: {'SUCCEEDED' if self.ok else 'FAILED'} "
            f"after {self.n_attempts} attempt(s) "
            f"(engines tried: {' -> '.join(self.degradations)})"
        ]
        if self.breaker_tripped:
            lines.append("  circuit breaker OPEN: link written off")
        for decision in self.rescues:
            detail = (
                f"stage {decision['stage']} (x{decision['factor']:.2f})"
                if decision["action"] == "throttle"
                else f"ratio {decision['ratio']:.2f}"
            )
            lines.append(
                f"  rescue at {decision['at_s']:.2f}s: "
                f"{decision['action']} {detail} [{decision['state']}]"
            )
        for rec in self.attempts:
            verdict = f"aborted ({rec.reason})" if rec.aborted else "completed"
            lines.append(
                f"  attempt {rec.attempt} [{rec.engine}]"
                f"{f' after {rec.waited_before_s:.2f}s backoff' if rec.waited_before_s else ''}: "
                f"{verdict}"
            )
            if rec.diagnosis:
                lines.append(f"    convergence: {rec.diagnosis}")
        return "\n".join(lines)


class MigrationSupervisor:
    """Retries a migration with backoff, degrading the engine as needed."""

    def __init__(
        self,
        engine: Engine,
        vm: JavaVM,
        link: Link,
        engine_name: str = "javmm",
        max_attempts: int = 4,
        backoff_s: float = 0.5,
        backoff_factor: float = 2.0,
        degrade_after: int = 2,
        stall_timeout_s: float | None = 2.0,
        phase_timeouts: "dict[str, float] | None" = None,
        attempt_timeout_s: float = 600.0,
        injector: object | None = None,
        consult_policy: bool = True,
        analysis: bool = True,
        rescue: bool = True,
        throttle_stages: tuple = DEFAULT_THROTTLE_STAGES,
        rescue_compression_ratio: float | None = 0.45,
        rescue_patience: int = 2,
        backoff_jitter: float = 0.0,
        breaker_after: int | None = None,
        scale_timeouts: bool = True,
        seed: int = 20150421,
        migrator_kwargs: dict | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError("supervisor needs max_attempts >= 1")
        if degrade_after < 1:
            raise ConfigurationError("supervisor needs degrade_after >= 1")
        if backoff_jitter < 0:
            raise ConfigurationError("backoff jitter must be >= 0")
        self.engine = engine
        self.vm = vm
        self.link = link
        self.engine_name = engine_name
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.backoff_factor = backoff_factor
        #: consecutive aborts on one engine before dropping a level
        self.degrade_after = degrade_after
        self.stall_timeout_s = stall_timeout_s
        self.phase_timeouts = (
            dict(phase_timeouts)
            if phase_timeouts is not None
            else {"waiting-for-apps": 2.0}
        )
        self.attempt_timeout_s = attempt_timeout_s
        #: optional FaultInjector to re-bind to each attempt's daemon
        self.injector = injector
        self.consult_policy = consult_policy
        #: attach a ConvergenceMonitor to every attempt (the online half
        #: of the analysis pipeline); off only for overhead measurement
        self.analysis = analysis
        #: the adaptive rescue ladder (throttle -> compress -> degrade)
        self.rescue = rescue
        self.rescue_compression_ratio = rescue_compression_ratio
        self.rescue_patience = rescue_patience
        #: multiplicative backoff jitter: each wait is stretched by a
        #: uniform factor in [1, 1 + jitter] drawn from a named SimRng
        #: substream (0 keeps the exact exponential schedule)
        self.backoff_jitter = backoff_jitter
        #: stretch watchdogs/backoffs by the link's RTT/goodput scale
        self.scale_timeouts = scale_timeouts
        self._throttle = (
            GuestThrottle(vm.jvm, throttle_stages) if rescue else None
        )
        self._breaker = CircuitBreaker(breaker_after)
        self._rng = SimRng(seed)
        self.migrator_kwargs = dict(migrator_kwargs or {})
        # -- resumable drive state (see :meth:`run`) -----------------------------
        # Every field below is an absolute value (attempt counters, sim
        # instants), never a relative one, so a checkpoint taken
        # mid-backoff or mid-attempt restores the exact remaining
        # budget.  ``None`` state means the loop has not started.
        self._state: str | None = None
        self._result: SupervisionResult | None = None
        self._current: str = engine_name
        self._consecutive = 0
        self._wait = 0.0
        self._attempt = 1
        self._backoff_until: float | None = None
        self._attempt_deadline: float | None = None
        self._migrator: object | None = None
        self._monitor: ConvergenceMonitor | None = None
        self._record: AttemptRecord | None = None
        self._span_backoff: object | None = None
        self._span_attempt: object | None = None
        self._rescuer: RescueController | None = None
        #: once compression is enabled it stays on for later attempts
        self._rescue_compression = False
        self._attempt_budget_s = attempt_timeout_s

    # -- engine degradation ------------------------------------------------------------

    def _next_engine(self, current: str) -> str:
        """One level less assistance, with the Section-6 policy veto."""
        if current not in DEGRADATION_CHAIN:
            return current  # no defined fallback: keep retrying as-is
        index = DEGRADATION_CHAIN.index(current)
        if index + 1 >= len(DEGRADATION_CHAIN):
            return current
        candidate = DEGRADATION_CHAIN[index + 1]
        if candidate != "xen" and self.consult_policy:
            decision = choose_engine(
                self.vm.workload, self.vm.jvm.heap.max_young_bytes, self.link
            )
            if decision.engine == "xen":
                return "xen"
        return candidate

    def _scaled_deadlines(self) -> tuple[float | None, dict, float]:
        """Watchdog/backoff deadlines rescaled to the link's shape.

        ``(stall, phase_timeouts, attempt_budget)`` — each deadline is
        stretched by the link's goodput scale plus an RTT-derived grace
        (:meth:`~repro.net.link.Link.watchdog_scale`).  A plain LAN
        link reports ``(1.0, 0.0)``, keeping deadlines untouched.
        Consulted at every launch, so weather that reshapes the link
        between attempts reshapes the next attempt's patience too.
        """
        stall = self.stall_timeout_s
        timeouts = dict(self.phase_timeouts)
        budget = self.attempt_timeout_s
        if self.scale_timeouts:
            scale, grace = self.link.watchdog_scale()
            if scale != 1.0 or grace != 0.0:
                if stall is not None:
                    stall = stall * scale + grace
                timeouts = {k: v * scale + grace for k, v in timeouts.items()}
                budget = budget * scale
        return stall, timeouts, budget

    @staticmethod
    def _should_degrade(record: AttemptRecord, consecutive_same_engine: int,
                        degrade_after: int) -> bool:
        # waiting-for-apps means the guest assist path went quiet: the
        # agent or LKM is hung/crashed, so less assistance, not more
        # patience, is the fix.
        if record.report.abort_phase == "waiting-for-apps":
            return True
        return consecutive_same_engine >= degrade_after

    # -- the loop ----------------------------------------------------------------------

    def _journal(self, checkpointer, kind: str, **fields) -> None:
        """Write-ahead note of a decision about to take effect."""
        if checkpointer is None:
            return
        if self.injector is not None:
            fields.setdefault("faults_fired", len(self.injector.injected))
        checkpointer.journal.append(kind, self.engine.now, **fields)

    def run(self, checkpointer=None) -> SupervisionResult:
        """Drive the retry/degrade state machine to completion.

        The machine — ``next`` → (``backoff`` →) ``launch`` →
        ``attempt`` → ``next`` … → ``done`` — keeps all its state on
        ``self``, so with a *checkpointer* the supervisor (engine graph
        included) is durably snapshotted between engine advances and a
        crashed run resumes mid-backoff or mid-attempt with its original
        deadlines.
        """
        self.step(checkpointer)
        return self._result

    @property
    def result(self) -> SupervisionResult | None:
        """The supervision outcome (set once :meth:`step` returns True)."""
        return self._result

    def step(self, checkpointer=None, controller=None) -> bool:
        """Advance supervision to the end of the engine's current slice
        — the cooperative-scheduling form of :meth:`run` (see
        :meth:`repro.core.experiment.ExperimentRun.step`).  Every
        engine advance is merely tightened at the slice's end, so a
        sliced supervision is bit-identical to an unsliced one.
        Every advance names *controller* as the checkpoint root: the
        :class:`~repro.core.experiment.ExperimentRun` owning the
        supervisor, or by default the supervisor itself.  It is passed
        per call, not kept, so the run and its supervisor form no
        reference cycle and a finished run is freed at once.
        Returns True once supervision is over (``self.result`` holds
        the outcome)."""
        if controller is None:
            controller = self
        if self._state is None:
            self._result = SupervisionResult(
                ok=False, engine=self.engine_name, report=None
            )
            self._result.degradations.append(self._current)
            self._state = "next"
        engine = self.engine
        while self._state != "done" and engine.now < engine.slice_end:
            self._step_state(checkpointer, controller)
        if self._state == "done":
            if self._throttle is not None and self._throttle.engaged:
                # Supervision is over either way; leave the guest at its
                # baseline speed (at the destination on success, still
                # at the source after exhaustion).
                self._throttle.release()
            return True
        return False

    def _step_state(self, checkpointer, controller) -> None:
        """Execute one bounded slice of the current state."""
        probe = self.vm.probe
        if self._state == "next":
            if self._attempt > self.max_attempts:
                self._state = "done"
            elif self._wait > 0.0:
                # Back off: the guest keeps running at the source
                # while the (possibly transient) failure clears.
                self._backoff_until = self.engine.now + self._wait
                self._span_backoff = probe.begin(
                    "backoff", self.engine.now, track="supervisor",
                    cat="supervisor", attempt=self._attempt, wait_s=self._wait,
                )
                self._journal(
                    checkpointer, "backoff",
                    attempt=self._attempt, until_s=self._backoff_until,
                )
                self._state = "backoff"
            else:
                self._state = "launch"
        elif self._state == "backoff":
            advance_to(controller, self._backoff_until, checkpointer)
            if self.engine.now < self._backoff_until:
                return  # slice boundary mid-backoff
            probe.end(self._span_backoff, self.engine.now)
            self._span_backoff = None
            self._backoff_until = None
            self._state = "launch"
        elif self._state == "launch":
            stall, timeouts, budget = self._scaled_deadlines()
            # Only the watchdogs that are set reach the daemon: engines
            # without watchdogs (post-copy) take no such arguments.
            watchdogs = {}
            if stall is not None:
                watchdogs["stall_timeout_s"] = stall
            if timeouts:
                watchdogs["phase_timeouts"] = timeouts
            migrator = make_migrator(
                self._current, self.vm, self.link,
                **watchdogs, **self.migrator_kwargs,
            )
            migrator.report.attempt = self._attempt
            if self._rescue_compression and supports_wire_compression(migrator):
                migrator.wire_compression = self.rescue_compression_ratio
            self._monitor = ConvergenceMonitor() if self.analysis else None
            migrator.monitor = self._monitor
            self.engine.add(migrator)
            if self.rescue and self._monitor is not None:
                self._rescuer = RescueController(
                    migrator,
                    self._monitor,
                    throttle=self._throttle,
                    compression_ratio=self.rescue_compression_ratio,
                    patience=self.rescue_patience,
                )
                self._rescuer.probe = probe
                self.engine.add(self._rescuer)
            self.vm.jvm.migration_load = migrator.load_fraction
            if self.injector is not None:
                self.injector.bind_migrator(migrator)
            self._span_attempt = probe.begin(
                "attempt", self.engine.now, track="supervisor",
                cat="supervisor", attempt=self._attempt, engine=self._current,
            )
            self._attempt_budget_s = budget
            self._attempt_deadline = self.engine.now + budget
            self._journal(
                checkpointer, "attempt-started",
                attempt=self._attempt, engine=self._current,
                deadline_s=self._attempt_deadline,
            )
            migrator.start(self.engine.now)
            self._migrator = migrator
            self._record = AttemptRecord(
                attempt=self._attempt,
                engine=self._current,
                report=migrator.report,
                aborted=False,
                waited_before_s=self._wait,
            )
            self._state = "attempt"
        elif self._state == "attempt":
            self._run_attempt(checkpointer, controller)

    def _attempt_rescue(self, checkpointer, record: AttemptRecord,
                        diagnosis) -> bool:
        """Between-attempts half of the ladder: throttle, then compress.

        Returns True when a rung was climbed, which defers engine
        degradation to a later abort.  A ``waiting-for-apps`` abort
        means the guest assist path went quiet — reshaping the guest
        cannot fix that, so the immediate-degrade rule keeps priority.
        """
        if not self.rescue:
            return False
        if record.report.abort_phase == "waiting-for-apps":
            return False
        if diagnosis.state not in RESCUE_STATES:
            return False
        if diagnosis.state is ConvergenceState.STALLED and not math.isfinite(
            diagnosis.ratio
        ):
            # An infinite dirty/bandwidth ratio means the link is dead,
            # not slow; reshaping the guest cannot fix that.  Backoff,
            # retry and the circuit breaker own dead links.
            return False
        now = self.engine.now
        if self._throttle is not None and not self._throttle.exhausted:
            factor = self._throttle.escalate()
            decision = {
                "action": "throttle",
                "at_s": now,
                "stage": self._throttle.stage,
                "factor": factor,
                "state": diagnosis.state.value,
            }
        elif (
            not self._rescue_compression
            and self.rescue_compression_ratio is not None
        ):
            self._rescue_compression = True
            decision = {
                "action": "compress",
                "at_s": now,
                "ratio": self.rescue_compression_ratio,
                "state": diagnosis.state.value,
            }
        else:
            return False
        self._result.rescues.append(decision)
        self._journal(checkpointer, "rescue", **decision)
        probe = self.vm.probe
        probe.count("supervisor.rescues", action=decision["action"])
        probe.instant("rescue", now, track="supervisor", **decision)
        if decision["action"] == "throttle":
            probe.gauge("supervisor.throttle_factor", decision["factor"])
        if self.vm.event_log is not None:
            self.vm.event_log.log(
                now, "supervisor", f"rescue: {decision['action']} "
                f"({diagnosis.state.value})",
            )
        return True

    def _run_attempt(self, checkpointer, controller) -> None:
        """Run the live attempt to completion and digest its outcome.

        At the end of a scheduling slice, an interrupted attempt simply
        returns — the migrator stays registered and the state stays
        ``attempt``, so the next slice continues it against the original
        deadline.
        """
        probe = self.vm.probe
        migrator = self._migrator
        record = self._record
        try:
            try:
                advance_while(
                    controller,
                    lambda: not migrator.finished,
                    self._attempt_deadline,
                    self._attempt_budget_s,
                    checkpointer,
                )
                if not migrator.finished and self.engine.now >= self.engine.slice_end:
                    # Slice boundary: leave the migrator (and rescuer)
                    # registered; the attempt continues next slice.
                    return
                record.aborted = migrator.aborted
                record.reason = migrator.report.abort_reason
            except MigrationAbortedError as exc:
                record.aborted = True
                record.reason = str(exc)
            except SimulationError:
                # The attempt ran out its wall-clock budget without the
                # watchdog firing; abort it ourselves.
                migrator.abort(self.engine.now, "supervision timeout")
                record.aborted = True
                record.reason = "supervision timeout"
        except BaseException:
            self.engine.remove(migrator)
            if self._rescuer is not None:
                self.engine.remove(self._rescuer)
            raise
        self.engine.remove(migrator)
        if self._rescuer is not None:
            self.engine.remove(self._rescuer)
        monitor = self._monitor
        diagnosis = monitor.diagnosis if monitor is not None else NO_DIAGNOSIS
        if diagnosis.state is not ConvergenceState.UNKNOWN:
            record.diagnosis = diagnosis.summary()
        probe.end(self._span_attempt, self.engine.now,
                  aborted=record.aborted, reason=record.reason,
                  convergence=diagnosis.state.value)
        self._span_attempt = None
        self._attempt_deadline = None
        self._migrator = None
        self._monitor = None
        self._record = None
        result = self._result
        result.attempts.append(record)
        self._journal(
            checkpointer, "attempt-finished",
            attempt=self._attempt, engine=self._current,
            aborted=record.aborted, reason=record.reason,
        )
        rescuer = self._rescuer
        self._rescuer = None
        if rescuer is not None and rescuer.decisions:
            # Mid-flight ladder decisions become durable journal facts
            # only now, but the controller itself rides in every
            # checkpoint, so a crash mid-attempt replays them exactly.
            for decision in rescuer.decisions:
                result.rescues.append(decision)
                self._journal(checkpointer, "rescue", **decision)
            if any(d["action"] == "compress" for d in rescuer.decisions):
                self._rescue_compression = True

        if not record.aborted:
            result.ok = True
            result.engine = self._current
            result.report = migrator.report
            result.migrator = migrator
            self._breaker.record_success()
            self._state = "done"
            return

        self._consecutive += 1
        probe.count("supervisor.retries", engine=self._current)
        result.report = migrator.report
        result.engine = self._current
        self._wait = self.backoff_s * (self.backoff_factor ** (self._attempt - 1))
        if self.backoff_jitter > 0.0:
            self._wait *= 1.0 + self.backoff_jitter * self._rng.uniform(
                "supervisor-backoff", 0.0, 1.0
            )
        abort_phase = record.report.abort_phase or record.reason
        if self._breaker.record_abort(abort_phase):
            probe.count("supervisor.breaker_trips")
            probe.instant(
                "breaker-tripped", self.engine.now, track="supervisor",
                phase=abort_phase, streak=self._breaker.streak[1],
            )
            self._journal(
                checkpointer, "breaker-tripped",
                phase=abort_phase, streak=self._breaker.streak[1],
            )
            result.breaker_tripped = True
            self._state = "done"
            return
        if self._attempt_rescue(checkpointer, record, diagnosis):
            # The reshaped guest/wire gets its chance before the
            # supervisor spends an assistance level.
            pass
        elif self._should_degrade(record, self._consecutive, self.degrade_after):
            degraded = self._next_engine(self._current)
            if degraded != self._current:
                # The degrade decision cites the convergence verdict,
                # not just the exhausted retry budget.
                if record.diagnosis and self.vm.event_log is not None:
                    self.vm.event_log.log(
                        self.engine.now, "supervisor",
                        f"diagnosis before degrade: {record.diagnosis}",
                    )
                probe.count("supervisor.degradations")
                probe.instant(
                    "degrade", self.engine.now, track="supervisor",
                    from_engine=self._current, to_engine=degraded,
                    diagnosis=diagnosis.state.value,
                )
                self._journal(
                    checkpointer, "degrade",
                    from_engine=self._current, to_engine=degraded,
                )
                self._current = degraded
                self._consecutive = 0
                result.degradations.append(self._current)
        self._attempt += 1
        self._state = "next"


class SupervisedRun(ExperimentRun):
    """:func:`supervised_migrate`'s arguments as the one run driver.

    A constructor only: it turns the supervised-run keywords into a
    :class:`~repro.core.experiment.MigrationExperiment` with
    ``supervision`` and no cool-down, and the inherited
    :class:`~repro.core.experiment.ExperimentRun` machine drives it
    (warm-up, then supervision); :attr:`result` is the
    :class:`SupervisionResult` once done.
    """

    def __init__(
        self,
        workload: str = "derby",
        engine_name: str = "javmm",
        plan: object | None = None,
        link: Link | None = None,
        warmup_s: float = 5.0,
        dt: float = 0.005,
        kernel: str | None = None,
        seed: int = 20150421,
        vm_kwargs: dict | None = None,
        telemetry: bool = False,
        telemetry_sink: object | None = None,
        **supervisor_kwargs,
    ) -> None:
        vm_kwargs = dict(vm_kwargs or {})
        sizes = {
            name: vm_kwargs.pop(name)
            for name in ("mem_bytes", "max_young_bytes")
            if name in vm_kwargs
        }
        super().__init__(MigrationExperiment(
            workload=workload, engine=engine_name, link=link,
            warmup_s=warmup_s, cooldown_s=0.0, dt=dt, kernel=kernel,
            seed=seed, vm_kwargs=vm_kwargs, telemetry=telemetry,
            supervision=supervisor_kwargs, plan=plan, **sizes,
        ))
        if telemetry_sink is not None:
            self.vm.stream_to(telemetry_sink)


def supervised_migrate(
    workload: str = "derby",
    engine_name: str = "javmm",
    plan: object | None = None,
    link: Link | None = None,
    warmup_s: float = 5.0,
    dt: float = 0.005,
    kernel: str | None = None,
    seed: int = 20150421,
    vm_kwargs: dict | None = None,
    telemetry: bool = False,
    checkpoint: object | None = None,
    telemetry_sink: object | None = None,
    **supervisor_kwargs,
) -> tuple[SupervisionResult, JavaVM]:
    """Build a guest, optionally arm a fault plan, and migrate supervised.

    Returns ``(result, vm)`` so callers can inspect both the supervision
    outcome and the guest (e.g. verify the destination image against the
    source).  *plan* is a :class:`~repro.faults.FaultPlan`; its injector
    is bound to the link, LKM, agent and netlink bus, and re-bound to
    each attempt's daemon.  *checkpoint* is a
    :class:`~repro.checkpoint.CheckpointConfig`; with one, the run
    writes durable cadence checkpoints (from t=0) a crashed process can
    resume from (:func:`repro.checkpoint.resume`).  *telemetry_sink* is
    a :class:`~repro.telemetry.live.StreamSink`: instants, samples and
    events are mirrored onto it as they happen (``repro watch`` tails
    it live); the caller finalizes the sink once attribution is done.

    This is :class:`SupervisedRun` driven to completion in one call —
    the multiplexed session path steps the identical machine in slices.
    """
    run = SupervisedRun(
        workload=workload,
        engine_name=engine_name,
        plan=plan,
        link=link,
        warmup_s=warmup_s,
        dt=dt,
        kernel=kernel,
        seed=seed,
        vm_kwargs=vm_kwargs,
        telemetry=telemetry,
        telemetry_sink=telemetry_sink,
        **supervisor_kwargs,
    )
    outcome = run.run(None if checkpoint is None else Checkpointer(checkpoint))
    return outcome, run.vm
