"""Migration sessions: one controllable migration, steppable in slices.

A :class:`MigrationSession` wraps the one bounded-slice run driver,
:class:`~repro.core.experiment.ExperimentRun` (plain or supervised),
behind the control-verb surface the manager (and the ``repro ctl``
socket protocol) exposes:

``submit → (admit) → running ⇄ paused → done | aborted | failed →
finalized``

The correctness contract is the repo's standard one: because a session
only ever *tightens* engine-advance bounds at slice boundaries (the
PR 6 invariant), a session's final report, page-version array and
attribution ledger are bit-identical to the same
:class:`SessionConfig` run standalone through
:func:`run_standalone` — the kernel-equivalence suite and
``tests/test_service_chaos.py`` both enforce the digest equality.

Everything durable lives under the session's directory::

    <root>/sessions/<id>/
        session.json     admin record (config + lifecycle state)
        telemetry.jsonl  the session's telemetry stream, finalized at the end
        ckpts/           cadence checkpoints + write-ahead journal
        result.json      final payload, written once, survives restarts
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields

from repro.errors import CheckpointError, ConfigurationError
from repro.units import MiB

# -- lifecycle states -------------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
PAUSED = "paused"
DONE = "done"
ABORTED = "aborted"
FAILED = "failed"
FINALIZED = "finalized"

#: states a session can still make progress from
ACTIVE_STATES = (RUNNING, PAUSED)
#: states with a result payload ready for ``finalize``
TERMINAL_STATES = (DONE, ABORTED, FAILED)


class SessionError(ConfigurationError):
    """An illegal control verb for the session's current state."""


#: dataclass annotation -> the types a spec field accepts (JSON numbers
#: arrive as int or float; bool is never accepted as a number)
_FIELD_TYPES = {
    "str": (str,),
    "str | None": (str, type(None)),
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
}


@dataclass
class SessionConfig:
    """The one description of a migration run.

    ``repro migrate``/``trace``/``ctl submit`` build it from their flags,
    the socket protocol submits it, the admin record persists it, and
    :func:`run_standalone` replays it.  Construction validates every
    field, so a bad spec is refused where it is written, not inside a
    session.
    """

    workload: str = "derby"
    engine: str = "javmm"
    mem_mb: int = 512
    young_mb: int = 128
    warmup_s: float = 6.0
    cooldown_s: float = 3.0
    dt: float = 0.005
    kernel: str | None = None
    seed: int = 20150421
    migration_timeout_s: float = 600.0
    #: drive through MigrationSupervisor (retry/backoff/degrade/rescue)
    supervise: bool = False
    #: WAN profile name (implies supervise; matches ``repro migrate --wan``)
    wan: str | None = None
    max_attempts: int = 4
    #: the supervisor's rescue ladder and RTT-scaled watchdogs
    #: (``repro migrate --no-rescue`` turns both off)
    rescue: bool = True
    #: stream spans/samples/events to the session's telemetry.jsonl
    telemetry: bool = True
    #: free-form operator label, surfaced by status/watch
    name: str = ""

    def __post_init__(self) -> None:
        from repro.core.builders import ENGINE_NAMES
        from repro.net import WAN_PROFILES
        from repro.sim.engine import KERNELS
        from repro.workloads.spec import REGISTRY

        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise ConfigurationError(
                    f"session config field {f.name!r} must be {f.type}, "
                    f"not {type(value).__name__}"
                )
        for name in ("mem_mb", "young_mb", "dt", "migration_timeout_s",
                     "max_attempts"):
            if not getattr(self, name) > 0:  # NaN too
                raise ConfigurationError(f"session config {name} must be > 0")
        for name in ("warmup_s", "cooldown_s"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"session config {name} must be >= 0")
        for name, known in (
            ("workload", REGISTRY),
            ("engine", ENGINE_NAMES + ("auto",)),
            ("kernel", KERNELS),
            ("wan", WAN_PROFILES),
        ):
            value = getattr(self, name)
            if value is not None and value not in known:
                raise ConfigurationError(
                    f"unknown {name} {value!r}; known: {', '.join(sorted(known))}"
                )
        if self.wan:
            self.supervise = True

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionConfig":
        if not isinstance(data, dict):
            raise SessionError("a session config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise SessionError(
                f"unknown session config fields: {', '.join(sorted(unknown))}"
            )
        return cls(**data)

    def fingerprint(self) -> dict:
        """The scalar config hashed into checkpoint manifests, so a
        resume into a different run is refused.  It leaves out what
        cannot change the simulated run: the label, the telemetry
        switch, and the kernel (the event kernel is bit-identical to the
        fixed one, so a checkpoint resumes under either)."""
        fp = self.to_dict()
        for name in ("name", "telemetry", "kernel"):
            del fp[name]
        return fp

    def checkpointer(self, directory: str, every_s: float,
                     max_overhead: float | None):
        """A cadence checkpointer stamping this spec's fingerprint."""
        from repro.checkpoint import CheckpointConfig, Checkpointer

        return Checkpointer(CheckpointConfig(
            directory=directory, every_s=every_s,
            config=self.fingerprint(), max_overhead=max_overhead,
        ))

    def build_driver(self, sink=None):
        """The run driver for this spec (configure phase), with *sink*
        streaming its telemetry when telemetry is on.

        One of the two places that tell a plain run from a supervised
        one (with :func:`run_payload`): a supervised spec gets the
        supervisor's arguments and no cool-down.
        """
        from repro.core.experiment import ExperimentRun, MigrationExperiment

        supervision = link = None
        if self.supervise:
            supervision = {
                "max_attempts": self.max_attempts,
                "rescue": self.rescue,
                "scale_timeouts": self.rescue,
            }
            if self.wan:
                from repro.net import wan_link

                link = wan_link(self.wan, seed=self.seed)
        engine = self.engine
        if self.supervise and engine == "auto":
            engine = "javmm"  # supervised specs have always run "auto" as javmm
        driver = ExperimentRun(MigrationExperiment(
            workload=self.workload, engine=engine, mem_bytes=MiB(self.mem_mb),
            max_young_bytes=MiB(self.young_mb), link=link,
            warmup_s=self.warmup_s,
            cooldown_s=0.0 if self.supervise else self.cooldown_s,
            dt=self.dt, kernel=self.kernel, seed=self.seed,
            migration_timeout_s=self.migration_timeout_s,
            telemetry=self.telemetry, supervision=supervision,
        ))
        if sink is not None:
            driver.vm.stream_to(sink)
        return driver


def restored_driver(root):
    """A checkpoint's pickle root as a driver: an
    :class:`~repro.core.experiment.ExperimentRun` continues as it is."""
    from repro.core.experiment import ExperimentRun

    if isinstance(root, ExperimentRun):
        return root
    raise CheckpointError(
        f"checkpoint holds an unresumable {type(root).__name__} root"
    )


# -- payloads and digests ---------------------------------------------------------------


def run_digest(vm, report) -> str:
    """sha256 over page versions + analyzer samples + report JSON.

    Equal digests mean two runs ended in bit-identical simulated state;
    sessions are compared to their standalone twins (and a resumed
    daemon to an unkilled one) across process boundaries this way.
    """
    import hashlib

    import numpy as np

    h = hashlib.sha256()
    pages = vm.domain.read_pages(np.arange(vm.domain.n_pages))
    h.update(pages.tobytes())
    for sample in vm.analyzer.samples:
        h.update(repr(sample).encode("utf-8"))
    if report is not None:
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _ledgers(reports, link=None) -> tuple[list[dict], list[str]]:
    """Ledgers plus every conservation violation for one run's reports.

    With the run's *link* at hand its meter is reconciled too: the run
    owns the link throughout, so the meter's category totals must match
    the summed report ledgers exactly.
    """
    from repro.telemetry.attribution import attribute_report, audit_meter

    reports = [report for report in reports if report is not None]
    ledgers, violations = [], []
    for report in reports:
        led = attribute_report(report)
        ledgers.append(led.to_dict())
        violations.extend(f"attempt {led.attempt}: {v}" for v in led.violations)
    if link is not None:
        violations.extend(f"meter: {v}" for v in audit_meter(link.meter, reports))
    return ledgers, violations


def experiment_payload(result, vm, link=None) -> dict:
    """The JSON result of a plain run: the flat report plus ``ok``,
    attribution, conservation violations and ``final_digest``."""
    ledgers, violations = _ledgers([result.report], link)
    payload = result.report.to_dict()
    payload["workload"] = result.workload
    payload["engine"] = result.engine
    payload["observed_app_downtime_s"] = result.observed_app_downtime_s
    payload["attribution"] = ledgers
    payload["conservation_violations"] = violations
    payload["final_digest"] = run_digest(vm, result.report)
    payload["ok"] = bool(result.report.verified)
    return payload


def supervised_payload(result, vm, link=None) -> dict:
    """The JSON result of a supervised run: the attempts, the rescues
    and the final ``report`` nested, plus the same audit fields."""
    ledgers, violations = _ledgers([rec.report for rec in result.attempts], link)
    payload = {
        "ok": result.ok,
        "engine": result.engine,
        "n_attempts": result.n_attempts,
        "engines_tried": result.degradations,
        "attempts": [
            {
                "attempt": rec.attempt,
                "engine": rec.engine,
                "aborted": rec.aborted,
                "reason": rec.reason,
                "waited_before_s": rec.waited_before_s,
            }
            for rec in result.attempts
        ],
        "report": result.report.to_dict() if result.report else None,
        "rescues": list(result.rescues),
        "attribution": ledgers,
        "conservation_violations": violations,
    }
    payload["final_digest"] = run_digest(vm, result.report)
    return payload


def run_payload(driver) -> dict:
    """The JSON result of a finished driver — what ``repro migrate
    --json`` and ``repro resume --json`` print and a session stores."""
    if driver.experiment.supervised:
        return supervised_payload(driver.result, driver.vm, driver.link)
    return experiment_payload(driver.result, driver.vm, driver.link)


def finish_stream(driver, payload: dict) -> int | None:
    """Complete the telemetry stream a finished *driver* writes: append
    its spans, metrics and drop counters plus *payload*'s attribution
    ledgers, then close it.  Returns the stream's record count, or None
    when the run streams nowhere.  The one place a stream is finalized:
    ``repro migrate``, ``repro resume`` and sessions all end here."""
    probe = driver.vm.probe
    if probe.sink is None:
        return None
    return probe.sink.finalize(probe=probe, attributions=payload.get("attribution"))


def run_standalone(config: SessionConfig) -> dict:
    """Run *config* to completion in-process, no manager, no slicing.

    The equivalence oracle: a session's ``result.json`` must be
    bit-identical to this function's return for the same config.
    """
    driver = config.build_driver(sink=None)
    driver.run()
    return run_payload(driver)


# -- the session ------------------------------------------------------------------------


@dataclass
class _Admin:
    """What session.json persists besides the config."""

    id: str
    state: str = QUEUED
    error: str = ""
    finalized: bool = False
    #: the driver's ``sim_now_s``/``phase``/``attempt`` when the session
    #: ended; ``status`` reads them once the driver is gone
    progress: dict = field(default_factory=dict)


class MigrationSession:
    """One migration as a first-class, controllable session.

    The manager admits it (:meth:`start`), steps it in bounded slices
    (:meth:`step_slice`), and routes control verbs at it.  All durable
    state lives under :attr:`directory`; the in-memory object can be
    rebuilt from disk at any time (:meth:`load`), which is exactly what
    a restarted daemon does.
    """

    def __init__(
        self,
        session_id: str,
        config: SessionConfig,
        directory: str | None = None,
        checkpoint_every_s: float | None = None,
        checkpoint_overhead: float | None = 0.03,
    ) -> None:
        self.id = session_id
        self.config = config
        self.directory = directory
        self.checkpoint_every_s = checkpoint_every_s
        self.checkpoint_overhead = checkpoint_overhead
        self._admin = _Admin(id=session_id)
        self.driver = None
        self.checkpointer = None
        #: the checkpoint :class:`~repro.checkpoint.runner.WallMeter` the
        #: owning manager shares among its sessions (None: one's own)
        self.checkpoint_meter = None
        self.result_payload: dict | None = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._persist_admin()

    # -- durable admin record -----------------------------------------------------------

    @property
    def state(self) -> str:
        if self._admin.finalized:
            return FINALIZED
        return self._admin.state

    @property
    def error(self) -> str:
        return self._admin.error

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, name)

    def _write_json(self, name: str, data: dict) -> None:
        """Durably replace ``<directory>/<name>`` (no-op without one)."""
        if self.directory is None:
            return
        tmp = self._path(name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._path(name))

    def _persist_admin(self) -> None:
        self._write_json("session.json", {
            "id": self.id,
            "config": self.config.to_dict(),
            "state": self._admin.state,
            "error": self._admin.error,
            "finalized": self._admin.finalized,
            "progress": self._admin.progress,
        })

    @classmethod
    def load(
        cls,
        directory: str,
        checkpoint_every_s: float | None = None,
        checkpoint_overhead: float | None = 0.03,
    ) -> "MigrationSession":
        """Rebuild a session from its directory (daemon restart)."""
        with open(os.path.join(directory, "session.json"), encoding="utf-8") as fh:
            record = json.load(fh)
        session = cls(
            record["id"], SessionConfig.from_dict(record["config"]),
            checkpoint_every_s=checkpoint_every_s,
            checkpoint_overhead=checkpoint_overhead,
        )
        session.directory = directory
        session._admin = _Admin(
            id=record["id"],
            state=record["state"],
            error=record.get("error", ""),
            finalized=record.get("finalized", False),
            progress=record.get("progress", {}),
        )
        result_path = os.path.join(directory, "result.json")
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                session.result_payload = json.load(fh)
        return session

    # -- lifecycle ----------------------------------------------------------------------

    def _make_sink(self):
        if not self.config.telemetry or self.directory is None:
            return None
        from repro.telemetry.live import JsonlSink

        return JsonlSink(self._path("telemetry.jsonl"))

    def _make_checkpointer(self):
        if self.checkpoint_every_s is None or self.directory is None:
            return None
        checkpointer = self.config.checkpointer(
            self._path("ckpts"), self.checkpoint_every_s, self.checkpoint_overhead
        )
        if self.checkpoint_meter is not None:
            checkpointer.meter = self.checkpoint_meter
        return checkpointer

    def start(self) -> None:
        """Admit the session: configure the simulation, go RUNNING."""
        if self._admin.state != QUEUED:
            raise SessionError(
                f"session {self.id} cannot start from state {self.state}"
            )
        try:
            self.driver = self.config.build_driver(sink=self._make_sink())
            self.checkpointer = self._make_checkpointer()
        except Exception as exc:  # noqa: BLE001 — a config that cannot
            # even build (e.g. no room for an Old generation) fails its
            # session, not the daemon.
            self._fail(exc)
            return
        self._admin.state = RUNNING
        self._persist_admin()

    def recover(self) -> None:
        """Restart path: rebuild the live driver for an ACTIVE session.

        With checkpoints on disk the driver resumes from the newest one
        (config-hash checked); without any — the daemon died before the
        first cadence write — the session rebuilds from its config,
        which is deterministic and therefore lands in the same place.
        """
        if self._admin.state not in ACTIVE_STATES:
            return
        ckpt_dir = self._path("ckpts")
        restored = None
        if os.path.isdir(ckpt_dir) and any(
            name.startswith("ckpt-") for name in os.listdir(ckpt_dir)
        ):
            from repro.checkpoint import resume

            restored = resume(ckpt_dir, expect_config=self.config.fingerprint())
        if restored is None:
            self.driver = self.config.build_driver(sink=self._make_sink())
        else:
            # The pickled graph carries the session's JsonlSink; its first
            # write cuts the stream back to where the checkpoint left it.
            self.driver = restored_driver(restored.controller)
        self.checkpointer = self._make_checkpointer()

    def step_slice(self, slice_s: float) -> bool:
        """Advance one cooperative slice; True when the session left
        the RUNNING state (done, aborted or failed)."""
        if self._admin.state != RUNNING:
            return self._admin.state != PAUSED
        driver = self.driver
        try:
            finished = driver.step(driver.engine.now + slice_s, self.checkpointer)
        except Exception as exc:  # noqa: BLE001 — session isolation:
            # one blown simulation must not take the daemon down.
            self._fail(exc)
            return True
        if finished:
            state = DONE if driver.result.ok else ABORTED
            self._finish(state, run_payload(driver))
        return finished

    def _fail(self, exc: Exception) -> None:
        error = f"{type(exc).__name__}: {exc}"
        self._finish(FAILED, {"ok": False, "failed": True, "error": error}, error)

    def _finish(self, state: str, payload: dict, error: str | None = None) -> None:
        """Enter terminal *state*: store the result *payload* durably
        (it survives restarts), finalize the telemetry stream, snapshot
        the driver's progress, persist, and let go of the simulation."""
        self._admin.state = state
        if error is not None:
            self._admin.error = error
        self.result_payload = payload
        self._write_json("result.json", payload)
        if self.driver is not None:
            probe = self.driver.vm.probe
            if state != FAILED:
                finish_stream(self.driver, payload)
            elif probe.sink is not None:
                # the failure may be the stream's own (a refused resume,
                # a full disk): writing more would raise out of _fail
                probe.sink.close()
            self._admin.progress = self._progress()
        self._persist_admin()
        self.driver = self.checkpointer = None

    # -- control verbs ------------------------------------------------------------------

    def pause(self) -> None:
        """Freeze the session's simulated clock; slices skip it."""
        if self._admin.state != RUNNING:
            raise SessionError(
                f"session {self.id} cannot pause from state {self.state}"
            )
        self._admin.state = PAUSED
        self._persist_admin()

    def resume(self) -> None:
        if self._admin.state != PAUSED:
            raise SessionError(
                f"session {self.id} cannot resume from state {self.state}"
            )
        self._admin.state = RUNNING
        self._persist_admin()

    def _live_migrator(self):
        return None if self.driver is None else self.driver.live_migrator

    def stop_and_copy(self) -> None:
        """Force the in-flight migration into stop-and-copy at the next
        iteration boundary (the mini-cloud controller's verb)."""
        migrator = self._live_migrator()
        if migrator is None or not hasattr(migrator, "request_stop_and_copy"):
            raise SessionError(
                f"session {self.id} has no migration iterating "
                f"(state {self.state})"
            )
        migrator.request_stop_and_copy()

    def abort(self, reason: str = "operator abort") -> None:
        """Kill the session.  An in-flight migration is aborted cleanly
        (LKM rollback, source keeps the guest) before the session is
        marked ABORTED; a queued session just never starts."""
        if self._admin.state in TERMINAL_STATES or self._admin.finalized:
            raise SessionError(
                f"session {self.id} cannot abort from state {self.state}"
            )
        migrator = self._live_migrator()
        report = None
        if migrator is not None and not migrator.finished:
            migrator.abort(self.driver.engine.now, reason)
            report = migrator.report
        payload: dict = {"ok": False, "aborted": True, "reason": reason}
        if report is not None:
            payload["report"] = report.to_dict()
        if self.driver is not None:
            payload["final_digest"] = run_digest(self.driver.vm, report)
            self.driver.vm.unwire()  # the guest never runs again
        self._finish(ABORTED, payload, reason)

    def finalize(self) -> dict:
        """Collect the result and retire the session.  One-shot: a
        second finalize is an error (the double-finalize contract)."""
        if self._admin.finalized:
            raise SessionError(f"session {self.id} is already finalized")
        if self._admin.state not in TERMINAL_STATES:
            raise SessionError(
                f"session {self.id} cannot finalize from state {self.state} "
                "(abort it first, or wait for it to finish)"
            )
        if self.result_payload is None:
            raise SessionError(f"session {self.id} has no result payload")
        self._admin.finalized = True
        self._persist_admin()
        return self.result_payload

    # -- status -------------------------------------------------------------------------

    def _progress(self) -> dict:
        driver = self.driver
        return {
            "sim_now_s": driver.engine.now,
            "phase": driver.phase,
            "attempt": driver.attempt,
        }

    def status(self) -> dict:
        info = {
            "id": self.id,
            "name": self.config.name,
            "workload": self.config.workload,
            "engine": self.config.engine,
            "supervise": self.config.supervise,
            "state": self.state,
            "error": self._admin.error,
        }
        info.update(self._admin.progress if self.driver is None else self._progress())
        if self.result_payload is not None:
            info["ok"] = self.result_payload.get("ok")
            # supervised and aborted payloads nest the report
            report = self.result_payload.get("report", self.result_payload)
            if isinstance(report, dict) and "completion_time_s" in report:
                info["completion_time_s"] = report.get("completion_time_s")
                info["vm_downtime_s"] = report.get("downtime", {}).get(
                    "vm_downtime_s"
                )
        return info
