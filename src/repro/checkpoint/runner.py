"""Checkpoint cadence, chaos crashes, and resume.

The :class:`Checkpointer` is what the run driver
(:class:`~repro.core.experiment.ExperimentRun`, the one checkpoint root
for plain and supervised runs) threads through its chunked
``engine.advance`` loops, its supervisor's included:

- :meth:`Checkpointer.bound` caps how far one advance may leap so the
  next checkpoint lands on schedule instead of somewhere inside a
  multi-second quiet-stretch leap,
- :meth:`Checkpointer.maybe` writes a checkpoint whenever the cadence
  instant has been reached — and raises :class:`SimulatedCrash` when a
  chaos tick was configured, which is how the in-process half of the
  chaos harness kills a run at an exact simulated instant.

The cadence is a *target*, not a promise: the simulation can execute
hundreds of ticks per wall millisecond, so honouring a sim-time cadence
literally could spend more wall time pickling than simulating.  The
checkpointer therefore meters itself against
:attr:`CheckpointConfig.max_overhead` — a due write is deferred when
admitting it would push the cumulative wall cost of checkpointing past
that fraction of elapsed wall time (``checkpoint.deferred`` counts
these).  The meter is a :class:`WallMeter`: each checkpointer owns one,
and a migration manager shares one among all its sessions, so the
budget holds for the whole daemon.  Deferral only ages the newest
archive; ``max_overhead=None`` restores the exact cadence when tests
need pinned restore points.

Checkpoint writes happen *between* engine advances, never inside a
step, and touch no simulated state — so a run with checkpointing is
bit-identical to one without, and a crash+resume run is bit-identical
to both (the chaos tests assert exactly this).

Controllers passed to the checkpointer expose a small duck-typed
surface: ``.engine`` (required), ``.probe`` and ``checkpoint_extra()``
(optional).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.checkpoint.archive import (
    CheckpointArchive,
    config_hash,
    load_checkpoint,
    prune_checkpoints,
    write_checkpoint,
)
from repro.checkpoint.journal import WriteAheadJournal
from repro.telemetry.probe import NULL_PROBE


class SimulatedCrash(RuntimeError):
    """Raised by the chaos harness to kill a run at a chosen tick."""


@dataclass
class CheckpointConfig:
    """Where, how often, and (for chaos runs) when to die."""

    directory: str
    every_s: float = 5.0
    #: newest checkpoints kept on disk; older ones are pruned
    keep: int = 2
    #: raise :class:`SimulatedCrash` once the clock reaches this tick
    crash_at_tick: int | None = None
    #: JSON-shaped experiment config; hashed into every manifest so a
    #: resume into a different experiment is refused
    config: dict = field(default_factory=dict)
    #: wall-clock overhead budget: the fraction of elapsed wall time
    #: checkpoint writes may consume.  The simulation often executes
    #: hundreds of ticks per wall millisecond, so an ``every_s`` cadence
    #: taken literally could spend more wall time pickling than
    #: simulating; when the budget is exceeded a due write is *deferred*
    #: to the next cadence instant (the archive just ages — correctness
    #: is untouched, the baseline from :meth:`Checkpointer.arm` always
    #: exists).  ``None`` disables the throttle and honours the cadence
    #: exactly (the chaos tests do this to pin crash/resume points).
    max_overhead: float | None = 0.03


class WallMeter:
    """The wall clock the overhead throttle meters writes against: the
    seconds spent writing, the last write's cost, and the instant
    metering started.  Every checkpointer charging one meter shares one
    budget."""

    def __init__(self) -> None:
        self.spent_s = 0.0
        self.last_cost_s = 0.0
        self.start: float | None = None

    def begin(self) -> None:
        if self.start is None:
            self.start = time.perf_counter()

    def charge(self, cost_s: float) -> None:
        self.spent_s += cost_s
        self.last_cost_s = cost_s

    def admits(self, max_overhead: float) -> bool:
        """Does one more write, as costly as the last, fit within
        *max_overhead* of the wall time elapsed since :meth:`begin`?"""
        self.begin()
        elapsed = time.perf_counter() - self.start
        return self.spent_s + self.last_cost_s <= max_overhead * max(elapsed, 1e-9)


class Checkpointer:
    """Writes cadence checkpoints for a resumable driver.

    Deliberately *not* part of the pickle graph: it belongs to the
    process (paths, journal handle), so a resumed run builds a fresh
    one over the same directory.
    """

    def __init__(self, config: CheckpointConfig) -> None:
        self.config = config
        self.directory = Path(config.directory)
        self.journal = WriteAheadJournal(self.directory / "journal.jsonl")
        self.cfg_hash = config_hash(config.config)
        self._next_due: float | None = None
        self.written = 0
        #: cadence instants skipped by the overhead throttle
        self.deferred = 0
        #: the throttle's meter; a manager swaps in the one its sessions share
        self.meter = WallMeter()

    @property
    def wall_spent_s(self) -> float:
        """Cumulative wall-clock seconds spent writing checkpoints, by
        every checkpointer on this one's meter.

        The numerator of the overhead fraction the throttle meters (and
        the quantity ``benchmarks/overheads.py`` gates against sweep wall
        time)."""
        return self.meter.spent_s

    def arm(self, controller) -> None:
        """Write the baseline checkpoint and start the cadence clock.

        Called once the run reaches a resumable point (guest built,
        warm-up scheduled); guarantees a resume source exists before
        any crash window opens.  A shared meter keeps the start of its
        first checkpointer's arm.
        """
        self.meter.begin()
        self.write(controller)
        self._next_due = controller.engine.now + self.config.every_s

    def _within_budget(self) -> bool:
        """May the next cadence write go ahead, or is it deferred?

        Admission test against :attr:`CheckpointConfig.max_overhead`:
        the wall time already spent writing on this checkpointer's
        meter, plus the expected cost of one more write, must fit within
        the budget fraction of the wall time the meter has run.  The
        baseline write is always admitted (``arm`` calls :meth:`write`
        directly), so deferral only ever ages the newest archive, never
        removes it.
        """
        frac = self.config.max_overhead
        return frac is None or self.meter.admits(frac)

    def bound(self, target: float) -> float:
        """Cap an advance bound at the next checkpoint/crash instant."""
        b = target
        if self._next_due is not None:
            b = min(b, self._next_due)
        return b

    def maybe(self, controller) -> None:
        """Crash if the chaos tick is reached; checkpoint if due."""
        engine = controller.engine
        crash_at = self.config.crash_at_tick
        if crash_at is not None and engine.clock.ticks >= crash_at:
            raise SimulatedCrash(
                f"chaos crash at tick {engine.clock.ticks} (t={engine.now:.3f}s)"
            )
        if self._next_due is None:
            self._next_due = engine.now + self.config.every_s
            return
        if engine.now >= self._next_due:
            if self._within_budget():
                self.write(controller)
            else:
                self.deferred += 1
                probe = getattr(controller, "probe", None) or NULL_PROBE
                probe.count("checkpoint.deferred")
            while self._next_due <= engine.now:
                self._next_due += self.config.every_s

    def write(self, controller) -> CheckpointArchive:
        """Write one checkpoint of *controller* now, then prune."""
        engine = controller.engine
        probe = getattr(controller, "probe", None) or NULL_PROBE
        extra = {}
        if hasattr(controller, "checkpoint_extra"):
            extra = controller.checkpoint_extra()
        t0 = time.perf_counter()
        archive = write_checkpoint(
            self.directory,
            engine,
            root=controller,
            cfg_hash=self.cfg_hash,
            journal_offset=self.journal.offset,
            extra=extra,
        )
        wall_ms = (time.perf_counter() - t0) * 1e3
        self.meter.charge(wall_ms / 1e3)
        prune_checkpoints(self.directory, self.config.keep)
        # Zero-duration sim-time span (the write is instantaneous in
        # simulated time); the wall cost rides as an arg.
        span = probe.begin(
            "checkpoint", engine.now, track="checkpoint", cat="checkpoint",
            tick=engine.clock.ticks, wall_ms=wall_ms,
        )
        probe.end(span, engine.now)
        probe.count("checkpoint.written")
        self.written += 1
        return archive


def _hooks(controller, checkpointer: Checkpointer | None) -> dict:
    """The engine-loop hooks that put *checkpointer*'s writes on schedule."""
    if checkpointer is None:
        return {}
    return {"cap": checkpointer.bound, "after": lambda: checkpointer.maybe(controller)}


def advance_to(
    controller,
    t: float,
    checkpointer: Checkpointer | None = None,
) -> None:
    """:meth:`Engine.run_until` chunked around checkpoint writes.

    Each advance is bounded at the next checkpoint instant so cadence
    checkpoints land on schedule even across event-kernel leaps.  Inside
    a scheduling slice (:meth:`Engine.slice`) the loop returns (without
    error) once the clock reaches the slice's end, even though *t* has
    not been reached yet.
    """
    controller.engine.run_until(t, **_hooks(controller, checkpointer))


def advance_while(
    controller,
    predicate,
    deadline: float,
    timeout: float,
    checkpointer: Checkpointer | None = None,
) -> None:
    """:meth:`Engine.run_while` against an *absolute* deadline.

    Drivers store the deadline when the phase starts, so a resumed run
    keeps the original budget instead of restarting it; *timeout* is
    only quoted in the timeout error.  A slice's end stops the loop
    exactly as in :func:`advance_to`.
    """
    controller.engine.run_while(
        predicate, timeout, deadline=deadline, **_hooks(controller, checkpointer),
    )


@dataclass
class ResumedRun:
    """A checkpoint loaded back into a live driver, ready to continue."""

    controller: object
    archive: CheckpointArchive
    journal: WriteAheadJournal
    #: journal entries the crashed run wrote *after* this checkpoint —
    #: the decisions the resumed run is about to re-make
    replayed: list = field(default_factory=list)

    def checkpointer(self, **overrides) -> Checkpointer:
        """A fresh checkpointer over the same directory, same config:
        unless *overrides* name a ``config``, its manifests carry the
        archive's config hash forward, so a later crash resumes under
        the same ``expect_config`` as the first."""
        directory = str(self.archive.path.parent)
        checkpointer = Checkpointer(CheckpointConfig(directory, **overrides))
        if "config" not in overrides:
            checkpointer.cfg_hash = self.archive.manifest["config_hash"]
        return checkpointer


def resume(
    directory: str,
    *,
    expect_config: dict | None = None,
) -> ResumedRun:
    """Load the latest checkpoint under *directory* into a live driver.

    Emits the ``checkpoint-restore`` telemetry span (carrying the
    checkpoint instant and the crashed run's last journal instant, the
    gap the Doctor's resumed-run rule reports) and bumps the
    ``checkpoint.restores`` counter on the restored probe.
    """
    expected = config_hash(expect_config) if expect_config is not None else None
    archive = load_checkpoint(directory, expect_config_hash=expected)
    controller = archive.load_state()
    journal = WriteAheadJournal(Path(directory) / "journal.jsonl")
    offset = int(archive.manifest.get("journal_offset", 0))
    replayed = journal.replay(since=offset)
    probe = getattr(controller, "probe", None) or NULL_PROBE
    engine = getattr(controller, "engine", controller)
    now = getattr(engine, "now", archive.now_s)
    last_t = journal.last_time()
    span = probe.begin(
        "checkpoint-restore", now, track="checkpoint", cat="checkpoint",
        tick=archive.tick,
        checkpoint_t=archive.now_s,
        journal_last_t=last_t if last_t is not None else archive.now_s,
        replayed_entries=len(replayed),
    )
    probe.end(span, now)
    probe.count("checkpoint.restores")
    return ResumedRun(
        controller=controller, archive=archive, journal=journal, replayed=replayed
    )
