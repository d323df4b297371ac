"""The migration manager: many sessions, one cooperative scheduler.

:class:`MigrationManager` is the in-process control plane the daemon
(:mod:`repro.service.server`) wraps a socket around.  It owns a
directory of sessions, admits queued ones into a bounded concurrency
pool, and round-robins a simulated-time slice over every RUNNING
session per scheduling round — cooperative multiplexing on one thread,
which is exactly what keeps each session's tick sequence identical to
a standalone run (slicing only tightens engine-advance bounds; the
PR 6 invariant).

Two drive styles over the same rounds:

- :meth:`drain` — synchronous, run rounds until every session is
  terminal (benchmarks, tests, and the equivalence oracle use this);
- :meth:`run_forever` — the asyncio form the daemon uses, yielding to
  the event loop between rounds so control verbs land promptly.

Restart story: :meth:`recover` rebuilds every session from its
directory — terminal ones get their durable ``result.json`` back,
active ones resume from their newest checkpoint (or deterministically
re-run when the daemon died before the first cadence write).
"""

from __future__ import annotations

import os

from repro.service.session import (
    ACTIVE_STATES,
    QUEUED,
    RUNNING,
    MigrationSession,
    SessionConfig,
    SessionError,
)


class MigrationManager:
    """Multiplexes migration sessions under admission control."""

    def __init__(
        self,
        root_dir: str | None = None,
        max_active: int = 8,
        slice_s: float = 0.25,
        checkpoint_every_s: float | None = None,
        checkpoint_overhead: float | None = 0.03,
    ) -> None:
        if max_active < 1:
            raise SessionError("manager needs max_active >= 1")
        if slice_s <= 0:
            raise SessionError("manager needs a positive slice_s")
        self.root_dir = root_dir
        #: admission control: RUNNING sessions at once (queued wait)
        self.max_active = max_active
        #: simulated seconds one session advances per scheduling round
        self.slice_s = slice_s
        self.checkpoint_every_s = checkpoint_every_s
        self.checkpoint_overhead = checkpoint_overhead
        self.sessions: dict[str, MigrationSession] = {}
        self._counter = 0
        if root_dir is not None:
            os.makedirs(os.path.join(root_dir, "sessions"), exist_ok=True)

    # -- session directory --------------------------------------------------------------

    def _session_dir(self, session_id: str) -> str | None:
        if self.root_dir is None:
            return None
        return os.path.join(self.root_dir, "sessions", session_id)

    def _new_id(self, config: SessionConfig) -> str:
        self._counter += 1
        label = config.name or config.workload
        safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in label)
        return f"s{self._counter:04d}-{safe}"

    def submit(self, config: SessionConfig | dict) -> str:
        """Queue one migration; returns its session id."""
        if not isinstance(config, SessionConfig):
            config = SessionConfig.from_dict(config)
        session_id = self._new_id(config)
        while session_id in self.sessions:  # counter reseeded after recover
            self._counter += 1
            session_id = self._new_id(config)
        session = MigrationSession(
            session_id,
            config,
            directory=self._session_dir(session_id),
            checkpoint_every_s=self.checkpoint_every_s,
            checkpoint_overhead=self.checkpoint_overhead,
        )
        self.sessions[session_id] = session
        return session_id

    def recover(self) -> list[str]:
        """Rebuild every session found under the root (daemon restart).

        Returns the ids of sessions that were mid-flight and resumed.
        """
        if self.root_dir is None:
            return []
        base = os.path.join(self.root_dir, "sessions")
        resumed = []
        for name in sorted(os.listdir(base)):
            directory = os.path.join(base, name)
            if not os.path.isfile(os.path.join(directory, "session.json")):
                continue
            session = MigrationSession.load(
                directory,
                checkpoint_every_s=self.checkpoint_every_s,
                checkpoint_overhead=self.checkpoint_overhead,
            )
            self.sessions[session.id] = session
            if session._admin.state in ACTIVE_STATES:
                session.recover()
                resumed.append(session.id)
            # keep fresh ids clear of recovered ones (s0001-…)
            try:
                self._counter = max(self._counter, int(name.split("-", 1)[0][1:]))
            except ValueError:
                pass
        return resumed

    # -- scheduling ---------------------------------------------------------------------

    def session(self, session_id: str) -> MigrationSession:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise SessionError(f"unknown session {session_id!r}") from None

    @property
    def active(self) -> list[MigrationSession]:
        return [s for s in self.sessions.values() if s.state in ACTIVE_STATES]

    @property
    def queued(self) -> list[MigrationSession]:
        return [s for s in self.sessions.values() if s.state == QUEUED]

    def _admit(self) -> None:
        """Fill the concurrency pool from the queue, FIFO."""
        pool = len(self.active)
        for session in self.queued:
            if pool >= self.max_active:
                return
            session.start()
            if session.state == RUNNING:  # a failed build takes no slot
                pool += 1

    def _round(self):
        """One scheduling round: admit, then give every RUNNING session
        one slice, yielding each session after its slice so a driver can
        interleave between sessions.  The round every drive style runs."""
        self._admit()
        for session in list(self.sessions.values()):
            if session.state == RUNNING:
                session.step_slice(self.slice_s)
                yield session

    def _run_round(self) -> int:
        """One whole round; returns the number of slices it ran."""
        return sum(1 for _ in self._round())

    def step_round(self) -> bool:
        """One scheduling round.  Returns True while any session can
        still progress (running now, paused, or queued behind the pool)."""
        return bool(self._run_round() or self.queued or self.active)

    def drain(self) -> None:
        """Run rounds until nothing is queued or running.  PAUSED
        sessions are left paused — they park, they do not block."""
        while self._run_round() or self.queued:
            pass

    async def run_forever(self, idle_sleep_s: float = 0.05, stop=None) -> None:
        """The daemon's scheduler loop: rounds with an event-loop yield
        after every slice (so socket verbs interleave), idling when
        nothing is runnable.  *stop* is an ``asyncio.Event`` that ends
        the loop, checked between sessions.
        """
        import asyncio

        while stop is None or not stop.is_set():
            ran = False
            for _ in self._round():
                ran = True
                await asyncio.sleep(0)
                if stop is not None and stop.is_set():
                    return
            if not ran:
                await asyncio.sleep(idle_sleep_s)

    # -- verbs (the in-process API the socket protocol mirrors) -------------------------

    def status(self, session_id: str | None = None):
        if session_id is not None:
            return self.session(session_id).status()
        return [
            self.sessions[sid].status() for sid in sorted(self.sessions)
        ]

    def pause(self, session_id: str) -> dict:
        self.session(session_id).pause()
        return self.session(session_id).status()

    def resume_session(self, session_id: str) -> dict:
        self.session(session_id).resume()
        return self.session(session_id).status()

    def stop_and_copy(self, session_id: str) -> dict:
        self.session(session_id).stop_and_copy()
        return self.session(session_id).status()

    def abort(self, session_id: str, reason: str = "operator abort") -> dict:
        self.session(session_id).abort(reason)
        return self.session(session_id).status()

    def finalize(self, session_id: str) -> dict:
        return self.session(session_id).finalize()

    # -- the fleet board ----------------------------------------------------------------

    def board(self):
        """A PR 9 :class:`~repro.telemetry.live.FleetBoard` over every
        session's telemetry stream (``repro ctl watch`` renders it)."""
        from repro.telemetry.live import FileTail, FleetBoard, LiveStatus

        board = FleetBoard()
        for sid in sorted(self.sessions):
            session = self.sessions[sid]
            status = LiveStatus(name=sid)
            path = (
                os.path.join(session.directory, "telemetry.jsonl")
                if session.directory is not None
                else None
            )
            if path is not None:
                status.follow(FileTail(path))
            board.update(status)
        return board
