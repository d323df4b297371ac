"""The migration-manager daemon: a manager plus a control socket.

``repro serve`` builds a :class:`ServiceDaemon` and blocks in
:meth:`ServiceDaemon.serve`.  Inside, one asyncio loop runs two
cooperating halves:

- the manager's scheduler (:meth:`MigrationManager.run_forever`),
  advancing every RUNNING session one simulated slice per round;
- a Unix-socket server speaking the JSON-lines protocol
  (:mod:`repro.service.protocol`), dispatching control verbs between
  slices.

Both halves run on the *same* thread, so a verb never observes a
session mid-advance — pause/abort/stop-and-copy land exactly at slice
boundaries, the only instants at which the bit-identity invariant is
defined.

Killing the daemon (SIGKILL included) loses nothing that matters: the
admin records, checkpoints and results are all durable, and a new
daemon over the same root directory resumes every in-flight session
(:meth:`MigrationManager.recover`).
"""

from __future__ import annotations

import asyncio
import os

from repro.errors import ConfigurationError
from repro.service import protocol
from repro.service.manager import MigrationManager
from repro.service.session import SessionError


class ServiceDaemon:
    """Wraps a manager in the JSON-lines control socket."""

    def __init__(self, manager: MigrationManager, socket_path: str | None = None):
        if manager.root_dir is None:
            raise SessionError("the daemon needs a manager with a root_dir")
        self.manager = manager
        self.socket_path = socket_path or protocol.default_socket_path(
            manager.root_dir
        )
        self._stop = asyncio.Event()

    # -- verb dispatch ------------------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Execute one control request against the manager.

        Synchronous on purpose: it runs between scheduler slices on the
        event-loop thread, so every verb sees a quiescent simulation.
        """
        op = request.get("op")
        if op not in protocol.VERBS:
            return protocol.error(f"unknown op {op!r}")
        session_id = request.get("id")
        if session_id is not None and not isinstance(session_id, str):
            return protocol.error("a session id must be a string")
        manager = self.manager
        try:
            if op == "ping":
                return protocol.ok(
                    pong=True,
                    sessions=len(manager.sessions),
                    active=len(manager.active),
                )
            if op == "submit":
                session_id = manager.submit(request.get("config", {}))
                return protocol.ok(id=session_id)
            if op in ("status", "list"):
                if op == "list" or session_id is None:
                    return protocol.ok(sessions=manager.status())
                return protocol.ok(session=manager.status(session_id))
            if op == "watch":
                board = manager.board()
                return protocol.ok(
                    board=board.to_dict(),
                    rendered=board.render(),
                    prom=board.to_prom_text(),
                )
            if op == "shutdown":
                self._stop.set()
                return protocol.ok(stopping=True)
            if not session_id:
                return protocol.error(f"op {op!r} needs a session id")
            if op == "pause":
                return protocol.ok(session=manager.pause(session_id))
            if op == "resume":
                return protocol.ok(session=manager.resume_session(session_id))
            if op == "stop_and_copy":
                return protocol.ok(session=manager.stop_and_copy(session_id))
            if op == "abort":
                reason = request.get("reason", "operator abort")
                if not isinstance(reason, str):
                    return protocol.error("an abort reason must be a string")
                return protocol.ok(session=manager.abort(session_id, reason))
            if op == "finalize":
                return protocol.ok(result=manager.finalize(session_id))
        except ConfigurationError as exc:  # SessionError and bad specs
            return protocol.error(str(exc))
        except Exception as exc:  # noqa: BLE001 — a failed verb is
            # answered, never allowed to drop the connection.
            return protocol.error(f"{op} failed: {type(exc).__name__}: {exc}")
        return protocol.error(f"unhandled op {op!r}")  # pragma: no cover

    # -- the loop -----------------------------------------------------------------------

    @staticmethod
    async def _readline(reader) -> bytes | None:
        """The next request line (b"" at end of stream), or None for a
        line over the stream limit, discarded through its newline."""
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial  # the last, unterminated line
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed
        while True:
            try:
                await reader.readexactly(consumed)
                await reader.readuntil(b"\n")
                return None
            except asyncio.LimitOverrunError as exc:
                consumed = exc.consumed
            except asyncio.IncompleteReadError:
                return b""  # the stream ended inside the over-long line

    async def _client(self, reader, writer) -> None:
        try:
            while not self._stop.is_set():
                line = await self._readline(reader)
                if line == b"":
                    break
                try:
                    if line is None:
                        raise ValueError("line longer than the stream limit")
                    request = protocol.decode(line)
                except ValueError as exc:
                    response = protocol.error(f"bad request: {exc}")
                else:
                    response = self.handle(request)
                writer.write(protocol.encode(response))
                await writer.drain()
        finally:
            writer.close()

    async def _serve(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead daemon
        server = await asyncio.start_unix_server(
            self._client, path=self.socket_path
        )
        protocol.write_addr(self.manager.root_dir, self.socket_path)
        scheduler = asyncio.ensure_future(
            self.manager.run_forever(stop=self._stop)
        )
        try:
            await self._stop.wait()
        finally:
            scheduler.cancel()
            server.close()
            await server.wait_closed()
            try:
                await scheduler
            except asyncio.CancelledError:
                pass
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)

    def serve(self) -> None:
        """Recover any prior sessions, then block serving the socket."""
        self.manager.recover()
        asyncio.run(self._serve())


def serve(
    root_dir: str,
    max_active: int = 8,
    slice_s: float = 0.25,
    checkpoint_every_s: float | None = 2.0,
    checkpoint_overhead: float | None = 0.03,
    socket_path: str | None = None,
) -> None:
    """Build and run a daemon over *root_dir* (the ``repro serve`` body)."""
    manager = MigrationManager(
        root_dir=root_dir,
        max_active=max_active,
        slice_s=slice_s,
        checkpoint_every_s=checkpoint_every_s,
        checkpoint_overhead=checkpoint_overhead,
    )
    ServiceDaemon(manager, socket_path=socket_path).serve()
