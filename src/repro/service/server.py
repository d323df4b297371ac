"""The migration-manager daemon: a manager plus a control socket.

``repro serve`` builds a :class:`ServiceDaemon` and blocks in
:meth:`ServiceDaemon.serve`: one thread, one explicit :mod:`selectors`
loop.  It runs the manager's scheduling rounds one session slice at a
time, and after every slice polls the Unix control socket with no wait
until nothing on it is ready: it accepts connections, reads into
per-connection buffers, answers each complete JSON-lines request
(:mod:`repro.service.protocol`) and writes the answers non-blocking.
With no session runnable it blocks in ``select`` for up to 50 ms.

Inside a slice, between two engine advances, the daemon asks again,
with no wait, whether anything registered with its selector is ready
(the manager's ``slice_cut``: one poll of the selector's own
descriptor).  If a connection or a request is, the running slice
ends at the current instant, exactly as at a slice's planned end, and
the verb is served right after it.  So a verb waits for at most one
engine advance, not for the rest of a slice; with nobody waiting,
slices keep their full ``slice_s``.  Verbs still run only *between*
slices, on the simulation's thread: a verb never observes a session
mid-advance, and pause/abort/stop-and-copy land exactly at slice
boundaries, the only instants at which the bit-identity invariant is
defined.  A client that stalls mid-line, or never reads its answers,
holds only its own buffers, and is never ready, so it cuts no slice.
``ping`` answers with the daemon's own ``slices`` and ``slices_cut``
counts.

Killing the daemon (SIGKILL included) loses nothing that matters: the
admin records, checkpoints and results are all durable, and a new
daemon over the same root directory resumes every in-flight session
(:meth:`MigrationManager.recover`).
"""

from __future__ import annotations

import os
import select
import selectors
import socket
from types import SimpleNamespace

from repro.errors import ConfigurationError
from repro.service import protocol
from repro.service.manager import MigrationManager
from repro.service.session import SessionError

#: the longest request line; a longer one is refused and the connection
#: survives.  Unsent answers past it also stop reading the connection.
LINE_LIMIT = 1 << 16
#: how long the loop blocks in ``select`` when no session can run
IDLE_S = 0.05


class ServiceDaemon:
    """Wraps a manager in the JSON-lines control socket."""

    def __init__(self, manager: MigrationManager, socket_path: str | None = None):
        if manager.root_dir is None:
            raise SessionError("the daemon needs a manager with a root_dir")
        self.manager = manager
        self.socket_path = socket_path or protocol.default_socket_path(
            manager.root_dir
        )
        self._stopping = False
        self._selector = None
        #: a poll over the selector's own descriptor, which reads as
        #: ready while anything registered with the selector is: a
        #: cheaper "is a request waiting?" than a selector poll
        self._readiness = None
        #: session slices run, and how many of them a waiting verb cut short
        self.slices = 0
        self.slices_cut = 0

    # -- verb dispatch ------------------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Execute one control request against the manager.

        Synchronous on purpose: it runs between scheduler slices on the
        simulation's thread, so every verb sees a quiescent simulation.
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
                    slices=self.slices,
                    slices_cut=self.slices_cut,
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
                self._stopping = True
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

    def _request_waiting(self) -> bool:
        """The manager's slice cut: is a connection or a request ready?

        Asked between engine advances, so it must never raise into a
        simulation: a failing poll cuts the slice too, and the loop's
        own poll meets the failure between slices.
        """
        try:
            waiting = bool(self._readiness.poll(0))
        except OSError:
            waiting = True
        self.slices_cut += waiting
        return waiting

    def _poll(self, timeout: float) -> None:
        """Serve the socket until nothing is ready, waiting *timeout* at first."""
        while ready := not self._stopping and self._selector.select(timeout):
            timeout = 0
            for key, mask in ready:
                if key.data is None:  # the listener
                    try:
                        sock, _ = key.fileobj.accept()
                    except OSError:  # the client gave up already
                        continue
                    sock.setblocking(False)
                    self._selector.register(sock, selectors.EVENT_READ, SimpleNamespace(
                        inbuf=bytearray(), outbuf=bytearray(), eof=False))
                    continue
                if mask & selectors.EVENT_READ:
                    conn = key.data
                    try:
                        data = key.fileobj.recv(LINE_LIMIT)
                    except BlockingIOError:
                        continue
                    except OSError:  # reset by the client: its end
                        data = b""
                    conn.eof = not data
                    conn.inbuf += data
                    if len(conn.inbuf) > LINE_LIMIT and b"\n" not in conn.inbuf:
                        del conn.inbuf[LINE_LIMIT + 1:]  # over-long: keep its head
                self._pump(key)

    def _pump(self, key: selectors.SelectorKey) -> None:
        """Answer a connection's complete lines (at its end, the last one too)
        while its unsent answers fit the line limit; send; re-arm or close."""
        conn, sock = key.data, key.fileobj
        while len(conn.outbuf) < LINE_LIMIT and not self._stopping:
            end = conn.inbuf.find(b"\n") + 1 or (len(conn.inbuf) if conn.eof else 0)
            if not end:
                break
            line = bytes(conn.inbuf[:end])
            del conn.inbuf[:end]
            try:
                if len(line) > LINE_LIMIT + line.endswith(b"\n"):
                    raise ValueError("line longer than the stream limit")
                request = protocol.decode(line)
            except ValueError as exc:
                response = protocol.error(f"bad request: {exc}")
            else:
                response = self.handle(request)
            conn.outbuf += protocol.encode(response)
        if conn.outbuf:
            try:
                del conn.outbuf[: sock.send(conn.outbuf)]
            except BlockingIOError:
                pass
            except OSError:  # the client hung up: nobody to answer
                conn.eof, conn.outbuf = True, bytearray()
        reading = not conn.eof and len(conn.outbuf) < LINE_LIMIT
        events = (selectors.EVENT_READ if reading else 0) | (
            selectors.EVENT_WRITE if conn.outbuf else 0)
        if not events:
            self._selector.unregister(sock)
            sock.close()
        elif events != key.events:
            self._selector.modify(sock, events, conn)

    def serve(self) -> None:
        """Recover any prior sessions, then slice and serve until shutdown."""
        self.manager.recover()
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead daemon
        self._selector = selectors.DefaultSelector()
        self._readiness = select.poll()
        self._readiness.register(self._selector.fileno(), select.POLLIN)
        with socket.create_server(
            self.socket_path, family=socket.AF_UNIX, backlog=100
        ) as listener:
            listener.setblocking(False)
            self._selector.register(listener, selectors.EVENT_READ)
            protocol.write_addr(self.manager.root_dir, self.socket_path)
            self.manager.slice_cut = self._request_waiting
            try:
                while not self._stopping:
                    ran = False
                    for _ in self.manager._round():
                        ran = True
                        self.slices += 1
                        self._poll(0)
                        if self._stopping:
                            break
                    if not ran:
                        self._poll(IDLE_S)
            finally:  # answers already sent stay readable after the close
                self.manager.slice_cut = None
                for key in list(self._selector.get_map().values()):
                    key.fileobj.close()
                self._selector.close()
                os.unlink(self.socket_path)


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
