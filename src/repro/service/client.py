"""Synchronous client for the migration-manager daemon.

``repro ctl`` (and the tests) talk to ``repro serve`` through this:
dial the Unix socket recorded in ``<root>/ctl.addr`` once, then write
one JSON line and read one JSON line back per request, over that one
connection.  A non-``ok`` response raises
:class:`ServiceUnavailable`'s sibling :class:`RequestFailed` so callers
never have to remember to check the flag.
"""

from __future__ import annotations

import select
import socket
import time

from repro.service import protocol


class ServiceUnavailable(ConnectionError):
    """No daemon answering on the service root's socket."""


class RequestFailed(RuntimeError):
    """The daemon answered ``ok: false``."""


class ServiceClient:
    """One service root, many requests over one kept connection.

    The connection is opened by the first request and carries every
    later one; the daemon answers any number of lines per connection.
    Before a request is sent, a kept connection found closed (the daemon
    hung up, or was restarted over the same root) is replaced by a fresh
    one.  A connection that dies after a request was sent raises
    :class:`ServiceUnavailable`, and the request is never sent again: a
    verb such as ``submit`` must not run twice.  One client serves one
    thread; :meth:`close` drops the connection.
    """

    def __init__(self, root_dir: str, timeout_s: float = 30.0) -> None:
        self.root_dir = root_dir
        self.timeout_s = timeout_s
        self._sock: socket.socket | None = None

    @property
    def socket_path(self) -> str:
        return protocol.read_addr(self.root_dir)

    def close(self) -> None:
        """Drop the kept connection; the next request dials afresh."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _connection(self) -> socket.socket:
        """The kept connection, or a fresh one if it was found closed.

        With no request out, the daemon never writes, so a kept
        connection that reads as ready has been hung up."""
        if self._sock is not None:
            poller = select.poll()
            poller.register(self._sock, select.POLLIN)
            if poller.poll(0):
                self.close()
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            try:
                sock.connect(self.socket_path)
            except BaseException:
                sock.close()
                raise
            self._sock = sock
        return self._sock

    def request(self, op: str, **fields) -> dict:
        """Send one verb; return the daemon's response payload."""
        message = {"op": op}
        message.update(fields)
        try:
            sock = self._connection()
        except (ConnectionRefusedError, FileNotFoundError) as exc:
            raise ServiceUnavailable(
                f"no daemon on {self.socket_path}: {exc}"
            ) from exc
        line = b""
        try:
            sock.sendall(protocol.encode(message))
            while not line.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                line += chunk
        except ConnectionError:
            line = b""
        except BaseException:  # a timeout: its answer may come later
            self.close()
            raise
        if not line.endswith(b"\n"):
            self.close()
            raise ServiceUnavailable(
                f"daemon on {self.socket_path} hung up mid-request"
            )
        response = protocol.decode(line)
        if op == "shutdown":
            self.close()  # the daemon hangs up every connection as it stops
        if not response.get("ok"):
            raise RequestFailed(response.get("error", "request failed"))
        return response

    def wait_ready(self, timeout_s: float = 20.0, poll_s: float = 0.05) -> dict:
        """Block until the daemon answers ``ping`` (startup race)."""
        deadline = time.monotonic() + timeout_s
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.request("ping")
            except ServiceUnavailable as exc:
                last = exc
                time.sleep(poll_s)
        raise ServiceUnavailable(
            f"daemon did not come up within {timeout_s:.0f}s: {last}"
        )

    def wait_terminal(
        self, session_id: str, timeout_s: float = 120.0, poll_s: float = 0.1
    ) -> dict:
        """Poll until *session_id* reaches a terminal state."""
        from repro.service.session import TERMINAL_STATES

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            status = self.request("status", id=session_id)["session"]
            if status["state"] in TERMINAL_STATES + ("finalized",):
                return status
            time.sleep(poll_s)
        raise TimeoutError(
            f"session {session_id} still {status['state']} "
            f"after {timeout_s:.0f}s"
        )
