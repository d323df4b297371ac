"""The control client keeps one connection open across requests.

It dials once, reconnects only when the kept connection is found closed
before a request is sent, and never sends a request twice: a connection
that dies mid-request raises :class:`ServiceUnavailable`.  A client that
streams verbs and reads every answer cuts many slices short, yet the
sessions it watches still finish, bit-identical to standalone runs.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import (
    MigrationManager,
    ServiceClient,
    ServiceUnavailable,
    SessionConfig,
    protocol,
    run_standalone,
)
from repro.service.session import TERMINAL_STATES

from tests.test_service_cut import serving

REPO = Path(__file__).resolve().parent.parent


def test_many_requests_cost_the_daemon_one_accept(tmp_path, monkeypatch):
    accepts: list[int] = []
    accept = socket.socket.accept

    def counted(sock):
        accepted = accept(sock)
        accepts.append(accepted[0].fileno())
        return accepted

    monkeypatch.setattr(socket.socket, "accept", counted)
    with serving(MigrationManager(root_dir=str(tmp_path / "svc"))) as (_, client):
        for _ in range(50):
            assert client.request("ping")["pong"] is True
        client.request("list")
        assert len(accepts) == 1


def test_the_client_reconnects_to_a_restarted_daemon(tmp_path):
    """The daemon hangs up the kept connection when it stops; the next
    request, to a new daemon over the same root, dials it afresh before
    sending, and reaches the new daemon exactly once."""
    root = str(tmp_path / "svc")
    client = ServiceClient(root, timeout_s=30)
    try:
        with serving(MigrationManager(root_dir=root)):
            assert client.request("ping")["pong"] is True
            old_sock = client._sock
        with serving(MigrationManager(root_dir=root)) as (daemon, _):
            handled: list[str] = []
            handle = daemon.handle
            daemon.handle = lambda request: handled.append(request["op"]) or handle(request)
            assert client.request("ping")["pong"] is True
            assert client._sock is not old_sock
            assert handled == ["ping"]
    finally:
        client.close()


class OneShotDaemon:
    """A scripted daemon: answers ``ping``, and drops the connection on
    any other request.  Records every request line it receives."""

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        path = protocol.default_socket_path(root)
        if os.path.exists(path):
            os.unlink(path)
        self.listener = socket.create_server(path, family=socket.AF_UNIX)
        protocol.write_addr(root, path)
        self.path = path
        self.lines: list[dict] = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as stream:
            for line in stream:
                request = protocol.decode(line)
                self.lines.append(request)
                if request["op"] != "ping":
                    return  # hang up mid-request
                conn.sendall(protocol.encode(protocol.ok(pong=True)))

    def close(self) -> None:
        self.thread.join(timeout=10)
        self.listener.close()
        os.unlink(self.path)


def test_a_connection_dying_mid_request_is_never_resent(tmp_path):
    root = str(tmp_path / "svc")
    fake = OneShotDaemon(root)
    client = ServiceClient(root, timeout_s=10)
    try:
        assert client.request("ping")["pong"] is True
        with pytest.raises(ServiceUnavailable, match="hung up mid-request"):
            client.request("submit", config={"seed": 9})
        fake.thread.join(timeout=10)
        assert not fake.thread.is_alive()
        assert [line["op"] for line in fake.lines] == ["ping", "submit"]
        # no second connection was dialled to resend it
        fake.listener.setblocking(False)
        with pytest.raises(BlockingIOError):
            fake.listener.accept()
    finally:
        client.close()
        fake.close()


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def test_a_verb_streaming_client_does_not_stop_sessions_finishing(tmp_path):
    """One client sends verbs back to back on its one connection and
    reads every answer, so nearly every slice is cut after one engine
    advance.  The session still finishes, with the standalone payload."""
    root = str(tmp_path / "svc")
    proc = subprocess.Popen(
        [sys.executable, "-c", "from repro.cli import main; raise SystemExit(main())",
         "serve", "--service-dir", root, "--checkpoint-every", "1.0"],
        cwd=REPO, env=_cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    config = SessionConfig(workload="derby", mem_mb=512, young_mb=128, seed=7)
    client = ServiceClient(root, timeout_s=30)
    try:
        client.wait_ready(timeout_s=60)
        sid = client.request("submit", config=config.to_dict())["id"]
        deadline = time.monotonic() + 240
        for verb in itertools.count(1):
            assert time.monotonic() < deadline, "the session did not finish"
            if verb % 50:
                client.request("ping")
                continue
            status = client.request("status", id=sid)["session"]
            if status["state"] in TERMINAL_STATES:
                break
        ping = client.request("ping")
        assert status["state"] == "done", status
        assert ping["slices_cut"] > 0
        assert client.request("finalize", id=sid)["result"] == run_standalone(config)
        client.request("shutdown")
        proc.wait(timeout=30)
    finally:
        client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
