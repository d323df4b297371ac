"""The daemon's loop and the manager's checkpoint budget.

The loop answers every verb whose line has arrived before the next
session slice starts, and a client that stalls mid-line or never reads
its answers holds up nobody.  The checkpoint overhead budget holds for
the manager as a whole, not per session.  Sessions here are stand-ins
(admitted without building a simulation, sliced by a counter), so the
slice counts are exact.
"""

from __future__ import annotations

import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.service import MigrationManager, ServiceClient, SessionConfig, protocol
from repro.service.server import ServiceDaemon
from repro.service.session import RUNNING, MigrationSession


class FakeFleet:
    """A daemon over *n* never-ending stand-in sessions, served on a
    background thread.  ``slices`` counts the session slices started;
    ``on_slice[k]`` runs inside slice *k*; ``handled`` holds, per verb
    the daemon handled, its op and the slice count at that moment."""

    def __init__(self, root, monkeypatch, n: int = 4) -> None:
        self.slices = 0
        self.on_slice: dict[int, object] = {}
        self.handled: list[tuple[str, int]] = []
        self.errors: list[BaseException] = []
        fleet = self

        def start(session) -> None:
            session._admin.state = RUNNING

        def step_slice(session, slice_s) -> bool:
            fleet.slices += 1
            hook = fleet.on_slice.pop(fleet.slices, None)
            if hook is not None:
                hook()
            time.sleep(0.0005)
            return False

        monkeypatch.setattr(MigrationSession, "start", start)
        monkeypatch.setattr(MigrationSession, "step_slice", step_slice)
        manager = MigrationManager(root_dir=str(root), max_active=n)
        for i in range(n):
            manager.submit(SessionConfig(name=f"fake-{i}"))
        self.daemon = ServiceDaemon(manager)
        handle = self.daemon.handle

        def counted(request: dict) -> dict:
            fleet.handled.append((request.get("op"), fleet.slices))
            return handle(request)

        self.daemon.handle = counted
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.client = ServiceClient(str(root), timeout_s=10)

    def _serve(self) -> None:
        try:
            self.daemon.serve()
        except Exception as exc:  # noqa: BLE001 — reported at exit
            self.errors.append(exc)

    def __enter__(self) -> "FakeFleet":
        self.thread.start()
        self.client.wait_ready()
        self.wait_slices(3 * 4)  # every session admitted and sliced
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.client.request("shutdown")
        finally:
            self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "the daemon did not stop"
        assert not self.errors, self.errors

    def wait_slices(self, n: int, timeout_s: float = 10.0) -> None:
        deadline = time.monotonic() + timeout_s
        while self.slices < n:
            assert time.monotonic() < deadline, "the daemon stopped slicing"
            time.sleep(0.001)

    def ops(self, op: str) -> int:
        return sum(1 for name, _ in self.handled if name == op)

    def connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10)
        sock.connect(self.daemon.socket_path)
        return sock

    def ask_mid_slice(self, request: dict) -> tuple[socket.socket, dict]:
        """Send *request* from inside a session slice; returns the
        connection and the slice the request arrived in."""
        arrival: dict = {}

        def send() -> None:
            sock = self.connect()
            sock.sendall(protocol.encode(request))
            arrival.update(sock=sock, slice=self.slices)

        self.on_slice[self.slices + 5] = send
        self.wait_slices(self.slices + 6)
        return arrival["sock"], arrival


def _answer(sock: socket.socket) -> dict:
    with sock, sock.makefile("rb") as stream:
        return protocol.decode(stream.readline())


def _slices_before_answer(fleet: FakeFleet, op: str, arrived: int) -> int:
    answered = [at for name, at in fleet.handled if name == op]
    assert answered, f"{op} was never handled"
    return answered[-1] - arrived


def test_a_verb_sent_mid_slice_is_answered_at_the_next_slice_boundary(
    tmp_path, monkeypatch
):
    with FakeFleet(tmp_path / "svc", monkeypatch) as fleet:
        sock, arrival = fleet.ask_mid_slice({"op": "status"})
        response = _answer(sock)
        assert response["ok"] and len(response["sessions"]) == 4
        assert all(s["state"] == "running" for s in response["sessions"])
        # the slice it arrived in finishes; no further slice starts first
        assert _slices_before_answer(fleet, "status", arrival["slice"]) <= 1


def test_stalled_clients_hold_up_nobody(tmp_path, monkeypatch):
    """One client sends half a line and waits; another pipelines
    thousands of requests and never reads an answer.  A third client
    is still answered at the next slice boundary."""
    with FakeFleet(tmp_path / "svc", monkeypatch) as fleet:
        before = fleet.ops("ping")
        half = fleet.connect()
        half.sendall(b'{"op": "pi')
        mute = fleet.connect()
        mute.setblocking(False)
        flood = protocol.encode({"op": "ping"}) * 10_000
        try:
            while flood:
                flood = flood[mute.send(flood):]
        except BlockingIOError:
            pass
        # wait until the mute client's answers have backed up: the
        # daemon stops handling its requests, yet keeps slicing
        pings = -1
        while pings != fleet.ops("ping") - before:
            pings = fleet.ops("ping") - before
            fleet.wait_slices(fleet.slices + 40)
        assert 0 < pings < 10_000
        sock, arrival = fleet.ask_mid_slice({"op": "list"})
        assert _answer(sock)["ok"]
        assert _slices_before_answer(fleet, "list", arrival["slice"]) <= 1
        # the half line still waits for the rest of its request
        half.sendall(b'ng"}\n')
        assert _answer(half)["pong"] is True
        mute.close()


# -- one checkpoint budget per manager ----------------------------------------------------


def test_one_checkpoint_budget_covers_every_session(tmp_path, monkeypatch):
    """Four sessions write on one cadence under a 3% budget, on an
    injected wall clock: every slice costs 10 ms and every write 25 ms.
    Their cadence writes together stay within 3% of the manager's wall
    time, plus one write; per-session meters would allow about 4x."""
    from repro.checkpoint import runner

    clock = SimpleNamespace(now=1000.0)
    write_s, slice_s, budget = 0.025, 0.010, 0.03

    def write_checkpoint(*args, **kwargs):
        clock.now += write_s

    monkeypatch.setattr(time, "perf_counter", lambda: clock.now)
    monkeypatch.setattr(runner, "write_checkpoint", write_checkpoint)
    monkeypatch.setattr(runner, "prune_checkpoints", lambda *a: None)
    manager = MigrationManager(
        root_dir=str(tmp_path / "svc"), max_active=4,
        checkpoint_every_s=0.25, checkpoint_overhead=budget,
    )
    sessions = [
        manager.session(manager.submit(SessionConfig(name=f"s{i}")))
        for i in range(4)
    ]
    checkpointers = [session._make_checkpointer() for session in sessions]
    runs = [
        SimpleNamespace(engine=SimpleNamespace(now=0.0, clock=SimpleNamespace(ticks=0)))
        for _ in sessions
    ]
    started = clock.now
    for checkpointer, run in zip(checkpointers, runs):
        checkpointer.arm(run)  # the baseline: always admitted
    for _ in range(200):
        for checkpointer, run in zip(checkpointers, runs):
            clock.now += slice_s
            run.engine.now += 0.25
            run.engine.clock.ticks += 50
            checkpointer.maybe(run)
    wall = clock.now - started
    cadence_writes = sum(c.written - 1 for c in checkpointers)
    assert all(c.written >= 1 for c in checkpointers)
    assert cadence_writes > 0 and sum(c.deferred for c in checkpointers) > 0
    assert cadence_writes * write_s <= budget * wall + write_s + 1e-9
    # a checkpointer outside any manager keeps a meter of its own
    alone = SessionConfig().checkpointer(str(tmp_path / "alone"), 0.25, budget)
    assert alone.meter is not checkpointers[0].meter


def test_a_recovered_session_charges_the_shared_budget(tmp_path):
    root = str(tmp_path / "svc")
    MigrationManager(root_dir=root).submit(SessionConfig())
    manager = MigrationManager(root_dir=root, checkpoint_every_s=1.0)
    manager.recover()
    (session,) = manager.sessions.values()
    assert session._make_checkpointer().meter is manager.checkpoint_meter


@pytest.mark.parametrize("line", [b"x" * (1 << 17) + b"\n", b"[" * 70_000 + b"\n"])
def test_an_over_long_line_is_refused_and_the_connection_survives(
    tmp_path, monkeypatch, line
):
    with FakeFleet(tmp_path / "svc", monkeypatch) as fleet:
        sock = fleet.connect()
        with sock, sock.makefile("rwb") as stream:
            stream.write(line[:40_000])
            stream.flush()
            stream.write(line[40_000:] + protocol.encode({"op": "ping"}))
            stream.flush()
            refusal = protocol.decode(stream.readline())
            assert refusal == protocol.error(
                "bad request: line longer than the stream limit"
            )
            assert protocol.decode(stream.readline())["pong"] is True
