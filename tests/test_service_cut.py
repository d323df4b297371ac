"""Cut slices: a waiting verb ends the running slice at once.

Between two engine advances the daemon asks its selector whether a
connection or a request is ready; if one is, the running slice ends at
the current instant and the verb is served right after it.  A cut is
only an earlier slice end, so sessions stay bit-identical to standalone
runs however often slices are cut.  The cut checks here are
deterministic (every k-th advance, or a request sent from inside a
slice), never a wall clock.
"""

from __future__ import annotations

import itertools
import pickle
import select
import selectors
import socket
import threading
from contextlib import contextmanager

import pytest

from repro.service import MigrationManager, ServiceClient, SessionConfig, protocol, run_standalone
from repro.service.server import ServiceDaemon
from repro.service.session import MigrationSession
from repro.sim.engine import Engine

#: the standard small config: migrates in ~10.4 simulated seconds
SMALL = dict(workload="derby", mem_mb=512, young_mb=128, seed=7)


class EveryKth:
    """A cut check that fires at every *k*-th advance it is asked about."""

    def __init__(self, k: int) -> None:
        self.k = k
        self.asked = itertools.count(1)
        self.cuts = 0

    def __call__(self) -> bool:
        cut = next(self.asked) % self.k == 0
        self.cuts += cut
        return cut


@pytest.mark.parametrize("supervise", [False, True], ids=["plain", "supervised"])
def test_cut_slices_keep_sessions_bit_identical(supervise, tmp_path):
    """Under both kernels, with and without a checkpointer, a session
    whose slices are cut every third advance ends with the standalone
    run's payload and page-version digest."""
    standalone = run_standalone(SessionConfig(**SMALL, supervise=supervise))
    for kernel in ("fixed", "event"):
        for root in (str(tmp_path / kernel), None):
            config = SessionConfig(**SMALL, supervise=supervise, kernel=kernel)
            manager = MigrationManager(
                root_dir=root, slice_s=0.25,
                checkpoint_every_s=1.0 if root else None,
            )
            manager.slice_cut = cut = EveryKth(3)
            sid = manager.submit(config)
            manager.drain()
            session = manager.session(sid)
            assert session.state == "done", session.error
            assert cut.cuts > 0, (kernel, root)
            payload = session.result_payload
            assert payload["final_digest"] == standalone["final_digest"], (kernel, root)
            assert payload == standalone, (kernel, root)


def test_a_slice_is_transient_and_ends_with_its_block():
    """The slice end and its cut check bound the run loops only inside
    :meth:`Engine.slice`, and never reach a snapshot."""
    engine = Engine(dt=0.005)
    cut = EveryKth(4)
    with engine.slice(1.0, cut):
        engine.run_until(10.0)
        assert engine.now == pytest.approx(4 * 0.005)  # cut at the 4th advance
        assert engine.slice_end == engine.now
        engine.run_until(10.0)  # the slice is over: nothing more runs
        assert engine.now == pytest.approx(4 * 0.005)
        restored = pickle.loads(pickle.dumps(engine))
    assert engine.slice_end == float("inf") and engine._cut is None
    assert restored.slice_end == float("inf") and restored._cut is None
    engine.run_until(0.1)
    assert engine.now >= 0.1


# -- the daemon: a verb waits for one engine advance, not for the slice --------------------


@contextmanager
def serving(manager: MigrationManager):
    """Serve *manager* on a background thread; yields the daemon and a client."""
    daemon = ServiceDaemon(manager)
    errors: list[BaseException] = []

    def serve() -> None:
        try:
            daemon.serve()
        except Exception as exc:  # noqa: BLE001 — reported at exit
            errors.append(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = ServiceClient(manager.root_dir, timeout_s=30)
    try:
        client.wait_ready()
        yield daemon, client
    finally:
        try:
            client.request("shutdown")
        finally:
            client.close()
            thread.join(timeout=30)
    assert not thread.is_alive(), "the daemon did not stop"
    assert not errors, errors
    assert manager.slice_cut is None  # the daemon's check left with it


def test_a_failing_poll_cuts_the_slice_and_never_raises(tmp_path):
    """The daemon's check runs inside a simulation: a selector that
    fails there cuts the slice, so the loop's own poll meets the
    failure between slices, and no driver ever sees it."""
    daemon = ServiceDaemon(MigrationManager(root_dir=str(tmp_path / "svc")))
    selector = selectors.DefaultSelector()
    daemon._readiness = select.poll()
    daemon._readiness.register(selector.fileno(), select.POLLIN)
    assert daemon._request_waiting() is False
    selector.close()
    assert daemon._request_waiting() is True
    assert daemon.slices_cut == 1


@pytest.mark.parametrize("kernel", ["fixed", "event"])
def test_a_status_sent_mid_slice_is_answered_after_one_engine_advance(
    kernel, tmp_path, monkeypatch
):
    """A ``status`` request sent from inside a session's third slice is
    answered after that slice's first engine advance: the slice was cut
    there.  In the fixed kernel an advance is one tick, so the answer's
    clock is short of the slice's planned end."""
    root = str(tmp_path / "svc")
    planned: list[float] = []
    advances: list[float] = []
    third: dict = {}
    in_flight = threading.Event()
    step_slice, advance = MigrationSession.step_slice, Engine._advance

    def counted_advance(engine, bound):
        ticks = advance(engine, bound)
        if third.get("running"):
            advances.append(engine.now)
        return ticks

    def sending_step_slice(session, slice_s):
        planned.append(session.driver.engine.now + slice_s)
        if len(planned) != 3:
            return step_slice(session, slice_s)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        sock.connect(protocol.read_addr(root))
        sock.sendall(protocol.encode({"op": "status", "id": session.id}))
        third.update(sock=sock, running=True)
        try:
            return step_slice(session, slice_s)
        finally:
            third["running"] = False
            in_flight.set()

    monkeypatch.setattr(Engine, "_advance", counted_advance)
    monkeypatch.setattr(MigrationSession, "step_slice", sending_step_slice)
    manager = MigrationManager(root_dir=root, slice_s=0.25)
    sid = manager.submit(SessionConfig(**SMALL, kernel=kernel))
    with serving(manager) as (daemon, client):
        assert in_flight.wait(timeout=60), "the session never ran its third slice"
        with third["sock"] as sock, sock.makefile("rb") as stream:
            answer = protocol.decode(stream.readline())
        assert answer["ok"] and answer["session"]["id"] == sid
        assert len(advances) == 1  # cut after the slice's first advance
        assert answer["session"]["sim_now_s"] == advances[0] <= planned[2]
        if kernel == "fixed":
            assert advances[0] < planned[2]
        ping = client.request("ping")
        assert ping["slices"] >= 3 and ping["slices_cut"] >= 1
        client.request("abort", id=sid)  # ends the session and its stream
