"""The migration-manager service: sessions, verbs, and the ctl socket.

Two halves: in-process coverage of the session lifecycle and the
manager's scheduling/verb surface, then full round-trips of every
``repro ctl`` verb against a live ``repro serve`` daemon — including
abort mid-iteration and the double-finalize error contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import (
    MigrationManager,
    RequestFailed,
    ServiceClient,
    SessionConfig,
    SessionError,
    run_standalone,
)

REPO = Path(__file__).resolve().parent.parent

#: the standard small config: migrates in ~10.4 simulated seconds
SMALL = dict(workload="derby", mem_mb=512, young_mb=128, seed=7)


def small_config(**overrides) -> SessionConfig:
    return SessionConfig(**{**SMALL, **overrides})


# -- session lifecycle (in-process) -------------------------------------------------------


def test_unknown_config_field_is_rejected():
    with pytest.raises(SessionError, match="unknown session config"):
        SessionConfig.from_dict({"workload": "derby", "vcpus": 4})


def test_wan_implies_supervise():
    assert SessionConfig(workload="derby", wan="continental").supervise


def test_verbs_enforce_the_state_machine(tmp_path):
    manager = MigrationManager(root_dir=str(tmp_path), max_active=1)
    sid = manager.submit(small_config())
    session = manager.session(sid)
    assert session.state == "queued"
    # queued sessions cannot pause/resume/finalize/stop-and-copy
    with pytest.raises(SessionError):
        manager.pause(sid)
    with pytest.raises(SessionError):
        manager.resume_session(sid)
    with pytest.raises(SessionError):
        manager.finalize(sid)
    with pytest.raises(SessionError):
        manager.stop_and_copy(sid)
    manager.drain()
    assert session.state == "done"
    with pytest.raises(SessionError):  # done, not paused
        manager.resume_session(sid)
    with pytest.raises(SessionError):  # cannot abort a finished session
        manager.abort(sid)
    payload = manager.finalize(sid)
    assert payload["ok"] is True
    assert session.state == "finalized"
    with pytest.raises(SessionError, match="already finalized"):
        manager.finalize(sid)


def test_unknown_session_id_is_an_error(tmp_path):
    manager = MigrationManager(root_dir=str(tmp_path))
    with pytest.raises(SessionError, match="unknown session"):
        manager.status("s9999-nope")


def test_admission_control_bounds_the_pool(tmp_path):
    manager = MigrationManager(root_dir=str(tmp_path), max_active=2)
    ids = [manager.submit(small_config(seed=s)) for s in (1, 2, 3, 4)]
    manager.step_round()
    states = [manager.session(sid).state for sid in ids]
    assert states.count("running") == 2
    assert states.count("queued") == 2
    manager.drain()
    assert all(manager.session(sid).state == "done" for sid in ids)


def test_pause_freezes_the_simulated_clock(tmp_path):
    manager = MigrationManager(root_dir=str(tmp_path), max_active=1)
    sid = manager.submit(small_config())
    for _ in range(4):
        manager.step_round()
    manager.pause(sid)
    frozen = manager.session(sid).driver.engine.now
    for _ in range(5):  # paused sessions are skipped by the scheduler
        manager.step_round()
    assert manager.session(sid).driver.engine.now == frozen
    manager.resume_session(sid)
    manager.drain()
    # pause/resume is measure-invisible: the payload still matches a
    # standalone run bit for bit
    assert manager.session(sid).result_payload == run_standalone(small_config())


def test_abort_mid_iteration_keeps_the_source_intact(tmp_path):
    manager = MigrationManager(root_dir=str(tmp_path), max_active=1)
    sid = manager.submit(small_config())
    session = manager.session(sid)
    while session.driver is None or session.driver.phase != "migrate":
        manager.step_round()
    manager.abort(sid, reason="operator pulled the plug")
    assert session.state == "aborted"
    payload = session.result_payload
    assert payload["aborted"] and not payload["ok"]
    assert payload["report"]["aborted"] is True
    assert payload["report"]["source_intact"] is True
    assert payload["report"]["abort_reason"] == "operator pulled the plug"
    # terminal: finalize returns the aborted payload
    assert manager.finalize(sid) == payload


def test_stop_and_copy_forces_early_convergence(tmp_path):
    manager = MigrationManager(root_dir=str(tmp_path), max_active=1)
    sid = manager.submit(small_config())
    session = manager.session(sid)
    while session.driver is None or session.driver.phase != "migrate":
        manager.step_round()
    manager.stop_and_copy(sid)
    manager.drain()
    assert session.state == "done"
    payload = session.result_payload
    assert payload["stop_reason"] == "operator stop-and-copy"
    # forcing the stop early can only shorten the iterative phase
    baseline = run_standalone(small_config())
    assert payload["n_iterations"] <= baseline["n_iterations"]


def test_session_failure_is_isolated(tmp_path):
    """One blown simulation fails its session, not the manager."""
    manager = MigrationManager(root_dir=str(tmp_path), max_active=2)
    bad = manager.submit(small_config(mem_mb=256, young_mb=64))  # no Old room
    good = manager.submit(small_config())
    manager.drain()
    assert manager.session(bad).state == "failed"
    assert "ConfigurationError" in manager.session(bad).error
    assert manager.session(good).state == "done"
    payload = manager.finalize(bad)
    assert payload["failed"] and not payload["ok"]


def test_supervised_session_matches_standalone(tmp_path):
    config = small_config(seed=13, supervise=True)
    manager = MigrationManager(root_dir=str(tmp_path), max_active=1)
    sid = manager.submit(config)
    manager.drain()
    session = manager.session(sid)
    assert session.state == "done"
    assert session.result_payload == run_standalone(config)


def test_board_covers_every_session(tmp_path):
    manager = MigrationManager(root_dir=str(tmp_path), max_active=2)
    ids = [manager.submit(small_config(seed=s)) for s in (1, 2)]
    manager.drain()
    board = manager.board()
    assert len(board) == 2
    names = {status.name for status in board.statuses()}
    assert names == set(ids)
    assert all(status.finished for status in board.statuses())


def test_memoryless_manager_runs_without_a_root():
    manager = MigrationManager(root_dir=None, max_active=2)
    sid = manager.submit(small_config())
    manager.drain()
    assert manager.session(sid).result_payload == run_standalone(small_config())


# -- the ctl socket against a live daemon -------------------------------------------------


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _spawn_daemon(root: str, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", "from repro.cli import main; raise SystemExit(main())",
         "serve", "--service-dir", root, "--max-active", "4",
         "--checkpoint-every", "1.0", *extra],
        cwd=REPO, env=_cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _ctl(root: str, verb: str, *args: str) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-c", "from repro.cli import main; raise SystemExit(main())",
         "ctl", verb, *args, "--service-dir", root],
        cwd=REPO, env=_cli_env(), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout.strip(), proc.stderr.strip()


@pytest.fixture
def daemon(tmp_path):
    root = str(tmp_path / "svc")
    proc = _spawn_daemon(root)
    client = ServiceClient(root)
    try:
        client.wait_ready()
        yield root, client
    finally:
        if proc.poll() is None:
            try:
                client.request("shutdown")
                proc.wait(timeout=10)
            except Exception:
                proc.kill()
                proc.wait(timeout=10)


def test_every_ctl_verb_round_trips(daemon):
    root, client = daemon
    # ping
    pong = client.request("ping")
    assert pong["pong"] and pong["sessions"] == 0
    # submit via the CLI surface
    rc, sid, err = _ctl(root, "submit", "--workload", "derby",
                        "--mem-mb", "512", "--young-mb", "128", "--seed", "7")
    assert rc == 0 and sid.startswith("s0001"), err
    # status by id, and list
    rc, out, _ = _ctl(root, "status", sid)
    assert rc == 0 and json.loads(out)["id"] == sid
    rc, out, _ = _ctl(root, "list", "--json")
    assert rc == 0 and [s["id"] for s in json.loads(out)] == [sid]
    # pause the moment it runs, check frozen state round-trips, resume
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        state = client.request("status", id=sid)["session"]["state"]
        if state != "queued":
            break
        time.sleep(0.01)
    if state == "running":
        paused = client.request("pause", id=sid)["session"]
        assert paused["state"] == "paused"
        frozen = paused["sim_now_s"]
        time.sleep(0.1)
        assert client.request("status", id=sid)["session"]["sim_now_s"] == frozen
        rc, out, _ = _ctl(root, "resume", sid)
        assert rc == 0 and json.loads(out)["state"] == "running"
    # wait for the terminal state via the CLI
    rc, out, _ = _ctl(root, "wait", sid)
    assert rc == 0 and json.loads(out)["state"] == "done"
    # watch: the fleet board knows the session
    rc, out, _ = _ctl(root, "watch", "--json")
    assert rc == 0
    board = json.loads(out)
    assert any(row["name"] == sid for row in board["migrations"])
    # finalize: payload identical to the standalone run of that config
    rc, out, _ = _ctl(root, "finalize", sid)
    assert rc == 0
    payload = json.loads(out)
    assert payload == run_standalone(small_config())
    # double finalize: error round-trips as exit 1 + message
    rc, _, err = _ctl(root, "finalize", sid)
    assert rc == 1 and "already finalized" in err
    with pytest.raises(RequestFailed, match="already finalized"):
        client.request("finalize", id=sid)


def test_ctl_abort_mid_iteration_over_the_socket(daemon):
    root, client = daemon
    sid = client.request(
        "submit", config=small_config().to_dict()
    )["id"]
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status = client.request("status", id=sid)["session"]
        if status.get("phase") == "migrate":
            break
        assert status["state"] in ("queued", "running"), status
        time.sleep(0.005)
    aborted = client.request("abort", id=sid, reason="socket abort")["session"]
    assert aborted["state"] == "aborted"
    result = client.request("finalize", id=sid)["result"]
    assert result["aborted"] and result["report"]["source_intact"]
    assert result["report"]["abort_reason"] == "socket abort"


def test_ctl_rejects_unknown_ops_and_ids(daemon):
    _, client = daemon
    with pytest.raises(RequestFailed, match="unknown op"):
        client.request("explode")
    with pytest.raises(RequestFailed, match="unknown session"):
        client.request("pause", id="s4242-ghost")
    with pytest.raises(RequestFailed, match="needs a session id"):
        client.request("pause")


BAD_REQUESTS = [
    ({"op": "submit", "config": ["x"]}, "JSON object"),
    ({"op": "status", "id": ["x"]}, "must be a string"),
    ({"op": "submit", "config": {"mem_mb": "lots"}}, "mem_mb"),
    ({"op": "submit", "config": {"mem_mb": -5}}, "mem_mb"),
    ({"op": "submit", "config": {"workload": "nope"}}, "unknown workload"),
    ({"op": "submit", "config": {"engine": "warp"}}, "unknown engine"),
    ({"op": "submit", "config": {"wan": "lunar"}}, "unknown wan"),
    ({"op": "submit", "config": {"kernel": "quantum"}}, "unknown kernel"),
    ({"op": "submit", "config": {"supervise": "yes"}}, "supervise"),
    ({"op": "ping", "pad": "x" * (1 << 17)}, "bad request"),  # > 64 KiB line
    ({"op": "abort", "id": "s0001-derby", "reason": 5}, "must be a string"),
    # a handler failure outside validation: the session directory name
    # is longer than the filesystem allows
    ({"op": "submit", "config": {"name": "n" * 300}}, "OSError"),
]


def test_ctl_refuses_bad_requests_and_keeps_the_connection(daemon):
    """A malformed request or an invalid spec gets a typed refusal at
    submit; the connection survives it and still answers ``ping``."""
    import socket

    from repro.service import protocol

    root, client = daemon
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(protocol.read_addr(root))
        stream = sock.makefile("rwb")

        def ask(request: dict) -> dict:
            stream.write(protocol.encode(request))
            stream.flush()
            return protocol.decode(stream.readline())

        for request, why in BAD_REQUESTS:
            response = ask(request)
            assert response["ok"] is False, request
            assert why in response["error"], (request, response)
            assert ask({"op": "ping"})["ok"] is True
    assert client.request("list")["sessions"] == []


def test_fingerprint_ignores_label_telemetry_and_kernel():
    assert SessionConfig().fingerprint() == SessionConfig(
        name="x", telemetry=False, kernel="event"
    ).fingerprint()
    assert SessionConfig(seed=8).fingerprint() != SessionConfig().fingerprint()


def test_shutdown_stops_the_daemon(tmp_path):
    root = str(tmp_path / "svc")
    proc = _spawn_daemon(root)
    client = ServiceClient(root)
    client.wait_ready()
    client.request("shutdown")
    proc.wait(timeout=15)
    assert proc.returncode == 0
    with pytest.raises(Exception):
        client.request("ping")


def test_supervised_spec_honours_the_migration_timeout():
    """``migration_timeout_s`` is a supervised run's attempt budget."""
    payload = run_standalone(small_config(
        supervise=True, max_attempts=1, migration_timeout_s=0.5,
    ))
    assert payload["ok"] is False
    (attempt,) = payload["attempts"]
    assert attempt["aborted"] and attempt["reason"] == "supervision timeout"
