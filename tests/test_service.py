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


def test_session_streams_are_complete_exports(tmp_path, capsys):
    """A session that ends done or aborted leaves a finalized stream:
    spans, metrics and its payload's attribution ledgers are appended,
    so ``repro attribute`` and ``repro doctor`` read it."""
    from repro.cli import main
    from repro.telemetry.export import read_jsonl
    from repro.telemetry.live import LiveStatus, watch_file

    manager = MigrationManager(root_dir=str(tmp_path), max_active=2)
    done = manager.submit(small_config())
    aborted = manager.submit(small_config(seed=8))
    session = manager.session(aborted)
    while session.driver is None or session.driver.phase != "migrate":
        manager.step_round()
    manager.abort(aborted)
    manager.drain()
    payload = manager.finalize(done)

    def stream(sid):
        return tmp_path / "sessions" / sid / "telemetry.jsonl"

    dump = read_jsonl(stream(done))
    assert dump.spans and dump.metrics
    assert dump.attributions == payload["attribution"]
    post = LiveStatus.from_report(payload, name=done)
    assert watch_file(stream(done), name=done).to_dict() == post.to_dict()
    assert main(["attribute", str(stream(done)), "--audit"]) == 0
    assert main(["doctor", str(stream(done))]) == 0
    assert read_jsonl(stream(aborted)).spans
    assert watch_file(stream(aborted)).phase == "aborted"

    # a damaged stream: ``ctl watch`` counts what ``repro watch`` counts
    path = stream(done)
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(len(lines) // 2, "{not json\n")
    path.write_text("".join(lines) + '{"type": "ev')
    capsys.readouterr()
    assert main(["watch", str(path), "--json"]) == 0
    board = json.loads(capsys.readouterr().out)
    assert board["stream_missed"] == {"telemetry": 1}
    assert manager.board().to_dict()["stream_missed"] == {done: 1}
    assert f'repro_migration_stream_missed_total{{run="{done}"}} 1' in (
        manager.board().to_prom_text()
    )


def test_recovered_session_refuses_a_lost_stream(tmp_path):
    """A session resumed from a checkpoint finds its stream shorter than
    the checkpoint recorded: the session fails on its own, with the
    refusal as its error, and the manager drains on."""
    cadence = dict(checkpoint_every_s=0.5, checkpoint_overhead=None)
    manager = MigrationManager(root_dir=str(tmp_path), max_active=1, **cadence)
    sid = manager.submit(small_config())
    session = manager.session(sid)
    # past the t = 0 checkpoint, which holds a sink that wrote nothing
    while session.driver is None or session.driver.engine.now < 1.5:
        manager.step_round()
    (tmp_path / "sessions" / sid / "telemetry.jsonl").write_text("")
    restarted = MigrationManager(root_dir=str(tmp_path), max_active=1, **cadence)
    assert restarted.recover() == [sid]
    restarted.drain()
    session = restarted.session(sid)
    assert session.state == "failed"
    assert "telemetry stream" in session.error and "fewer than" in session.error


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
    # under the stream limit, but nested past the parser's recursion
    # limit; json.dumps cannot build it, so it goes over as raw bytes
    (b"[" * 60000 + b"\n", "bad request"),
]


def _connect(root: str):
    """A raw control-socket connection and its buffered line stream."""
    import socket

    from repro.service import protocol

    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(protocol.read_addr(root))
    return sock, sock.makefile("rwb")


def _ask(stream, request) -> dict:
    """Send one request (a dict, or a raw line as bytes); read the answer."""
    from repro.service import protocol

    if isinstance(request, dict):
        request = protocol.encode(request)
    stream.write(request)
    stream.flush()
    return protocol.decode(stream.readline())


def test_ctl_refuses_bad_requests_and_keeps_the_connection(daemon):
    """A malformed request or an invalid spec gets a typed refusal at
    submit; the connection survives it and still answers ``ping``."""
    root, client = daemon
    sock, stream = _connect(root)
    with sock:
        for request, why in BAD_REQUESTS:
            response = _ask(stream, request)
            assert response["ok"] is False, request
            assert why in response["error"], (request, response)
            assert _ask(stream, {"op": "ping"})["ok"] is True
    assert client.request("list")["sessions"] == []


def _fuzz_lines():
    """Request lines no well-behaved client sends.  Never a valid
    ``submit`` (it would start a simulation) nor ``shutdown``."""
    from hypothesis import strategies as st

    from repro.service import protocol

    def line(data: bytes) -> bytes:
        return data.replace(b"\n", b" ") + b"\n"

    scalars = (
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False) | st.text(max_size=8)
    )
    not_a_string = scalars.filter(lambda v: not isinstance(v, str)) | st.lists(
        st.integers(), max_size=3
    )
    # a list or an object is the wrong type for every config field
    wrong_field = st.lists(st.integers(), max_size=2) | st.dictionaries(
        st.text(max_size=4), st.integers(), max_size=2
    )
    verbs = st.sampled_from(
        [v for v in protocol.VERBS if v not in ("submit", "shutdown")]
    )
    requests = st.one_of(
        st.builds(lambda op: {"op": op}, not_a_string),
        st.builds(
            lambda op: {"op": op},
            st.text(max_size=12).filter(lambda op: op not in protocol.VERBS),
        ),
        st.builds(lambda op, sid: {"op": op, "id": sid}, verbs, not_a_string),
        st.builds(lambda op, sid: {"op": op, "id": sid}, verbs, st.text(max_size=8)),
        st.builds(
            lambda name, value: {"op": "submit", "config": {name: value}},
            st.sampled_from(sorted(SessionConfig.__dataclass_fields__)),
            wrong_field,
        ),
        st.builds(lambda config: {"op": "submit", "config": config}, not_a_string),
        st.builds(
            lambda reason: {"op": "abort", "id": "s0001-x", "reason": reason},
            not_a_string,
        ),
    )

    def truncated(request: dict, frac: float) -> bytes:
        body = protocol.encode(request)[:-1]
        return body[: max(1, int((len(body) - 1) * frac))] + b"\n"

    return st.one_of(
        st.binary(max_size=64).map(line),
        requests.map(protocol.encode),
        st.builds(truncated, requests, st.floats(0.0, 1.0)),
        st.integers(500, 30000).map(lambda n: b"[" * n + b"]" * n + b"\n"),
        st.integers(500, 12000).map(lambda n: b'{"a":' * n + b"\n"),
        st.one_of(scalars, st.lists(scalars, max_size=4)).map(
            lambda v: json.dumps(v).encode() + b"\n"
        ),
    )


def test_ctl_answers_fuzzed_requests_and_keeps_the_connection(daemon):
    """Whatever line arrives, the daemon answers it with a well-formed
    response (a refusal, or a read-only verb's answer), and the same
    connection still answers ``ping``."""
    from hypothesis import HealthCheck, given, settings

    root, client = daemon
    sock, stream = _connect(root)
    with sock:

        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(line=_fuzz_lines())
        def answers(line):
            response = _ask(stream, line)
            assert isinstance(response["ok"], bool), (line, response)
            if not response["ok"]:
                assert isinstance(response["error"], str), (line, response)
            assert _ask(stream, {"op": "ping"})["ok"] is True

        answers()
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
