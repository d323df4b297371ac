"""The benchmark's two workloads, how each runs, and its metrics.

Every program input is pinned here; the program receives only
generated inputs.  Each workload is a fixed list of *cells*; one pass
runs every cell once, and the op's seed is derived from the run's
``--seed`` and the cell's place.  A run repeats the pass -- with
identical inputs -- until the next pass, at the mean pass length so
far, would end past ``--seconds``, and at least ``MIN_PASSES`` times
(``repeat_passes``), so a run lasts about ``--seconds`` however fast the
machine is at the moment.

- Each op's wall time is the median of its repeats; for the service
  the op is a whole fleet, and each metric is the median over fleets.
  On a shared machine the median is the steadier choice: quiet moments
  are rare and brief, so the fastest repeat jumps from run to run.
- Every repeat must reproduce pass 0's outputs bit for bit; a
  difference fails the op.  Outputs digests and the simulated outcome
  (``model``) therefore are a pure function of the seed.

lan-paper runs in the measuring process (``run_inprocess``); the
service workload drives a ``repro serve`` daemon over its socket from
one closed-loop client (``Fleet``).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from tracer import ROOT, layer_of

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: a run repeats its pass at least this often
MIN_PASSES = 2
#: stop issuing ops this long after timing starts; unfinished ops fail
DEADLINE_S = 140.0
GIB = 1 << 30

#: lan-paper: the Section 5 setup -- 2 GiB VM, 1 GiB Young, 1 GbE,
#: 20 s warm-up, 10 s cool-down, 5 ms ticks -- for both engines, on one
#: workload of each of the paper's three allocation categories
LAN_PAPER_CELLS = tuple(
    {"workload": w, "engine": e, "mem_mb": 2048, "young_mb": 1024,
     "warmup_s": 20.0, "cooldown_s": 10.0, "dt": 0.005}
    for w in ("derby", "crypto", "scimark") for e in ("xen", "javmm")
)

#: service-fleet: one fleet of sessions submitted at once -- workloads
#: cycle, the engine flips every four sessions, every fourth session is
#: supervised
SERVICE_CELLS = tuple(
    {"workload": ("derby", "crypto", "scimark", "compiler")[i % 4],
     "engine": ("javmm", "xen")[(i // 4) % 2],
     "supervise": i % 4 == 3,
     "mem_mb": 512, "young_mb": 128, "telemetry": True, "kernel": "fixed"}
    for i in range(8)
)
#: the daemon's pinned flags (``repro serve``); half the fleet queues
SERVE_FLAGS = {"max_active": 4, "slice_s": 0.25, "checkpoint_every_s": 2.0,
               "checkpoint_budget_pct": 3}
#: the poller's think time after a non-terminal ``status``
THINK_S = 0.05
VERB_TIMEOUT_S = 30.0


def op_seed(seed: int, workload: str, index: int) -> int:
    """The seed of one op: a stable hash of the run seed and the cell's place."""
    key = f"{seed}:{workload}:{index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big") & 0x7FFFFFFF


def inputs(workload: str, seed: int, cells) -> list[tuple[int, dict, int]]:
    """Every op of a pass: ``(index, cell, op seed)``."""
    return [(i, cell, op_seed(seed, workload, i)) for i, cell in enumerate(cells)]


@dataclass
class OpResult:
    """What the benchmark keeps of one op's outputs."""

    sim_s: float = 0.0
    #: final migration report dicts (the simulated outcome)
    reports: list = field(default_factory=list)
    #: attribution ledger dicts of every migration attempt
    ledgers: list = field(default_factory=list)
    attempts: int = 0
    rescues: int = 0
    digest: object = None
    errors: list = field(default_factory=list)


def _ledger_errors(ledgers: list[dict]) -> list[str]:
    return [f"attempt {led['attempt']}: {v}" for led in ledgers for v in led["violations"]]


# -- the in-process workload -------------------------------------------------------------


class LanPaper:
    """The in-process workload: ``run`` is the timed op, ``result``
    checks its outputs."""

    name = "lan-paper"
    kernel = "fixed"
    cells = LAN_PAPER_CELLS
    imports = ("repro.core.experiment", "repro.net.link", "repro.telemetry.attribution")

    @staticmethod
    def run(cell: dict, seed: int):
        from repro.core.experiment import ExperimentRun, MigrationExperiment
        from repro.net.link import Link

        run = ExperimentRun(MigrationExperiment(
            workload=cell["workload"], engine=cell["engine"],
            mem_bytes=cell["mem_mb"] << 20, max_young_bytes=cell["young_mb"] << 20,
            link=Link(), warmup_s=cell["warmup_s"], cooldown_s=cell["cooldown_s"],
            dt=cell["dt"], kernel=LanPaper.kernel, seed=seed,
        ))
        return run.run(), run.engine.now

    @staticmethod
    def result(raw) -> OpResult:
        from repro.telemetry.attribution import attribute_report

        exp, sim_s = raw
        report = exp.report.to_dict()
        ledgers = [attribute_report(report).to_dict()]
        errors = _ledger_errors(ledgers)
        if report["verified"] is not True:
            errors.append(f"{exp.workload}/{exp.engine}: migration not verified")
        return OpResult(
            sim_s=sim_s, reports=[report], ledgers=ledgers, attempts=1,
            digest=report, errors=errors,
        )


INPROCESS = {LanPaper.name: LanPaper}
SERVICE = "service-fleet"
WORKLOADS = (*INPROCESS, SERVICE)


def repeat_passes(run_pass, seconds: float) -> int:
    """Call ``run_pass(0)``, ``run_pass(1)``, ... until the next pass, at
    the mean pass length so far, would end past *seconds* -- but at
    least ``MIN_PASSES`` times.  Returns the number of passes run."""
    start = time.perf_counter()
    done = 0
    while done < MIN_PASSES or (time.perf_counter() - start) * (done + 1) / done <= seconds:
        run_pass(done)
        done += 1
    return done


def _check_repeat(result: OpResult, first: OpResult | None, label: str) -> None:
    """Fail a repeat whose outputs differ from pass 0's."""
    if first is not None and not result.errors and result.digest != first.digest:
        result.errors.append(f"{label}: outputs differ from pass 0 on identical inputs")


def _safe_result(workload, raw, error: str | None) -> OpResult:
    if error is not None:
        return OpResult(errors=[error])
    try:
        return workload.result(raw)
    except Exception as exc:  # noqa: BLE001 -- an op whose outputs break the check fails
        return OpResult(errors=[f"checking outputs: {type(exc).__name__}: {exc}"])


def _timed_op(workload, op_id: str, cell: dict, seed: int, tracer, record: bool):
    """Run one op (under the tracer's root span, if tracing), then
    check its outputs outside the timed region."""
    scope = tracer.op(op_id, record=record) if tracer is not None else nullcontext({})
    error = raw = None
    with scope as ledger:
        t = time.perf_counter_ns()
        try:
            raw = workload.run(cell, seed)
        except Exception as exc:  # noqa: BLE001 -- a raising op is a failed op
            error = f"{op_id}: {type(exc).__name__}: {exc}"
        wall_s = (time.perf_counter_ns() - t) / 1e9
    return _safe_result(workload, raw, error), wall_s, ledger


def run_inprocess(workload, seed: int, seconds: float, tracer=None, cells=None,
                  trace_path=None) -> dict:
    """Run repeated passes of *workload* in this process; see the module doc.

    With a *tracer* (not yet installed), op 0 first runs untraced twice
    -- a warm-up, then a timed reference for the tracing overhead --
    and the tracer is installed for the passes; the first traced op's
    spans go to *trace_path*.
    """
    cells = list(cells or workload.cells)
    run = {"ops": [], "pass0": [], "results": [], "errors": [], "ledgers": []}
    start = time.perf_counter()

    def run_pass(pass_index: int) -> None:
        results = []
        for i, cell, s in inputs(workload.name, seed, cells):
            op_id = f"{workload.name}/{pass_index}/{i}"
            if time.perf_counter() - start > DEADLINE_S:
                res, wall_s = OpResult(errors=[f"{op_id}: not run, past the deadline"]), 0.0
            else:
                record = tracer is not None and not run["ledgers"] and trace_path is not None
                res, wall_s, ledger = _timed_op(workload, op_id, cell, s, tracer, record)
                if tracer is not None:
                    run["ledgers"].append(ledger)
                    if record:
                        tracer.write_chrome_trace(trace_path)
            _check_repeat(res, run["pass0"][i] if run["pass0"] else None, op_id)
            results.append(res)
            run["ops"].append({"pass": pass_index, "index": i, "wall_s": wall_s,
                               "sim_s": res.sim_s, "failed": bool(res.errors)})
            run["errors"].extend(res.errors)
        if pass_index == 0:
            run["pass0"] = results
        run["results"].extend(results)

    if tracer is not None:
        _, cell, s = inputs(workload.name, seed, cells)[0]
        workload.run(cell, s)
        t = time.perf_counter_ns()
        workload.run(cell, s)
        untraced_op0_s = (time.perf_counter_ns() - t) / 1e9
        tracer.install()
    try:
        run["passes"] = repeat_passes(run_pass, seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = _summarize(run)
    if tracer is None:
        # Each op's wall is the median of its repeats.
        repeats: dict[int, list[float]] = {}
        for op in run["ops"]:
            if not op["failed"]:
                repeats.setdefault(op["index"], []).append(op["wall_s"])
        sim_s = sum(res.sim_s for i, res in enumerate(run["pass0"]) if i in repeats)
        walls = [statistics.median(v) for v in repeats.values()]
        timed_s = sum(walls)
        out["metrics"] = e2e_metrics(
            sim_speed=sim_s / timed_s if timed_s else 0.0,
            ops_per_min=60.0 * len(walls) / timed_s if timed_s else 0.0,
            p50_s=percentile(walls, 50), p90_s=percentile(walls, 90),
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        out["latency_samples"] = len(walls)
    else:
        # Traced walls are inflated: a traced run reports only its layers.
        op0 = [led["wall_s"] for led in run["ledgers"] if led["op"].endswith("/0")]
        out["trace_overhead"] = min(op0) / untraced_op0_s - 1.0
        out["tracer"] = tracer.state()
        out["ledgers"] = run["ledgers"]
        out["traced_wall_s"] = sum(led["wall_s"] for led in run["ledgers"])
    return out


# -- the service workload ----------------------------------------------------------------


class DaemonError(RuntimeError):
    """The service daemon did not start, answer or stop as expected."""


class Fleet:
    """One ``repro serve`` daemon over a fresh root, and the closed-loop
    client that drives it: one connection at a time, every verb timed."""

    def __init__(self, root: Path, trace: bool = False, trace_path=None) -> None:
        self.root = Path(root)
        self.trace = trace
        self.trace_path = trace_path
        self.proc: subprocess.Popen | None = None
        #: round trip of every verb the daemon answered, in order (ns)
        self.answered_ns: list[int] = []
        self.verb_errors: list[str] = []
        #: failures stopping the daemon, outside any session
        self.stop_errors: list[str] = []
        self.client = None

    @property
    def state_path(self) -> Path:
        return self.root / "bench-trace-state.json"

    def start(self, timeout_s: float = 60.0) -> None:
        """Spawn the daemon and wait until it answers ``ping``."""
        from repro.service import ServiceClient, ServiceUnavailable

        if self.root.exists():
            shutil.rmtree(self.root)
        self.root.mkdir(parents=True)
        flags = SERVE_FLAGS
        if self.trace:
            cmd = [sys.executable, str(BENCH_DIR / "daemon.py"), str(self.root),
                   str(self.state_path), str(self.trace_path or "")]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve",
                   "--service-dir", str(self.root),
                   "--max-active", str(flags["max_active"]),
                   "--slice-s", str(flags["slice_s"]),
                   "--checkpoint-every", str(flags["checkpoint_every_s"]),
                   "--checkpoint-budget", str(flags["checkpoint_budget_pct"])]
        with open(self.root / "daemon.log", "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                         stdin=subprocess.DEVNULL)
        self.client = ServiceClient(str(self.root), timeout_s=VERB_TIMEOUT_S)
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                self._timed("ping")
                return
            except ServiceUnavailable:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise DaemonError(f"daemon did not come up: {self._log_tail()}") from None
                time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """The running daemon's resident high-water mark so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise DaemonError("the daemon's /proc status has no VmHWM line")

    def _log_tail(self) -> str:
        try:
            return (self.root / "daemon.log").read_text(errors="replace")[-2000:]
        except OSError:
            return "(no daemon log)"

    def _timed(self, op: str, **fields) -> dict:
        t = time.perf_counter_ns()
        response = self.client.request(op, **fields)
        self.answered_ns.append(time.perf_counter_ns() - t)
        return response

    def call(self, op: str, **fields) -> dict | None:
        """One verb; a refusal, error or timeout is recorded and yields None."""
        from repro.service import RequestFailed, ServiceUnavailable

        t = time.perf_counter_ns()
        try:
            response = self.client.request(op, **fields)
        except RequestFailed as exc:
            # The daemon answered (and ran ``handle``), just not ok.
            self.answered_ns.append(time.perf_counter_ns() - t)
            self.verb_errors.append(f"{op}: {exc}")
            return None
        except (ServiceUnavailable, OSError, ValueError) as exc:
            self.verb_errors.append(f"{op}: {type(exc).__name__}: {exc}")
            return None
        self.answered_ns.append(time.perf_counter_ns() - t)
        return response

    def run_pass(self, configs: list[dict], deadline: float) -> dict:
        """Submit *configs* at once, poll round-robin, finalize each
        terminal session.  Returns per-session outcomes, the makespan
        (first submit to last finalize) and the pass's verb latencies."""
        from repro.service.session import TERMINAL_STATES

        first_verb = len(self.answered_ns)
        t0 = time.perf_counter()
        sessions = []
        for i, config in enumerate(configs):
            response = self.call("submit", config=config)
            sessions.append({"index": i, "id": response["id"] if response else None,
                             "result": None if response else OpResult(errors=["submit failed"])})
        pending = deque(s for s in sessions if s["id"] is not None)
        while pending and time.perf_counter() < deadline:
            session = pending.popleft()
            response = self.call("status", id=session["id"])
            if response is None:
                session["result"] = OpResult(errors=[f"{session['id']}: status failed"])
                continue
            status = response["session"]
            if status["state"] not in TERMINAL_STATES:
                pending.append(session)
                time.sleep(THINK_S)
                continue
            final = self.call("finalize", id=session["id"])
            session["result"] = _session_result(
                session["id"], configs[session["index"]], status,
                final["result"] if final else None,
            )
        makespan = time.perf_counter() - t0
        for session in pending:
            session["result"] = OpResult(errors=[f"{session['id']}: unfinished at the deadline"])
        return {"results": [s["result"] for s in sessions], "makespan_s": makespan,
                "latencies_s": [ns / 1e9 for ns in self.answered_ns[first_verb:]]}

    def stop(self, timeout_s: float = 20.0) -> dict | None:
        """Shut the daemon down (killing it if it does not go), reap it,
        and return the traced daemon's state, if any."""
        if self.proc is None:
            return None
        from repro.service import RequestFailed, ServiceUnavailable

        try:
            if self.proc.poll() is None:
                self._timed("shutdown")
        except (RequestFailed, ServiceUnavailable, OSError, ValueError) as exc:
            self.stop_errors.append(f"shutdown: {type(exc).__name__}: {exc}")
        deadline = time.monotonic() + timeout_s
        pid = self.proc.pid
        while True:
            reaped, status = os.waitpid(pid, os.WNOHANG)
            if reaped:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                reaped, status = os.waitpid(pid, 0)
                self.stop_errors.append("daemon killed: it did not stop after shutdown")
                break
            time.sleep(0.02)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        state = None
        if self.state_path.exists():
            state = json.loads(self.state_path.read_text())
        self.proc = None
        return state

    def remove_root(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def _session_result(session_id: str, config: dict, status: dict, payload: dict | None) -> OpResult:
    """Check one finalized session and keep its outputs."""
    if payload is None:
        return OpResult(errors=[f"{session_id}: finalize failed"])
    supervised = bool(config.get("supervise"))
    report = payload.get("report") if supervised else payload
    ledgers = list(payload.get("attribution") or [])
    errors = [f"{session_id}: {v}" for v in payload.get("conservation_violations") or []]
    if status["state"] != "done" or payload.get("ok") is not True:
        errors.append(f"{session_id}: session ended {status['state']}: {payload.get('error', '')}")
    if not isinstance(report, dict) or report.get("verified") is not True:
        errors.append(f"{session_id}: migration not verified")
    attempts = payload.get("attempts") or [{"aborted": False}]
    return OpResult(
        sim_s=float(status.get("sim_now_s") or 0.0),
        reports=[report] if isinstance(report, dict) else [], ledgers=ledgers,
        attempts=len(attempts), rescues=len(payload.get("rescues") or []),
        digest=payload.get("final_digest"), errors=errors,
    )


def service_configs(seed: int, cells) -> list[dict]:
    """The session configs of one fleet (the program's only input)."""
    return [dict(cell, seed=s, name=f"bench-{i}") for i, cell, s in inputs(SERVICE, seed, cells)]


def run_service(fleet: Fleet, seed: int, seconds: float, cells=None, tracer=None) -> dict:
    """Run repeated fleets against *fleet*'s (started) daemon, then stop it.

    A fleet is the service's op: each metric is computed per fleet, and
    the run reports its median over the fleets.  With a *tracer*, the
    tracing overhead is measured in this process on session 0 run
    standalone, untraced and then traced."""
    from repro.service import run_standalone
    from repro.service.session import SessionConfig

    configs = service_configs(seed, list(cells or SERVICE_CELLS))
    run = {"ops": [], "pass0": [], "errors": [], "results": [], "fleets": []}
    deadline = time.perf_counter() + DEADLINE_S

    def run_pass(pass_index: int) -> None:
        fleet_pass = fleet.run_pass(configs, deadline)
        for i, res in enumerate(fleet_pass["results"]):
            _check_repeat(res, run["pass0"][i] if run["pass0"] else None,
                          f"{SERVICE}/{pass_index}/{i}")
            run["ops"].append({"pass": pass_index, "index": i, "sim_s": res.sim_s,
                               "failed": bool(res.errors)})
            run["errors"].extend(res.errors)
        if pass_index == 0:
            run["pass0"] = fleet_pass["results"]
        if pass_index == MIN_PASSES - 1:
            # The daemon keeps every finalized session, so it grows with
            # each fleet; its peak is taken after a fixed number of them.
            try:
                run["rss_mb"] = fleet.peak_rss_mb()
            except (OSError, DaemonError) as exc:
                run["errors"].append(f"daemon peak RSS: {exc}")
        run["results"].extend(fleet_pass["results"])
        ok = [res for res in fleet_pass["results"] if not res.errors]
        run["fleets"].append({"makespan_s": fleet_pass["makespan_s"],
                              "sim_s": sum(res.sim_s for res in ok), "completed": len(ok),
                              "latencies_s": fleet_pass["latencies_s"]})

    os.sync()
    try:
        run["passes"] = repeat_passes(run_pass, seconds)
    finally:
        daemon_state = fleet.stop()
    # A failed verb already fails its session; one outside any session
    # (shutdown) is an op of its own.
    run["errors"].extend(fleet.verb_errors)
    run["ops"].extend({"sim_s": 0.0, "failed": True} for _ in fleet.stop_errors)
    run["errors"].extend(fleet.stop_errors)
    out = _summarize(run)
    out["fleets"] = [{"makespan_s": f["makespan_s"], "verbs": len(f["latencies_s"])}
                     for f in run["fleets"]]
    if tracer is None:
        fleets = run["fleets"]

        def median(per_fleet) -> float:
            return statistics.median(per_fleet(f) for f in fleets)

        out["metrics"] = e2e_metrics(
            sim_speed=median(lambda f: f["sim_s"] / f["makespan_s"]),
            ops_per_min=median(lambda f: 60.0 * f["completed"] / f["makespan_s"]),
            p50_s=median(lambda f: percentile(f["latencies_s"], 50)),
            p90_s=median(lambda f: percentile(f["latencies_s"], 90)),
            rss_mb=run.get("rss_mb", 0.0),
        )
        out["latency_samples"] = min(len(f["latencies_s"]) for f in fleets)
    else:
        # Traced walls are inflated: a traced run reports only its layers.
        config = SessionConfig.from_dict(configs[0])
        run_standalone(config)
        t = time.perf_counter_ns()
        run_standalone(config)
        untraced_s = (time.perf_counter_ns() - t) / 1e9
        tracer.install()
        try:
            with tracer.op(f"{SERVICE}/standalone/0") as ledger:
                run_standalone(config)
        finally:
            tracer.uninstall()
        out["trace_overhead"] = ledger["wall_s"] / untraced_s - 1.0
        if daemon_state is None:
            raise DaemonError(f"the traced daemon left no state: {fleet._log_tail()}")
        out["tracer"] = daemon_state["tracer"]
        out["ledgers"] = daemon_state["ledgers"] + [ledger]
        out["traced_wall_s"] = sum(led["wall_s"] for led in daemon_state["ledgers"])
        # Client round trip minus the daemon's own handling, verb by verb.
        handled = daemon_state["tracer"]["samples"].get("service:ServiceDaemon.handle", [])
        if len(handled) == len(fleet.answered_ns):
            out["verb_wait_ns"] = [c - h for c, h in zip(fleet.answered_ns, handled)]
    return out


# -- summaries and metrics ---------------------------------------------------------------


def outputs_digest(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for res in results:
        h.update(json.dumps(res.digest, sort_keys=True, default=str).encode())
    return h.hexdigest()


def model(results: list[OpResult]) -> dict:
    """The simulated outcome of a pass: exact sums, identical for equal seeds."""
    reports = [r for res in results for r in res.reports]
    return {
        "migrations": len(reports),
        "sim_downtime_s": sum(r["downtime"]["vm_downtime_s"] for r in reports),
        "sim_migration_s": sum(r["completion_time_s"] for r in reports),
        "wire_gib": sum(r["total_wire_bytes"] for r in reports) / GIB,
    }


def percentile(values, q: int) -> float:
    """The interpolated *q*-th percentile, 1 <= q <= 99 (0 for no values)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def e2e_metrics(sim_speed: float, ops_per_min: float, p50_s: float, p90_s: float,
                rss_mb: float) -> dict:
    """The end-to-end metrics the worker measures (``run.py`` adds
    ``setup_s``)."""
    return {
        "sim_speed": {"value": sim_speed, "unit": "sim-s/s"},
        "ops_per_min": {"value": ops_per_min, "unit": "1/min"},
        "latency_p50_ms": {"value": 1e3 * p50_s, "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * p90_s, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def _summarize(run: dict) -> dict:
    failed = sum(op["failed"] for op in run["ops"])
    return {
        "attempted": len(run["ops"]),
        "failed": failed,
        "correct": failed == 0 and not run["errors"],
        "errors": run["errors"][:20],
        "passes": run["passes"],
        "ops": [{k: op[k] for k in ("pass", "index", "wall_s", "sim_s") if k in op}
                for op in run["ops"]],
        "model": model(run["pass0"]),
        "outputs_digest": outputs_digest(run["pass0"]),
        "all_results": run["results"],
    }


def layer_metrics(out: dict) -> dict:
    """The per-layer metrics of a traced run (see the README's table).

    Self times, counts and result-derived totals are per pass; ratios,
    percentiles and per-call costs are over the whole run.
    """
    state = out["tracer"]
    self_ns, calls, counts = state["self_ns"], state["calls"], state["counts"]
    samples = state["samples"]
    passes = max(out["passes"], 1)

    def total(pred, table=self_ns) -> float:
        return sum(v for k, v in table.items() if pred(k))

    def self_s(layer: str) -> float:
        return total(lambda k: layer_of(k) == layer) / 1e9 / passes

    def own_s(name: str) -> float:
        return self_ns.get(name, 0) / 1e9 / passes

    def count(name: str, table=calls) -> float:
        return table.get(name, 0) / passes

    def steps(layer: str) -> float:
        return total(lambda k: layer_of(k) == layer and k.endswith((".step", ".step_many")), calls)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def ms_percentile(name: str, q: int) -> float:
        return percentile(samples.get(name, []), q) / 1e6

    ticks = calls.get("sim:Engine.step", 0)
    results = out["all_results"]
    wire = {"first_copy": 0, "all": 0}
    for res in results:
        for led in res.ledgers:
            wire["first_copy"] += led["wire_bytes"].get("first_copy", 0)
            wire["all"] += sum(led["wire_bytes"].values())
    pages_sent = sum(r["total_pages_sent"] for res in results for r in res.reports)
    pass0 = out["model"]
    payload_fns = ("service:run_digest", "service:experiment_payload", "service:supervised_payload")
    values = {
        "sim.self_s": (self_s("sim"), "s"),
        "sim.ticks": (ticks / passes, "count"),
        "sim.wall_per_tick_us": (1e6 * ratio(out["traced_wall_s"], ticks), "us"),
        "jvm.self_s": (self_s("jvm"), "s"),
        "jvm.calls": (steps("jvm") / passes, "count"),
        "jvm.minor_gcs": (count("jvm:GenerationalHeap.perform_minor_gc"), "count"),
        "guest.self_s": (self_s("guest"), "s"),
        "guest.write_range_self_s": (own_s("guest:Process.write_range"), "s"),
        "guest.write_range_calls": (count("guest:Process.write_range"), "count"),
        "mem.self_s": (self_s("mem"), "s"),
        "mem.walk_calls": (count("mem:PageTable.walk"), "count"),
        "xen.self_s": (self_s("xen"), "s"),
        "xen.calls": (total(lambda k: layer_of(k) == "xen", calls) / passes, "count"),
        "migration.self_s": (self_s("migration"), "s"),
        "migration.us_per_step": (1e6 * ratio(self_s("migration") * passes, steps("migration")), "us"),
        "migration.pages_sent": (pages_sent / passes, "count"),
        "migration.first_copy_ratio": (ratio(wire["first_copy"], wire["all"]), "ratio"),
        "migration.sim_downtime_s": (pass0["sim_downtime_s"], "s"),
        "migration.sim_migration_s": (pass0["sim_migration_s"], "s"),
        "migration.wire_gib": (pass0["wire_gib"], "GiB"),
        "net.self_s": (self_s("net"), "s"),
        "core.self_s": (self_s("core"), "s"),
        "core.attempts": (sum(res.attempts for res in results) / passes, "count"),
        "core.rescues": (sum(res.rescues for res in results) / passes, "count"),
        "checkpoint.self_s": (self_s("checkpoint"), "s"),
        "checkpoint.writes": (count("checkpoint:Checkpointer.write"), "count"),
        "checkpoint.deferred": (count("checkpoint.deferred", counts), "count"),
        "checkpoint.write_p50_ms": (ms_percentile("checkpoint:Checkpointer.write", 50), "ms"),
        "telemetry.self_s": (self_s("telemetry"), "s"),
        "telemetry.records": (count("telemetry:StreamSink.emit"), "count"),
        "service.self_s": (self_s("service"), "s"),
        "service.slices": (count("service:MigrationSession.step_slice"), "count"),
        "service.slice_p95_ms": (ms_percentile("service:MigrationSession.step_slice", 95), "ms"),
        "service.handle_self_s": (own_s("service:ServiceDaemon.handle"), "s"),
        "service.payload_self_s": (total(lambda k: k in payload_fns) / 1e9 / passes, "s"),
        "service.queue_wait_p50_s": (percentile(state["queue_waits"], 50) / 1e9, "s"),
        "service.verb_wait_p50_ms": (percentile(out.get("verb_wait_ns", []), 50) / 1e6, "ms"),
        "workloads.self_s": (self_s("workloads"), "s"),
        "bench.other_s": (own_s(ROOT), "s"),
        "bench.trace_overhead": (out["trace_overhead"], "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
