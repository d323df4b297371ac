"""Chaos-restart equivalence: killed runs resume bit-identically.

The correctness oracle of the checkpoint subsystem.  Every scenario
runs a migration to completion uninterrupted, then runs the same
configuration again, kills it at a pseudo-randomized tick (in-process
via :class:`SimulatedCrash`, and across a real process boundary via
SIGKILL), resumes from the latest durable checkpoint, and asserts the
final report, the source page-version array, and the analyzer's
throughput samples are bit-identical to the uninterrupted run.

The default matrix keeps tier-1 wall clock modest; set
``REPRO_CHAOS_FULL=1`` (the CI chaos job does) to run every
workload × engine × kernel combination.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig, Checkpointer, SimulatedCrash, resume
from repro.core import MigrationExperiment
from repro.core.experiment import ExperimentRun
from repro.core.supervisor import supervised_migrate
from repro.faults import FaultPlan
from repro.sim.engine import KERNEL_ENV_VAR
from repro.units import MiB

REPO = Path(__file__).resolve().parents[1]
FULL = os.environ.get("REPRO_CHAOS_FULL") == "1"
VM_KWARGS = {"mem_bytes": MiB(512), "max_young_bytes": MiB(128)}


def _crash_tick(scenario: str, lo: int, span: int) -> int:
    """Pseudo-randomized but reproducible kill tick for a scenario."""
    return lo + zlib.crc32(scenario.encode("utf-8")) % span


def _fingerprint(run_vm, report) -> tuple:
    """Everything the equivalence oracle compares, hashard-free.

    Includes the audited attribution ledger: a crash-resumed run must
    both *conserve* (every millisecond and wire byte lands in exactly
    one bucket) and produce a ledger bit-identical to the uninterrupted
    run's.
    """
    from repro.telemetry.attribution import assert_conserved

    domain = run_vm.domain
    pages = domain.read_pages(np.arange(domain.n_pages))
    samples = [repr(s) for s in run_vm.analyzer.samples]
    ledger = assert_conserved(report).to_dict() if report is not None else None
    return (report.to_dict() if report is not None else None, pages, samples, ledger)


def _assert_identical(expected: tuple, actual: tuple) -> None:
    assert actual[0] == expected[0], "final reports differ"
    assert np.array_equal(actual[1], expected[1]), "page versions differ"
    assert actual[2] == expected[2], "throughput samples differ"
    assert actual[3] == expected[3], "attribution ledgers differ"


# -- unsupervised experiments ----------------------------------------------------------

_CORE = [
    ("derby", "javmm", "fixed"),
    ("derby", "javmm", "event"),
    ("derby", "xen", "event"),
    ("scimark", "assisted", "fixed"),
]
_EXTRA = [
    (w, e, k)
    for w in ("derby", "scimark")
    for e in ("xen", "assisted", "javmm")
    for k in ("fixed", "event")
    if (w, e, k) not in _CORE
]
_MATRIX = _CORE + [
    pytest.param(*combo, marks=pytest.mark.skipif(
        not FULL, reason="full chaos matrix needs REPRO_CHAOS_FULL=1"))
    for combo in _EXTRA
]


def _experiment(workload: str, engine: str, kernel: str) -> MigrationExperiment:
    return MigrationExperiment(
        workload=workload, engine=engine, kernel=kernel,
        warmup_s=6.0, cooldown_s=3.0, seed=7, **VM_KWARGS,
    )


@pytest.mark.parametrize("workload,engine,kernel", _MATRIX)
def test_experiment_crash_resume_equivalence(tmp_path, workload, engine, kernel):
    plain = ExperimentRun(_experiment(workload, engine, kernel))
    baseline = plain.run()
    expected = _fingerprint(plain.vm, baseline.report)

    exp = _experiment(workload, engine, kernel)
    crash_at = _crash_tick(f"{workload}-{engine}-{kernel}", 400, 1100)
    config = {"workload": workload, "engine": engine, "kernel": kernel}
    cfg = CheckpointConfig(
        directory=str(tmp_path), every_s=1.0, max_overhead=None,
        crash_at_tick=crash_at, config=config,
    )
    with pytest.raises(SimulatedCrash):
        ExperimentRun(exp).run(Checkpointer(cfg))

    resumed = resume(str(tmp_path), expect_config=config)
    ctl = resumed.controller
    result = ctl.run(resumed.checkpointer(every_s=1.0, max_overhead=None))
    _assert_identical(expected, _fingerprint(ctl.vm, result.report))


def test_checkpointing_is_invisible(tmp_path):
    """A checkpointed run that never crashes equals an unchecked one."""
    plain = ExperimentRun(_experiment("derby", "javmm", "fixed"))
    baseline = plain.run()

    exp = _experiment("derby", "javmm", "fixed")
    ckpt = ExperimentRun(exp)
    cfg = CheckpointConfig(directory=str(tmp_path), every_s=1.0,
                           max_overhead=None,
                           config={"workload": "derby", "engine": "javmm"})
    ck = Checkpointer(cfg)
    result = ckpt.run(ck)
    assert ck.written >= 3  # it really did checkpoint along the way
    _assert_identical(
        _fingerprint(plain.vm, baseline.report),
        _fingerprint(ckpt.vm, result.report),
    )


# -- supervised runs under fault plans -------------------------------------------------


def _plan(fault: str) -> FaultPlan:
    # A link outage bites regardless of engine: the stall watchdog
    # aborts the attempt and the supervisor retries after backoff.
    # (An agent hang cannot: the agent answers the prepare query
    # synchronously at migration start, before the plan can fire.)
    if fault == "loss":
        return FaultPlan().link_outage(at_s=0.5, duration_s=3.0).link_loss(
            at_s=4.0, loss_rate=0.2, duration_s=1.0
        )
    return FaultPlan().link_outage(at_s=0.5, duration_s=3.0)


_SUP_CORE = [("javmm", "fixed", "link"), ("xen", "event", "loss")]
_SUP_EXTRA = [("javmm", "event", "loss"), ("xen", "fixed", "link")]
_SUP_MATRIX = _SUP_CORE + [
    pytest.param(*combo, marks=pytest.mark.skipif(
        not FULL, reason="full chaos matrix needs REPRO_CHAOS_FULL=1"))
    for combo in _SUP_EXTRA
]


@pytest.mark.parametrize("engine,kernel,fault", _SUP_MATRIX)
def test_supervised_crash_resume_equivalence(tmp_path, monkeypatch,
                                             engine, kernel, fault):
    monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
    kwargs = dict(
        workload="derby", engine_name=engine, warmup_s=4.0, seed=11,
        vm_kwargs=dict(VM_KWARGS), max_attempts=3, backoff_s=0.5,
    )
    baseline, vm_b = supervised_migrate(plan=_plan(fault), **kwargs)
    assert baseline.n_attempts >= 2  # the fault must actually bite
    expected = _fingerprint(vm_b, baseline.report)

    crash_at = _crash_tick(f"sup-{engine}-{kernel}-{fault}", 900, 500)
    cfg = CheckpointConfig(directory=str(tmp_path), every_s=0.5,
                           crash_at_tick=crash_at, max_overhead=None)
    with pytest.raises(SimulatedCrash):
        supervised_migrate(plan=_plan(fault), checkpoint=cfg, **kwargs)

    resumed = resume(str(tmp_path))
    sup = resumed.controller
    outcome = sup.run(resumed.checkpointer(every_s=0.5, max_overhead=None))
    assert outcome.ok == baseline.ok
    assert outcome.n_attempts == baseline.n_attempts
    assert outcome.degradations == baseline.degradations
    _assert_identical(expected, _fingerprint(sup.vm, outcome.report))


def test_supervised_warmup_crash_resumes_bit_identical(tmp_path):
    """The run is the checkpoint root from t=0 for supervised runs too:
    a crash before warm-up ends resumes from a warm-up checkpoint and
    lands on the uninterrupted run's bits."""
    kwargs = dict(
        workload="derby", engine_name="javmm", warmup_s=4.0, seed=11,
        vm_kwargs=dict(VM_KWARGS), max_attempts=3, backoff_s=0.5,
    )
    baseline, vm_b = supervised_migrate(plan=_plan("link"), **kwargs)
    expected = _fingerprint(vm_b, baseline.report)

    cfg = CheckpointConfig(directory=str(tmp_path), every_s=0.5,
                           crash_at_tick=500,  # t=2.5s, inside warm-up
                           max_overhead=None)
    with pytest.raises(SimulatedCrash):
        supervised_migrate(plan=_plan("link"), checkpoint=cfg, **kwargs)

    resumed = resume(str(tmp_path))
    assert resumed.archive.manifest["extra"]["phase"] == "warmup"
    assert resumed.archive.manifest["extra"]["driver"] == "supervisor"
    run = resumed.controller
    outcome = run.run(resumed.checkpointer(every_s=0.5, max_overhead=None))
    assert outcome.ok == baseline.ok
    assert outcome.n_attempts == baseline.n_attempts
    _assert_identical(expected, _fingerprint(run.vm, outcome.report))


# -- SIGKILL across a real process boundary --------------------------------------------

_CLI = [sys.executable, "-c", "from repro.cli import main; raise SystemExit(main())"]


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop(KERNEL_ENV_VAR, None)
    return env


def _cli_digest(args: list[str]) -> str:
    proc = subprocess.run(
        _CLI + args, cwd=REPO, env=_cli_env(),
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["final_digest"]


@pytest.mark.parametrize(
    "kernel,extra",
    [("fixed", []), ("event", []), ("fixed", ["--supervise"])],
    ids=["fixed", "event", "fixed-supervise"],
)
def test_sigkill_crash_resume_digest(tmp_path, kernel, extra):
    """Kill a checkpointing CLI run with SIGKILL mid-flight; resuming in
    a fresh process must reproduce the uninterrupted run's digest."""
    args = [
        "migrate", "--workload", "derby", "--engine", "javmm",
        "--mem-mb", "512", "--young-mb", "128", "--kernel", kernel,
        "--json", *extra,
    ]
    expected = _cli_digest(args)

    ck = tmp_path / "ck"
    victim = subprocess.Popen(
        _CLI + args + ["--checkpoint-dir", str(ck), "--checkpoint-every", "1.5",
                       "--checkpoint-budget", "0"],
        cwd=REPO, env=_cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and victim.poll() is None:
            if len(list(ck.glob("ckpt-*"))) >= 2:
                break
            time.sleep(0.02)
        if victim.poll() is None:
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
            assert victim.returncode == -signal.SIGKILL
    finally:
        if victim.poll() is None:  # pragma: no cover - cleanup on timeout
            victim.kill()
            victim.wait(timeout=30)
    assert list(ck.glob("ckpt-*")), "victim died before its first checkpoint"

    resumed = _cli_digest(
        ["resume", "--checkpoint-dir", str(ck), "--kernel", kernel,
         "--json"]
    )
    assert resumed == expected


# -- WAN link + rescue ladder under chaos restart --------------------------------------

_WAN_CORE = [("continental", "fixed")]
_WAN_EXTRA = [("continental", "event"), ("metro", "fixed"), ("metro", "event")]
_WAN_MATRIX = _WAN_CORE + [
    pytest.param(*combo, marks=pytest.mark.skipif(
        not FULL, reason="full chaos matrix needs REPRO_CHAOS_FULL=1"))
    for combo in _WAN_EXTRA
]


@pytest.mark.parametrize("profile,kernel", _WAN_MATRIX)
def test_wan_rescue_crash_resume_equivalence(tmp_path, monkeypatch,
                                             profile, kernel):
    """Crash-resume with the whole WAN stack in the actor graph: the
    Gilbert–Elliott loss chain, the weather driver, the rescue
    controller and the supervisor's rescue state must all ride the
    checkpoint and replay bit-identically."""
    from repro.net import wan_link

    monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
    plan = FaultPlan().link_flap(at_s=1.0, down_s=2.5, count=3, spacing_s=6.0)
    kwargs = dict(
        workload="derby", warmup_s=4.0, seed=11,
        vm_kwargs=dict(VM_KWARGS), max_attempts=3, backoff_s=0.5,
    )
    baseline, vm_b = supervised_migrate(
        link=wan_link(profile, seed=11), plan=plan, **kwargs
    )
    assert baseline.ok  # the ladder rides the outages out
    expected = _fingerprint(vm_b, baseline.report)

    crash_at = _crash_tick(f"wan-{profile}-{kernel}", 1400, 900)
    cfg = CheckpointConfig(directory=str(tmp_path), every_s=0.5,
                           crash_at_tick=crash_at, max_overhead=None)
    with pytest.raises(SimulatedCrash):
        supervised_migrate(
            link=wan_link(profile, seed=11), plan=plan, checkpoint=cfg, **kwargs
        )

    resumed = resume(str(tmp_path))
    sup = resumed.controller
    outcome = sup.run(resumed.checkpointer(every_s=0.5, max_overhead=None))
    assert outcome.ok == baseline.ok
    assert outcome.rescues == baseline.rescues
    assert outcome.n_attempts == baseline.n_attempts
    _assert_identical(expected, _fingerprint(sup.vm, outcome.report))


def test_held_telemetry_counters_survive_a_crash_resume(tmp_path):
    """The dirty log and the link hold their probe's counters; after a
    crash-resume they must count into the restored probe's registry, so
    the run ends with the uninterrupted run's ``dirty.*`` and ``net.*``
    series, in the same order."""
    kwargs = dict(
        workload="derby", engine_name="xen", warmup_s=4.0, seed=11,
        vm_kwargs=dict(VM_KWARGS), telemetry=True,
    )

    def series(vm) -> list:
        return [
            (sv.name, sv.labels, sv.value)
            for sv in vm.probe.metrics.snapshot().series.values()
            if sv.name.startswith(("dirty.", "net."))
        ]

    baseline, vm_b = supervised_migrate(**kwargs)
    expected = series(vm_b)
    assert any(name == "dirty.pages_marked" for name, _, _ in expected)

    cfg = CheckpointConfig(directory=str(tmp_path), every_s=0.5,
                           crash_at_tick=1100, max_overhead=None)
    with pytest.raises(SimulatedCrash):
        supervised_migrate(checkpoint=cfg, **kwargs)
    resumed = resume(str(tmp_path))
    sup = resumed.controller
    outcome = sup.run(resumed.checkpointer(every_s=0.5, max_overhead=None))
    assert outcome.ok == baseline.ok
    assert series(sup.vm) == expected
