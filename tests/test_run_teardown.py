"""A finished run unwires its guest and is freed by reference counting.

The guest's wiring (kernel and process, LKM endpoints, heap and JVM
callbacks, the migrator's load hook) is a web of reference cycles.  Once
an :class:`ExperimentRun` is done it calls :meth:`JavaVM.unwire`, so
dropping the run frees the whole guest at once instead of leaving
gigabytes of page state to the cyclic collector.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.experiment import ExperimentRun, MigrationExperiment
from repro.errors import ProtocolError
from repro.faults import FaultPlan
from repro.service import SessionConfig
from repro.service.manager import MigrationManager
from repro.units import MiB


def _run(engine: str, supervised: bool, plan=None) -> ExperimentRun:
    return ExperimentRun(
        MigrationExperiment(
            workload="derby", engine=engine, mem_bytes=MiB(512),
            max_young_bytes=MiB(128), warmup_s=1.0, cooldown_s=0.5,
            kernel="fixed",
            supervision={"stall_timeout_s": 0.5} if supervised else None,
            plan=plan,
        )
    )


def _alive_after_del(engine: str, supervised: bool, plan=None) -> tuple[bool, bool]:
    """Run to completion with the cyclic collector off, drop the run,
    and report whether its domain and guest kernel are still alive."""
    gc.collect()
    gc.disable()
    try:
        run = _run(engine, supervised, plan)
        run.run()
        domain, kernel = weakref.ref(run.vm.domain), weakref.ref(run.vm.kernel)
        del run
        return domain() is not None, kernel() is not None
    finally:
        gc.enable()


@pytest.mark.parametrize("supervised", [False, True], ids=["plain", "supervised"])
@pytest.mark.parametrize("engine", ["xen", "javmm", "assisted"])
def test_finished_run_is_freed_by_reference_counting(engine, supervised):
    assert _alive_after_del(engine, supervised) == (False, False)


@pytest.mark.parametrize("engine", ["xen", "javmm"])
def test_retried_run_is_freed_by_reference_counting(engine):
    # The first attempt stalls on the outage and is retired; neither it
    # nor the fault injector's netlink filter may keep the guest alive.
    plan = FaultPlan().link_outage(at_s=0.05, duration_s=1.0)
    assert _alive_after_del(engine, True, plan) == (False, False)


def test_finished_run_stays_readable():
    run = _run("javmm", supervised=False)
    result = run.run()
    vm = run.vm
    assert result.report.verified
    assert vm.analyzer.samples and result.gc_log
    assert len(vm.event_log) > 0
    assert vm.domain.read_pages(np.arange(vm.domain.n_pages)).any()
    assert vm.jvm.migration_load is None and vm.jvm.on_enforced_ready is None
    assert vm.heap.on_young_shrunk is None
    assert len(vm.kernel.netlink) == 0 and vm.kernel.processes == []
    with pytest.raises(ProtocolError):
        vm.lkm.proc_entry.write("1 1 0-1000\n")


#: status() and final_digest of two done sessions, recorded before runs
#: unwired their guests: the teardown must not change either.
SESSION_PINS = {
    False: (5.5600000000000005,
            "2aace7a12ecbb6c25508d8c48c9f2c9e07e1854fe74992106b8235d8f86a7712"),
    True: (5.0600000000000005,
           "db49c0152eafb9597a5569c809519341f0de85d2ae92a18b8552d63739fd9c91"),
}


@pytest.mark.parametrize("supervise", [False, True], ids=["plain", "supervised"])
def test_done_session_status_and_digest_are_unchanged(supervise):
    config = SessionConfig(
        workload="crypto", engine="javmm", mem_mb=512, young_mb=128,
        warmup_s=1.0, cooldown_s=0.5, seed=5, supervise=supervise,
    )
    manager = MigrationManager(root_dir=None, max_active=1)
    sid = manager.submit(config)
    manager.drain()
    session = manager.session(sid)
    sim_now_s, digest = SESSION_PINS[supervise]
    assert session.status() == {
        "id": sid, "name": "", "workload": "crypto", "engine": "javmm",
        "supervise": supervise, "state": "done", "error": "",
        "sim_now_s": sim_now_s, "phase": "done", "attempt": 1, "ok": True,
        "completion_time_s": 4.0600000000000005,
        "vm_downtime_s": 0.1750544799999999,
    }
    assert session.result_payload["final_digest"] == digest
