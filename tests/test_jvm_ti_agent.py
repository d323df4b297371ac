"""The TI agent: JVM-side protocol participation (Figure 7)."""

import pytest

from repro.guest import messages as msg
from repro.guest.lkm import LkmState
from repro.jvm.hotspot import JvmPhase
from repro.sim.engine import Engine
from repro.units import MiB
from repro.xen.event_channel import EventChannel

from tests.conftest import build_tiny_vm


def wire(tiny):
    domain, kernel, lkm, process, heap, jvm, agent = tiny
    chan = EventChannel()
    inbox = []
    chan.bind_daemon(inbox.append)
    lkm.attach_event_channel(chan)
    engine = Engine(0.005)
    engine.add(jvm)
    engine.add(kernel)
    engine.add(lkm)
    return chan, inbox, engine


def test_agent_reports_young_range_on_query(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    chan, inbox, engine = wire(tiny_vm)
    chan.send_to_guest(msg.MigrationBegin())
    young = heap.young_committed_range()
    pfns = process.page_table.walk(young)
    assert not lkm.transfer_bitmap.test_pfns(pfns).any()


def test_agent_runs_enforced_gc_then_reports_ready(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    chan, inbox, engine = wire(tiny_vm)
    engine.run_until(0.5)
    chan.send_to_guest(msg.MigrationBegin())
    chan.send_to_guest(msg.EnterLastIter())
    # Not ready yet: the GC takes simulated time.
    assert lkm.state is LkmState.ENTERING_LAST_ITER
    engine.run_while(lambda: lkm.state is not LkmState.SUSPENSION_READY, timeout=10)
    # Post-collection state: Eden empty, threads held at the safepoint.
    assert heap.eden_used == 0
    assert jvm.phase is JvmPhase.HELD
    assert isinstance(inbox[-1], msg.SuspensionReady)


def test_occupied_from_marked_for_transfer(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    chan, inbox, engine = wire(tiny_vm)
    engine.run_until(1.0)  # accumulate some survivors
    chan.send_to_guest(msg.MigrationBegin())
    chan.send_to_guest(msg.EnterLastIter())
    engine.run_while(lambda: lkm.state is not LkmState.SUSPENSION_READY, timeout=10)
    occupied = heap.occupied_from_range()
    if not occupied.empty:
        pfns = process.page_table.walk(occupied)
        assert lkm.transfer_bitmap.test_pfns(pfns).all()
    # Eden stays skippable.
    eden = heap.layout.eden
    eden_pfns = process.page_table.walk(eden)
    assert not lkm.transfer_bitmap.test_pfns(eden_pfns).any()


def test_resume_releases_java_threads(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    chan, inbox, engine = wire(tiny_vm)
    engine.run_until(0.5)
    chan.send_to_guest(msg.MigrationBegin())
    chan.send_to_guest(msg.EnterLastIter())
    engine.run_while(lambda: lkm.state is not LkmState.SUSPENSION_READY, timeout=10)
    chan.send_to_guest(msg.VMResumed())
    assert jvm.phase is JvmPhase.RUNNING
    ops = jvm.ops_completed
    engine.run_until(engine.now + 0.5)
    assert jvm.ops_completed > ops


def test_young_shrink_notifies_lkm(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    chan, inbox, engine = wire(tiny_vm)
    chan.send_to_guest(msg.MigrationBegin())
    committed = heap.young_committed
    shrunk_tail_start = heap.layout.young_region.start + committed // 2
    tail = process.page_table.walk(
        heap.layout.committed_range
    )[committed // 2 // 4096 :].copy()
    heap.resize_young(committed // 2)
    assert agent.shrink_notices == 1
    assert lkm.stats.shrink_events == 1
    # Bits of the released pages are set again (transfer if re-dirtied).
    assert lkm.transfer_bitmap.test_pfns(tail).all()


def test_detach_stops_participation(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    chan, inbox, engine = wire(tiny_vm)
    agent.detach()
    chan.send_to_guest(msg.MigrationBegin())
    # No subscribers -> no bits cleared.
    assert lkm.transfer_bitmap.count() == domain.n_pages
    chan.send_to_guest(msg.EnterLastIter())
    assert lkm.state is LkmState.SUSPENSION_READY  # nothing to wait for


def test_crash_during_enforced_gc_releases_threads_when_it_ends(tiny_vm):
    domain, kernel, lkm, process, heap, jvm, agent = tiny_vm
    chan, inbox, engine = wire(tiny_vm)
    engine.run_until(0.5)
    chan.send_to_guest(msg.MigrationBegin())
    chan.send_to_guest(msg.EnterLastIter())  # the LKM sends PrepareSuspension
    engine.run_until(engine.now + 0.01)
    assert agent._pending_query_id is not None  # the enforced GC is under way
    assert jvm.phase is not JvmPhase.HELD
    agent.crash()
    engine.run_until(engine.now + 3.0)
    assert jvm.phase is JvmPhase.RUNNING
    assert jvm.on_enforced_ready is None
    ops = jvm.ops_completed
    engine.run_until(engine.now + 0.5)
    assert jvm.ops_completed > ops
