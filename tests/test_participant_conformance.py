"""Every application-side participant speaks the assist protocol alike.

The HotSpot TI agent, the G1 and .NET agents and the cache server each
answer the LKM's four netlink messages.  Here the LKM's kernel endpoint
and its /proc entry are replaced by recorders, and each participant is
sent the messages by hand:

- a skip-over query is answered with one /proc line per skip area,
  then a ``SkipAreasReply`` counting them;
- ``PrepareSuspension`` quiesces the application and is answered with a
  ``SuspensionReadyReply`` carrying its areas and leaving ranges;
- a resume notice, and an abort notice, release it again; an abort in
  the middle of quiescing leaves no late ready reply;
- any other message is a ``ProtocolError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.guest import messages as msg
from repro.guest.kernel import GuestKernel
from repro.guest.lkm import AssistLKM
from repro.guest.procfs import ProcEntry
from repro.jvm.g1 import G1Agent, G1Heap, G1Runtime
from repro.jvm.heap import GenerationalHeap
from repro.jvm.hotspot import HotSpotJVM
from repro.jvm.ti_agent import TIAgent
from repro.runtime.dotnet import DotNetAgent, DotNetRuntime, EphemeralHeap
from repro.sim.engine import Engine
from repro.units import MiB
from repro.workloads.cache_app import CacheApp
from repro.xen.domain import Domain


def _hotspot(kernel, lkm):
    process = kernel.spawn("java-app")
    heap = GenerationalHeap(
        process, MiB(32), MiB(32), young_target_bytes=MiB(32),
        survival_frac=0.05, rng=np.random.default_rng(4),
    )
    jvm = HotSpotJVM(
        process, heap, alloc_bytes_per_s=MiB(40), ops_per_s=10,
        misc_region_bytes=MiB(4), tts_enforced_s=0.05,
    )
    TIAgent(jvm, lkm)
    return jvm, lambda: (
        (heap.young_committed_range(),), (heap.occupied_from_range(),)
    )


def _g1(kernel, lkm):
    process = kernel.spawn("g1-java")
    heap = G1Heap(
        process, heap_bytes=MiB(48), region_bytes=MiB(1),
        young_regions_target=12, rng=np.random.default_rng(8),
    )
    runtime = G1Runtime(process, heap, alloc_bytes_per_s=MiB(30))
    G1Agent(runtime, lkm)
    return runtime, lambda: (
        tuple(heap.young_ranges()), tuple(heap.survivor_ranges())
    )


def _dotnet(kernel, lkm):
    process = kernel.spawn("dotnet-app")
    heap = EphemeralHeap(
        process, ephemeral_bytes=MiB(24), gen2_bytes=MiB(32),
        rng=np.random.default_rng(9),
    )
    runtime = DotNetRuntime(process, heap, alloc_bytes_per_s=MiB(30))
    DotNetAgent(runtime, lkm)
    return runtime, lambda: ((heap.ephemeral,), (heap.occupied_prefix(),))


def _cache(kernel, lkm):
    app = CacheApp(kernel, lkm, cache_bytes=MiB(32), write_bytes_per_s=MiB(8))
    return app, lambda: ((app.cold_region,), ())


#: participant -> factory returning (its actor, () -> (areas, leaving))
PARTICIPANTS = {
    "hotspot": _hotspot,
    "g1": _g1,
    "dotnet": _dotnet,
    "cache": _cache,
}

#: the replies the protocol checks (AreaShrunk/AreaAdded notices may
#: interleave with them while a runtime collects)
REPLIES = (msg.SkipAreasReply, msg.SuspensionReadyReply)


class Harness:
    """One participant on a guest whose LKM side is a pair of recorders."""

    def __init__(self, name: str) -> None:
        domain = Domain(f"{name}-vm", MiB(128))
        self.kernel = GuestKernel(domain, kernel_reserved_bytes=MiB(8))
        lkm = AssistLKM(self.kernel)
        self.actor, self.expect = PARTICIPANTS[name](self.kernel, lkm)
        [self.app_id] = self.kernel.netlink.subscriber_ids
        self.engine = Engine(0.005)
        self.engine.add(self.actor)
        self.engine.run_until(0.5)
        self.lines: list[tuple] = []
        self.replies: list[object] = []
        lkm.proc_entry = ProcEntry(
            "/proc/recorder", lambda *line: self.lines.append(line)
        )
        self.kernel.netlink.bind_kernel(self._on_kernel)

    def _on_kernel(self, app_id: int, message: object) -> None:
        assert app_id == self.app_id
        if isinstance(message, REPLIES):
            self.replies.append(message)

    def send(self, message: object) -> None:
        self.kernel.netlink.multicast(message)

    def run(self, seconds: float) -> None:
        self.engine.run_until(self.engine.now + seconds)

    def progresses(self, seconds: float = 0.1) -> bool:
        ops = self.actor.ops_completed
        self.run(seconds)
        return self.actor.ops_completed > ops

    def prepare(self, query_id: int) -> None:
        self.send(msg.PrepareSuspension(query_id))
        self.engine.run_while(lambda: not self.replies, timeout=5.0)


@pytest.mark.parametrize("name", sorted(PARTICIPANTS))
def test_skip_query_writes_one_line_per_area_then_counts_them(name):
    h = Harness(name)
    h.send(msg.SkipOverQuery(7))
    areas, _ = h.expect()
    assert areas
    assert h.lines == [(h.app_id, 7, area) for area in areas]
    assert h.replies == [msg.SkipAreasReply(h.app_id, 7, len(areas))]


@pytest.mark.parametrize("name", sorted(PARTICIPANTS))
def test_prepare_quiesces_and_reports_areas_and_leaving_ranges(name):
    h = Harness(name)
    h.prepare(8)
    areas, leaving = h.expect()
    assert h.replies == [
        msg.SuspensionReadyReply(h.app_id, 8, areas=areas, leaving_ranges=leaving)
    ]
    assert not h.progresses()
    h.send(msg.VMResumedNotice())
    assert h.progresses()


@pytest.mark.parametrize("name", sorted(PARTICIPANTS))
def test_abort_releases_a_quiesced_participant(name):
    h = Harness(name)
    h.prepare(9)
    assert not h.progresses()
    h.send(msg.MigrationAbortedNotice("test abort"))
    assert h.progresses()
    assert len(h.replies) == 1


@pytest.mark.parametrize("name", sorted(PARTICIPANTS))
def test_abort_mid_quiesce_leaves_no_late_reply(name):
    h = Harness(name)
    h.send(msg.PrepareSuspension(10))
    sent = len(h.replies)
    h.send(msg.MigrationAbortedNotice("test abort"))
    h.run(1.0)
    assert len(h.replies) == sent
    assert h.progresses()


@pytest.mark.parametrize("name", sorted(PARTICIPANTS))
def test_unknown_message_is_a_protocol_error(name):
    h = Harness(name)
    with pytest.raises(ProtocolError, match="cannot handle"):
        h.send(msg.SkipAreasReply(h.app_id, 1, 0))
