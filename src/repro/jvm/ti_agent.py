"""The JVM TI agent (Section 4.3).

The agent is the JVM-side participant in the framework protocol.  It
runs in the same process as the JVM, subscribes to the LKM's netlink
multicast group, and:

- answers skip-over queries with the committed Young generation's VA
  range (written through the /proc entry, closed with a netlink reply);
- forwards Young-generation shrink events (pages freed at the end of a
  GC) to the LKM as ``AreaShrunk`` messages;
- on ``PrepareSuspension``, enforces a minor GC; when the collection
  completes — Java threads still held at the safepoint — it reports
  suspension-readiness, passing the current Young range and the occupied
  From range (the live data that must travel in the last iteration);
- on ``VMResumedNotice``, releases the Java threads.

The protocol itself is :class:`~repro.guest.participant.RuntimeParticipant`'s;
this module adds HotSpot's areas and the agent's fault surface.
"""

from __future__ import annotations

from repro.guest.lkm import AssistLKM
from repro.guest.participant import RuntimeParticipant
from repro.jvm.hotspot import HotSpotJVM, JvmPhase
from repro.mem.address import VARange


class TIAgent(RuntimeParticipant):
    """JVM Tool Interface agent connecting HotSpot to the LKM."""

    label = "TI agent"

    def __init__(self, jvm: HotSpotJVM, lkm: AssistLKM) -> None:
        #: fault-injection state: a hung agent queues netlink traffic
        self.hung = False
        self._hang_queue: list[object] = []
        self.detached = False
        super().__init__(jvm, lkm)
        jvm.heap.on_young_shrunk = self.notify_shrunk

    @property
    def jvm(self) -> HotSpotJVM:
        return self.runtime

    def skip_areas(self) -> tuple[VARange, ...]:
        return (self.jvm.heap.young_committed_range(),)

    def leaving_ranges(self) -> tuple[VARange, ...]:
        return (self.jvm.heap.occupied_from_range(),)

    def detach(self) -> None:
        """Unload the agent (unsubscribe and drop callbacks)."""
        self.detached = True
        self._netlink.unsubscribe(self.app_id)
        self.lkm.unregister_app(self.app_id)
        self.jvm.heap.on_young_shrunk = None
        self.jvm.on_enforced_ready = None

    # -- fault surface (repro.faults) -------------------------------------------------

    def hang(self) -> None:
        """Wedge the agent thread: netlink traffic queues unanswered."""
        self.hung = True

    def unhang(self) -> None:
        """Recover from a hang, processing queued messages in order."""
        self.hung = False
        queued, self._hang_queue = self._hang_queue, []
        for message in queued:
            self._on_netlink(message)

    def crash(self) -> None:
        """The agent dies mid-protocol.

        Same visible effect as a clean unload — the kernel reaps the
        netlink socket either way — but it also releases Java threads
        the dead agent can no longer release itself: now if they are
        held, or when the enforced GC it asked for ends.
        """
        orphaned = self._pending_query_id is not None or self._release_when_ready
        if not self.detached:
            self.detach()
        self._pending_query_id = None
        if orphaned and self.jvm.phase is not JvmPhase.HELD:
            self.jvm.on_enforced_ready = self._release_orphaned
        self.jvm.release()

    def _release_orphaned(self) -> None:
        """The crashed agent's enforced GC ended: nobody will reply, so
        let the held threads go."""
        self.jvm.on_enforced_ready = None
        self.jvm.release()

    # -- netlink delivery -------------------------------------------------------------

    def _on_netlink(self, message: object) -> None:
        if self.hung:
            self._hang_queue.append(message)
            return
        super()._on_netlink(message)

    def _on_enforced_ready(self) -> None:
        """The enforced GC finished; Java threads are held at the safepoint."""
        if self.hung:
            return  # the wedged agent thread cannot send its reply
        super()._on_enforced_ready()
