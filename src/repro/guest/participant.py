"""The application side of the assist protocol (Figures 4 and 7).

Every guest application joins the framework the same way: subscribe to
the LKM's netlink group, answer a skip-over query with one /proc line
per area and a ``SkipAreasReply``, quiesce on ``PrepareSuspension`` and
answer with a ``SuspensionReadyReply``, let go on resume or abort, and
post ``AreaShrunk``/``AreaAdded`` notices in between.
:class:`Participant` does all of that; an application writes
:meth:`~Participant.skip_areas`, :meth:`~Participant.quiesce` and
:meth:`~Participant.release` (and, if it has live data inside its
areas, :meth:`~Participant.leaving_ranges`).  :class:`RuntimeParticipant`
writes the last three for a runtime that quiesces with an enforced,
stop-the-world GC.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ProtocolError
from repro.guest import messages as msg
from repro.guest.lkm import AssistLKM
from repro.guest.process import Process
from repro.guest.procfs import format_area_line
from repro.mem.address import VARange
from repro.telemetry.probe import NULL_PROBE


class Participant:
    """One application taking part in assisted migration."""

    #: how the participant names itself in a :class:`ProtocolError`
    label = "participant"

    def __init__(self, process: Process, lkm: AssistLKM) -> None:
        self.lkm = lkm
        self.app_id = process.pid
        #: telemetry handle (see repro.telemetry); no-op unless enabled
        self.probe = NULL_PROBE
        self._netlink = process.kernel.netlink
        #: the PrepareSuspension still waiting for its ready reply
        self._pending_query_id: int | None = None
        self.shrink_notices = 0
        self.add_notices = 0
        self._netlink.subscribe(self.app_id, self._on_netlink)
        lkm.register_app(self.app_id, process)

    # -- what each application supplies ---------------------------------------------

    def skip_areas(self) -> Sequence[VARange]:
        """The VA ranges the migration daemon may skip, as of now."""
        raise NotImplementedError

    def leaving_ranges(self) -> Sequence[VARange]:
        """Sub-ranges of the areas whose pages travel in the last
        iteration (JAVMM: the occupied From space)."""
        return ()

    def quiesce(self) -> None:
        """Stop dirtying the skip areas, then call :meth:`ready`."""
        raise NotImplementedError

    def release(self, resumed: bool) -> None:
        """Carry on: the VM *resumed* at the destination, or the
        migration aborted and the VM stays at the source.  On an abort
        the withdrawn ``PrepareSuspension``, if any, is still pending
        while this runs."""
        raise NotImplementedError

    # -- the protocol ---------------------------------------------------------------

    def _on_netlink(self, message: object) -> None:
        if isinstance(message, msg.SkipOverQuery):
            self._reply_skip_areas(message.query_id)
        elif isinstance(message, msg.PrepareSuspension):
            self._pending_query_id = message.query_id
            self.quiesce()
        elif isinstance(message, msg.VMResumedNotice):
            self.release(resumed=True)
        elif isinstance(message, msg.MigrationAbortedNotice):
            self.release(resumed=False)
            self._pending_query_id = None
        else:
            raise ProtocolError(f"{self.label} cannot handle {message!r}")

    def _reply_skip_areas(self, query_id: int) -> None:
        areas = self.skip_areas()
        for area in areas:
            self.lkm.proc_entry.write(format_area_line(self.app_id, query_id, area))
        self.probe.count("agent.replies", kind="skip-areas")
        self._netlink.send_to_kernel(
            self.app_id, msg.SkipAreasReply(self.app_id, query_id, len(areas))
        )

    def ready(self) -> None:
        """Quiesced: answer the pending ``PrepareSuspension``, if any."""
        if self._pending_query_id is None:
            return
        query_id, self._pending_query_id = self._pending_query_id, None
        self.probe.count("agent.replies", kind="suspension-ready")
        self._netlink.send_to_kernel(
            self.app_id,
            msg.SuspensionReadyReply(
                self.app_id,
                query_id,
                areas=tuple(self.skip_areas()),
                leaving_ranges=tuple(self.leaving_ranges()),
            ),
        )

    def notify_shrunk(self, *ranges: VARange) -> None:
        """*ranges* left the skip areas (their pages were freed)."""
        self.shrink_notices += 1
        self.probe.count("agent.shrink_notices")
        self._netlink.send_to_kernel(self.app_id, msg.AreaShrunk(self.app_id, ranges))

    def notify_added(self, *ranges: VARange) -> None:
        """*ranges* joined the skip areas mid-migration."""
        self.add_notices += 1
        self._netlink.send_to_kernel(self.app_id, msg.AreaAdded(self.app_id, ranges))


class RuntimeParticipant(Participant):
    """A managed runtime that quiesces with an enforced GC.

    *runtime* is an actor with a ``process``, ``enforce_gc()``,
    ``release()`` and an ``on_enforced_ready`` callback slot, which it
    calls once an enforced collection ends with the threads held at the
    safepoint: HotSpot, G1 and the CLR.
    """

    def __init__(self, runtime, lkm: AssistLKM) -> None:
        self.runtime = runtime
        #: an abort arrived before the enforced GC ended
        self._release_when_ready = False
        super().__init__(runtime.process, lkm)
        runtime.on_enforced_ready = self._on_enforced_ready

    def quiesce(self) -> None:
        self._release_when_ready = False
        self.probe.count("agent.enforced_gc_requests")
        self.runtime.enforce_gc()

    def release(self, resumed: bool) -> None:
        # Aborted mid-collection, the threads are not held yet: let go
        # of them once the collection ends instead.
        self._release_when_ready = not resumed and self._pending_query_id is not None
        self.runtime.release()

    def _on_enforced_ready(self) -> None:
        if self._release_when_ready:
            self._release_when_ready = False
            self.runtime.release()
        else:
            self.ready()
