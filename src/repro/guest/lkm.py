"""The Loadable Kernel Module (Sections 3.3.1–3.3.5).

The LKM is the guest-resident coordinator of application-assisted live
migration.  It

- proxies messages between the migration daemon (event channel) and the
  applications (netlink multicast),
- bridges the semantic gap by translating application VA ranges to PFNs
  with page-table walks,
- owns the **transfer bitmap** (one bit per domain page; set = must be
  transferred, cleared = may be skipped) and the **PFN cache** that
  answers shrink notifications after the pages left the page tables,
- runs the state machine of Figure 4: INITIALIZED → MIGRATION_STARTED →
  ENTERING_LAST_ITER → SUSPENSION_READY → RESUMED → INITIALIZED.

Update rules (Section 3.3.4): the *first* update clears bits for all
reported areas; a *shrink* sets bits immediately (from the PFN cache);
an *expand* is deferred to the *final* update, which reconciles every
area and additionally sets bits for explicit ``leaving_ranges`` (JAVMM:
the occupied From space).  An optional *full re-walk* mode implements
the paper's alternative final update that needs no shrink notifications
but walks every area again, at a modelled time cost.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProtocolError
from repro.guest import messages as msg
from repro.guest.kernel import GuestKernel
from repro.guest.process import Process
from repro.guest.procfs import ProcEntry
from repro.mem.address import VARange, coalesce, page_span_inner
from repro.mem.bitmap import PageBitmap
from repro.mem.constants import PAGE_SIZE
from repro.mem.pfn_cache import PfnCache
from repro.sim.actor import Actor
from repro.telemetry.probe import NULL_PROBE
from repro.xen.event_channel import EventChannel


class LkmState(enum.Enum):
    """Operating states of Figure 4."""

    INITIALIZED = "initialized"
    MIGRATION_STARTED = "migration_started"
    ENTERING_LAST_ITER = "entering_last_iter"
    SUSPENSION_READY = "suspension_ready"
    RESUMED = "resumed"


@dataclass
class _AppRecord:
    """What the LKM remembers about one assisting application.

    Each application gets its *own* PFN cache: the cache is keyed by
    virtual page number, and distinct processes routinely share VA
    layouts (every HotSpot maps its heap at the same base), so a shared
    cache would let one application's entries clobber another's — the
    cross-application interference Section 6 requires the LKM to
    prevent.
    """

    app_id: int
    process: Process
    areas: list[VARange] = field(default_factory=list)
    cache: PfnCache = field(default_factory=PfnCache)


@dataclass
class LkmStats:
    """Counters for reports and tests."""

    first_update_pages: int = 0
    shrink_events: int = 0
    shrink_pages: int = 0
    expand_pages_final: int = 0
    leaving_pages_final: int = 0
    final_update_seconds: float = 0.0
    timed_out_apps: int = 0
    queries_sent: int = 0


#: Final-update cost model: fixed syscall/locking overhead plus a
#: per-touched-page cost.  Calibrated so JAVMM-sized updates land in the
#: paper's "within 300 us" envelope.
_FINAL_UPDATE_BASE_S = 5e-5
_FINAL_UPDATE_PER_PAGE_S = 2e-8
#: The alternative full re-walk pays a page-table walk per area page.
_REWALK_PER_PAGE_S = 1e-6


class AssistLKM(Actor):
    """Guest kernel module coordinating application-assisted migration."""

    priority = 5
    #: checkpoint-protocol layout version (see repro.sim.actor);
    #: bump when a state field is added/renamed/repurposed
    snapshot_version = 1

    def __init__(
        self,
        kernel: GuestKernel,
        reply_timeout_s: float | None = None,
        full_rewalk: bool = False,
        rewalk_threads: int = 1,
    ) -> None:
        if rewalk_threads < 1:
            raise ProtocolError("rewalk_threads must be >= 1")
        self.kernel = kernel
        self.domain = kernel.domain
        self.reply_timeout_s = reply_timeout_s
        self.full_rewalk = full_rewalk
        #: Section 6: "investigating parallelization of transfer bitmap
        #: updates to handle large skip-over areas efficiently" — walks
        #: divide across this many threads in the cost model.
        self.rewalk_threads = rewalk_threads
        self.transfer_bitmap = PageBitmap(self.domain.n_pages, fill=True)
        self.state = LkmState.INITIALIZED
        self.stats = LkmStats()
        self.proc_entry = ProcEntry("/proc/javmm_areas", self._on_proc_area)
        self._apps: dict[int, _AppRecord] = {}
        self._chan: EventChannel | None = None
        self._now = 0.0
        self._query_id = 0
        self._staged_areas: dict[tuple[int, int], list[VARange]] = {}
        self._awaiting: set[int] = set()
        self._deadline: float | None = None
        self._suspension_replies: dict[int, msg.SuspensionReadyReply] = {}
        #: fault-injection state: a hung LKM queues messages instead of
        #: processing them (kernel thread wedged, not crashed)
        self.hung = False
        self._hang_queue: list[tuple[str, int | None, object]] = []
        #: optional shared timeline (see repro.sim.eventlog)
        self.event_log = None
        #: telemetry handle (see repro.telemetry); no-op unless enabled
        self.probe = NULL_PROBE
        self._span_query = None
        kernel.netlink.bind_kernel(self._on_app_message)

    # -- wiring -------------------------------------------------------------------

    def attach_event_channel(self, chan: EventChannel) -> None:
        if self._chan is not None and self._chan is not chan:
            # A new daemon supersedes the old one (a supervisor's next
            # attempt).  Close the old channel, or the retired daemon and
            # its channel keep each other, and this guest, alive.
            self._chan.unbind()
        self._chan = chan
        chan.bind_guest(self._on_daemon_message)

    def unwire(self) -> None:
        """Drop the module's own endpoints once the guest has stopped
        for good: both ends of the event channel and the /proc entry.
        (The kernel's :meth:`NetlinkBus.close` drops the netlink side.)
        State and statistics stay readable."""
        if self._chan is not None:
            self._chan.unbind()
        self.proc_entry.close()

    def register_app(self, app_id: int, process: Process) -> None:
        """Associate a netlink subscriber with its process (page table)."""
        self._apps[app_id] = _AppRecord(app_id, process)

    def unregister_app(self, app_id: int) -> None:
        """Drop an application, restoring its skip-over bits first.

        A departing application can no longer make its areas recoverable
        at suspension time, so every bit it had cleared must be set
        again — otherwise its live data would be silently skipped.
        """
        record = self._apps.pop(app_id, None)
        if record is not None:
            for area in record.areas:
                pfns = record.cache.take_range(area)
                self.transfer_bitmap.set_pfns(pfns)
                # The pages were withheld from earlier iterations, so
                # they must be (re)sent: mark them dirty.
                self.domain.dirty_log.mark(pfns)
            record.areas = []
            record.cache.clear()
        self._awaiting.discard(app_id)
        self._suspension_replies.pop(app_id, None)
        if (
            self.state is LkmState.ENTERING_LAST_ITER
            and not self._awaiting
        ):
            # The departed app was the last one being waited for.
            self._finish_final_update()

    # -- fault surface (repro.faults) ---------------------------------------------------

    def hang(self) -> None:
        """Wedge the LKM: messages queue, timeouts stop firing."""
        self.hung = True

    def unhang(self) -> None:
        """Recover from a hang, processing queued messages in order."""
        self.hung = False
        queued, self._hang_queue = self._hang_queue, []
        for source, app_id, message in queued:
            if source == "daemon":
                self._on_daemon_message(message)
            else:
                assert app_id is not None
                self._on_app_message(app_id, message)

    # -- queries used by the migration daemon ------------------------------------------

    def transfer_mask(self, pfns: np.ndarray) -> np.ndarray:
        """Per-PFN transfer-bit state (True = must transfer)."""
        return self.transfer_bitmap.test_pfns(pfns)

    @property
    def overhead_bytes(self) -> int:
        """Guest memory the mechanism costs (bitmap + PFN cache)."""
        caches = sum(record.cache.nbytes for record in self._apps.values())
        return self.transfer_bitmap.nbytes_packed + caches

    def app_records(self) -> list[_AppRecord]:
        """The LKM's per-application memory (verification and tests)."""
        return list(self._apps.values())

    # -- actor --------------------------------------------------------------------------

    def next_event(self, now: float) -> float:
        # The only self-initiated act is the straggler timeout; while no
        # deadline is armed (or the module is wedged) the LKM is purely
        # reactive, and reactions happen inside other actors' acting
        # ticks, which the event kernel always runs as ordinary steps.
        if self.hung or self._deadline is None:
            return math.inf
        return self._deadline

    def step_many(self, start_tick: int, ticks: int, dt: float) -> None:
        # Quiet ticks only refresh the module's notion of "now" (used to
        # timestamp replies handled inside later actors' acting ticks).
        self._now = (start_tick + ticks) * dt

    def step(self, now: float, dt: float) -> None:
        self._now = now
        if self.hung:
            return  # a wedged kernel thread fires no timeouts either
        if self._deadline is None or now < self._deadline:
            return
        # Straggler handling (Section 6): stop waiting at the deadline.
        if self.state is LkmState.MIGRATION_STARTED and self._awaiting:
            self.stats.timed_out_apps += len(self._awaiting)
            self.probe.count("lkm.timed_out_apps", len(self._awaiting))
            self._awaiting.clear()
            self._deadline = None
            self._end_query_span(timed_out=True)
        elif self.state is LkmState.ENTERING_LAST_ITER and self._awaiting:
            self.stats.timed_out_apps += len(self._awaiting)
            self.probe.count("lkm.timed_out_apps", len(self._awaiting))
            self._finish_final_update()

    # -- daemon-side messages --------------------------------------------------------------

    def _on_daemon_message(self, message: object) -> None:
        if self.hung:
            self._hang_queue.append(("daemon", None, message))
            return
        if isinstance(message, msg.MigrationBegin):
            self._begin_migration()
        elif isinstance(message, msg.EnterLastIter):
            self._enter_last_iter()
        elif isinstance(message, msg.VMResumed):
            self._vm_resumed()
        elif isinstance(message, msg.MigrationAborted):
            self._migration_aborted(message.reason)
        else:
            raise ProtocolError(f"LKM cannot handle daemon message {message!r}")

    def _begin_migration(self) -> None:
        if self.state is not LkmState.INITIALIZED:
            raise ProtocolError(f"MigrationBegin in state {self.state}")
        self.state = LkmState.MIGRATION_STARTED
        self._log("state -> MIGRATION_STARTED; querying skip-over areas")
        self.probe.instant("state:MIGRATION_STARTED", self._now, track="lkm")
        self._query_id += 1
        self.stats.queries_sent += 1
        self.probe.count("lkm.queries_sent", kind="skip-over")
        self._awaiting = set(self.kernel.netlink.subscriber_ids)
        self._deadline = (
            self._now + self.reply_timeout_s if self.reply_timeout_s else None
        )
        self._begin_query_span("skip-over")
        self.kernel.netlink.multicast(msg.SkipOverQuery(self._query_id))

    def _enter_last_iter(self) -> None:
        if self.state is not LkmState.MIGRATION_STARTED:
            raise ProtocolError(f"EnterLastIter in state {self.state}")
        self.state = LkmState.ENTERING_LAST_ITER
        self._log("state -> ENTERING_LAST_ITER; asking apps to prepare")
        self.probe.instant("state:ENTERING_LAST_ITER", self._now, track="lkm")
        self._query_id += 1
        self.stats.queries_sent += 1
        self.probe.count("lkm.queries_sent", kind="prepare-suspension")
        self._awaiting = set(self.kernel.netlink.subscriber_ids)
        self._deadline = (
            self._now + self.reply_timeout_s if self.reply_timeout_s else None
        )
        self._suspension_replies.clear()
        if not self._awaiting:
            self._finish_final_update()
            return
        self._begin_query_span("prepare-suspension")
        self.kernel.netlink.multicast(msg.PrepareSuspension(self._query_id))

    def _vm_resumed(self) -> None:
        if self.state is not LkmState.SUSPENSION_READY:
            raise ProtocolError(f"VMResumed in state {self.state}")
        self.state = LkmState.RESUMED
        self.kernel.netlink.multicast(msg.VMResumedNotice())
        # Back to INITIALIZED, ready for the next migration.
        self.transfer_bitmap.set_all()
        for record in self._apps.values():
            record.areas = []
            record.cache.clear()
        self._staged_areas.clear()
        self._deadline = None
        self.state = LkmState.INITIALIZED
        self.probe.instant("state:INITIALIZED", self._now, track="lkm")
        self._log("VM resumed; state -> INITIALIZED")

    def _migration_aborted(self, reason: str = "") -> None:
        """Roll the assist state back after a daemon-side abort.

        Restoring a bit must also mark the page dirty (safety rule 4):
        while the bit was cleared the daemon consumed the page's
        dirtiness without transferring it.  The destination image is
        discarded on abort, so this only matters if the transfer bitmap
        were consulted again before a fresh MigrationBegin — being
        conservative here keeps the invariant unconditional.
        """
        if self.state is LkmState.INITIALIZED:
            return  # nothing in flight; aborts are idempotent
        for record in self._apps.values():
            for area in record.areas:
                pfns = record.cache.take_range(area)
                self.transfer_bitmap.set_pfns(pfns)
                self.domain.dirty_log.mark(pfns)
            record.areas = []
            record.cache.clear()
        self.transfer_bitmap.set_all()
        self._staged_areas.clear()
        self._awaiting.clear()
        self._suspension_replies.clear()
        self._deadline = None
        self.state = LkmState.INITIALIZED
        self._end_query_span(aborted=True)
        self.probe.count("lkm.rollbacks")
        self.probe.instant(
            "state:INITIALIZED", self._now, track="lkm", rollback=True
        )
        self.kernel.netlink.multicast(msg.MigrationAbortedNotice(reason))
        self._log(f"migration aborted ({reason or 'no reason given'}); "
                  "state -> INITIALIZED")

    # -- application-side messages ------------------------------------------------------------

    def _on_proc_area(self, app_id: int, query_id: int, area: VARange) -> None:
        self._staged_areas.setdefault((app_id, query_id), []).append(area)

    def _on_app_message(self, app_id: int, message: object) -> None:
        if self.hung:
            self._hang_queue.append(("app", app_id, message))
            return
        if isinstance(message, msg.SkipAreasReply):
            self._on_skip_areas_reply(app_id, message)
        elif isinstance(message, msg.AreaShrunk):
            self._on_area_shrunk(app_id, message)
        elif isinstance(message, msg.AreaAdded):
            self._on_area_added(app_id, message)
        elif isinstance(message, msg.SuspensionReadyReply):
            self._on_suspension_ready(app_id, message)
        else:
            raise ProtocolError(f"LKM cannot handle app message {message!r}")

    def _on_area_added(self, app_id: int, note: msg.AreaAdded) -> None:
        """Immediate-addition opt-in (region-based collectors).

        Clearing a bit is always migration-safe: the daemon re-injects
        the dirtiness of pages it skips, so a later bit restoration
        still transfers the content.
        """
        if self.state not in (
            LkmState.MIGRATION_STARTED,
            LkmState.ENTERING_LAST_ITER,
        ):
            return
        record = self._apps.get(app_id)
        if record is None:
            return
        for added in note.ranges_added:
            start_vpn, end_vpn = page_span_inner(added)
            if end_vpn == start_vpn:
                continue
            walk_range = VARange(start_vpn * PAGE_SIZE, end_vpn * PAGE_SIZE)
            pfns = record.process.page_table.walk(walk_range)
            self.transfer_bitmap.clear_pfns(pfns)
            self._cache_walked(record, walk_range)
            record.areas = coalesce(record.areas + [added])

    def _on_skip_areas_reply(self, app_id: int, reply: msg.SkipAreasReply) -> None:
        if reply.query_id != self._query_id or app_id not in self._awaiting:
            return  # stale or duplicate reply; ignore (straggler rule)
        self._awaiting.discard(app_id)
        if not self._awaiting:
            self._end_query_span()
        record = self._apps.get(app_id)
        if record is None:
            return  # subscribed but never registered a process; nothing to do
        areas = self._staged_areas.pop((app_id, reply.query_id), [])
        if len(areas) != reply.n_areas:
            raise ProtocolError(
                f"app {app_id} replied {reply.n_areas} areas but staged {len(areas)}"
            )
        self._first_update(record, areas)

    def _on_area_shrunk(self, app_id: int, note: msg.AreaShrunk) -> None:
        if self.state not in (
            LkmState.MIGRATION_STARTED,
            LkmState.ENTERING_LAST_ITER,
            # The paper asks apps not to shrink between the final update
            # and suspension; honouring a late notice anyway is strictly
            # safer than ignoring it (the freed frames may be recycled
            # and dirtied before the pause lands).
            LkmState.SUSPENSION_READY,
        ):
            return  # no migration in flight; nothing to update
        record = self._apps.get(app_id)
        if record is None:
            return
        self.stats.shrink_events += 1
        self.probe.count("lkm.shrink_events")
        self.probe.instant("shrink", self._now, track="lkm", app_id=app_id)
        for left in note.ranges_left:
            pfns = record.cache.take_range(left)
            self.transfer_bitmap.set_pfns(pfns)
            self.stats.shrink_pages += len(pfns)
            self.probe.count("lkm.shrink_pages", len(pfns))
            record.areas = self._subtract_from_areas(record.areas, left)

    def _on_suspension_ready(self, app_id: int, reply: msg.SuspensionReadyReply) -> None:
        if self.state is not LkmState.ENTERING_LAST_ITER:
            return
        if reply.query_id != self._query_id or app_id not in self._awaiting:
            return
        self._awaiting.discard(app_id)
        self._suspension_replies[app_id] = reply
        if not self._awaiting:
            self._finish_final_update()

    def _log(self, message: str) -> None:
        if self.event_log is not None:
            self.event_log.log(self._now, "lkm", message)

    # -- telemetry helpers -------------------------------------------------------------

    def _begin_query_span(self, kind: str) -> None:
        """A netlink round-trip window: multicast out → last reply in."""
        self.probe.end(self._span_query, self._now)
        self._span_query = self.probe.begin(
            "netlink-query", self._now, track="lkm", cat="netlink",
            kind=kind, query_id=self._query_id, awaiting=len(self._awaiting),
        )

    def _end_query_span(self, **args) -> None:
        self.probe.end(self._span_query, self._now, **args)
        self._span_query = None

    # -- bitmap updates ---------------------------------------------------------------------

    def _first_update(self, record: _AppRecord, areas: list[VARange]) -> None:
        """Clear transfer bits for every page of the app's areas."""
        cleared = 0
        for area in coalesce(areas):
            start_vpn, end_vpn = page_span_inner(area)
            if end_vpn == start_vpn:
                continue
            walk_range = VARange(start_vpn * PAGE_SIZE, end_vpn * PAGE_SIZE)
            pfns = record.process.page_table.walk(walk_range)
            self.transfer_bitmap.clear_pfns(pfns)
            self._cache_walked(record, walk_range)
            cleared += len(pfns)
        self.stats.first_update_pages += cleared
        self.probe.count("lkm.first_update_pages", cleared)
        self.probe.instant(
            "bitmap-update", self._now, track="lkm",
            kind="first", app_id=record.app_id, pages=cleared,
        )
        record.areas = coalesce(areas)
        self._log(
            f"first update for app {record.app_id}: "
            f"{self.stats.first_update_pages} pages skippable"
        )

    def _cache_walked(self, record: _AppRecord, walk_range: VARange) -> None:
        """Record (VPN → PFN) pairs for every mapped page of the range."""
        page_table = record.process.page_table
        for mapped in page_table.mapped_ranges():
            part = mapped.intersection(walk_range)
            if part.empty:
                continue
            pfns = page_table.walk(part, strict=True)
            record.cache.record(part.start // PAGE_SIZE, pfns)

    def _finish_final_update(self) -> None:
        """The final bitmap update, right before the last iteration."""
        touched = 0
        walked = 0
        # Conservative handling of stragglers: an app that never became
        # suspension-ready made no recoverability promise, so its areas
        # must be transferred after all.
        replied = set(self._suspension_replies)
        for app_id, record in self._apps.items():
            if app_id in replied or not record.areas:
                continue
            for area in record.areas:
                pfns = record.cache.take_range(area)
                self.transfer_bitmap.set_pfns(pfns)
                # Withheld pages must travel in the last iteration even
                # if their dirtiness was consumed before the skip began.
                self.domain.dirty_log.mark(pfns)
                touched += len(pfns)
            record.areas = []
        for app_id, reply in self._suspension_replies.items():
            record = self._apps.get(app_id)
            if record is None:
                continue
            new_areas = coalesce(list(reply.areas))
            if self.full_rewalk:
                walked += self._rewalk_app(record, new_areas)
            else:
                touched += self._reconcile_app(record, new_areas)
            for leaving in reply.leaving_ranges:
                pfns = record.cache.take_range(leaving)
                self.transfer_bitmap.set_pfns(pfns)
                self.stats.leaving_pages_final += len(pfns)
                touched += len(pfns)
            record.areas = [
                piece
                for area in new_areas
                for piece in self._subtract_many(area, list(reply.leaving_ranges))
            ]
        duration = _FINAL_UPDATE_BASE_S + touched * _FINAL_UPDATE_PER_PAGE_S
        duration += walked * _REWALK_PER_PAGE_S / self.rewalk_threads
        self.stats.final_update_seconds = duration
        self._end_query_span()
        self.probe.count("lkm.final_update_pages", touched)
        # The modelled cost gives this span a real width in the trace.
        span = self.probe.begin(
            "bitmap-update", self._now, track="lkm", cat="bitmap",
            kind="final", pages=touched, walked=walked,
        )
        self.probe.end(span, self._now + duration)
        self._deadline = None
        self.state = LkmState.SUSPENSION_READY
        self.probe.instant("state:SUSPENSION_READY", self._now, track="lkm")
        self._log(
            f"final update done in {duration * 1e6:.0f} us "
            f"(touched {touched} pages); state -> SUSPENSION_READY"
        )
        if self._chan is not None:
            self._chan.send_to_daemon(msg.SuspensionReady(duration))

    def _reconcile_app(self, record: _AppRecord, new_areas: list[VARange]) -> int:
        """Deferred-expand reconciliation: diff new areas against memory."""
        touched = 0
        # Expanded space: in the new areas but not remembered → walk and clear.
        for new in new_areas:
            for piece in self._subtract_many(new, record.areas):
                start_vpn, end_vpn = page_span_inner(piece)
                if end_vpn == start_vpn:
                    continue
                walk_range = VARange(start_vpn * PAGE_SIZE, end_vpn * PAGE_SIZE)
                pfns = record.process.page_table.walk(walk_range)
                self.transfer_bitmap.clear_pfns(pfns)
                self._cache_walked(record, walk_range)
                self.stats.expand_pages_final += len(pfns)
                touched += len(pfns)
        # Shrunk space: remembered but gone → set bits from the cache.
        for old in record.areas:
            for piece in self._subtract_many(old, new_areas):
                pfns = record.cache.take_range(piece)
                self.transfer_bitmap.set_pfns(pfns)
                self.stats.shrink_pages += len(pfns)
                touched += len(pfns)
        return touched

    def _rewalk_app(self, record: _AppRecord, new_areas: list[VARange]) -> int:
        """Alternative final update: re-walk everything, diff PFN sets."""
        walked = 0
        old_pfns = set()
        for old in record.areas:
            old_pfns.update(int(p) for p in record.cache.take_range(old))
        new_pfns: set[int] = set()
        for new in new_areas:
            start_vpn, end_vpn = page_span_inner(new)
            if end_vpn == start_vpn:
                continue
            walk_range = VARange(start_vpn * PAGE_SIZE, end_vpn * PAGE_SIZE)
            pfns = record.process.page_table.walk(walk_range)
            walked += end_vpn - start_vpn
            new_pfns.update(int(p) for p in pfns)
            self._cache_walked(record, walk_range)
        joined = np.asarray(sorted(new_pfns - old_pfns), dtype=np.int64)
        left = np.asarray(sorted(old_pfns - new_pfns), dtype=np.int64)
        self.transfer_bitmap.clear_pfns(joined)
        self.transfer_bitmap.set_pfns(left)
        self.stats.expand_pages_final += len(joined)
        self.stats.shrink_pages += len(left)
        return walked

    # -- range helpers -----------------------------------------------------------------------

    @staticmethod
    def _subtract_from_areas(areas: list[VARange], cut: VARange) -> list[VARange]:
        out: list[VARange] = []
        for area in areas:
            out.extend(area.subtract(cut))
        return out

    @staticmethod
    def _subtract_many(area: VARange, cuts: list[VARange]) -> list[VARange]:
        pieces = [area]
        for cut in cuts:
            pieces = [p for piece in pieces for p in piece.subtract(cut)]
        return pieces
