"""Vanilla Xen pre-copy live migration (the paper's baseline).

The migration daemon iterates over the guest's memory:

- iteration 1 sends every page;
- iteration *k* > 1 sends the pages dirtied during iteration *k-1*
  (a log-dirty *peek-and-clear* snapshot);
- a page already re-dirtied when its turn comes is skipped — it would
  be resent next iteration anyway (Figure 9's "skipped (already
  dirtied)");
- iterating stops when the remaining dirty set is small, the iteration
  cap (30) is hit, or total traffic exceeds ``max_factor`` times the VM
  size — Xen 4.1's three conditions;
- the VM is paused, the remaining dirty pages are sent (stop-and-copy),
  and the VM resumes at the destination after a device-reconnect delay.

Transfer progress and guest dirtying interleave at simulation-step
granularity, so the race the paper measures (Figure 1) is reproduced
rather than post-computed.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.errors import MigrationAbortedError, MigrationError
from repro.mem.constants import PAGE_SIZE
from repro.migration.report import DowntimeBreakdown, IterationRecord, MigrationReport
from repro.migration.verify import verify_source_after_abort
from repro.net.link import Link
from repro.sim.actor import Actor
from repro.telemetry.probe import NULL_PROBE
from repro.units import GIB
from repro.xen.domain import Domain
from repro.xen.hypervisor import Hypervisor

#: CPU cost model: seconds of daemon CPU per byte pushed and per page
#: examined.  Calibrated so skipping pages is nearly free, which is the
#: paper's point about skip-based reduction vs compression.
CPU_S_PER_BYTE_SENT = 0.9 / GIB
CPU_S_PER_PAGE_SCANNED = 2.0e-7

#: Device reconnect + activation at the destination ("about 170 ms in
#: our measurements", Section 5.3).
DEFAULT_RESUME_DELAY_S = 0.17

#: Daemon CPU per byte run through the rescue wire compressor when a
#: supervisor enables :attr:`PrecopyMigrator.wire_compression` —
#: deliberately the same price the compression baseline pays.
CPU_S_PER_BYTE_RESCUE_COMPRESSED = 12.0 / GIB

_CHUNK = 16384  # pages examined per vectorized batch
#: Extra pages the pump scans past the budget's page count before it
#: widens its window (see :meth:`PrecopyMigrator._pump`).
_SCAN_SLACK = 64


def _sorted_ledger(ledger: dict) -> dict:
    """Canonical (sorted-key) copy of a byte ledger, matching the order
    :meth:`~repro.migration.report.MigrationReport.to_dict` serializes."""
    return {k: ledger[k] for k in sorted(ledger)}


class MigrationPhase(enum.Enum):
    IDLE = "idle"
    ITERATING = "iterating"
    WAITING_APPS = "waiting-for-apps"
    LAST_COPY = "stop-and-copy"
    RESUMING = "resuming"
    DONE = "done"
    ABORTED = "aborted"


class PrecopyMigrator(Actor):
    """Xen-style iterative pre-copy migration daemon."""

    priority = 10
    #: checkpoint-protocol layout version (see repro.sim.actor);
    #: bump when a state field is added/renamed/repurposed
    snapshot_version = 4  # v4: pages_remaining on iteration records
    name = "xen-precopy"

    def __init__(
        self,
        domain: Domain,
        link: Link,
        max_iterations: int = 30,
        min_remaining_pages: int = 50,
        max_factor: float = 3.0,
        resume_delay_s: float = DEFAULT_RESUME_DELAY_S,
        min_iteration_s: float = 0.02,
        source_host: "Hypervisor | None" = None,
        dest_host: "Hypervisor | None" = None,
        stall_timeout_s: float | None = None,
        phase_timeouts: "dict[str, float] | None" = None,
        wire_compression: float | None = None,
        wire_compression_cpu_s_per_byte: float = CPU_S_PER_BYTE_RESCUE_COMPRESSED,
    ) -> None:
        self.domain = domain
        self.link = link
        self.source_host = source_host
        self.dest_host = dest_host
        self.max_iterations = max_iterations
        self.min_remaining_pages = min_remaining_pages
        self.max_factor = max_factor
        self.resume_delay_s = resume_delay_s
        #: Per-iteration overhead floor (bitmap sync hypercalls, batching).
        self.min_iteration_s = min_iteration_s
        #: Watchdog: abort if no bytes hit the wire for this long.  A
        #: severed link shows up here — every phase that should be
        #: transferring stops making progress.  ``None`` disables it.
        self.stall_timeout_s = stall_timeout_s
        #: Watchdog: per-phase wall-clock deadlines keyed by
        #: ``MigrationPhase.value`` (e.g. ``{"waiting-for-apps": 5.0}``).
        #: A hung in-guest agent stalls WAITING_APPS while the waiting
        #: iterations keep sending dirty pages, so wire-progress
        #: monitoring alone cannot catch it; the phase deadline can.
        self.phase_timeouts = dict(phase_timeouts) if phase_timeouts else {}
        #: Rescue wire compression: when a supervisor sets this to a
        #: payload ratio in (0, 1], every page costs that fraction of
        #: its bytes on the wire and pays compressor CPU — the
        #: trade-a-core-for-bytes escalation of the rescue ladder.  May
        #: be flipped on mid-flight; ``None`` sends raw pages.
        #: Subclasses with their own payload model (the compression
        #: baselines) override the payload hooks and ignore it.
        if wire_compression is not None and not 0.0 < wire_compression <= 1.0:
            raise MigrationError("wire_compression ratio must be in (0, 1]")
        self.wire_compression = wire_compression
        self.wire_compression_cpu_s_per_byte = wire_compression_cpu_s_per_byte

        self.phase = MigrationPhase.IDLE
        self.dest_domain: Domain | None = None
        self.report = MigrationReport(self.name, domain.mem_bytes)
        self._pending = np.empty(0, dtype=np.int64)
        self._cursor = 0
        self._budget = 0.0
        self._iter_index = 0
        self._iter_start = 0.0
        self._iter_sent = 0
        self._iter_wire = 0
        self._iter_skip_dirty = 0
        self._iter_skip_bitmap = 0
        self._iter_dirty_events_base = 0
        self._resume_timer = 0.0
        #: armed by :meth:`request_stop_and_copy` (the manager verb)
        self._forced_stop_reason: str | None = None
        self._last_step_wire = 0.0
        self._step_capacity = 1.0
        self._last_progress_at = 0.0
        self._watch_phase = self.phase
        self._phase_entered_at = 0.0
        self._dest_failed_reason: str | None = None
        #: source page versions at start(); abort() proves against this
        #: snapshot that rollback left the source undamaged
        self.source_versions_at_start: np.ndarray | None = None
        #: optional shared timeline (see repro.sim.eventlog)
        self.event_log = None
        #: telemetry handle (see repro.telemetry); no-op unless enabled
        self.probe = NULL_PROBE
        #: optional online ConvergenceMonitor (see repro.telemetry.analysis)
        #: fed one observation per finished live iteration
        self.monitor = None
        self._span_migration = None
        self._span_iter = None
        self._span_resume = None
        self._iter_retrans_base = 0
        self._iter_gc_base: float | None = None
        self._conv_state = None

    @property
    def _track(self) -> str:
        """Tracer track for this daemon's spans."""
        return f"daemon:{self.name}"

    # -- public control -----------------------------------------------------------------

    def start(self, now: float = 0.0) -> None:
        """Begin migration: enable log-dirty mode and start iteration 1."""
        if self.phase is not MigrationPhase.IDLE:
            raise MigrationError("migration already started")
        self.dest_domain = self.domain.make_destination()
        self.source_versions_at_start = self.domain.pages.snapshot()
        self.domain.dirty_log.enable()
        self.link.register_consumer(self)
        # Latency-bound floors (zero on a plain LAN link): each
        # iteration's dirty-bitmap sync crosses the reverse path, and
        # the final device handover pays one more control round-trip.
        bitmap_floor = self.link.iteration_floor_s(max(1, self.domain.n_pages // 8))
        if bitmap_floor > self.min_iteration_s:
            self.min_iteration_s = bitmap_floor
        self.resume_delay_s += self.link.control_rtt_s
        self._last_progress_at = now
        self._phase_entered_at = now
        self.report.started_s = now
        self._log(now, "migration started; log-dirty enabled")
        self._span_migration = self.probe.begin(
            "migration", now, track=self._track, cat="migration",
            engine=self.name, vm_bytes=self.domain.mem_bytes,
            attempt=self.report.attempt,
        )
        self._on_migration_started(now)
        self.phase = MigrationPhase.ITERATING
        self._emit_phase(now)
        self._begin_iteration(now)

    @property
    def done(self) -> bool:
        return self.phase is MigrationPhase.DONE

    @property
    def aborted(self) -> bool:
        return self.phase is MigrationPhase.ABORTED

    @property
    def finished(self) -> bool:
        """The daemon needs no more steps (completed or aborted)."""
        return self.done or self.aborted

    @property
    def iteration(self) -> int:
        """The pre-copy iteration currently in flight (1-based; 0 before
        start).  Fault plans use this for ``at_iteration`` triggers."""
        return self._iter_index

    def notify_destination_failed(self, reason: str) -> None:
        """The destination host died; abort on the next step.

        Called from outside the daemon (fault injector, orchestration),
        possibly mid-engine-step, so the rollback itself is deferred to
        :meth:`step` where a consistent ``now`` is available.
        """
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE):
            return
        if self._dest_failed_reason is None:
            self._dest_failed_reason = reason

    def request_stop_and_copy(self, reason: str = "operator stop-and-copy") -> None:
        """Ask the daemon to finish pre-copy at the current iteration's
        end — the migration-manager ``stop_and_copy`` verb.

        Called from outside the daemon (between engine steps), so it
        only arms a stop reason that :meth:`_stop_reason` reports at the
        next iteration boundary; the daemon then pauses the VM and
        enters stop-and-copy through the exact same path as a natural
        convergence stop.  Idempotent; ignored once the VM is already
        paused (or the migration is over).
        """
        if self.phase not in (MigrationPhase.ITERATING, MigrationPhase.WAITING_APPS):
            return
        if self._forced_stop_reason is None:
            self._forced_stop_reason = reason

    def abort(self, now: float, reason: str) -> None:
        """Abandon the migration and roll the source back to normal.

        The source domain keeps running (it is unpaused if the abort
        lands during stop-and-copy), log-dirty mode is switched off, the
        half-built destination image is discarded, and the report records
        the failed attempt plus a source-integrity verdict.  The
        ``_on_aborted`` hook runs *before* the dirty log is disabled so
        the assisted rollback (restoring transfer bits re-marks those
        pages dirty) still lands in the log.
        """
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE, MigrationPhase.ABORTED):
            raise MigrationError(f"cannot abort migration in phase {self.phase.value}")
        self.report.aborted = True
        self.report.abort_reason = reason
        self.report.abort_phase = self.phase.value
        self._log(now, f"migration aborted during {self.phase.value}: {reason}")
        # Feed the analysis pipeline the partial in-flight iteration: a
        # stall (e.g. a severed link) never *completes* an iteration, so
        # without this the monitor would starve and diagnose nothing.
        # Only stalled or first-ever partials are fed — a *healthy*
        # partial iteration systematically undercounts the dirty set
        # (most of it was just drained mid-round) and would flip a solid
        # DIVERGING verdict to CONVERGING at the exact moment the
        # supervisor reads it.
        iterating = self.phase in (
            MigrationPhase.ITERATING,
            MigrationPhase.WAITING_APPS,
            MigrationPhase.LAST_COPY,
        )
        if iterating:
            # The cut-short iteration's wire bytes are in the byte
            # ledger but will never reach an IterationRecord; byte
            # conservation on aborted runs needs them called out.
            self.report.inflight_wire_bytes = self._iter_wire
        if iterating and now > self._iter_start:
            eff_bw = self._iter_wire / (now - self._iter_start)
            threshold = (
                self.monitor.stall_bandwidth_bytes_s
                if self.monitor is not None
                else 1024.0
            )
            starving = (
                self.monitor is not None
                and self.monitor.diagnosis.n_iterations == 0
            )
            if eff_bw <= threshold or starving:
                dirt_events = (
                    self.domain.pages.total_dirty_events()
                    - self._iter_dirty_events_base
                )
                self._observe_iteration(now, dirt_events, is_last=False)
        self.probe.count("migration.aborts", engine=self.name)
        self.probe.instant(
            "abort", now, track=self._track, reason=reason, phase=self.phase.value
        )
        # Closing the root also closes any open iteration/resume child.
        self.probe.end(
            self._span_migration, now, aborted=True, abort_reason=reason
        )
        self._span_iter = self._span_resume = None
        self._on_aborted(now, reason)
        self.domain.dirty_log.disable()
        if self.domain.paused:
            self.domain.unpause(now)
        self.link.release_consumer(self)
        self.dest_domain = None
        self.report.finished_s = now
        if self.source_versions_at_start is not None:
            self.report.source_intact = verify_source_after_abort(
                self.domain, self.source_versions_at_start
            ).ok
        self.phase = MigrationPhase.ABORTED
        self._emit_phase(
            now,
            reason=reason,
            inflight_wire_bytes=self.report.inflight_wire_bytes,
            wire_by_category=_sorted_ledger(self.report.wire_by_category),
            saved_by_category=_sorted_ledger(self.report.saved_by_category),
        )
        self._dest_failed_reason = None

    def load_fraction(self) -> float:
        """Share of link capacity used in the previous step (for the
        guest-interference model)."""
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE, MigrationPhase.ABORTED):
            return 0.0
        if self._step_capacity <= 0:
            return 0.0
        return min(1.0, self._last_step_wire / self._step_capacity)

    # -- actor -------------------------------------------------------------------------------

    def next_event(self, now: float) -> float | None:
        # Quiet only when no migration is in flight.  Active phases do
        # real pump work every tick (link shares, watchdogs, budget
        # banking) that cannot be aggregated, so abstain and force the
        # whole engine down to per-tick stepping while migrating.
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE, MigrationPhase.ABORTED):
            return math.inf
        return None

    def step_many(self, start_tick: int, ticks: int, dt: float) -> None:
        # Only reachable in a terminal phase (active phases abstain);
        # the per-tick body would just clear the wire counter.
        self._last_step_wire = 0.0

    def step(self, now: float, dt: float) -> None:
        if self.phase in (MigrationPhase.IDLE, MigrationPhase.DONE, MigrationPhase.ABORTED):
            self._last_step_wire = 0.0
            return
        if self._dest_failed_reason is not None:
            reason = self._dest_failed_reason
            self.abort(now, reason)
            raise MigrationAbortedError(reason, self.report)
        self._watchdog(now)
        if self.phase is MigrationPhase.RESUMING:
            self._last_step_wire = 0.0
            self._resume_timer -= dt
            if self._resume_timer <= 0.0:
                self._finish(now)
            return
        self._step_capacity = self.link.share_for(self, dt)
        # Unused budget does not bank across steps beyond one page.
        self._budget = min(self._budget, float(self.link.page_wire_bytes)) + self._step_capacity
        step_wire_before = self.link.meter.wire_bytes
        guard = 0
        while self.phase not in (MigrationPhase.RESUMING, MigrationPhase.DONE):
            guard += 1
            if guard > 10_000:
                raise MigrationError("migration made no progress across iterations")
            if self.phase is MigrationPhase.WAITING_APPS and self._apps_ready():
                # Applications are prepared: abandon the in-flight
                # iteration, carrying whatever it had not yet examined
                # into the stop-and-copy so no consumed dirtiness is
                # lost.
                self._abandon_into_last_copy(now)
                continue
            self._pump(now)
            if self._cursor < len(self._pending):
                break  # out of budget mid-iteration
            if (
                self.phase is not MigrationPhase.LAST_COPY
                and now - self._iter_start < self.min_iteration_s
            ):
                if self.phase is MigrationPhase.ITERATING:
                    # Pending set drained (the break above did not fire)
                    # but the iteration floor (bitmap-sync RTT on WAN
                    # links) is unpaid: idle wall time, tallied
                    # tick-granular as an overlay.  WAITING_APPS idling
                    # is excluded — that time is the GC-wait bucket.
                    self.report.floor_wait_s += dt
                break  # per-iteration overhead floor not yet paid
            if not self._end_iteration(now):
                break
        self._last_step_wire = self.link.meter.wire_bytes - step_wire_before
        if self._last_step_wire > 0:
            self._last_progress_at = now

    def _watchdog(self, now: float) -> None:
        """Abort when a deadline fires.  Raises MigrationAbortedError."""
        if self.phase is not self._watch_phase:
            self._watch_phase = self.phase
            self._phase_entered_at = now
        limit = self.phase_timeouts.get(self.phase.value)
        if limit is not None and now - self._phase_entered_at > limit:
            reason = f"phase {self.phase.value!r} exceeded its {limit:.3g}s deadline"
            self.abort(now, reason)
            raise MigrationAbortedError(reason, self.report)
        if (
            self.stall_timeout_s is not None
            and self.phase is not MigrationPhase.RESUMING
            and now - self._last_progress_at > self.stall_timeout_s
        ):
            reason = f"no transfer progress for {self.stall_timeout_s:.3g}s"
            self.abort(now, reason)
            raise MigrationAbortedError(reason, self.report)

    # -- hooks for the assisted subclass -------------------------------------------------------

    def _on_migration_started(self, now: float) -> None:
        """Subclass hook: runs once when migration begins."""

    def _cpu_cost_sent(self, n_pages: int) -> float:
        """Daemon CPU seconds to prepare and push *n_pages*."""
        cost = n_pages * PAGE_SIZE * CPU_S_PER_BYTE_SENT
        if self.wire_compression is not None:
            rescue = n_pages * PAGE_SIZE * self.wire_compression_cpu_s_per_byte
            # Tallied here (not in _pump) so the attribution overlay is
            # definitionally the same number cpu_seconds absorbed, and
            # baselines that override this hook neither pay nor log it.
            self.report.rescue_compress_cpu_s += rescue
            cost += rescue
        return cost

    def _transfer_allowed(self, pfns: np.ndarray) -> np.ndarray:
        """Boolean mask of pages the daemon may transfer (all, here)."""
        return np.ones(len(pfns), dtype=bool)

    def _reinject_skipped(self, pfns: np.ndarray) -> None:
        """Subclass hook: keep bitmap-skipped dirty pages visible."""

    def _request_stop(self, now: float) -> bool:
        """A stop rule fired.  Returns True to pause now (vanilla), or
        False to keep iterating while applications prepare (assisted)."""
        return True

    def _apps_ready(self) -> bool:
        """Assisted subclass: has the LKM reported suspension-ready?"""
        return True

    def _on_resumed(self, now: float) -> None:
        """Subclass hook: the VM has been activated at the destination."""

    def _gc_pause_seconds(self) -> float | None:
        """Cumulative guest GC pause seconds, for the per-iteration GC
        pause-budget series.  ``None`` when no JVM is visible (vanilla
        Xen knows nothing about the guest)."""
        return None

    def _on_aborted(self, now: float, reason: str) -> None:
        """Subclass hook: runs at the start of abort(), while log-dirty
        mode is still on and the guest protocol endpoints are live."""

    def _verify(self) -> None:
        """Subclass hook: strict full-equality check for vanilla."""
        assert self.dest_domain is not None
        mismatch = self.dest_domain.pages.mismatches(self.domain.pages)
        self.report.mismatched_pages = len(mismatch)
        self.report.violating_pages = len(mismatch)
        self.report.verified = len(mismatch) == 0

    # -- iteration machinery ----------------------------------------------------------------------

    def _begin_iteration(self, now: float) -> None:
        self._iter_index += 1
        if self._iter_index == 1:
            self._pending = np.arange(self.domain.n_pages, dtype=np.int64)
        else:
            self._pending = self.domain.dirty_log.peek_and_clear()
        self.probe.end(self._span_iter, now)
        if self.phase is MigrationPhase.LAST_COPY:
            name = "stop-and-copy"
        else:
            name = "iteration"
        self._span_iter = self.probe.begin(
            name, now, track=self._track, cat="iteration",
            index=self._iter_index, pending_pages=len(self._pending),
            waiting=self.phase is MigrationPhase.WAITING_APPS,
        )
        self._cursor = 0
        self._iter_start = now
        self._iter_sent = 0
        self._iter_wire = 0
        self._iter_skip_dirty = 0
        self._iter_skip_bitmap = 0
        self._iter_dirty_events_base = self.domain.pages.total_dirty_events()
        self._iter_retrans_base = self.link.retransmit_wire_bytes
        self._iter_gc_base = self._gc_pause_seconds()

    def _page_payload_bytes(self) -> int:
        """Payload bytes one page costs (compression baselines override)."""
        if self.wire_compression is not None:
            return max(1, int(PAGE_SIZE * self.wire_compression))
        return PAGE_SIZE

    def _page_wire_cost(self) -> float:
        """Upper-bound wire bytes one page costs (budget pacing)."""
        return self._page_payload_bytes() + self.link.page_overhead

    def _payload_for(self, pfns: np.ndarray) -> int:
        """Exact payload bytes for a batch (per-page compression hooks)."""
        return int(pfns.size) * self._page_payload_bytes()

    def _wire_category(self) -> str:
        """Byte-ledger category for pages sent right now.

        Waiting iterations are live re-sends of freshly dirtied pages,
        so they attribute as ``redirty`` like any iteration after the
        first full pass.
        """
        if self.phase is MigrationPhase.LAST_COPY:
            return "stop_copy"
        if self._iter_index == 1:
            return "first_copy"
        return "redirty"

    def _pump(self, now: float) -> None:
        """Move pages until the byte budget or the pending set runs out.

        Each pass handles one *logical chunk*: ``_pending[cursor :
        cursor + _CHUNK]``, cut just before the (limit+1)-th sendable
        page.  The scan hooks are pure reads, so they are evaluated
        only over a window that starts at ``limit + _SCAN_SLACK`` pages
        and widens fourfold until the cut is found, ``_CHUNK`` is
        reached or ``_pending`` ends — a 1 GbE tick sends ~150 pages,
        not 16384.  Everything after the scan runs once per logical
        chunk on the same operands as a full-chunk scan, so every float
        sum is bit-identical whatever the window.
        """
        wire_cost = self._page_wire_cost()
        dirty_log = self.domain.dirty_log
        dest = self.dest_domain
        assert dest is not None
        # Without an overriding transfer hook every page is allowed, so
        # no all-True mask is built and nothing is skipped by bitmap.
        hooked = type(self)._transfer_allowed is not PrecopyMigrator._transfer_allowed
        allowed = None
        while self._cursor < len(self._pending) and self._budget >= wire_cost:
            limit = int(self._budget // wire_cost)
            stop = min(self._cursor + _CHUNK, len(self._pending))
            width = limit + _SCAN_SLACK
            while True:
                end = min(self._cursor + width, stop)
                chunk = self._pending[self._cursor : end]
                re_dirtied = dirty_log.dirty_mask(chunk)
                if hooked:
                    allowed = self._transfer_allowed(chunk)
                    send_mask = allowed & ~re_dirtied
                else:
                    send_mask = ~re_dirtied
                sendable = send_mask.nonzero()[0]
                if end == stop or sendable.size > limit:
                    break
                width *= 4
            if sendable.size > limit:
                # Budget ends inside this chunk: cut just before the
                # (limit+1)-th sendable page, the longest prefix whose
                # send count fits.
                prefix_len = int(sendable[limit])
                chunk = chunk[:prefix_len]
                re_dirtied = re_dirtied[:prefix_len]
                send_mask = send_mask[:prefix_len]
                if hooked:
                    allowed = allowed[:prefix_len]
            if chunk.size == 0:
                break
            to_send = chunk[send_mask]
            if hooked:
                skipped_bitmap = chunk[~allowed]
                skipped_dirty = chunk[allowed & re_dirtied]
            else:
                skipped_bitmap = chunk[:0]
                skipped_dirty = chunk[re_dirtied]
            if to_send.size:
                dest.install_pages(to_send, self.domain.read_pages(to_send))
                payload = self._payload_for(to_send)
                self._budget -= payload + to_send.size * self.link.page_overhead
                category = self._wire_category()
                wire = self.link.account_pages(
                    int(to_send.size), payload_bytes=payload, category=category
                )
                self._iter_wire += wire
                self.report.account_wire(
                    wire, self.link.last_retransmit_bytes, category
                )
                full = int(to_send.size) * PAGE_SIZE
                if payload < full:
                    # Any payload below raw page bytes is compression at
                    # work — the baselines' models and the rescue
                    # compressor alike.
                    self.report.account_saved(full - payload, "compression")
                    if self.probe.enabled:
                        self.probe.counters["net.saved_bytes", "compression"].value += (
                            full - payload
                        )
                self._iter_sent += int(to_send.size)
                self.report.cpu_seconds += self._cpu_cost_sent(int(to_send.size))
            if skipped_bitmap.size and self._iter_index > 1:
                self._reinject_skipped(skipped_bitmap)
            if skipped_bitmap.size or skipped_dirty.size:
                # Savings are priced at what each page would have cost
                # on the wire right now (pre-loss: the skipped page
                # would also have skipped its retransmissions).
                page_cost = int(self._page_wire_cost())
                for skipped, category in (
                    (skipped_bitmap, "skip_bitmap"), (skipped_dirty, "skip_redirty")
                ):
                    if skipped.size:
                        saved = int(skipped.size) * page_cost
                        self.report.account_saved(saved, category)
                        if self.probe.enabled:
                            self.probe.counters["net.saved_bytes", category].value += saved
            self._iter_skip_bitmap += int(skipped_bitmap.size)
            self._iter_skip_dirty += int(skipped_dirty.size)
            self.report.cpu_seconds += chunk.size * CPU_S_PER_PAGE_SCANNED
            self._cursor += int(chunk.size)

    def _record_iteration(self, now: float) -> None:
        """Write the iteration record; consecutive waiting iterations
        are merged into a single record (the Figure 8b second-last
        iteration spans the whole preparation window)."""
        is_last = self.phase is MigrationPhase.LAST_COPY
        is_waiting = self.phase is MigrationPhase.WAITING_APPS
        dirt_events = self.domain.pages.total_dirty_events() - self._iter_dirty_events_base
        if self.probe.enabled or (self.monitor is not None and not is_last):
            self._observe_iteration(now, dirt_events, is_last)
        if self.probe.enabled:
            self.probe.count("migration.iterations", engine=self.name)
            self.probe.count("migration.pages_sent", self._iter_sent, engine=self.name)
            self.probe.count("migration.wire_bytes", self._iter_wire, engine=self.name)
            self.probe.count(
                "migration.pages_skipped_dirty", self._iter_skip_dirty, engine=self.name
            )
            self.probe.count(
                "migration.pages_skipped_bitmap", self._iter_skip_bitmap, engine=self.name
            )
            self.probe.count(
                "migration.pages_dirtied_during", dirt_events, engine=self.name
            )
            duration = max(now - self._iter_start, 0.0)
            self.probe.observe("migration.iteration_s", duration, engine=self.name)
            if duration > 0:
                self.probe.gauge(
                    "migration.dirtying_rate_bytes_s",
                    dirt_events * PAGE_SIZE / duration,
                    engine=self.name,
                )
        prev = self.report.iterations[-1] if self.report.iterations else None
        if is_waiting and prev is not None and prev.is_waiting:
            prev.duration_s = max(now - prev.start_s, 0.0)
            prev.pending_pages = max(prev.pending_pages, len(self._pending))
            prev.pages_sent += self._iter_sent
            prev.wire_bytes += self._iter_wire
            # Skip counts re-examine the same pages each sub-iteration;
            # keep the largest window rather than double-counting.
            prev.pages_skipped_dirty = max(prev.pages_skipped_dirty, self._iter_skip_dirty)
            prev.pages_skipped_bitmap = max(prev.pages_skipped_bitmap, self._iter_skip_bitmap)
            prev.set_dirtied_during(
                prev.dirtied_during_bytes // PAGE_SIZE + dirt_events
            )
            prev.pages_remaining = self._remaining_dirty_count()
            self._emit_progress(now, prev)
            return
        record = IterationRecord(
            index=len(self.report.iterations) + 1,
            start_s=self._iter_start,
            duration_s=max(now - self._iter_start, 0.0),
            pending_pages=len(self._pending),
            pages_sent=self._iter_sent,
            wire_bytes=self._iter_wire,
            pages_skipped_dirty=self._iter_skip_dirty,
            pages_skipped_bitmap=self._iter_skip_bitmap,
            is_last=is_last,
            is_waiting=is_waiting,
        )
        record.set_dirtied_during(dirt_events)
        record.pages_remaining = self._remaining_dirty_count()
        self.report.iterations.append(record)
        self._emit_progress(now, record)
        kind = "stop-and-copy" if record.is_last else (
            "waiting" if record.is_waiting else "iteration"
        )
        self._log(
            now,
            f"{kind} {record.index}: {record.duration_s:.2f}s, "
            f"{record.pages_sent} pages sent, "
            f"{record.pages_skipped_bitmap} skipped by bitmap",
        )

    def _observe_iteration(self, now: float, dirt_events: int, is_last: bool) -> None:
        """Per-iteration analysis feed: time-series samples + the online
        convergence monitor (see repro.telemetry.analysis)."""
        duration = max(now - self._iter_start, 0.0)
        if duration <= 0:
            return
        examined = self._iter_sent + self._iter_skip_dirty + self._iter_skip_bitmap
        skip_ratio = self._iter_skip_bitmap / examined if examined > 0 else 0.0
        # Raw dirtying overstates re-send pressure when a skip bitmap is
        # in play (Section 4: Young-gen churn never hits the wire), so
        # the convergence feed discounts it to the transfer set.
        dirty_rate = dirt_events * PAGE_SIZE * (1.0 - skip_ratio) / duration
        eff_bw = self._iter_wire / duration
        remaining = self._remaining_dirty_count()
        if self.probe.enabled:
            if not is_last:
                # The stop-and-copy row is not part of the convergence
                # loop; keeping it out means an offline replay of these
                # series sees exactly what the online monitor saw.
                self.probe.sample("migration.dirty_rate_bytes_s", now, dirty_rate)
                self.probe.sample("migration.eff_bandwidth_bytes_s", now, eff_bw)
                self.probe.sample("migration.pages_remaining", now, remaining)
            capacity = self.link.goodput * duration
            if capacity > 0:
                self.probe.sample(
                    "migration.link_utilization", now,
                    min(1.0, self._iter_wire / capacity),
                )
            retrans = self.link.retransmit_wire_bytes - self._iter_retrans_base
            if self._iter_wire > 0:
                self.probe.sample(
                    "migration.retransmit_fraction", now,
                    retrans / self._iter_wire,
                )
            if examined > 0:
                self.probe.sample("migration.skip_ratio", now, skip_ratio)
            gc_now = self._gc_pause_seconds()
            if gc_now is not None and self._iter_gc_base is not None:
                # Pauses accrue at GC start, so a long collection can
                # exceed a short iteration; a budget is at most 100 %.
                self.probe.sample(
                    "jvm.gc_pause_budget", now,
                    min(1.0, max(0.0, gc_now - self._iter_gc_base) / duration),
                )
        if self.monitor is not None and not is_last:
            diagnosis = self.monitor.observe(now, dirty_rate, eff_bw, remaining)
            if diagnosis.state is not self._conv_state:
                self._conv_state = diagnosis.state
                self._log(now, f"convergence: {diagnosis.summary()}")
                ratio = diagnosis.ratio if math.isfinite(diagnosis.ratio) else None
                self.probe.instant(
                    "convergence", now, track=self._track,
                    state=diagnosis.state.value, ratio=ratio,
                    eta_s=diagnosis.eta_s,
                )

    def _end_iteration(self, now: float) -> bool:
        """Close the current iteration; True if a new one was begun."""
        is_last = self.phase is MigrationPhase.LAST_COPY
        self._record_iteration(now)

        if is_last:
            self._enter_resume(now)
            return False

        if self.phase is MigrationPhase.WAITING_APPS:
            if self._apps_ready():
                self._enter_last_copy(now)
            else:
                self._begin_iteration(now)
                if len(self._pending) == 0:
                    return False  # idle until new dirtying or readiness
            return True

        reason = self._stop_reason()
        if reason is not None:
            self.report.stop_reason = reason
            if self._request_stop(now):
                self._enter_last_copy(now)
            else:
                self.phase = MigrationPhase.WAITING_APPS
                self._emit_phase(now)
                self._begin_iteration(now)
            return True
        self._begin_iteration(now)
        return True

    def _stop_reason(self) -> str | None:
        if self._forced_stop_reason is not None:
            return self._forced_stop_reason
        remaining = self._remaining_dirty_count()
        if remaining < self.min_remaining_pages:
            return f"remaining dirty pages ({remaining}) below threshold"
        if self._iter_index >= self.max_iterations:
            return f"iteration cap ({self.max_iterations}) reached"
        traffic_cap = self.max_factor * self.domain.mem_bytes
        if self.report.total_wire_bytes >= traffic_cap:
            return f"traffic cap ({self.max_factor:.1f}x VM size) reached"
        return None

    def _remaining_dirty_count(self) -> int:
        return self.domain.dirty_log.count()

    def _enter_last_copy(self, now: float, carry: np.ndarray | None = None) -> None:
        self._log(now, f"VM paused for stop-and-copy ({self.report.stop_reason})")
        self.domain.pause(now)
        self.phase = MigrationPhase.LAST_COPY
        self._emit_phase(now)
        self._begin_iteration(now)
        if carry is not None and carry.size:
            self._pending = np.unique(np.concatenate([carry, self._pending]))

    def _abandon_into_last_copy(self, now: float) -> None:
        """Stop the in-flight waiting iteration and pause immediately.

        Pages the abandoned iteration had not yet examined came from a
        consumed dirty snapshot, so they are carried into the
        stop-and-copy — dropping them would lose writes.
        """
        carry = self._pending[self._cursor :]
        self._record_iteration(now)
        self._enter_last_copy(now, carry=carry)

    def _enter_resume(self, now: float) -> None:
        self.report.downtime.last_iter_s = now - self._iter_start_of_last()
        self.report.downtime.resume_s = self.resume_delay_s
        self.phase = MigrationPhase.RESUMING
        self._emit_phase(now)
        self._resume_timer = self.resume_delay_s
        self.probe.end(self._span_iter, now)
        self._span_iter = None
        self._span_resume = self.probe.begin(
            "resume", now, track=self._track, cat="migration"
        )

    def _emit_phase(self, now: float, **args) -> None:
        """Announce a phase transition on the telemetry stream.

        The live tracker (:mod:`repro.telemetry.live`) keys its state
        machine off these instants; the terminal ``done``/``aborted``
        instants additionally carry the final byte ledgers so a tail
        can settle attribution without waiting for the batch export.
        """
        if not self.probe.enabled:
            return
        self.probe.instant(
            "phase", now, track=self._track, phase=self.phase.value,
            engine=self.name, attempt=self.report.attempt,
            stop_reason=self.report.stop_reason, **args,
        )

    def _emit_progress(self, now: float, rec: IterationRecord) -> None:
        """Stream the post-merge cumulative iteration record.

        Waiting sub-iterations mutate the previous record in place, so
        each instant carries the record's *current* canonical dict and
        the live tracker keeps only the latest instant per index — at
        stream end its table is bit-identical to the report's.
        """
        if not self.probe.enabled:
            return
        self.probe.instant(
            "progress", now, track=self._track,
            engine=self.name, attempt=self.report.attempt,
            record=rec.to_dict(),
            wire_by_category=_sorted_ledger(self.report.wire_by_category),
            saved_by_category=_sorted_ledger(self.report.saved_by_category),
        )

    def _log(self, now: float, message: str) -> None:
        if self.event_log is not None:
            self.event_log.log(now, self.name, message)

    def _iter_start_of_last(self) -> float:
        for rec in reversed(self.report.iterations):
            if rec.is_last:
                return rec.start_s
        return self._iter_start

    def _finish(self, now: float) -> None:
        self._verify()
        self.domain.dirty_log.disable()
        self.domain.unpause(now)
        self.link.release_consumer(self)
        if self.source_host is not None and self.dest_host is not None:
            # Hand the (now destination-resident) domain between hosts.
            self.source_host.remove_domain(self.domain.name)
            self.dest_host.adopt_domain(self.domain)
        self.report.finished_s = now
        self.phase = MigrationPhase.DONE
        self._emit_phase(
            now,
            verified=self.report.verified,
            inflight_wire_bytes=self.report.inflight_wire_bytes,
            wire_by_category=_sorted_ledger(self.report.wire_by_category),
            saved_by_category=_sorted_ledger(self.report.saved_by_category),
        )
        self._log(now, f"VM activated at destination (verified={self.report.verified})")
        self.probe.end(self._span_resume, now)
        self._span_resume = None
        self.probe.end(
            self._span_migration, now,
            verified=self.report.verified, stop_reason=self.report.stop_reason,
        )
        self.probe.count("migration.completed", engine=self.name)
        self._on_resumed(now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(phase={self.phase.value}, iter={self._iter_index})"
