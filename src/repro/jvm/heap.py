"""The generational Java heap (Section 4.1).

Aggregate model of HotSpot's parallel-scavenger heap: objects are not
tracked individually (the migration mechanism never needs identities),
but every *page-level* effect the paper's measurements rest on is real:

- bump-pointer allocation dirties Eden pages front to back;
- a minor GC copies live data into the To space (dirtying it), promotes
  tenured survivors into the Old generation (dirtying it), empties Eden
  and flips the From/To labels — leaving only the occupied From space
  live, which is exactly the post-collection state JAVMM migrates;
- committed-Young growth commits (zeroes = dirties) fresh pages, and
  shrink releases pages back to the kernel, firing the notification the
  TI agent forwards to the LKM as an ``AreaShrunk`` message.

Live-data volume per GC is drawn from a per-workload survival fraction
with small deterministic jitter, reproducing the paper's Figure 5(b)
garbage/live split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, HeapError, OutOfMemoryError
from repro.guest.process import Process
from repro.jvm.gc_model import FullGcStats, GcCostModel, MinorGcStats
from repro.jvm.layout import HeapLayout
from repro.mem.address import VARange
from repro.mem.constants import PAGE_SIZE, bytes_to_pages

ShrinkCallback = Callable[[VARange], None]

#: Smallest committed Young size: one page per space plus slack.
_MIN_YOUNG_COMMITTED = 16 * PAGE_SIZE


@dataclass
class HeapCounters:
    """Aggregate heap statistics."""

    minor_gcs: int = 0
    full_gcs: int = 0
    allocated_bytes: int = 0
    promoted_bytes: int = 0
    reclaimed_bytes: int = 0
    gc_seconds: float = 0.0
    minor_log: list[MinorGcStats] = field(default_factory=list)
    full_log: list[FullGcStats] = field(default_factory=list)


class GenerationalHeap:
    """Eden/From/To/Old heap over one process's virtual memory."""

    def __init__(
        self,
        process: Process,
        max_young_bytes: int,
        max_old_bytes: int,
        survivor_ratio: int = 8,
        initial_young_committed: int | None = None,
        young_target_bytes: int | None = None,
        survival_frac: float = 0.02,
        tenure_frac: float = 0.10,
        old_garbage_frac: float = 0.30,
        cost_model: GcCostModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if max_young_bytes < _MIN_YOUNG_COMMITTED:
            raise ConfigurationError("maximum Young size is too small")
        if not 0.0 <= survival_frac <= 1.0:
            raise ConfigurationError("survival fraction must be in [0, 1]")
        if not 0.0 <= tenure_frac <= 1.0:
            raise ConfigurationError("tenure fraction must be in [0, 1]")
        self.process = process
        self.survival_frac = survival_frac
        self.tenure_frac = tenure_frac
        self.old_garbage_frac = old_garbage_frac
        self.cost_model = cost_model or GcCostModel()
        self.rng = rng or np.random.default_rng(0)
        self.counters = HeapCounters()
        self.on_young_shrunk: ShrinkCallback | None = None

        max_young_bytes = bytes_to_pages(max_young_bytes) * PAGE_SIZE
        max_old_bytes = bytes_to_pages(max_old_bytes) * PAGE_SIZE
        young_region = process.reserve(max_young_bytes)
        old_region = process.reserve(max_old_bytes)
        committed = initial_young_committed or min(
            max_young_bytes, max(_MIN_YOUNG_COMMITTED, max_young_bytes // 8)
        )
        committed = min(
            max_young_bytes, max(_MIN_YOUNG_COMMITTED, bytes_to_pages(committed) * PAGE_SIZE)
        )
        self.layout = HeapLayout(
            young_region=young_region,
            old_region=old_region,
            survivor_ratio=survivor_ratio,
            young_committed=committed,
        )
        process.mmap_fixed(self.layout.committed_range)
        self.young_target_bytes = (
            min(max_young_bytes, bytes_to_pages(young_target_bytes) * PAGE_SIZE)
            if young_target_bytes
            else max_young_bytes
        )
        self.eden_used = 0
        self.from_used = 0
        self.old_used = 0
        self.old_committed = 0

    # -- inspection ------------------------------------------------------------------

    @property
    def young_committed(self) -> int:
        return self.layout.young_committed

    @property
    def max_young_bytes(self) -> int:
        return self.layout.young_region.length

    @property
    def max_old_bytes(self) -> int:
        return self.layout.old_region.length

    @property
    def eden_capacity(self) -> int:
        return self.layout.eden_bytes

    @property
    def survivor_capacity(self) -> int:
        return self.layout.survivor_bytes

    @property
    def needs_gc(self) -> bool:
        return self.eden_used >= self.eden_capacity

    def young_committed_range(self) -> VARange:
        """The committed Young VA range — JAVMM's skip-over area."""
        return self.layout.committed_range

    def occupied_from_range(self) -> VARange:
        """Pages of From holding live data, aligned up to whole pages."""
        from_space = self.layout.from_space
        used_pages = bytes_to_pages(self.from_used)
        return VARange(from_space.start, from_space.start + used_pages * PAGE_SIZE)

    def old_used_range(self) -> VARange:
        start = self.layout.old_region.start
        return VARange(start, start + self.old_used)

    # -- allocation ---------------------------------------------------------------------

    def allocate(self, nbytes: int) -> int:
        """Bump-allocate up to *nbytes* in Eden; returns bytes allocated.

        Dirties the Eden pages covered by the newly-allocated span.  A
        short return means Eden filled up and a GC is needed.
        """
        if nbytes < 0:
            raise HeapError(f"cannot allocate {nbytes} bytes")
        room = self.eden_capacity - self.eden_used
        take = min(nbytes, room)
        if take <= 0:
            return 0
        start = self.layout.eden.start + self.eden_used
        self.process.write_range(start, start + take)
        self.eden_used += take
        self.counters.allocated_bytes += take
        return take

    def allocate_run(self, nbytes: int, ticks: int) -> None:
        """Bump-allocate *nbytes* per tick for *ticks* ticks at once.

        Exactly equivalent to ``ticks`` back-to-back full-size
        :meth:`allocate` calls; the caller (the JVM's event-kernel fast
        path) guarantees Eden has room for all of them, so no call would
        have come up short.
        """
        total = nbytes * ticks
        if total > self.eden_capacity - self.eden_used:
            raise HeapError("allocate_run would overflow Eden")
        # The allocations run back to back, so each page of their span
        # is written once, plus once more for every boundary between two
        # allocations that falls inside it (both neighbours touch it).
        start = self.layout.eden.start + self.eden_used
        self.process.write_range(start, start + total)
        bounds = start + nbytes * np.arange(1, ticks, dtype=np.int64)
        shared = bounds[bounds % PAGE_SIZE != 0]
        self.process.write_intervals(0, shared, np.ones(shared.size, dtype=np.int64))
        self.eden_used += total
        self.counters.allocated_bytes += total

    # -- collection ---------------------------------------------------------------------

    def perform_minor_gc(self, enforced: bool = False) -> MinorGcStats:
        """Run a scavenge: copy live data, promote, flip, maybe resize.

        All page-level effects (To-space and Old-generation dirtying,
        committed-size changes) are applied immediately; the returned
        stats carry the modelled stop-the-world duration for the caller
        (the JVM actor) to spend in simulated time.
        """
        scanned = self.eden_used + self.from_used
        live = self._draw_live_bytes(scanned)
        promoted = int(live * self.tenure_frac)
        survivors = live - promoted
        if survivors > self.survivor_capacity:
            promoted += survivors - self.survivor_capacity
            survivors = self.survivor_capacity
        self._ensure_old_capacity(promoted)

        # Copy survivors into To, promote the rest into Old.
        to_space = self.layout.to_space
        if survivors > 0:
            self.process.write_range(to_space.start, to_space.start + survivors)
        if promoted > 0:
            old_start = self.layout.old_region.start + self.old_used
            self.process.write_range(old_start, old_start + promoted)
            self.old_used += promoted

        self.layout.flip_survivors()
        self.eden_used = 0
        self.from_used = survivors

        duration = self.cost_model.minor_pause(scanned, live)
        stats = MinorGcStats(
            scanned_bytes=scanned,
            garbage_bytes=scanned - live,
            live_bytes=live,
            promoted_bytes=promoted,
            survivor_bytes=survivors,
            duration_s=duration,
            enforced=enforced,
        )
        self.counters.minor_gcs += 1
        self.counters.promoted_bytes += promoted
        self.counters.reclaimed_bytes += stats.garbage_bytes
        self.counters.gc_seconds += duration
        self.counters.minor_log.append(stats)
        self._resize_young_after_gc()
        return stats

    def perform_full_gc(self) -> FullGcStats:
        """Collect the Old generation (slow, stop-the-world)."""
        before = self.old_used
        after = int(before * (1.0 - self.old_garbage_frac))
        duration = self.cost_model.full_pause(before)
        # Compaction rewrites the surviving Old data.
        if after > 0:
            start = self.layout.old_region.start
            self.process.write_range(start, start + after)
        self.old_used = after
        stats = FullGcStats(before, after, duration)
        self.counters.full_gcs += 1
        self.counters.gc_seconds += duration
        self.counters.full_log.append(stats)
        return stats

    # -- seeding (experiment setup) ----------------------------------------------------------

    def seed_old(self, nbytes: int) -> None:
        """Install *nbytes* of pre-existing Old-generation data.

        Experiments use this to start a VM in the paper's "migrated at
        t=300 s" state without simulating the first five minutes.
        """
        self._ensure_old_capacity(nbytes - self.old_used)
        start = self.layout.old_region.start + self.old_used
        grow = nbytes - self.old_used
        if grow > 0:
            self.process.write_range(start, start + grow)
            self.old_used = nbytes

    def seed_survivors(self, nbytes: int) -> None:
        """Install live data in the From space (post-GC state seeding)."""
        if nbytes > self.survivor_capacity:
            raise HeapError("seeded survivors exceed the survivor space")
        from_space = self.layout.from_space
        if nbytes > 0:
            self.process.write_range(from_space.start, from_space.start + nbytes)
        self.from_used = nbytes

    # -- resizing ----------------------------------------------------------------------------

    def resize_young(self, new_committed: int) -> None:
        """Commit or release Young pages to hit *new_committed* bytes.

        Survivor data is relocated into the new From space (a real copy,
        so the pages are dirtied).  Releasing pages fires the shrink
        callback so the TI agent can notify the LKM.
        """
        new_committed = bytes_to_pages(new_committed) * PAGE_SIZE
        new_committed = max(_MIN_YOUNG_COMMITTED, min(new_committed, self.max_young_bytes))
        old_layout = self.layout
        if new_committed == old_layout.young_committed:
            return
        new_layout = old_layout.with_committed(new_committed)
        if self.from_used > new_layout.survivor_bytes:
            raise HeapError("cannot shrink Young below live survivor data")
        base = old_layout.young_region.start
        if new_committed > old_layout.young_committed:
            grown = VARange(base + old_layout.young_committed, base + new_committed)
            self.process.mmap_fixed(grown)
        else:
            freed = VARange(base + new_committed, base + old_layout.young_committed)
            self.process.munmap(freed)
            if self.on_young_shrunk is not None:
                self.on_young_shrunk(freed)
        self.layout = new_layout
        if self.from_used > 0:
            from_space = new_layout.from_space
            self.process.write_range(from_space.start, from_space.start + self.from_used)

    def _resize_young_after_gc(self) -> None:
        """Adaptive sizing: grow toward the target, doubling per GC."""
        committed = self.layout.young_committed
        target = self.young_target_bytes
        if committed < target:
            self.resize_young(min(target, committed * 2))
        elif committed > target:
            self.resize_young(max(target, bytes_to_pages(self.from_used * 12) * PAGE_SIZE))

    # -- internals ------------------------------------------------------------------------------

    def _draw_live_bytes(self, scanned: int) -> int:
        if scanned <= 0:
            return 0
        jitter = float(self.rng.uniform(0.9, 1.1))
        return min(scanned, int(scanned * self.survival_frac * jitter))

    def _ensure_old_capacity(self, incoming_bytes: int) -> None:
        needed = self.old_used + incoming_bytes
        if needed > self.max_old_bytes:
            self.perform_full_gc()
            needed = self.old_used + incoming_bytes
            if needed > self.max_old_bytes:
                raise OutOfMemoryError(
                    f"Old generation full: need {needed}, max {self.max_old_bytes}"
                )
        if needed > self.old_committed:
            grow_to = min(self.max_old_bytes, max(needed, self.old_committed * 2))
            grow_to = bytes_to_pages(grow_to) * PAGE_SIZE
            start = self.layout.old_region.start
            grown = VARange(start + self.old_committed, start + grow_to)
            if not grown.empty:
                self.process.mmap_fixed(grown)
            self.old_committed = grow_to
