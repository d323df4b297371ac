"""A CLR-style managed runtime assisting in migration.

The .NET CLR divides its heap into generations 0 and 1 (the *ephemeral
segment* — newly allocated and once-survived objects) and generation 2
(long-lived data), plus a large-object heap.  The workstation GC is
compacting and stops managed threads — exactly the collector family the
paper says the framework supports.

The skip-over area is the ephemeral segment: an enforced ephemeral GC
compacts survivors to the segment's bottom, and only that occupied
prefix needs to travel in the last iteration (the CLR analogue of
JAVMM's occupied From space).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, HeapError
from repro.guest.participant import RuntimeParticipant
from repro.guest.process import Process
from repro.mem.address import VARange
from repro.mem.constants import PAGE_SIZE, bytes_to_pages
from repro.runtime.stw import StopTheWorldRuntime


class EphemeralHeap:
    """Gen0/gen1 ephemeral segment + gen2, compacting on collection."""

    def __init__(
        self,
        process: Process,
        ephemeral_bytes: int,
        gen2_bytes: int,
        survival_frac: float = 0.03,
        promote_frac: float = 0.25,
        rng: np.random.Generator | None = None,
    ) -> None:
        if ephemeral_bytes < 16 * PAGE_SIZE:
            raise ConfigurationError("ephemeral segment too small")
        self.process = process
        self.survival_frac = survival_frac
        self.promote_frac = promote_frac
        self.rng = rng or np.random.default_rng(2)
        self.ephemeral = process.mmap(ephemeral_bytes)
        self.gen2 = process.mmap(gen2_bytes)
        #: compacted survivors occupy [start, start + survivor_bytes)
        self.survivor_bytes = 0
        #: allocation pointer within the ephemeral segment
        self.alloc_top = self.ephemeral.start
        self.gen2_used = 0
        self.collections = 0

    @property
    def ephemeral_used(self) -> int:
        return self.alloc_top - self.ephemeral.start

    def allocate(self, nbytes: int) -> int:
        """Bump-allocate; returns bytes actually allocated."""
        room = self.ephemeral.end - self.alloc_top
        take = min(int(nbytes), room)
        if take <= 0:
            return 0
        self.process.write_range(VARange(self.alloc_top, self.alloc_top + take))
        self.alloc_top += take
        return take

    @property
    def needs_gc(self) -> bool:
        return self.alloc_top >= self.ephemeral.end

    def collect_ephemeral(self) -> int:
        """Compacting gen0/gen1 collection; returns survivor bytes.

        Survivors are compacted to the segment's bottom (dirtying those
        pages); a fraction is promoted to gen2.
        """
        scanned = self.ephemeral_used
        jitter = float(self.rng.uniform(0.9, 1.1))
        live = min(scanned, int(scanned * self.survival_frac * jitter))
        promoted = int(live * self.promote_frac)
        survivors = live - promoted
        if self.gen2_used + promoted > self.gen2.length:
            raise HeapError("gen2 exhausted")
        if survivors:
            self.process.write_range(
                VARange(self.ephemeral.start, self.ephemeral.start + survivors)
            )
        if promoted:
            start = self.gen2.start + self.gen2_used
            self.process.write_range(VARange(start, start + promoted))
            self.gen2_used += promoted
        self.survivor_bytes = survivors
        self.alloc_top = self.ephemeral.start + survivors
        self.collections += 1
        return survivors

    def occupied_prefix(self) -> VARange:
        """Pages holding compacted survivors (page-aligned up)."""
        pages = bytes_to_pages(self.survivor_bytes)
        return VARange(self.ephemeral.start, self.ephemeral.start + pages * PAGE_SIZE)


class DotNetRuntime(StopTheWorldRuntime):
    """A CLR running one managed application."""

    def __init__(
        self,
        process: Process,
        heap: EphemeralHeap,
        alloc_bytes_per_s: float,
        ops_per_s: float = 50.0,
        gc_pause_per_byte_s: float = 1.5e-9,
        suspend_ee_s: float = 0.02,  # time to suspend managed threads
    ) -> None:
        super().__init__(process, heap, alloc_bytes_per_s, ops_per_s)
        self.gc_pause_per_byte_s = gc_pause_per_byte_s
        self.suspend_ee_s = suspend_ee_s

    def collect(self) -> float:
        scanned = self.heap.ephemeral_used
        self.heap.collect_ephemeral()
        return self.suspend_ee_s + scanned * self.gc_pause_per_byte_s


class DotNetAgent(RuntimeParticipant):
    """The CLR-side framework participant (the TI-agent analogue).

    Identical protocol, different runtime: the skip-over area is the
    ephemeral segment, and the ``leaving_ranges`` at suspension time are
    the compacted survivor prefix.
    """

    label = ".NET agent"

    def skip_areas(self) -> tuple[VARange, ...]:
        return (self.runtime.heap.ephemeral,)

    def leaving_ranges(self) -> tuple[VARange, ...]:
        return (self.runtime.heap.occupied_prefix(),)
