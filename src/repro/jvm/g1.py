"""A G1-style region-based heap (the Section 6 porting target).

"We are particularly interested in porting JAVMM to run with collectors
that use non-contiguous VA ranges for the Young generation ...
HotSpot's garbage-first garbage collector is one such example."

G1 divides the heap into fixed-size regions; the Young generation is
whatever set of regions currently serves as Eden or Survivor — a
*scattered* set of VA ranges, not one span.  The framework already
speaks lists of areas, so porting JAVMM to G1 is exactly this module:

- :class:`G1Heap` — a region table over one reserved range; Eden
  regions are taken from the free pool (deliberately interleaved with
  old regions), evacuation copies live data into fresh survivor
  regions and recycles the collected ones;
- :class:`G1Agent` — reports *every current Young region* as its own
  skip-over area, sends ``AreaShrunk`` when a Young region is recycled,
  and at suspension time declares the survivor regions as leaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError, HeapError
from repro.guest.lkm import AssistLKM
from repro.guest.participant import RuntimeParticipant
from repro.guest.process import Process
from repro.mem.address import VARange
from repro.mem.constants import PAGE_SIZE, bytes_to_pages
from repro.runtime.stw import StopTheWorldRuntime
from repro.units import MiB


@dataclass
class Region:
    """One fixed-size heap region."""

    index: int
    role: str  # "free" | "eden" | "survivor" | "old"
    used: int = 0

    def reset(self) -> None:
        self.role = "free"
        self.used = 0


class G1Heap:
    """Region-based heap with a scattered Young generation."""

    def __init__(
        self,
        process: Process,
        heap_bytes: int,
        region_bytes: int = MiB(1),
        young_regions_target: int = 16,
        survival_frac: float = 0.04,
        rng: np.random.Generator | None = None,
    ) -> None:
        if region_bytes % PAGE_SIZE:
            raise ConfigurationError("region size must be page-aligned")
        if heap_bytes // region_bytes < 4:
            raise ConfigurationError("heap too small for regions")
        self.process = process
        self.region_bytes = region_bytes
        self.base = process.reserve(heap_bytes).start
        self.n_regions = heap_bytes // region_bytes
        self.regions = [Region(i, "free") for i in range(self.n_regions)]
        self.young_regions_target = young_regions_target
        self.survival_frac = survival_frac
        self.rng = rng or np.random.default_rng(6)
        self.on_region_recycled: Callable[[VARange], None] | None = None
        self.on_region_claimed: Callable[[VARange], None] | None = None
        self.collections = 0
        self._eden_current: Region | None = None
        # Scatter allocation: hand regions out in shuffled order so the
        # Young generation is genuinely non-contiguous.
        self._free_order = list(self.rng.permutation(self.n_regions))
        # Seed some old regions so Young and Old interleave.
        for _ in range(max(2, self.n_regions // 8)):
            region = self._take_free("old")
            self._fill(region, region_bytes)

    # -- geometry ---------------------------------------------------------------------

    def region_range(self, region: Region) -> VARange:
        start = self.base + region.index * self.region_bytes
        return VARange(start, start + self.region_bytes)

    def young_ranges(self) -> list[VARange]:
        """The current Young generation: one VA range per region."""
        return [
            self.region_range(r)
            for r in self.regions
            if r.role in ("eden", "survivor")
        ]

    def survivor_ranges(self) -> list[VARange]:
        return [
            VARange(
                self.region_range(r).start,
                self.region_range(r).start + bytes_to_pages(r.used) * PAGE_SIZE,
            )
            for r in self.regions
            if r.role == "survivor" and r.used
        ]

    @property
    def young_region_count(self) -> int:
        return sum(1 for r in self.regions if r.role in ("eden", "survivor"))

    def is_young_noncontiguous(self) -> bool:
        """True when the Young regions do not form one contiguous span."""
        young = sorted(r.index for r in self.regions if r.role in ("eden", "survivor"))
        return bool(young) and young[-1] - young[0] + 1 != len(young)

    # -- allocation ---------------------------------------------------------------------

    def allocate(self, nbytes: int) -> int:
        """Bump-allocate into Eden regions; returns bytes allocated.

        Stops short when the Young target is reached (GC needed).
        """
        remaining = int(nbytes)
        done = 0
        while remaining > 0:
            region = self._eden_region()
            if region is None:
                break
            room = self.region_bytes - region.used
            take = min(room, remaining)
            self._fill(region, take)
            remaining -= take
            done += take
            if region.used >= self.region_bytes:
                self._eden_current = None
        return done

    @property
    def needs_gc(self) -> bool:
        return self._eden_region() is None

    def _eden_region(self) -> Region | None:
        if self._eden_current is not None and self._eden_current.used < self.region_bytes:
            return self._eden_current
        eden_count = sum(1 for r in self.regions if r.role == "eden")
        if eden_count >= self.young_regions_target:
            return None
        region = self._take_free("eden")
        self._eden_current = region
        return region

    def _take_free(self, role: str) -> Region | None:
        while self._free_order:
            region = self.regions[self._free_order.pop()]
            if region.role == "free":
                region.role = role
                region.used = 0
                self.process.mmap_fixed(self.region_range(region))
                if role in ("eden", "survivor") and self.on_region_claimed:
                    self.on_region_claimed(self.region_range(region))
                return region
        return None

    def _fill(self, region: Region, nbytes: int) -> None:
        start = self.region_range(region).start + region.used
        self.process.write_range(start, start + nbytes)
        region.used += nbytes

    # -- collection ---------------------------------------------------------------------

    def evacuate_young(self) -> int:
        """Evacuation pause: copy live data out, recycle Young regions.

        Returns the surviving bytes.  Live data is compacted into fresh
        survivor regions; every evacuated (now empty) region is unmapped
        and recycled, firing :attr:`on_region_recycled` — the shrink
        notification path for a non-contiguous Young generation.
        """
        young = [r for r in self.regions if r.role in ("eden", "survivor")]
        scanned = sum(r.used for r in young)
        jitter = float(self.rng.uniform(0.9, 1.1))
        live = min(scanned, int(scanned * self.survival_frac * jitter))

        # Copy survivors into fresh regions first (they must not land in
        # the regions being recycled).
        remaining = live
        new_survivors: list[Region] = []
        while remaining > 0:
            region = self._take_free("survivor")
            if region is None:
                raise HeapError("G1: no free region for survivors")
            take = min(self.region_bytes, remaining)
            self._fill(region, take)
            new_survivors.append(region)
            remaining -= take

        for region in young:
            extent = self.region_range(region)
            self.process.munmap(extent)
            region.reset()
            self._free_order.insert(0, region.index)
            if self.on_region_recycled is not None:
                self.on_region_recycled(extent)
        self._eden_current = None
        self.collections += 1
        return live


class G1Runtime(StopTheWorldRuntime):
    """A JVM running on the G1 heap (mutator + evacuation pauses)."""

    def __init__(
        self,
        process: Process,
        heap: G1Heap,
        alloc_bytes_per_s: float,
        ops_per_s: float = 50.0,
        pause_per_byte_s: float = 1.5e-9,
    ) -> None:
        super().__init__(process, heap, alloc_bytes_per_s, ops_per_s)
        self.pause_per_byte_s = pause_per_byte_s

    def collect(self) -> float:
        scanned = sum(
            r.used for r in self.heap.regions if r.role in ("eden", "survivor")
        )
        self.heap.evacuate_young()
        return 0.01 + scanned * self.pause_per_byte_s


class G1Agent(RuntimeParticipant):
    """JAVMM's TI agent ported to G1's non-contiguous Young generation.

    *addition_notices* enables the `AreaAdded` protocol extension;
    turning it off demonstrates why the base deferred-expansion rule is
    insufficient for region-based collectors (skipping decays after the
    first in-migration evacuation).
    """

    label = "G1 agent"

    def __init__(
        self, runtime: G1Runtime, lkm: AssistLKM, addition_notices: bool = True
    ) -> None:
        super().__init__(runtime, lkm)
        self.addition_notices = addition_notices
        runtime.heap.on_region_recycled = self.notify_shrunk
        # G1 opts into immediate addition notices: Young regions churn
        # every evacuation, so deferred expansion would forfeit skipping.
        runtime.heap.on_region_claimed = (
            self.notify_added if addition_notices else None
        )

    def skip_areas(self) -> list[VARange]:
        return self.runtime.heap.young_ranges()

    def leaving_ranges(self) -> list[VARange]:
        return self.runtime.heap.survivor_ranges()
