"""Object-granularity Young-generation collector.

The performance model (:mod:`repro.jvm.heap`) tracks the heap in
aggregate because migration only cares about page-level effects.  This
module is the *semantic* companion: a real copying collector over
individual objects, on the same ``[Eden | From | To]`` layout, used by
the test suite to validate that the aggregate model's invariants match
what an object-precise scavenger actually does:

- live objects are copied (relocated) to To or promoted to Old;
- Eden and the old From space are empty after a collection — the
  post-collection state JAVMM migrates;
- survivor ages drive promotion (HotSpot's tenuring threshold), the
  mechanism the aggregate's ``tenure_frac`` abstracts;
- every byte of a surviving object lands in freshly-dirtied pages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import HeapError
from repro.guest.process import Process
from repro.jvm.layout import HeapLayout
from repro.mem.address import VARange

_OBJECT_ALIGN = 8


@dataclass
class JavaObject:
    """One heap object with an externally-scripted lifetime."""

    obj_id: int
    size: int
    address: int  # current start VA
    dies_after_gc: int  # object is garbage once this many GCs have run
    age: int = 0  # minor GCs survived
    promoted: bool = False

    @property
    def extent(self) -> VARange:
        return VARange(self.address, self.address + self.size)


@dataclass
class ScavengeOutcome:
    """What one object-precise minor GC did."""

    scanned_bytes: int
    live_bytes: int
    garbage_bytes: int
    survivor_bytes: int
    promoted_bytes: int
    copied_objects: int
    promoted_objects: int
    collected_objects: int


class ObjectHeap:
    """An object-precise Eden/From/To/Old heap."""

    def __init__(
        self,
        process: Process,
        layout: HeapLayout,
        tenuring_threshold: int = 2,
    ) -> None:
        self.process = process
        self.layout = layout
        self.tenuring_threshold = tenuring_threshold
        self.gc_epoch = 0
        self._ids = itertools.count(1)
        self.eden_objects: list[JavaObject] = []
        self.from_objects: list[JavaObject] = []
        self.old_objects: list[JavaObject] = []
        self._eden_top = layout.eden.start
        self._from_top = layout.from_space.start
        self._old_top = layout.old_region.start

    # -- allocation ------------------------------------------------------------------

    def allocate(self, size: int, lifetime_gcs: int) -> JavaObject | None:
        """Bump-allocate one object in Eden; None when Eden is full.

        *lifetime_gcs* scripts how many collections the object survives
        (0 = garbage at the very next GC).
        """
        if size <= 0:
            raise HeapError(f"object size must be positive, got {size}")
        size = -(-size // _OBJECT_ALIGN) * _OBJECT_ALIGN
        if self._eden_top + size > self.layout.eden.end:
            return None
        obj = JavaObject(
            obj_id=next(self._ids),
            size=size,
            address=self._eden_top,
            dies_after_gc=self.gc_epoch + lifetime_gcs,
        )
        self._eden_top += size
        self.process.write_range(obj.extent.start, obj.extent.end)
        self.eden_objects.append(obj)
        return obj

    @property
    def eden_used(self) -> int:
        return self._eden_top - self.layout.eden.start

    @property
    def from_used(self) -> int:
        return self._from_top - self.layout.from_space.start

    # -- collection -------------------------------------------------------------------

    def minor_gc(self) -> ScavengeOutcome:
        """Copy live objects to To / Old, reset Eden, flip survivors."""
        scanned = self.eden_used + self.from_used
        candidates = self.eden_objects + self.from_objects
        live = [o for o in candidates if o.dies_after_gc > self.gc_epoch]
        garbage = [o for o in candidates if o.dies_after_gc <= self.gc_epoch]

        to_space = self.layout.to_space
        to_top = to_space.start
        survivors: list[JavaObject] = []
        promoted: list[JavaObject] = []
        for obj in sorted(live, key=lambda o: o.address):
            obj.age += 1
            tenure = obj.age > self.tenuring_threshold
            if not tenure and to_top + obj.size <= to_space.end:
                obj.address = to_top
                to_top += obj.size
                self.process.write_range(obj.extent.start, obj.extent.end)  # the copy
                survivors.append(obj)
            else:
                # Tenured or survivor-space overflow: promote.
                if self._old_top + obj.size > self.layout.old_region.end:
                    raise HeapError("object heap: Old generation exhausted")
                obj.address = self._old_top
                obj.promoted = True
                self._old_top += obj.size
                self.process.write_range(obj.extent.start, obj.extent.end)
                promoted.append(obj)

        self.gc_epoch += 1
        self.layout.flip_survivors()
        self.eden_objects = []
        self.from_objects = survivors
        self._eden_top = self.layout.eden.start
        # After the flip the new From space IS the memory we just copied
        # the survivors into, so its fill pointer carries over directly.
        self._from_top = to_top
        self.old_objects.extend(promoted)

        return ScavengeOutcome(
            scanned_bytes=scanned,
            live_bytes=sum(o.size for o in live),
            garbage_bytes=sum(o.size for o in garbage),
            survivor_bytes=sum(o.size for o in survivors),
            promoted_bytes=sum(o.size for o in promoted),
            copied_objects=len(survivors),
            promoted_objects=len(promoted),
            collected_objects=len(garbage),
        )

    # -- introspection (test oracles) ------------------------------------------------------

    def occupied_from_range(self) -> VARange:
        return VARange(self.layout.from_space.start, self._from_top)

    def check_invariants(self) -> None:
        """Raise if the heap's geometric invariants are violated."""
        regions = {
            "eden": (self.eden_objects, self.layout.eden),
            "from": (self.from_objects, self.layout.from_space),
        }
        for name, (objects, space) in regions.items():
            cursor = space.start
            for obj in sorted(objects, key=lambda o: o.address):
                if obj.address < cursor:
                    raise HeapError(f"{name}: overlapping objects at {obj.address:#x}")
                if not space.contains_range(obj.extent):
                    raise HeapError(f"{name}: object escapes its space")
                cursor = obj.extent.end
        cursor = self.layout.old_region.start
        for obj in sorted(self.old_objects, key=lambda o: o.address):
            if obj.address < cursor or not self.layout.old_region.contains_range(obj.extent):
                raise HeapError("old: overlap or escape")
            cursor = obj.extent.end
