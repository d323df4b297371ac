"""Guest processes.

A process owns a virtual address space backed by a page table whose
frames come from the guest kernel's allocator.  All memory writes go
through :meth:`write_range` so the domain's content versions and dirty
log stay truthful.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AddressError
from repro.mem.address import VARange, page_span_outer
from repro.mem.constants import PAGE_SHIFT, PAGE_SIZE, bytes_to_pages
from repro.mem.page_table import PageTable
from repro.mem.versioned import interval_pages

#: Base of the mmap arena; matches the shape of a 64-bit Linux layout.
_MMAP_BASE = 0x7F00_0000_0000


class Process:
    """One user-space process inside a guest VM."""

    def __init__(self, pid: int, name: str, kernel: "GuestKernel") -> None:  # noqa: F821
        self.pid = pid
        self.name = name
        self.kernel = kernel
        self._kernel = kernel  # kept as an alias for internal call sites
        self.page_table = PageTable()
        self._mmap_cursor = _MMAP_BASE
        self.alive = True

    # -- address-space management ---------------------------------------------------

    def reserve(self, nbytes: int) -> VARange:
        """Reserve address space without backing it with frames.

        Models ``mmap(PROT_NONE)`` reservations: HotSpot reserves the
        whole maximum heap up front and commits pages as the heap grows.
        """
        if nbytes <= 0:
            raise AddressError(f"reservation size must be positive, got {nbytes}")
        n_pages = bytes_to_pages(nbytes)
        area = VARange(self._mmap_cursor, self._mmap_cursor + n_pages * PAGE_SIZE)
        self._mmap_cursor = area.end
        return area

    def mmap_fixed(self, area: VARange) -> VARange:
        """Commit (map + zero) a page-aligned range, e.g. inside a reservation."""
        n_pages = (area.end - area.start) // PAGE_SIZE
        pfns = self._kernel.alloc_frames(n_pages)
        self.page_table.map_range(area, pfns)
        self._kernel.domain.touch_pfns(pfns)  # zeroing writes
        return area

    def mmap(self, nbytes: int) -> VARange:
        """Map *nbytes* (rounded up to pages) of fresh zeroed memory.

        The kernel zeroes fresh pages, which dirties them — an effect
        the migration correctness argument depends on (a reallocated
        frame is always dirtied before an application can read it).
        """
        return self.mmap_fixed(self.reserve(nbytes))

    def mmap_grow(self, area: VARange, nbytes: int) -> VARange:
        """Extend *area* upward by *nbytes* (pages); returns the new range.

        Only valid when nothing was mapped immediately above the area —
        true for the newest mapping, which is how the JVM heap reserves
        room and commits more of it.
        """
        n_pages = bytes_to_pages(nbytes)
        grown = VARange(area.end, area.end + n_pages * PAGE_SIZE)
        pfns = self._kernel.alloc_frames(n_pages)
        self.page_table.map_range(grown, pfns)
        self._kernel.domain.touch_pfns(pfns)
        if grown.end > self._mmap_cursor:
            self._mmap_cursor = grown.end
        return VARange(area.start, grown.end)

    def munmap(self, area: VARange) -> int:
        """Unmap a page-aligned sub-range; frames go back to the kernel."""
        pfns = self.page_table.unmap_range(area)
        self._kernel.free_frames(pfns)
        return len(pfns)

    # -- memory access ---------------------------------------------------------------

    def write_range(self, start: int, end: int) -> None:
        """Write every byte of ``[start, end)``: dirties all touched pages.

        A span that one run of ascending PFNs maps (nearly every write a
        heap makes) is one slice write; anything else walks the page
        table.  :meth:`write_pfns_of` names the pages a write touches.
        """
        if not 0 <= start <= end:
            raise AddressError(f"malformed VA range [{start:#x}, {end:#x})")
        start_vpn = start >> PAGE_SHIFT
        end_vpn = (end + PAGE_SIZE - 1) >> PAGE_SHIFT if end > start else start_vpn
        pfn = self.page_table.run_pfn(start_vpn, end_vpn)
        if pfn is not None:
            self._kernel.domain.touch_range(pfn, pfn + end_vpn - start_vpn)
            return
        pfns = self.page_table.walk(
            VARange(start_vpn << PAGE_SHIFT, end_vpn << PAGE_SHIFT), strict=True
        )
        self._kernel.domain.touch_pfns(pfns)

    def write_intervals(self, base_va: int, starts: np.ndarray, lens: np.ndarray) -> None:
        """Write many byte intervals ``[base_va + s, base_va + s + n)`` at once.

        Exactly equivalent to one :meth:`write_range` call per interval
        (empty intervals skipped): every page overlapping an interval is
        bumped once *per covering interval*, so boundary pages shared by
        adjacent intervals accumulate the same version counts as the
        per-call sequence.  As in :meth:`write_range`, a span one run of
        PFNs maps is written as PFN intervals, without a walk.  The
        whole span, gaps included, must lie in mapped memory.
        """
        keep = lens > 0
        if not keep.all():
            starts, lens = starts[keep], lens[keep]
        if starts.size == 0:
            return
        va_starts = base_va + starts
        first_vpn = va_starts >> PAGE_SHIFT
        last_vpn = (va_starts + lens + PAGE_SIZE - 1) >> PAGE_SHIFT  # exclusive
        lo = int(first_vpn.min())
        hi = int(last_vpn.max())
        domain = self._kernel.domain
        pfn = self.page_table.run_pfn(lo, hi)
        if pfn is not None:
            domain.touch_pfn_intervals(first_vpn + (pfn - lo), last_vpn - first_vpn)
            return
        pfns = self.page_table.walk(
            VARange(lo << PAGE_SHIFT, hi << PAGE_SHIFT), strict=True
        )
        domain.touch_pfns(pfns[interval_pages(first_vpn - lo, last_vpn - first_vpn)])

    def write_pfns_of(self, area: VARange) -> np.ndarray:
        """PFNs :meth:`write_range` would touch, without writing."""
        start_vpn, end_vpn = page_span_outer(area)
        return self.page_table.walk(
            VARange(start_vpn * PAGE_SIZE, end_vpn * PAGE_SIZE), strict=True
        )

    def exit(self) -> None:
        """Terminate: release the whole address space."""
        for mapped in self.page_table.mapped_ranges():
            self.munmap(mapped)
        self.alive = False
        self._kernel.reap(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Process(pid={self.pid}, name={self.name!r})"
