"""Per-process page tables with bulk walks.

A page table maps virtual page numbers (VPNs) to page frame numbers
(PFNs).  It is organized as a sorted list of VMAs — runs of
consecutively-mapped virtual pages each backed by an arbitrary PFN
array — so that the hot operation, translating a large VA range (the
LKM's page-table walk of Section 3.3.2), is a handful of array slices
instead of a per-page loop.

A VMA whose PFNs ascend by one (a *run*, what a fresh mapping from an
unfragmented allocator gets) also records its first PFN, so a span
inside it translates to a PFN interval without building an array:
:meth:`PageTable.run_pfn`, the guest write path's fast case.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.errors import AddressError, TranslationFault
from repro.mem.address import VARange, page_span_inner
from repro.mem.constants import PAGE_SHIFT, PAGE_SIZE


class _Vma:
    """A run of mapped virtual pages ``[start_vpn, start_vpn + n)``."""

    __slots__ = ("start_vpn", "pfns")

    def __init__(self, start_vpn: int, pfns: np.ndarray) -> None:
        self.start_vpn = start_vpn
        self.pfns = pfns

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + len(self.pfns)


class PageTable:
    """VA→PFN mappings for one process."""

    def __init__(self) -> None:
        self._vmas: list[_Vma] = []  # sorted by start_vpn, non-overlapping
        #: ``start_vpn`` of each VMA, in step with ``_vmas`` (bisect key)
        self._starts: list[int] = []
        #: first PFN of each VMA mapped as a run (PFNs ascending by one),
        #: else ``None``; in step with ``_vmas``.  ``remap_page`` drops
        #: a run it breaks and never restores one.
        self._runs: list[int | None] = []

    def __getstate__(self) -> dict:
        # ``_starts`` and ``_runs`` are derived, and a run's PFNs are its
        # first PFN and its length: a run is pickled as those two ints.
        return {"_vmas": [
            (vma.start_vpn, vma.pfns) if run is None else (vma.start_vpn, run, len(vma.pfns))
            for vma, run in zip(self._vmas, self._runs)
        ]}

    def __setstate__(self, state: dict) -> None:
        self._vmas = [
            _Vma(entry[0], entry[1]) if len(entry) == 2
            else _Vma(entry[0], np.arange(entry[1], entry[1] + entry[2], dtype=np.int64))
            for entry in state["_vmas"]
        ]
        self._starts = [vma.start_vpn for vma in self._vmas]
        self._runs = [_run_base(vma.pfns) for vma in self._vmas]

    # -- mapping ---------------------------------------------------------------

    def map_range(self, r: VARange, pfns: np.ndarray) -> None:
        """Map the page-aligned range *r* onto *pfns* (one PFN per page)."""
        start_vpn, end_vpn = self._aligned_span(r)
        n = end_vpn - start_vpn
        pfns = np.asarray(pfns, dtype=np.int64)
        if len(pfns) != n:
            raise AddressError(
                f"range covers {n} pages but {len(pfns)} PFNs were supplied"
            )
        if n == 0:
            return
        idx = bisect.bisect_right(self._starts, start_vpn)
        if idx > 0 and self._vmas[idx - 1].end_vpn > start_vpn:
            raise AddressError(f"mapping overlaps existing VMA at vpn {start_vpn}")
        if idx < len(self._vmas) and self._vmas[idx].start_vpn < end_vpn:
            raise AddressError(f"mapping overlaps existing VMA before vpn {end_vpn}")
        self._vmas.insert(idx, _Vma(start_vpn, pfns.copy()))
        self._starts.insert(idx, start_vpn)
        self._runs.insert(idx, _run_base(pfns))

    def unmap_range(self, r: VARange) -> np.ndarray:
        """Unmap the page-aligned range *r*; returns the PFNs released.

        Every page in the range must currently be mapped; VMAs are split
        as necessary.
        """
        start_vpn, end_vpn = self._aligned_span(r)
        if end_vpn == start_vpn:
            return np.empty(0, dtype=np.int64)
        released: list[np.ndarray] = []
        remaining: list[tuple[_Vma, int | None]] = []
        covered = 0
        for vma, run in zip(self._vmas, self._runs):
            if vma.end_vpn <= start_vpn or vma.start_vpn >= end_vpn:
                remaining.append((vma, run))
                continue
            cut_lo = max(vma.start_vpn, start_vpn)
            cut_hi = min(vma.end_vpn, end_vpn)
            covered += cut_hi - cut_lo
            lo_off = cut_lo - vma.start_vpn
            hi_off = cut_hi - vma.start_vpn
            released.append(vma.pfns[lo_off:hi_off])
            if lo_off > 0:
                head = vma.pfns[:lo_off].copy()
                remaining.append((_Vma(vma.start_vpn, head), _run_base(head)))
            if hi_off < len(vma.pfns):
                tail = vma.pfns[hi_off:].copy()
                remaining.append((_Vma(cut_hi, tail), _run_base(tail)))
        if covered != end_vpn - start_vpn:
            raise TranslationFault(
                f"unmap range [{r.start:#x}, {r.end:#x}) has unmapped pages"
            )
        remaining.sort(key=lambda entry: entry[0].start_vpn)
        self._vmas = [vma for vma, _ in remaining]
        self._starts = [vma.start_vpn for vma in self._vmas]
        self._runs = [run for _, run in remaining]
        return np.concatenate(released) if released else np.empty(0, dtype=np.int64)

    def remap_page(self, va: int, new_pfn: int) -> int:
        """Change the PFN backing one page; returns the old PFN.

        Models in-guest page remapping (sharing / compaction), one of
        the mapping-change events Section 3.3.4 enumerates.
        """
        vpn = va >> PAGE_SHIFT
        idx = self._find(vpn)
        if idx < 0:
            raise TranslationFault(f"remap of unmapped va {va:#x}")
        vma = self._vmas[idx]
        off = vpn - vma.start_vpn
        old = int(vma.pfns[off])
        vma.pfns[off] = new_pfn
        run = self._runs[idx]
        if run is not None and new_pfn != run + off:
            self._runs[idx] = None
        return old

    # -- translation -----------------------------------------------------------

    def translate(self, va: int) -> int:
        """VA → PFN for one address; raises :class:`TranslationFault`."""
        vpn = va >> PAGE_SHIFT
        idx = self._find(vpn)
        if idx < 0:
            raise TranslationFault(f"no mapping for va {va:#x}")
        vma = self._vmas[idx]
        return int(vma.pfns[vpn - vma.start_vpn])

    def run_pfn(self, start_vpn: int, end_vpn: int) -> int | None:
        """First PFN of ``[start_vpn, end_vpn)`` if one run maps it all.

        The span then translates to the PFNs ``[pfn, pfn + end_vpn -
        start_vpn)``.  ``None`` when no single VMA holds the span or the
        VMA holding it is not a run; callers fall back to :meth:`walk`.
        """
        idx = bisect.bisect_right(self._starts, start_vpn) - 1
        if idx < 0:
            return None
        run = self._runs[idx]
        if run is None:
            return None
        vma_start = self._starts[idx]
        if end_vpn - vma_start > len(self._vmas[idx].pfns):
            return None
        return run + start_vpn - vma_start

    def walk(self, r: VARange, strict: bool = False) -> np.ndarray:
        """Page-table walk: PFNs of the pages fully inside *r*.

        With ``strict=False`` (the LKM's behaviour) unmapped pages are
        silently absent from the result; ``strict=True`` raises instead.
        """
        start_vpn, end_vpn = page_span_inner(r)
        # The last VMA starting at or before start_vpn is the first that
        # can overlap the range; end_vpn is inlined on this hot path.
        first = max(0, bisect.bisect_right(self._starts, start_vpn) - 1)
        if first < len(self._vmas):
            vma = self._vmas[first]
            lo = start_vpn - vma.start_vpn
            hi = end_vpn - vma.start_vpn
            if 0 <= lo and hi <= len(vma.pfns):
                # The common case: one VMA holds the whole range.  A copy,
                # since callers may keep or mutate the result.
                return vma.pfns[lo:hi].copy()
        out: list[np.ndarray] = []
        found = 0
        for vma in self._vmas[first:]:
            vma_start = vma.start_vpn
            if vma_start >= end_vpn:
                break
            pfns = vma.pfns
            lo = max(vma_start, start_vpn)
            hi = min(vma_start + len(pfns), end_vpn)
            if hi <= lo:
                continue
            out.append(pfns[lo - vma_start : hi - vma_start])
            found += hi - lo
        if strict and found != end_vpn - start_vpn:
            raise TranslationFault(
                f"walk of [{r.start:#x}, {r.end:#x}) found {found} of "
                f"{end_vpn - start_vpn} pages"
            )
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    def is_mapped(self, va: int) -> bool:
        return self._find(va >> PAGE_SHIFT) >= 0

    def mapped_pages(self) -> int:
        """Total number of mapped pages."""
        return sum(len(vma.pfns) for vma in self._vmas)

    def mapped_ranges(self) -> list[VARange]:
        """The mapped VA ranges, ascending."""
        return [
            VARange(vma.start_vpn << PAGE_SHIFT, vma.end_vpn << PAGE_SHIFT)
            for vma in self._vmas
        ]

    # -- internals ---------------------------------------------------------------

    def _find(self, vpn: int) -> int:
        """Index of the VMA mapping *vpn*, or -1."""
        idx = bisect.bisect_right(self._starts, vpn) - 1
        if idx >= 0 and vpn < self._vmas[idx].end_vpn:
            return idx
        return -1

    @staticmethod
    def _aligned_span(r: VARange) -> tuple[int, int]:
        if r.start % PAGE_SIZE or r.end % PAGE_SIZE:
            raise AddressError(
                f"range [{r.start:#x}, {r.end:#x}) is not page-aligned"
            )
        return r.start >> PAGE_SHIFT, r.end >> PAGE_SHIFT


def _run_base(pfns: np.ndarray) -> int | None:
    """``pfns[0]`` if *pfns* ascend by one, else ``None``."""
    if len(pfns) == 0 or not (np.diff(pfns) == 1).all():
        return None
    return int(pfns[0])
