"""The skip-over-area PFN cache (Section 3.3.4).

When a skip-over area shrinks because memory was *deallocated*, the PFNs
leaving the area are already gone from the page tables, so the LKM
cannot re-walk to find which transfer bits to set.  Instead it caches
each (VPN → PFN) pair at the moment the transfer bit is cleared, and
answers shrink notifications from the cache.  The paper sizes this at
4 bytes per page — "1MB per GB of skip-over area ... a 0.1% overhead" —
which :meth:`nbytes` mirrors.

Storage is a pair of parallel int64 arrays kept sorted by VPN, so the
hot paths are wholly vectorized: recording a batch is one merge (dedup
+ stable sort), and a range query is two ``searchsorted`` probes plus
one slice — no per-page Python loop anywhere (the rest of
:mod:`repro.mem` has been numpy-backed since the columnar-core work).
"""

from __future__ import annotations

import numpy as np

from repro.mem.address import VARange, page_span_inner

_ENTRY_BYTES = 4  # the paper's 4-byte cache entries

_EMPTY = np.empty(0, dtype=np.int64)


class PfnCache:
    """VPN → PFN cache for pages whose transfer bits were cleared."""

    def __init__(self) -> None:
        #: cached VPNs, ascending and unique; ``_pfns`` is aligned to it
        self._vpns: np.ndarray = _EMPTY
        self._pfns: np.ndarray = _EMPTY

    def __len__(self) -> int:
        return int(self._vpns.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint at the paper's 4 bytes per entry."""
        return int(self._vpns.size) * _ENTRY_BYTES

    def _merge(self, vpns: np.ndarray, pfns: np.ndarray) -> None:
        """Fold a (VPN, PFN) batch in: new entries overwrite cached
        ones, and within one batch the *last* pair for a VPN wins —
        both exactly the overwrite semantics of the dict this replaces.
        """
        if vpns.size == 0:
            return
        # np.unique keeps the first occurrence, so reverse the batch to
        # make "first seen" mean "last recorded".
        uniq, first = np.unique(vpns[::-1], return_index=True)
        batch_vpns = uniq
        batch_pfns = pfns[::-1][first]
        if self._vpns.size:
            keep = ~np.isin(self._vpns, batch_vpns)
            merged_vpns = np.concatenate([self._vpns[keep], batch_vpns])
            merged_pfns = np.concatenate([self._pfns[keep], batch_pfns])
            order = np.argsort(merged_vpns, kind="stable")
            self._vpns = merged_vpns[order]
            self._pfns = merged_pfns[order]
        else:
            self._vpns = batch_vpns
            self._pfns = batch_pfns

    def record(self, start_vpn: int, pfns: np.ndarray) -> None:
        """Remember PFNs for the consecutive VPN run starting at *start_vpn*."""
        pfns = np.asarray(pfns, dtype=np.int64)
        vpns = np.arange(start_vpn, start_vpn + pfns.size, dtype=np.int64)
        self._merge(vpns, pfns)

    def _span_slice(self, r: VARange) -> slice:
        """The slice of the sorted arrays covering pages inside *r*."""
        start_vpn, end_vpn = page_span_inner(r)
        lo = int(np.searchsorted(self._vpns, start_vpn, side="left"))
        hi = int(np.searchsorted(self._vpns, end_vpn, side="left"))
        return slice(lo, hi)

    def take_range(self, r: VARange) -> np.ndarray:
        """PFNs cached for pages fully inside *r*; entries are removed.

        This is the shrink path: "It queries the PFN cache by the VA
        ranges leaving the skip-over area ... After setting their
        transfer bits, it removes the PFNs from the cache."
        """
        span = self._span_slice(r)
        hits = self._pfns[span].copy()
        if hits.size:
            self._vpns = np.delete(self._vpns, span)
            self._pfns = np.delete(self._pfns, span)
        return hits

    def peek_range(self, r: VARange) -> np.ndarray:
        """Like :meth:`take_range` but non-destructive (for inspection)."""
        return self._pfns[self._span_slice(r)].copy()

    def cached_vpns(self) -> np.ndarray:
        return self._vpns.copy()

    def cached_pfns(self) -> np.ndarray:
        """All cached PFN values, ascending (invariant checks)."""
        return np.sort(self._pfns)

    def clear(self) -> None:
        self._vpns = _EMPTY
        self._pfns = _EMPTY
