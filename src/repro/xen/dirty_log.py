"""Log-dirty page tracking.

Xen's shadow log-dirty mode records which guest pages were written
since the bitmap was last read.  The migration daemon enables the mode
at the start of migration and *peeks-and-clears* the bitmap at each
iteration boundary; pages dirtied mid-iteration therefore surface in
the next iteration's working set — exactly the behaviour Figure 1's
dirtying-rate series comes from.
"""

from __future__ import annotations

import numpy as np

from repro.mem.bitmap import PageBitmap
from repro.telemetry.probe import NULL_PROBE, Probe


class DirtyLog:
    """A dirty bitmap that only records while tracking is enabled."""

    def __init__(self, n_pages: int) -> None:
        self.n_pages = n_pages
        self._bitmap = PageBitmap(n_pages)
        self._enabled = False
        self.probe = NULL_PROBE

    @property
    def probe(self) -> Probe:
        """Telemetry handle (see repro.telemetry); no-op unless enabled."""
        return self._probe

    @probe.setter
    def probe(self, probe: Probe) -> None:
        self._probe = probe
        #: the probe's ``dirty.pages_marked`` counter, resolved by the
        #: first mark it counts (when the registry would have created it)
        self._marked = None

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        """Turn on tracking with a clean slate (Xen's LOGDIRTY_ENABLE)."""
        self._bitmap.clear_all()
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False
        self._bitmap.clear_all()

    def _count(self, n_pages: int) -> None:
        marked = self._marked
        if marked is None:
            if not self._probe.enabled:
                return
            marked = self._marked = self._probe.counters["dirty.pages_marked"]
        marked.value += n_pages

    def mark(self, pfns: np.ndarray) -> None:
        """Record writes to the given pages (no-op when disabled)."""
        if self._enabled:
            self._bitmap.set_pfns(pfns)
            self._count(int(pfns.size))

    def mark_range(self, start: int, end: int) -> None:
        if self._enabled:
            self._bitmap.set_range(start, end)
            self._count(end - start)

    def mark_counted(self, pfns: np.ndarray, marked_events: int) -> None:
        """Record a batch of writes covering *pfns*.

        *marked_events* is the total page count the equivalent
        per-write :meth:`mark` calls would have reported (duplicates
        included), so the ``dirty.pages_marked`` counter stays exact
        under the event kernel's aggregated writes.
        """
        if self._enabled:
            self._bitmap.set_pfns(pfns)
            self._count(int(marked_events))

    def peek_and_clear(self) -> np.ndarray:
        """Dirty PFNs since the last call; resets the log (CLEAN op)."""
        dirty = self._bitmap.snapshot_and_clear()
        if self._probe.enabled:
            self._probe.observe("dirty.scan_pages", float(dirty.size))
        return dirty

    def peek(self) -> np.ndarray:
        """Dirty PFNs without clearing (PEEK op)."""
        return self._bitmap.set_pfns_array()

    def is_dirty(self, pfn: int) -> bool:
        return self._bitmap.test(pfn)

    def dirty_mask(self, pfns: np.ndarray) -> np.ndarray:
        """Boolean per-PFN dirty state for *pfns*."""
        return self._bitmap.test_pfns(pfns)

    def count(self) -> int:
        return self._bitmap.count()
