"""Per-page content versions.

The reproduction does not move real bytes; instead every guest page
carries a monotonically-increasing *version* that is bumped each time
the page is dirtied.  "Transferring" a page copies its current version
to the destination.  After migration, comparing version arrays proves —
page by page — that the migrator moved everything it had to move, which
is how the test suite and benchmarks verify correctness (DESIGN.md §5).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class VersionedPages:
    """A version counter per page frame."""

    def __init__(self, n_pages: int) -> None:
        if n_pages < 0:
            raise ConfigurationError(f"page count must be >= 0, got {n_pages}")
        self.n_pages = int(n_pages)
        self._versions = np.zeros(self.n_pages, dtype=np.int64)

    def bump(self, pfns: np.ndarray) -> None:
        """Dirty the given pages (version += 1).

        ``np.add.at`` is used so duplicate PFNs in one call each count.
        """
        np.add.at(self._versions, pfns, 1)

    def bump_range(self, start: int, end: int) -> None:
        # In place on the view: ``a[i:j] += 1`` would also write the
        # view back through ``__setitem__``, a copy onto itself.
        run = self._versions[start:end]
        run += 1

    def bump_counts(self, pfns: np.ndarray, counts: np.ndarray) -> None:
        """Dirty *pfns*, bumping each by its entry in *counts*.

        Equivalent to a sequence of :meth:`bump` calls whose per-page
        occurrence totals are *counts* — the aggregated form the event
        kernel's batched writes use.
        """
        np.add.at(self._versions, pfns, counts)

    def bump_slice_counts(self, start: int, counts: np.ndarray) -> None:
        """Bump the contiguous PFN run from *start* by *counts* per page."""
        self._versions[start : start + counts.size] += counts

    def version(self, pfn: int) -> int:
        return int(self._versions[pfn])

    def read(self, pfns: np.ndarray) -> np.ndarray:
        """Current versions of the given pages (a copy)."""
        return self._versions[pfns].copy()

    def write(self, pfns: np.ndarray, versions: np.ndarray) -> None:
        """Install received versions (the destination side of a transfer)."""
        self._versions[pfns] = versions

    def snapshot(self) -> np.ndarray:
        """A copy of all versions."""
        return self._versions.copy()

    def mismatches(self, other: "VersionedPages") -> np.ndarray:
        """PFNs whose versions differ between ``self`` and *other*."""
        if other.n_pages != self.n_pages:
            raise ConfigurationError(
                f"page count mismatch: {self.n_pages} vs {other.n_pages}"
            )
        return np.flatnonzero(self._versions != other._versions)

    def total_dirty_events(self) -> int:
        """Sum of all versions = number of page-dirty events so far."""
        return int(self._versions.sum())
