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

_ONE = np.ones((), dtype=np.int64)


def interval_pages(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Every page of the intervals ``[starts[i], starts[i] + lens[i])``,
    interval by interval: a page two intervals cover is named twice, so
    bumping the result counts each covering write.  Every length must
    be positive."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(int(offsets[-1] + lens[-1]))


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
        # view back through ``__setitem__``, a copy onto itself.  Adding
        # an int64 array converts no Python int per call.
        run = self._versions[start:end]
        run += _ONE

    def version(self, pfn: int) -> int:
        return int(self._versions[pfn])

    def read(self, pfns: np.ndarray) -> np.ndarray:
        """Current versions of the given pages (a copy: *pfns* is an
        index array, so the lookup copies already)."""
        return self._versions[pfns]

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
