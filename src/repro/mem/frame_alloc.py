"""Guest page-frame allocator.

Models the guest kernel's physical-page allocator at the granularity
this reproduction needs: frames are fungible, allocation returns a set
of PFNs (not necessarily contiguous, matching the paper's observation
that VA-contiguous areas map to scattered PFNs), and freed frames are
recycled LIFO so reuse-after-free is exercised by tests — the exact
hazard the PFN cache of Section 3.3.4 exists to handle.

The pool is held as its PFNs in ascending order; a frame is named by
its *rank* in that array.  The free list is an int64 stack of ranks
and one boolean mask per rank says which frames are allocated, so
allocation and free are array slices and a bad free is refused before
anything changes.  A pickle keeps only the pool as given (a ``range``
stays a ``range``) and the live part of the stack; the rest is derived.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, FrameExhausted


class FrameAllocator:
    """LIFO free-list allocator over a fixed set of page frames."""

    def __init__(self, pfns: np.ndarray | range) -> None:
        #: the pool as given, when it is a ``range`` (what a pickle keeps)
        self._pool_range = pfns if isinstance(pfns, range) else None
        free = _as_array(pfns)
        order = np.argsort(free, kind="stable")
        #: the pool's PFNs, ascending; a frame's index here is its rank
        self._pool = free[order]
        if self._pool.size > 1 and not (np.diff(self._pool) > 0).all():
            raise ConfigurationError("frame pool contains duplicate PFNs")
        ranks = np.empty(free.size, dtype=np.int64)
        ranks[order] = np.arange(free.size, dtype=np.int64)
        # The stack top is the end; reversed so the pool comes out in
        # the order given (low PFNs first for a range), which makes
        # tests and traces easier to read.
        self._stack = ranks[::-1].copy()
        self._top = free.size  # free frames are self._stack[:self._top]
        self._allocated = np.zeros(free.size, dtype=bool)
        self.total_frames = free.size

    def __getstate__(self) -> dict:
        pool = self._pool if self._pool_range is None else self._pool_range
        return {"pool": pool, "free": self._stack[: self._top]}

    def __setstate__(self, state: dict) -> None:
        pool, free = state["pool"], state["free"]
        self._pool_range = pool if isinstance(pool, range) else None
        self._pool = np.sort(_as_array(pool))
        self.total_frames = self._pool.size
        self._stack = np.empty(self.total_frames, dtype=np.int64)
        self._top = free.size
        self._stack[: self._top] = free
        self._allocated = np.ones(self.total_frames, dtype=bool)
        self._allocated[free] = False

    @property
    def free_frames(self) -> int:
        return self._top

    @property
    def allocated_frames(self) -> int:
        return self.total_frames - self._top

    def alloc(self, n: int) -> np.ndarray:
        """Allocate *n* frames; raises :class:`FrameExhausted` if short."""
        if n < 0:
            raise ConfigurationError(f"cannot allocate {n} frames")
        if n > self._top:
            raise FrameExhausted(f"requested {n} frames, only {self._top} free")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        # Pop n ranks off the top: the same frames, in the same order,
        # as n successive pops.
        taken = self._stack[self._top - n : self._top][::-1]
        self._top -= n
        self._allocated[taken] = True
        return self._pool[taken]

    def free(self, pfns: np.ndarray) -> None:
        """Return frames to the pool, pushed in the order given.

        A foreign PFN, a frame that is not allocated, or one repeated
        within the call raises before any frame is freed.
        """
        pfns = np.asarray(pfns, dtype=np.int64)
        ranks = np.searchsorted(self._pool, pfns)
        ok = ranks < self._pool.size
        ok[ok] = self._pool[ranks[ok]] == pfns[ok]
        ok[ok] = self._allocated[ranks[ok]]
        repeat = np.ones(pfns.size, dtype=bool)
        repeat[np.unique(pfns, return_index=True)[1]] = False
        bad = ~ok | repeat
        if bad.any():
            pfn = int(pfns[np.argmax(bad)])
            raise ConfigurationError(f"double free or foreign PFN {pfn}")
        self._allocated[ranks] = False
        self._stack[self._top : self._top + ranks.size] = ranks
        self._top += ranks.size

    def is_allocated(self, pfn: int) -> bool:
        rank = int(np.searchsorted(self._pool, pfn))
        return bool(
            rank < self._pool.size and self._pool[rank] == pfn and self._allocated[rank]
        )

    def allocated_pfns(self) -> np.ndarray:
        """All currently-allocated PFNs, ascending."""
        return self._pool[self._allocated]

    def free_pfns(self) -> np.ndarray:
        """All currently-free PFNs, ascending (for free-page-skip baselines)."""
        return self._pool[~self._allocated]


def _as_array(pfns: np.ndarray | range) -> np.ndarray:
    if isinstance(pfns, range):
        return np.arange(pfns.start, pfns.stop, pfns.step or 1, dtype=np.int64)
    return np.asarray(pfns, dtype=np.int64)
