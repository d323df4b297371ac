"""Guest domains (VMs).

A :class:`Domain` is the unit of migration: a fixed-size page-frame
space with per-page content versions, a dirty log, vCPUs and a
pause/resume lifecycle.  All guest writes funnel through
:meth:`touch_pfns` / :meth:`touch_range` so that content versions and
the dirty log stay consistent by construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, MigrationError
from repro.mem.constants import PAGE_SIZE, bytes_to_pages
from repro.mem.versioned import VersionedPages, interval_pages
from repro.xen.dirty_log import DirtyLog


class Domain:
    """A guest VM as the hypervisor sees it."""

    def __init__(self, name: str, mem_bytes: int, vcpus: int = 4) -> None:
        if mem_bytes <= 0 or mem_bytes % PAGE_SIZE:
            raise ConfigurationError(
                f"domain memory must be a positive multiple of {PAGE_SIZE}"
            )
        if vcpus <= 0:
            raise ConfigurationError("domain needs at least one vCPU")
        self.name = name
        self.mem_bytes = int(mem_bytes)
        self.n_pages = bytes_to_pages(mem_bytes)
        self.vcpus = vcpus
        self.pages = VersionedPages(self.n_pages)
        self.dirty_log = DirtyLog(self.n_pages)
        self._paused = False
        self._running = True
        #: total pause time accumulated, for downtime cross-checks
        self.paused_seconds = 0.0
        self._paused_since: float | None = None

    # -- lifecycle ---------------------------------------------------------------

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def running(self) -> bool:
        return self._running

    def pause(self, now: float = 0.0) -> None:
        if self._paused:
            raise MigrationError(f"domain {self.name} is already paused")
        self._paused = True
        self._paused_since = now

    def unpause(self, now: float = 0.0) -> None:
        if not self._paused:
            raise MigrationError(f"domain {self.name} is not paused")
        self._paused = False
        if self._paused_since is not None:
            self.paused_seconds += max(0.0, now - self._paused_since)
            self._paused_since = None

    def destroy(self) -> None:
        """Tear the domain down (the source side after migration)."""
        self._running = False

    # -- guest memory writes -------------------------------------------------------

    def touch_pfns(self, pfns: np.ndarray) -> None:
        """Guest write to the given pages: bump versions, log dirty."""
        if self._paused:
            raise MigrationError(f"paused domain {self.name} cannot write memory")
        self.pages.bump(pfns)
        self.dirty_log.mark(pfns)

    def touch_range(self, start_pfn: int, end_pfn: int) -> None:
        """Guest write to the contiguous PFN range ``[start, end)``."""
        if self._paused:
            raise MigrationError(f"paused domain {self.name} cannot write memory")
        self.pages.bump_range(start_pfn, end_pfn)
        self.dirty_log.mark_range(start_pfn, end_pfn)

    def touch_pfn_intervals(self, starts: np.ndarray, lens: np.ndarray) -> None:
        """Batched form of :meth:`touch_range` over many PFN intervals.

        Exactly equivalent to one ``touch_range(s, s + n)`` call per
        ``(s, n)`` pair: per-page version bumps count every covering
        interval, and the dirty log sees the same page totals.
        """
        if self._paused:
            raise MigrationError(f"paused domain {self.name} cannot write memory")
        keep = lens > 0
        if not keep.all():
            starts, lens = starts[keep], lens[keep]
        if starts.size == 0:
            return
        self.touch_pfns(interval_pages(starts, lens))

    # -- migration plumbing ---------------------------------------------------------

    def read_pages(self, pfns: np.ndarray) -> np.ndarray:
        """Page contents (versions) for transfer."""
        return self.pages.read(pfns)

    def make_destination(self) -> "Domain":
        """An empty same-shape domain on the destination host."""
        dest = Domain(self.name, self.mem_bytes, self.vcpus)
        dest._paused = True  # restored domains start paused
        dest._paused_since = None
        return dest

    def install_pages(self, pfns: np.ndarray, versions: np.ndarray) -> None:
        """Destination side: accept transferred page contents."""
        self.pages.write(pfns, versions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "paused" if self._paused else "running"
        return f"Domain({self.name!r}, {self.mem_bytes >> 20} MiB, {state})"
