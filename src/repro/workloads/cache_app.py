"""A caching application assisting in migration (Section 6).

The paper argues the framework generalizes beyond JVMs: "The
application can specify a portion of its caching memory space to be
skipped over by the migration daemon, effectively shrinking the cache
in the destination.  To reduce the resulting performance impact ...
the application can purge the least frequently and/or the least
recently used cache data" — with the constraint that "the remaining
valid data need to be compact in the caching memory space".

:class:`CacheApp` models a memcached-like server: a compact hot region
at the bottom of the cache arena, a cold tail above it.  It reports the
cold tail as its skip-over area, keeps serving (and dirtying) hot
entries during migration, and on resume simply treats the cold region
as empty, taking a hit-rate penalty instead of a transfer cost.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.guest.kernel import GuestKernel
from repro.guest.lkm import AssistLKM
from repro.guest.participant import Participant
from repro.mem.address import VARange
from repro.sim.actor import Actor
from repro.units import MiB


class CacheApp(Participant, Actor):
    """An in-memory cache server participating in assisted migration."""

    priority = 0
    label = "cache app"

    def __init__(
        self,
        kernel: GuestKernel,
        lkm: AssistLKM,
        cache_bytes: int = MiB(512),
        hot_fraction: float = 0.25,
        write_bytes_per_s: float = MiB(40),
        ops_per_s: float = 10_000.0,
    ) -> None:
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError("hot fraction must be in (0, 1]")
        self.kernel = kernel
        self.process = kernel.spawn("cache-server")
        self.arena = self.process.mmap(cache_bytes)
        self.hot_bytes = int(cache_bytes * hot_fraction)
        self.write_bytes_per_s = float(write_bytes_per_s)
        self.ops_per_s = float(ops_per_s)
        self.ops_completed = 0.0
        self._cursor = 0
        self._held = False
        self.resumed_with_cold_cache = False
        super().__init__(self.process, lkm)

    # -- geometry -------------------------------------------------------------------

    @property
    def hot_region(self) -> VARange:
        return VARange(self.arena.start, self.arena.start + self.hot_bytes)

    @property
    def cold_region(self) -> VARange:
        """The skip-over area: everything above the compact hot data."""
        return VARange(self.arena.start + self.hot_bytes, self.arena.end)

    # -- workload -------------------------------------------------------------------

    def step(self, now: float, dt: float) -> None:
        if self.kernel.domain.paused or self._held:
            return
        n = int(self.write_bytes_per_s * dt)
        if n > 0:
            ws = self.hot_bytes
            off = self._cursor % ws
            end = min(off + n, ws)
            self.process.write_range(
                VARange(self.hot_region.start + off, self.hot_region.start + end)
            )
            wrapped = n - (end - off)
            if wrapped > 0:
                self.process.write_range(
                    VARange(self.hot_region.start, self.hot_region.start + wrapped)
                )
            self._cursor = (self._cursor + n) % ws
        self.ops_completed += self.ops_per_s * dt

    # -- protocol -------------------------------------------------------------------

    def skip_areas(self) -> tuple[VARange, ...]:
        return (self.cold_region,)

    def quiesce(self) -> None:
        # Purge-and-compact: the hot data is already compact at the
        # bottom of the arena, so preparation is just a quiesce.
        self._held = True
        self.ready()

    def release(self, resumed: bool) -> None:
        # After an abort the server is still at the source and resumes
        # serving from the warm cache.
        self._held = False
        if resumed:
            self.resumed_with_cold_cache = True
