"""Heap address-space layout.

HotSpot reserves the maximum heap up front and commits pages as the
generations grow.  Within the committed Young generation the three
spaces are laid out contiguously — ``[ Eden | From | To ]`` — with the
survivor spaces sized by ``SurvivorRatio`` (Eden is *ratio* times one
survivor space).  From and To swap *labels* after each scavenge, so the
layout tracks which physical half currently plays which role.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.mem.address import VARange
from repro.mem.constants import PAGE_SIZE


def _page_floor(n: int) -> int:
    return (n // PAGE_SIZE) * PAGE_SIZE


@dataclass
class HeapLayout:
    """VA boundaries of the Java heap for one committed Young size.

    The space sizes and ranges follow from the fields, which a layout
    never changes (:meth:`with_committed` makes a new one), so they are
    computed once here rather than on every allocation.
    """

    young_region: VARange  # the full reserved Young range
    old_region: VARange  # the full reserved Old range
    survivor_ratio: int
    young_committed: int  # bytes committed at the bottom of young_region
    survivors_flipped: bool = False  # False: From is the lower survivor
    #: size of one survivor space (page-aligned)
    survivor_bytes: int = field(init=False, repr=False, compare=False)
    eden_bytes: int = field(init=False, repr=False, compare=False)
    committed_range: VARange = field(init=False, repr=False, compare=False)
    eden: VARange = field(init=False, repr=False, compare=False)
    _survivor_lo: VARange = field(init=False, repr=False, compare=False)
    _survivor_hi: VARange = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.survivor_ratio < 1:
            raise ConfigurationError("survivor ratio must be >= 1")
        if self.young_committed % PAGE_SIZE:
            raise ConfigurationError("committed Young size must be page-aligned")
        if self.young_committed > self.young_region.length:
            raise ConfigurationError("committed Young exceeds the reservation")
        start = self.young_region.start
        self.survivor_bytes = _page_floor(self.young_committed // (self.survivor_ratio + 2))
        self.eden_bytes = self.young_committed - 2 * self.survivor_bytes
        self.committed_range = VARange(start, start + self.young_committed)
        self.eden = VARange(start, start + self.eden_bytes)
        lo = self.eden.end
        self._survivor_lo = VARange(lo, lo + self.survivor_bytes)
        self._survivor_hi = VARange(lo + self.survivor_bytes, lo + 2 * self.survivor_bytes)

    # -- survivor roles -------------------------------------------------------------

    @property
    def from_space(self) -> VARange:
        return self._survivor_hi if self.survivors_flipped else self._survivor_lo

    @property
    def to_space(self) -> VARange:
        return self._survivor_lo if self.survivors_flipped else self._survivor_hi

    def flip_survivors(self) -> None:
        """Swap the From/To labels (end of a scavenge)."""
        self.survivors_flipped = not self.survivors_flipped

    def with_committed(self, new_committed: int) -> "HeapLayout":
        """A layout for a different committed Young size (labels reset)."""
        return HeapLayout(
            young_region=self.young_region,
            old_region=self.old_region,
            survivor_ratio=self.survivor_ratio,
            young_committed=new_committed,
            survivors_flipped=False,
        )
