"""Traffic accounting for a link."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TrafficMeter:
    """Byte and page counters for everything a link carried.

    Every wire byte is also attributed to a category (``first_copy``,
    ``redirty``, ``stop_copy``, ``loss_retx``, ``control``, …) so the
    attribution layer (:mod:`repro.telemetry.attribution`) can audit
    the ledger against the totals: ``sum(by_category.values()) ==
    wire_bytes`` holds at all times — uncategorized traffic lands in
    ``"other"`` rather than escaping the invariant.
    """

    pages_sent: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    by_category: dict[str, int] = field(default_factory=dict)

    def add(
        self,
        pages: int,
        payload_bytes: int,
        wire_bytes: int,
        category: str = "other",
    ) -> None:
        self.pages_sent += pages
        self.payload_bytes += payload_bytes
        self.wire_bytes += wire_bytes
        if wire_bytes:
            self.by_category[category] = (
                self.by_category.get(category, 0) + wire_bytes
            )
