"""Application-Level Ballooning baseline (Salomie et al. [31]).

ALB extends memory ballooning into the JVM: the Java heap can be shrunk
before migration so that less memory is dirtied and transferred.
Section 2's assessment: "ALB may be used to shrink the Java heap before
migration begins and send less dirty data during migration, with the
tradeoff of potentially lower application performance; application
performance may degrade as the heap becomes smaller since garbage
collection may be triggered more frequently."

Model: before the pre-copy loop starts, the migrator lowers the heap's
Young-generation target (the balloon inflates), waits for the next GC
to release the pages, migrates with plain pre-copy — the released
frames are free pages the guest will not dirty — and deflates the
balloon after resume.  The smaller Eden makes minor GCs proportionally
more frequent, which is where the throughput penalty comes from.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.jvm.hotspot import HotSpotJVM
from repro.migration.precopy import MigrationPhase, PrecopyMigrator
from repro.net.link import Link
from repro.xen.domain import Domain


class BallooningPrecopyMigrator(PrecopyMigrator):
    """Pre-copy after ballooning the Java heap down."""

    name = "xen-alb"

    def __init__(
        self,
        domain: Domain,
        link: Link,
        jvms: list[HotSpotJVM],
        balloon_fraction: float = 0.25,
        **kwargs,
    ) -> None:
        if not 0.0 < balloon_fraction <= 1.0:
            raise ConfigurationError("balloon fraction must be in (0, 1]")
        super().__init__(domain, link, **kwargs)
        self.jvms = jvms
        self.balloon_fraction = balloon_fraction
        self._saved_targets: list[int] = []
        self._ballooning = False

    # -- balloon control ----------------------------------------------------------

    def start(self, now: float = 0.0) -> None:
        # Inflate before any transfer happens: shrink each heap's Young
        # target; the resize lands at the end of the next minor GC.
        for jvm in self.jvms:
            heap = jvm.heap
            self._saved_targets.append(heap.young_target_bytes)
            shrunk = max(
                int(heap.young_target_bytes * self.balloon_fraction),
                heap.from_used * 12,  # survivors must keep fitting
            )
            heap.young_target_bytes = shrunk
        self._ballooning = True
        super().start(now)

    def _on_resumed(self, now: float) -> None:
        # Deflate: restore the original heap sizes at the destination.
        for jvm, target in zip(self.jvms, self._saved_targets):
            jvm.heap.young_target_bytes = target
        self._ballooning = False
