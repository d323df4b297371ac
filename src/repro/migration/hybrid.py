"""JAVMM + selective compression (the Section 6 extension).

"To exploit compression at a lower CPU cost, we are extending the
framework to compress only the memory pages that have not been skipped
over.  The transfer bitmap can use multiple bits per VM memory page to
indicate the suitable compression methods to apply before sending the
page contents over the network."

:class:`CompressionHintMap` is that multi-bit extension: two bits per
page select NONE / RAW / LIGHT / HEAVY.  :class:`JavmmCompressedMigrator`
combines the JAVMM skip path (garbage never reaches the compressor at
all — the CPU saving the paper is after) with per-page compression of
whatever still has to travel.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.guest.lkm import AssistLKM
from repro.jvm.hotspot import HotSpotJVM
from repro.mem.constants import PAGE_SIZE
from repro.migration.javmm import JavmmMigrator
from repro.migration.precopy import CPU_S_PER_BYTE_SENT
from repro.net.link import Link
from repro.units import MiB
from repro.xen.domain import Domain


class CompressionMethod(enum.IntEnum):
    """Per-page compression selector (two bits per page)."""

    NONE = 0  # skip-over page: never sent, never compressed
    RAW = 1  # incompressible content: send as-is
    LIGHT = 2  # fast LZ: cheap, moderate ratio
    HEAVY = 3  # slow and tight: for cold, compressible data


#: (compression ratio, CPU seconds per input byte) per method.
METHOD_COSTS: dict[CompressionMethod, tuple[float, float]] = {
    CompressionMethod.NONE: (1.0, 0.0),
    CompressionMethod.RAW: (1.0, 0.0),
    CompressionMethod.LIGHT: (0.60, 4.0 / (1 << 30)),
    CompressionMethod.HEAVY: (0.40, 14.0 / (1 << 30)),
}


class CompressionHintMap:
    """Two bits of compression hint per VM page."""

    def __init__(self, n_pages: int, default: CompressionMethod = CompressionMethod.LIGHT):
        self._hints = np.full(n_pages, int(default), dtype=np.uint8)
        self.n_pages = n_pages

    def set_method(self, pfns: np.ndarray, method: CompressionMethod) -> None:
        self._hints[pfns] = int(method)

    def set_range(self, start: int, end: int, method: CompressionMethod) -> None:
        self._hints[start:end] = int(method)

    def methods(self, pfns: np.ndarray) -> np.ndarray:
        return self._hints[pfns]

    @property
    def nbytes_packed(self) -> int:
        """Two bits per page, as the paper's extension sketches."""
        return (self.n_pages * 2 + 7) // 8

    def payload_and_cpu(self, pfns: np.ndarray) -> tuple[int, float]:
        """(compressed payload bytes, compression CPU seconds) for a batch."""
        if pfns.size == 0:
            return 0, 0.0
        methods = self._hints[pfns]
        payload = 0.0
        cpu = 0.0
        for method, (ratio, cost) in METHOD_COSTS.items():
            count = int((methods == int(method)).sum())
            if count:
                payload += count * PAGE_SIZE * ratio
                cpu += count * PAGE_SIZE * cost
        return int(payload), cpu


def classify_java_vm(
    hints: CompressionHintMap, jvms: list[HotSpotJVM]
) -> None:
    """Populate hints from Java-heap structure.

    Old-generation data (long-lived, object-rich) compresses well →
    HEAVY; the code cache / metaspace region is machine code → LIGHT;
    everything else defaults to LIGHT.
    """
    for jvm in jvms:
        pt = jvm.process.page_table
        old = pt.walk(jvm.heap.old_used_range())
        if old.size:
            hints.set_method(old, CompressionMethod.HEAVY)
        misc = pt.walk(jvm.misc_region)
        if misc.size:
            hints.set_method(misc, CompressionMethod.LIGHT)


class JavmmCompressedMigrator(JavmmMigrator):
    """JAVMM with per-page compression of the non-skipped pages."""

    name = "javmm+compress"
    #: checkpoint-protocol layout version; this subclass adds its own
    #: state fields, so it versions its snapshot independently
    snapshot_version = 1

    def __init__(
        self,
        domain: Domain,
        link: Link,
        lkm: AssistLKM,
        jvms: list[HotSpotJVM] | None = None,
        compressor_bytes_per_s: float = MiB(400),
        hints: CompressionHintMap | None = None,
        **kwargs,
    ) -> None:
        super().__init__(domain, link, lkm, jvms=jvms, **kwargs)
        self.compressor_bytes_per_s = float(compressor_bytes_per_s)
        self.hints = hints or CompressionHintMap(domain.n_pages)
        if jvms:
            classify_java_vm(self.hints, jvms)
        self.compression_cpu_seconds = 0.0
        self._compress_budget = 0.0
        self._batch_cpu = 0.0

    # -- per-page payload ---------------------------------------------------------

    def _payload_for(self, pfns: np.ndarray) -> int:
        payload, cpu = self.hints.payload_and_cpu(pfns)
        self._batch_cpu = cpu
        return payload

    def _cpu_cost_sent(self, n_pages: int) -> float:
        base = n_pages * PAGE_SIZE * CPU_S_PER_BYTE_SENT
        cpu, self._batch_cpu = self._batch_cpu, 0.0
        self.compression_cpu_seconds += cpu
        return base + cpu

    # -- compressor throughput cap -----------------------------------------------------

    def step(self, now: float, dt: float) -> None:
        self._compress_budget = self.compressor_bytes_per_s * dt
        super().step(now, dt)

    def _pump(self, now: float) -> None:
        wire_cost = self._page_wire_cost()
        cap_wire = (self._compress_budget / PAGE_SIZE) * wire_cost
        stash = max(0.0, self._budget - cap_wire)
        self._budget -= stash
        sent_before = self._iter_sent
        super()._pump(now)
        self._compress_budget -= (self._iter_sent - sent_before) * PAGE_SIZE
        self._budget += stash
