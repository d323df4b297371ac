"""Protocol fuzzing: random skip-over-area dynamics during migration.

A hypothesis-driven application mutates its skip-over area while an
assisted migration runs — dirtying random spans, shrinking (with
deallocation and notification), growing silently (the deferred-expand
path) — and at suspension time declares a random live span as leaving.

Invariants, for every generated schedule:

- the migration terminates and verifies (no violating pages);
- the declared live span arrives at the destination byte-exactly;
- everything outside the app's final areas matches exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.guest import messages as msg
from repro.guest.kernel import GuestKernel
from repro.guest.lkm import AssistLKM
from repro.guest.procfs import format_area_line
from repro.mem.address import VARange
from repro.mem.constants import PAGE_SIZE
from repro.migration.assisted import AssistedMigrator
from repro.net.link import Link
from repro.sim.actor import Actor
from repro.sim.engine import Engine
from repro.units import MiB
from repro.xen.domain import Domain

AREA_PAGES = 512  # 2 MiB starting area


class FuzzApp(Actor):
    """An application whose area behaviour follows a generated script."""

    priority = 0

    def __init__(self, kernel: GuestKernel, lkm: AssistLKM, script) -> None:
        self.kernel = kernel
        self.lkm = lkm
        self.process = kernel.spawn("fuzz-app")
        self.area = self.process.mmap(AREA_PAGES * PAGE_SIZE)
        self.app_id = self.process.pid
        self.script = sorted(script, key=lambda op: op[0])  # (time, kind, a, b)
        self._next = 0
        self.live_span: VARange | None = None
        kernel.netlink.subscribe(self.app_id, self._on_netlink)
        lkm.register_app(self.app_id, self.process)

    # -- scripted behaviour ---------------------------------------------------------

    def step(self, now: float, dt: float) -> None:
        if self.kernel.domain.paused:
            return
        while self._next < len(self.script) and self.script[self._next][0] <= now:
            _, kind, a, b = self.script[self._next]
            self._next += 1
            if kind == "dirty":
                self._dirty(a, b)
            elif kind == "shrink":
                self._shrink(a)
            elif kind == "grow":
                self._grow(a)

    def _pages(self) -> int:
        return self.area.length // PAGE_SIZE

    def _dirty(self, frac_start: float, frac_len: float) -> None:
        pages = self._pages()
        if pages == 0:
            return
        start = int(frac_start * (pages - 1))
        count = max(1, int(frac_len * (pages - start)))
        span = VARange(
            self.area.start + start * PAGE_SIZE,
            self.area.start + min(pages, start + count) * PAGE_SIZE,
        )
        self.process.write_range(span.start, span.end)

    def _shrink(self, frac: float) -> None:
        pages = self._pages()
        drop = int(frac * (pages - 2))
        if drop <= 0:
            return
        tail = VARange(self.area.end - drop * PAGE_SIZE, self.area.end)
        self.process.munmap(tail)  # deallocation precedes the notice
        self.area = VARange(self.area.start, tail.start)
        self.kernel.netlink.send_to_kernel(
            self.app_id, msg.AreaShrunk(self.app_id, (tail,))
        )

    def _grow(self, frac: float) -> None:
        add = max(1, int(frac * 64))
        self.area = self.process.mmap_grow(self.area, add * PAGE_SIZE)
        # No notification: expansion is deferred by design.

    # -- protocol ---------------------------------------------------------------------

    def _on_netlink(self, message: object) -> None:
        if isinstance(message, msg.SkipOverQuery):
            self.lkm.proc_entry.write(
                format_area_line(self.app_id, message.query_id, self.area)
            )
            self.kernel.netlink.send_to_kernel(
                self.app_id, msg.SkipAreasReply(self.app_id, message.query_id, 1)
            )
        elif isinstance(message, msg.PrepareSuspension):
            # "Collect": compact live data to the area's bottom pages.
            live_pages = max(1, self._pages() // 8)
            self.live_span = VARange(
                self.area.start, self.area.start + live_pages * PAGE_SIZE
            )
            self.process.write_range(self.live_span.start, self.live_span.end)
            self.kernel.netlink.send_to_kernel(
                self.app_id,
                msg.SuspensionReadyReply(
                    self.app_id,
                    message.query_id,
                    areas=(self.area,),
                    leaving_ranges=(self.live_span,),
                ),
            )
        # VMResumedNotice: nothing to do.


op = st.tuples(
    st.floats(0.1, 2.0),  # time
    st.sampled_from(["dirty", "shrink", "grow"]),
    st.floats(0.0, 1.0),
    st.floats(0.01, 1.0),
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(op, max_size=12), seed=st.integers(0, 100))
def test_random_area_dynamics_never_corrupt_migration(script, seed):
    domain = Domain("fuzz-vm", MiB(64))
    kernel = GuestKernel(domain, kernel_reserved_bytes=MiB(4), os_dirty_bytes_per_s=MiB(1))
    lkm = AssistLKM(kernel)
    app = FuzzApp(kernel, lkm, script)
    engine = Engine(0.005)
    engine.add(app)
    engine.add(kernel)
    engine.add(lkm)
    migrator = AssistedMigrator(domain, Link(), lkm)
    engine.add(migrator)
    engine.run_until(0.2)
    migrator.start(engine.now)
    engine.run_while(lambda: not migrator.done, timeout=120)

    report = migrator.report
    assert report.verified is True
    assert report.violating_pages == 0
    # The declared live span must have arrived byte-exactly.
    if app.live_span is not None:
        pfns = app.process.write_pfns_of(app.live_span)
        src = domain.pages.read(pfns)
        dst = migrator.dest_domain.pages.read(pfns)
        assert (src == dst).all()
