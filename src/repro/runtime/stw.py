"""A managed runtime whose collector stops the world.

The G1 port and the CLR differ only in their heap: a steady mutator, a
collection whenever the heap needs one, and on request an *enforced*
collection after which the threads stay held until released.  A
runtime supplies :meth:`StopTheWorldRuntime.collect`.
"""

from __future__ import annotations

from typing import Callable

from repro.guest.process import Process
from repro.sim.actor import Actor


class StopTheWorldRuntime(Actor):
    """Mutator plus stop-the-world pauses over a heap with
    ``allocate(nbytes)`` and ``needs_gc``."""

    def __init__(
        self, process: Process, heap, alloc_bytes_per_s: float, ops_per_s: float
    ) -> None:
        self.process = process
        self.heap = heap
        self.alloc_bytes_per_s = float(alloc_bytes_per_s)
        self.ops_per_s = float(ops_per_s)
        self.ops_completed = 0.0
        self._gc_timer = 0.0
        self._held = False
        self._pending_enforced = False
        self._enforced_in_gc = False
        self.on_enforced_ready: Callable[[], None] | None = None

    def collect(self) -> float:
        """Run one collection on the heap; returns its pause in seconds."""
        raise NotImplementedError

    def enforce_gc(self) -> None:
        self._pending_enforced = True

    def release(self) -> None:
        self._held = False

    @property
    def held(self) -> bool:
        return self._held

    def step(self, now: float, dt: float) -> None:
        if self.process.kernel.domain.paused or self._held:
            return
        if self._gc_timer > 0.0:
            self._gc_timer -= dt
            if self._gc_timer <= 0.0 and self._enforced_in_gc:
                self._held = True
                if self.on_enforced_ready is not None:
                    self.on_enforced_ready()
            return
        if self._pending_enforced:
            self._pending_enforced = False
            self._start_gc(enforced=True)
            return
        self.heap.allocate(self.alloc_bytes_per_s * dt)
        self.ops_completed += self.ops_per_s * dt
        if self.heap.needs_gc:
            self._start_gc(enforced=False)

    def _start_gc(self, enforced: bool) -> None:
        self._gc_timer = self.collect()
        self._enforced_in_gc = enforced
