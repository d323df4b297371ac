"""The HotSpot JVM as a simulation actor.

Each step the JVM either executes Java threads — allocating in Eden,
mutating Old-generation data, touching JVM-internal memory (code cache,
metaspace), completing operations — or sits in one of the stop-the-world
phases: running to a safepoint, collecting, or *held* at the safepoint
after an enforced GC (Section 4.3.2: "Without giving JVM control to
release the Java threads ... the agent notifies the LKM that the
application is ready for VM suspension").
"""

from __future__ import annotations

import enum
import math
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.guest.process import Process
from repro.jvm.gc_model import MinorGcStats
from repro.jvm.heap import GenerationalHeap
from repro.sim.actor import Actor
from repro.telemetry.probe import NULL_PROBE
from repro.units import MiB

GcEndCallback = Callable[[MinorGcStats], None]
ReadyCallback = Callable[[], None]


#: below this window size the vectorized mutator batch is not worth it
_MIN_BATCH_TICKS = 4


def _ticks_to_cross(timer: float, dt: float, cap: int = 1_000_000) -> int | None:
    """Ticks until ``timer -= dt`` reaches <= 0, replayed sequentially.

    The per-tick subtraction is replayed (not divided out) because float
    subtraction is not associative; the returned count is exactly the
    tick on which the fixed kernel's timer would cross.
    """
    ticks = 0
    while timer > 0.0:
        timer -= dt
        ticks += 1
        if ticks > cap:
            return None
    return ticks


class JvmPhase(enum.Enum):
    RUNNING = "running"
    TTS = "time-to-safepoint"
    GC = "in-gc"
    HELD = "held-at-safepoint"


class HotSpotJVM(Actor):
    """Runs a synthetic Java workload against a generational heap."""

    priority = 0
    #: checkpoint-protocol layout version (see repro.sim.actor);
    #: bump when a state field is added/renamed/repurposed
    snapshot_version = 1

    def __init__(
        self,
        process: Process,
        heap: GenerationalHeap,
        alloc_bytes_per_s: float,
        ops_per_s: float,
        old_write_bytes_per_s: float = 0.0,
        old_ws_bytes: int = 0,
        misc_bytes_per_s: float = MiB(4),
        misc_region_bytes: int = MiB(96),
        tts_natural_s: float = 0.01,
        tts_enforced_s: float = 0.3,
        interference_k: float = 0.15,
        rng: np.random.Generator | None = None,
    ) -> None:
        if alloc_bytes_per_s < 0 or ops_per_s < 0:
            raise ConfigurationError("rates must be non-negative")
        self.process = process
        self.heap = heap
        self.alloc_bytes_per_s = float(alloc_bytes_per_s)
        self.ops_per_s = float(ops_per_s)
        self.old_write_bytes_per_s = float(old_write_bytes_per_s)
        self.old_ws_bytes = int(old_ws_bytes)
        self.misc_bytes_per_s = float(misc_bytes_per_s)
        self.tts_natural_s = tts_natural_s
        self.tts_enforced_s = tts_enforced_s
        self.interference_k = interference_k
        self.rng = rng or np.random.default_rng(1)

        self.misc_region = process.mmap(misc_region_bytes)
        self._misc_cursor = 0
        self._misc_carry = 0.0
        self._old_cursor = 0

        self.phase = JvmPhase.RUNNING
        self._timer = 0.0
        self._tts_enforced = False
        self._pending_enforced = False
        self._gc_stats: MinorGcStats | None = None
        self.ops_completed = 0.0
        self.gc_pause_seconds = 0.0
        self.enforced_gc_seconds = 0.0
        self.safepoint_wait_seconds = 0.0

        self.on_gc_end: GcEndCallback | None = None
        #: optional shared timeline (see repro.sim.eventlog)
        self.event_log = None
        #: telemetry handle (see repro.telemetry); no-op unless enabled
        self.probe = NULL_PROBE
        self._span_safepoint = None
        self._span_gc = None
        self._now = 0.0
        self.on_enforced_ready: ReadyCallback | None = None
        #: hook installed by migration daemons: fraction of link capacity
        #: in use this step, used to model dom0 CPU/network contention
        self.migration_load: Callable[[], float] | None = None

    # -- control (TI agent entry points) ------------------------------------------------

    def enforce_gc(self) -> None:
        """Request a minor GC that holds Java threads at the safepoint."""
        self._pending_enforced = True

    def release(self) -> None:
        """Release Java threads held after an enforced GC."""
        if self.phase is JvmPhase.HELD:
            self.phase = JvmPhase.RUNNING

    # -- actor ---------------------------------------------------------------------------

    def step(self, now: float, dt: float) -> None:
        self._now = now
        if self._domain_paused():
            return
        if self.phase is JvmPhase.HELD:
            return
        if self.phase is JvmPhase.GC:
            self._timer -= dt
            if self._timer <= 0.0:
                self._end_gc()
            return
        if self.phase is JvmPhase.TTS:
            # Threads still execute while racing to the safepoint.
            self._run_mutators(dt)
            self._timer -= dt
            self.safepoint_wait_seconds += dt
            if self._timer <= 0.0:
                self._begin_gc()
            return
        # RUNNING
        if self._pending_enforced:
            self._enter_tts(enforced=True)
            return
        gc_needed = self._run_mutators(dt)
        if gc_needed:
            self._enter_tts(enforced=False)

    # -- event-kernel support --------------------------------------------------------------

    def next_event(self, now: float) -> float | None:
        dt = self.sim_dt
        if dt is None:
            return None
        if self._domain_paused() or self.phase is JvmPhase.HELD:
            return math.inf
        if self.phase is JvmPhase.GC or self.phase is JvmPhase.TTS:
            k = _ticks_to_cross(self._timer, dt)
            if k is None:
                return None
            return now + k * dt
        # RUNNING: the next act is entering TTS — either for a pending
        # enforced GC (next tick) or when Eden fills.
        if self._pending_enforced:
            return now + dt
        if self.migration_load is not None and self.migration_load() != 0.0:
            # Interference makes the slowdown migration-state-dependent;
            # stay on the fixed grid while a daemon is moving bytes.
            return None
        if self.heap.needs_gc:
            return now + dt
        b = int(self.alloc_bytes_per_s * dt)
        if b <= 0:
            return math.inf
        room = self.heap.eden_capacity - self.heap.eden_used
        return now + -(-room // b) * dt

    def step_many(self, start_tick: int, ticks: int, dt: float) -> None:
        i = 0
        while i < ticks:
            if (
                self.phase is JvmPhase.RUNNING
                and not self._pending_enforced
                and not self._domain_paused()
            ):
                j = self._quiet_running_ticks(dt, ticks - i)
                if j >= _MIN_BATCH_TICKS:
                    self._run_mutators_batch(start_tick + i, j, dt)
                    i += j
                    continue
            self.step((start_tick + i + 1) * dt, dt)
            i += 1

    def _quiet_running_ticks(self, dt: float, remaining: int) -> int:
        """How many consecutive RUNNING ticks are provably GC-free."""
        if self.migration_load is not None and self.migration_load() != 0.0:
            return 0
        if self.heap.needs_gc:
            return 0
        b = int(self.alloc_bytes_per_s * dt)
        if b <= 0:
            return remaining
        room = self.heap.eden_capacity - self.heap.eden_used
        return min(remaining, -(-room // b) - 1)

    def _run_mutators_batch(self, start_tick: int, ticks: int, dt: float) -> None:
        """Replay *ticks* quiet RUNNING steps of :meth:`_run_mutators`.

        Page writes are issued as aggregated interval batches (same
        per-page version counts as the per-tick calls), while the
        float accumulators — ops counter, misc-write carry — are
        replayed sequentially so non-associative float addition gives
        bit-identical values.
        """
        # slowdown is exactly 1.0 here (no load), and x * 1.0 * dt == x * dt.
        b = int(self.alloc_bytes_per_s * dt)
        if b > 0:
            self.heap.allocate_run(b, ticks)
        self._write_old_batch(self.old_write_bytes_per_s * dt, ticks)
        self._write_misc_batch(self.misc_bytes_per_s * dt, ticks)
        v = self.ops_per_s * dt
        for _ in range(ticks):
            self.ops_completed += v
        self._now = (start_tick + ticks) * dt

    def _write_old_batch(self, nbytes: float, ticks: int) -> None:
        ws = min(self.old_ws_bytes, self.heap.old_used)
        n = int(nbytes)
        if ws <= 0 or n <= 0:
            return
        n = min(n, ws)
        off = (self._old_cursor + n * np.arange(ticks, dtype=np.int64)) % ws
        end = off + n
        wrapped = end - ws
        has_wrap = wrapped > 0
        starts = np.concatenate([off, np.zeros(int(has_wrap.sum()), dtype=np.int64)])
        lens = np.concatenate([np.minimum(end, ws) - off, wrapped[has_wrap]])
        self.process.write_intervals(self.heap.layout.old_region.start, starts, lens)
        self._old_cursor = int((self._old_cursor + n * ticks) % ws)

    def _write_misc_batch(self, nbytes: float, ticks: int) -> None:
        # Only the float carry is replayed tick by tick (float addition
        # is not associative); the cursor walk is integer arithmetic.
        carry = self._misc_carry
        ns: list[int] = []
        for _ in range(ticks):
            carry += nbytes
            n = int(carry)
            if n > 0:
                carry -= n
                ns.append(n)
        self._misc_carry = carry
        if not ns:
            return
        size = self.misc_region.length
        n = np.minimum(np.asarray(ns, dtype=np.int64), size)
        moved = np.cumsum(n)
        off = (self._misc_cursor + moved - n) % size
        end = np.minimum(off + n, size)
        wrapped = n - (end - off)
        has_wrap = wrapped > 0
        starts = np.concatenate([off, np.zeros(int(has_wrap.sum()), dtype=np.int64)])
        lens = np.concatenate([end - off, wrapped[has_wrap]])
        self.process.write_intervals(self.misc_region.start, starts, lens)
        self._misc_cursor = int((self._misc_cursor + int(moved[-1])) % size)

    # -- phases ---------------------------------------------------------------------------

    def _enter_tts(self, enforced: bool) -> None:
        self.phase = JvmPhase.TTS
        if enforced:
            base = self.tts_enforced_s
            self._timer = float(self.rng.uniform(0.8 * base, 1.2 * base))
        else:
            self._timer = self.tts_natural_s
        self._tts_enforced = enforced
        self._span_safepoint = self.probe.begin(
            "safepoint", self._now, track="jvm", cat="jvm", enforced=enforced
        )

    def _begin_gc(self) -> None:
        enforced = self._tts_enforced or self._pending_enforced
        self._pending_enforced = False
        stats = self.heap.perform_minor_gc(enforced=enforced)
        self._gc_stats = stats
        self._timer = stats.duration_s
        self.phase = JvmPhase.GC
        if self.event_log is not None:
            kind = "enforced" if enforced else "minor"
            self.event_log.log(
                self._now,
                "jvm",
                f"{kind} GC: scanned {stats.scanned_bytes >> 20} MiB, "
                f"live {stats.live_bytes >> 20} MiB, "
                f"pause {stats.duration_s:.2f}s",
            )
        self.gc_pause_seconds += stats.duration_s
        if enforced:
            self.enforced_gc_seconds += stats.duration_s
        if self.probe.enabled:
            self.probe.end(self._span_safepoint, self._now)
            self._span_safepoint = None
            self._span_gc = self.probe.begin(
                "gc", self._now, track="jvm", cat="jvm",
                enforced=enforced, scanned_bytes=stats.scanned_bytes,
                live_bytes=stats.live_bytes,
            )
            stats.record_in(self.probe)
            self.probe.sample("jvm.gc_pause_s", self._now, stats.duration_s)

    def _end_gc(self) -> None:
        stats = self._gc_stats
        self._gc_stats = None
        assert stats is not None
        self.probe.end(self._span_gc, self._now, pause_s=stats.duration_s)
        self._span_gc = None
        if self.on_gc_end is not None:
            self.on_gc_end(stats)
        if stats.enforced:
            self.phase = JvmPhase.HELD
            if self.on_enforced_ready is not None:
                self.on_enforced_ready()
        else:
            self.phase = JvmPhase.RUNNING
            if self._pending_enforced:
                # An enforced request arrived during a natural GC: honour
                # it now (the paper patches HotSpot so the request is not
                # silently coalesced away).
                self._enter_tts(enforced=True)

    # -- mutator work -------------------------------------------------------------------------

    def _run_mutators(self, dt: float) -> bool:
        """One step of Java-thread execution; True if a GC is now needed."""
        slowdown = 1.0
        if self.migration_load is not None:
            slowdown = max(0.0, 1.0 - self.interference_k * self.migration_load())
        budget = self.alloc_bytes_per_s * slowdown * dt
        allocated = self.heap.allocate(int(budget))
        self._write_old(self.old_write_bytes_per_s * slowdown * dt)
        self._write_misc(self.misc_bytes_per_s * slowdown * dt)
        self.ops_completed += self.ops_per_s * slowdown * dt
        return allocated < int(budget) or self.heap.needs_gc

    def _write_old(self, nbytes: float) -> None:
        ws = min(self.old_ws_bytes, self.heap.old_used)
        n = int(nbytes)
        if ws <= 0 or n <= 0:
            return
        n = min(n, ws)
        start = self.heap.layout.old_region.start
        off = self._old_cursor % ws
        end = min(off + n, ws)
        self.process.write_range(start + off, start + end)
        wrapped = n - (end - off)
        if wrapped > 0:
            self.process.write_range(start, start + wrapped)
        self._old_cursor = (self._old_cursor + n) % ws

    def _write_misc(self, nbytes: float) -> None:
        # Sub-page budgets are carried over so low rates still dirty pages.
        self._misc_carry += nbytes
        n = int(self._misc_carry)
        size = self.misc_region.length
        if n <= 0:
            return
        self._misc_carry -= n
        n = min(n, size)
        base = self.misc_region.start
        off = self._misc_cursor % size
        end = min(off + n, size)
        self.process.write_range(base + off, base + end)
        wrapped = n - (end - off)
        if wrapped > 0:
            self.process.write_range(base, base + wrapped)
        self._misc_cursor = (self._misc_cursor + n) % size

    def _domain_paused(self) -> bool:
        return self.process.kernel.domain.paused
