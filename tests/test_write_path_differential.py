"""Differential tests for the guest write path and the frame allocator.

Each test keeps the implementation it checks against verbatim:

- ``Process.write_range`` writes a span that one run of ascending PFNs
  maps as one slice (``Domain.touch_range``).  The reference is the
  page-table walk plus ``Domain.touch_pfns`` every write used to take.
- ``Process.write_intervals`` and ``GenerationalHeap.allocate_run``, the
  event kernel's batched writes, are checked against the walk path and
  against the per-call writes they stand for.
- ``FrameAllocator`` keeps an int64 stack of ranks and a boolean mask.
  The reference is the list-plus-set allocator it replaced.

Two identical guests receive the same random sequence of mappings,
unmappings, growths, remaps, pauses, dirty-log toggles and writes; the
page versions, the dirty bitmap, the ``dirty.pages_marked`` count, the
written PFNs (``write_pfns_of``) and every exception must match after
each step.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, FrameExhausted
from repro.guest.kernel import GuestKernel
from repro.mem.address import VARange, page_span_outer
from repro.mem.constants import PAGE_SIZE
from repro.mem.frame_alloc import FrameAllocator
from repro.telemetry.probe import Probe
from repro.xen.domain import Domain

_PAGES = 64  # guest size: small enough that LIFO reuse happens often
_RESERVED = 4
#: write-path steps, weighted towards writes
_OPS = ("mmap", "mmap", "grow", "munmap", "remap", "remap", "pause", "log") + ("write",) * 6


def _reference_write_range(process, area: VARange) -> np.ndarray:
    """``Process.write_range`` before PFN runs, verbatim."""
    start_vpn, end_vpn = page_span_outer(area)
    pfns = process.page_table.walk(
        VARange(start_vpn * PAGE_SIZE, end_vpn * PAGE_SIZE), strict=True
    )
    process._kernel.domain.touch_pfns(pfns)
    return pfns


class _SeedFrameAllocator:
    """``FrameAllocator`` before the array rewrite, verbatim."""

    def __init__(self, pfns: np.ndarray | range) -> None:
        if isinstance(pfns, range):
            # A range cannot repeat; skip the duplicate scan.
            free = np.arange(pfns.start, pfns.stop, pfns.step or 1, dtype=np.int64)
        else:
            free = np.asarray(pfns, dtype=np.int64)
            if free.size and len(np.unique(free)) != free.size:
                raise ConfigurationError("frame pool contains duplicate PFNs")
        # Stored as a stack; reverse so low PFNs are handed out first,
        # which makes tests and traces easier to read.
        self._free = free[::-1].tolist()
        self._allocated: set[int] = set()
        self.total_frames = free.size

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def allocated_frames(self) -> int:
        return len(self._allocated)

    def alloc(self, n: int) -> np.ndarray:
        """Allocate *n* frames; raises :class:`FrameExhausted` if short."""
        if n < 0:
            raise ConfigurationError(f"cannot allocate {n} frames")
        if n > len(self._free):
            raise FrameExhausted(
                f"requested {n} frames, only {len(self._free)} free"
            )
        if n == 0:
            return np.empty(0, dtype=np.int64)
        # Bulk-pop the stack top: identical PFNs, in identical order, as
        # n successive pop() calls.
        taken = self._free[-n:][::-1]
        del self._free[-n:]
        self._allocated.update(taken)
        return np.asarray(taken, dtype=np.int64)

    def free(self, pfns: np.ndarray) -> None:
        """Return frames to the pool; double-free raises."""
        for p in np.asarray(pfns, dtype=np.int64).tolist():
            if p not in self._allocated:
                raise ConfigurationError(f"double free or foreign PFN {p}")
            self._allocated.remove(p)
            self._free.append(p)

    def is_allocated(self, pfn: int) -> bool:
        return int(pfn) in self._allocated

    def allocated_pfns(self) -> np.ndarray:
        """All currently-allocated PFNs, ascending."""
        return np.asarray(sorted(self._allocated), dtype=np.int64)

    def free_pfns(self) -> np.ndarray:
        """All currently-free PFNs, ascending (for free-page-skip baselines)."""
        return np.asarray(sorted(int(p) for p in self._free), dtype=np.int64)


def _outcome(fn, *args):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        assert result.dtype == np.int64
        result = result.tolist()
    return "ok", result


# -- the write path ---------------------------------------------------------------


class _Guest:
    def __init__(self, probe: bool) -> None:
        self.domain = Domain("diff", _PAGES * PAGE_SIZE)
        self.kernel = GuestKernel(
            self.domain, kernel_reserved_bytes=_RESERVED * PAGE_SIZE, os_dirty_bytes_per_s=0
        )
        self.process = self.kernel.spawn("app")
        self.probe = Probe() if probe else None
        if probe:
            self.domain.dirty_log.probe = self.probe

    def state(self):
        metrics = self.probe.metrics.snapshot() if self.probe else None
        return (
            self.domain.pages.snapshot().tolist(),
            self.domain.dirty_log._bitmap.as_bool_array().tolist(),
            metrics,
            self.process.page_table.mapped_ranges(),
            self.kernel.allocator.free_pfns().tolist(),
        )


def _draw_span(data, ranges: list[VARange], top: int) -> VARange:
    """A write: inside one mapping, across mappings or holes, sub-page or
    empty."""
    if ranges and data.draw(st.booleans()):
        r = data.draw(st.sampled_from(ranges))
        start = data.draw(st.integers(r.start, r.end))
    else:
        start = data.draw(st.integers(max(0, top - 40 * PAGE_SIZE), top + 2 * PAGE_SIZE))
    length = data.draw(
        st.one_of(
            st.just(0),
            st.integers(1, PAGE_SIZE),
            st.integers(1, 12 * PAGE_SIZE),
        )
    )
    return VARange(start, start + length)


def _draw_step(data, op: str, new: _Guest, ranges: list[VARange]):
    """A non-write step, as a function applied to each guest in turn."""
    if op == "mmap":
        n = data.draw(st.integers(1, 8))
        if n <= new.kernel.allocator.free_frames:
            return lambda g: g.process.mmap(n * PAGE_SIZE)
    elif op == "grow" and ranges:
        n = data.draw(st.integers(1, 4))
        if n <= new.kernel.allocator.free_frames:
            return lambda g: g.process.mmap_grow(ranges[-1], n * PAGE_SIZE)
    elif op == "munmap" and ranges:
        r = data.draw(st.sampled_from(ranges))
        pages = r.length // PAGE_SIZE
        lo = data.draw(st.integers(0, pages - 1))
        hi = data.draw(st.integers(lo + 1, pages))
        cut = VARange(r.start + lo * PAGE_SIZE, r.start + hi * PAGE_SIZE)
        return lambda g: g.process.munmap(cut)
    elif op == "remap" and ranges:
        r = data.draw(st.sampled_from(ranges))
        va = r.start + data.draw(st.integers(0, r.length // PAGE_SIZE - 1)) * PAGE_SIZE
        current = new.process.page_table.translate(va)
        pfn = data.draw(st.one_of(st.just(current), st.integers(0, _PAGES - 1)), label="pfn")
        return lambda g: g.process.page_table.remap_page(va, pfn)
    elif op == "pause":
        return lambda g: g.domain.unpause() if g.domain.paused else g.domain.pause()
    elif op == "log":
        log_on = new.domain.dirty_log.enabled
        return lambda g: g.domain.dirty_log.disable() if log_on else g.domain.dirty_log.enable()
    return None


@settings(max_examples=160, deadline=None)
@given(st.data(), st.booleans())
def test_write_range_matches_the_walk(data, probe):
    new, ref = _Guest(probe), _Guest(probe)
    for _ in range(data.draw(st.integers(5, 40), label="steps")):
        ranges = new.process.page_table.mapped_ranges()
        top = new.process._mmap_cursor
        op = data.draw(st.sampled_from(_OPS))
        if op == "write":
            span = _draw_span(data, ranges, top)
            got = _outcome(new.process.write_range, span.start, span.end)
            want = _outcome(_reference_write_range, ref.process, span)
            if want[0] == "ok":
                assert got == ("ok", None), span
                assert new.process.write_pfns_of(span).tolist() == want[1], span
            else:
                assert got == want, span
        else:
            step = _draw_step(data, op, new, ranges)
            if step is not None:
                # Both guests run the same code here; a remapped frame
                # can make a later munmap fail, identically in both.
                assert _outcome(step, new) == _outcome(step, ref)
        assert new.state() == ref.state()


def _forbid_walk(monkeypatch, process) -> None:
    def walk(*args, **kwargs):
        raise AssertionError("the write walked the page table")

    monkeypatch.setattr(process.page_table, "walk", walk)


def test_write_inside_a_run_does_not_walk(monkeypatch):
    guest = _Guest(probe=True)
    area = guest.process.mmap(8 * PAGE_SIZE)
    guest.domain.dirty_log.enable()
    _forbid_walk(monkeypatch, guest.process)
    guest.process.write_range(area.start + 100, area.start + 3 * PAGE_SIZE + 1)
    pfns = [_RESERVED, _RESERVED + 1, _RESERVED + 2, _RESERVED + 3]
    assert guest.domain.dirty_log.peek().tolist() == pfns
    assert guest.probe.metrics.snapshot().value("dirty.pages_marked") == 4


def test_reused_frames_come_back_descending_and_take_the_walk():
    guest = _Guest(probe=False)
    first = guest.process.mmap(4 * PAGE_SIZE)
    guest.process.munmap(first)
    again = guest.process.mmap(4 * PAGE_SIZE)
    assert guest.process.page_table.walk(again).tolist() == [
        _RESERVED + 3, _RESERVED + 2, _RESERVED + 1, _RESERVED,
    ]
    start_vpn, end_vpn = page_span_outer(again)
    assert guest.process.page_table.run_pfn(start_vpn, end_vpn) is None
    ref = _Guest(probe=False)
    ref.process.munmap(ref.process.mmap(4 * PAGE_SIZE))
    ref.process.mmap(4 * PAGE_SIZE)
    guest.process.write_range(again.start, again.end)
    assert guest.process.write_pfns_of(again).tolist() == _reference_write_range(
        ref.process, again
    ).tolist()
    assert guest.state() == ref.state()


def test_a_remap_that_breaks_a_run_sends_writes_to_the_walk():
    guest = _Guest(probe=False)
    area = guest.process.mmap(4 * PAGE_SIZE)
    pt = guest.process.page_table
    pt.remap_page(area.start + PAGE_SIZE, _RESERVED + 1)  # same PFN: still a run
    assert pt.run_pfn(*page_span_outer(area)) == _RESERVED
    pt.remap_page(area.start + PAGE_SIZE, 40)
    assert pt.run_pfn(*page_span_outer(area)) is None
    guest.process.write_range(area.start, area.end)
    assert guest.process.write_pfns_of(area).tolist() == [
        _RESERVED, 40, _RESERVED + 2, _RESERVED + 3,
    ]
    restored = pickle.loads(pickle.dumps(pt))
    assert restored.run_pfn(*page_span_outer(area)) is None
    pt.remap_page(area.start + PAGE_SIZE, _RESERVED + 1)
    assert pt.run_pfn(*page_span_outer(area)) is None  # a remap never restores a run
    guest.process.munmap(VARange(area.start, area.start + PAGE_SIZE))
    # The surviving pages ascend by one: the split piece is a run again.
    rest = VARange(area.start + PAGE_SIZE, area.end)
    assert pt.run_pfn(*page_span_outer(rest)) == _RESERVED + 1


# -- batched writes ---------------------------------------------------------------


def _write_area(guest: _Guest, pages: int, fragment: bool) -> VARange:
    """A fresh mapping: one run, or (*fragment*) reused frames that come
    back descending, so every write to it walks."""
    if fragment:
        guest.process.munmap(guest.process.mmap(pages * PAGE_SIZE))
    return guest.process.mmap(pages * PAGE_SIZE)


def _forbid(obj, name: str) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    setattr(obj, name, refuse)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans(), st.booleans(), st.booleans())
def test_write_intervals_run_path_matches_the_walk_and_per_call_writes(
    data, probe, log_on, fragment
):
    """``write_intervals`` on a run is slice arithmetic on PFN intervals
    (dense, or page by page when the intervals are sparse); it must
    leave what the walk path and one ``write_range`` per interval leave."""
    pages = data.draw(st.integers(1, 40), label="pages")
    run, walk, per_call = (_Guest(probe) for _ in range(3))
    for guest in (run, walk, per_call):
        area = _write_area(guest, pages, fragment)
        if log_on:
            guest.domain.dirty_log.enable()
    size = pages * PAGE_SIZE
    starts = data.draw(st.lists(st.integers(0, size - 1), max_size=30), label="starts")
    lens = [
        data.draw(st.one_of(st.just(0), st.integers(1, min(8, size - s)), st.integers(1, size - s)))
        for s in starts
    ]
    if not fragment:
        _forbid(run.process.page_table, "walk")
    walk.process.page_table.run_pfn = lambda start_vpn, end_vpn: None
    for guest in (run, walk):
        guest.process.write_intervals(
            area.start, np.asarray(starts, dtype=np.int64), np.asarray(lens, dtype=np.int64)
        )
    for s, n in zip(starts, lens):
        if n:
            per_call.process.write_range(area.start + s, area.start + s + n)
    assert run.state() == walk.state() == per_call.state()


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.booleans(),
    st.one_of(st.integers(1, 3 * PAGE_SIZE), st.sampled_from([PAGE_SIZE, 2 * PAGE_SIZE])),
)
def test_allocate_run_matches_per_tick_allocate(data, fragment, nbytes):
    """``allocate_run`` writes the span of back-to-back allocations once
    plus their shared boundary pages; the per-tick ``allocate`` calls
    it replaces must leave the same versions, dirty bits and counts."""
    from repro.jvm.heap import GenerationalHeap
    from repro.telemetry.probe import Probe

    heaps = []
    for _ in range(2):
        domain = Domain("heap", 1024 * PAGE_SIZE)
        kernel = GuestKernel(domain, kernel_reserved_bytes=_RESERVED * PAGE_SIZE)
        process = kernel.spawn("java")
        if fragment:  # Eden on reused, descending frames: the walk path
            process.munmap(process.mmap(400 * PAGE_SIZE))
        heap = GenerationalHeap(
            process, 256 * PAGE_SIZE, 64 * PAGE_SIZE, initial_young_committed=256 * PAGE_SIZE
        )
        domain.dirty_log.enable()
        domain.dirty_log.probe = Probe()
        heaps.append(heap)
    batched, stepped = heaps
    head = data.draw(st.integers(0, 3 * PAGE_SIZE), label="head")
    ticks = data.draw(
        st.integers(1, max(1, (batched.eden_capacity - head) // nbytes)), label="ticks"
    )
    for heap in heaps:
        heap.allocate(head)
    batched.allocate_run(nbytes, ticks)
    for _ in range(ticks):
        assert stepped.allocate(nbytes) == nbytes

    def state(heap):
        domain = heap.process.kernel.domain
        return (
            heap.eden_used,
            heap.counters.allocated_bytes,
            domain.pages.snapshot().tolist(),
            domain.dirty_log.peek().tolist(),
            domain.dirty_log.probe.metrics.snapshot().value("dirty.pages_marked"),
        )

    assert state(batched) == state(stepped)


# -- the frame allocator ----------------------------------------------------------


_pools = st.one_of(
    st.builds(
        range,
        st.integers(0, 40),
        st.integers(0, 80),
        st.integers(1, 3),
    ),
    st.builds(range, st.integers(40, 80), st.integers(0, 40), st.just(-1)),
    st.lists(st.integers(0, 100), max_size=40),  # may repeat: refused by both
)


def _build(cls, arg):
    """``(allocator, None)`` or ``(None, (exception type, message))``."""
    try:
        return cls(arg), None
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return None, (type(exc), str(exc))


def _allocator_state(fa) -> tuple:
    return (
        fa.free_frames,
        fa.allocated_frames,
        fa.total_frames,
        fa.allocated_pfns().tolist(),
        fa.free_pfns().tolist(),
        [fa.is_allocated(p) for p in range(-1, 102)],
    )


@settings(max_examples=200, deadline=None)
@given(st.data(), _pools)
def test_frame_allocator_matches_the_list_allocator(data, pool):
    arg = pool if isinstance(pool, range) else np.asarray(pool, dtype=np.int64)
    new, refused = _build(FrameAllocator, arg)
    ref, ref_refused = _build(_SeedFrameAllocator, arg)
    assert refused == ref_refused
    if refused:
        return
    members = sorted(set(int(p) for p in arg))
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        op = data.draw(st.sampled_from(["alloc", "free", "bad-free", "pickle"]))
        if op == "alloc":
            n = data.draw(st.integers(-2, ref.free_frames + 2))
            assert _outcome(new.alloc, n) == _outcome(ref.alloc, n)
        elif op == "free":
            held = ref.allocated_pfns().tolist()
            pfns = data.draw(st.permutations(held).flatmap(
                lambda p: st.integers(0, len(p)).map(lambda k: p[:k])
            ))
            pfns = np.asarray(pfns, dtype=np.int64)
            assert _outcome(new.free, pfns) == _outcome(ref.free, pfns)
        elif op == "bad-free":
            # A foreign, free, or repeated frame somewhere in the call.
            held = ref.allocated_pfns().tolist()
            good = []
            if held:
                good = data.draw(st.lists(st.sampled_from(held), max_size=3, unique=True))
            free = ref.free_pfns().tolist()
            bad = data.draw(
                st.one_of(
                    st.integers(-3, 110).filter(lambda p: p not in members),
                    st.sampled_from(free) if free else st.just(999),
                    st.sampled_from(good) if good else st.just(-7),
                )
            )
            pfns = list(good)
            pfns.insert(data.draw(st.integers(0, len(pfns))), bad)
            pfns = np.asarray(pfns, dtype=np.int64)
            before = pickle.dumps(new)
            rollback = pickle.dumps(ref)
            got, want = _outcome(new.free, pfns), _outcome(ref.free, pfns)
            assert got == want
            assert got[0] is ConfigurationError
            # Behaviour change: the list allocator freed the frames ahead
            # of the bad one; the array allocator refuses first.
            assert _allocator_state(pickle.loads(before)) == _allocator_state(new)
            ref = pickle.loads(rollback)
        else:
            new = pickle.loads(pickle.dumps(new))
        assert _allocator_state(new) == _allocator_state(ref)
    # Drain both: the stacks hold the same frames in the same order.
    assert _outcome(new.alloc, ref.free_frames) == _outcome(ref.alloc, ref.free_frames)


def test_bad_free_changes_nothing():
    """The one behaviour change: a bad free is refused whole.  The list
    allocator had already freed the frames ahead of the bad one."""
    for cls, still_allocated in ((FrameAllocator, [0, 1, 2, 3]), (_SeedFrameAllocator, [3])):
        fa = cls(range(10))
        fa.alloc(4)
        with pytest.raises(ConfigurationError, match="double free or foreign PFN 2"):
            fa.free(np.array([0, 1, 2, 2]))
        assert fa.allocated_pfns().tolist() == still_allocated
