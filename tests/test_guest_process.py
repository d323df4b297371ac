"""Guest processes: address-space management and page dirtying."""

import numpy as np
import pytest

from repro.errors import AddressError, TranslationFault
from repro.mem.address import VARange
from repro.mem.constants import PAGE_SIZE
from repro.units import KiB, MiB


def test_mmap_allocates_frames_and_zeroes(kernel):
    proc = kernel.spawn("app")
    free_before = kernel.allocator.free_frames
    area = proc.mmap(MiB(1))
    assert area.length == MiB(1)
    assert kernel.allocator.free_frames == free_before - 256
    # Zeroing dirties every fresh page.
    pfns = proc.write_pfns_of(area)
    assert all(kernel.domain.pages.version(p) >= 1 for p in pfns)


def test_mmap_rounds_up_to_pages(kernel):
    proc = kernel.spawn("app")
    area = proc.mmap(KiB(5))
    assert area.length == 2 * PAGE_SIZE


def test_mmap_rejects_nonpositive(kernel):
    proc = kernel.spawn("app")
    with pytest.raises(AddressError):
        proc.mmap(0)


def test_reserve_does_not_consume_frames(kernel):
    proc = kernel.spawn("app")
    free_before = kernel.allocator.free_frames
    area = proc.reserve(MiB(4))
    assert kernel.allocator.free_frames == free_before
    assert not proc.page_table.is_mapped(area.start)


def test_mmap_fixed_commits_inside_reservation(kernel):
    proc = kernel.spawn("app")
    area = proc.reserve(MiB(2))
    lower = VARange(area.start, area.start + MiB(1))
    proc.mmap_fixed(lower)
    assert proc.page_table.is_mapped(area.start)
    assert not proc.page_table.is_mapped(area.start + MiB(1))


def test_mmap_grow_extends_contiguously(kernel):
    proc = kernel.spawn("app")
    area = proc.mmap(MiB(1))
    grown = proc.mmap_grow(area, MiB(1))
    assert grown.start == area.start
    assert grown.length == MiB(2)
    assert proc.page_table.is_mapped(grown.end - PAGE_SIZE)


def test_munmap_returns_frames(kernel):
    proc = kernel.spawn("app")
    area = proc.mmap(MiB(1))
    free_after_map = kernel.allocator.free_frames
    released = proc.munmap(VARange(area.start, area.start + MiB(1) // 2))
    assert released == 128
    assert kernel.allocator.free_frames == free_after_map + 128


def test_write_range_dirties_outer_pages(kernel):
    proc = kernel.spawn("app")
    area = proc.mmap(MiB(1))
    span = VARange(area.start + 100, area.start + PAGE_SIZE + 200)
    before = kernel.domain.pages.snapshot()
    assert proc.write_range(span.start, span.end) is None
    pfns = proc.write_pfns_of(span)
    assert len(pfns) == 2  # partially-touched pages count
    bumped = np.flatnonzero(kernel.domain.pages.snapshot() != before)
    assert bumped.tolist() == sorted(pfns.tolist())


def test_write_range_refuses_a_malformed_span(kernel):
    proc = kernel.spawn("app")
    area = proc.mmap(MiB(1))
    with pytest.raises(AddressError, match="malformed"):
        proc.write_range(area.start + 10, area.start)


def test_write_unmapped_faults(kernel):
    proc = kernel.spawn("app")
    with pytest.raises(TranslationFault):
        proc.write_range(0x100000, 0x101000)


def test_exit_releases_everything(kernel):
    proc = kernel.spawn("app")
    free0 = kernel.allocator.free_frames
    proc.mmap(MiB(1))
    proc.mmap(MiB(2))
    proc.exit()
    assert kernel.allocator.free_frames == free0
    assert not proc.alive
    assert proc.pid not in [p.pid for p in kernel.processes]


def test_distinct_processes_get_distinct_frames(kernel):
    a, b = kernel.spawn("a"), kernel.spawn("b")
    pa = a.write_pfns_of(a.mmap(MiB(1)))
    pb = b.write_pfns_of(b.mmap(MiB(1)))
    assert not set(map(int, pa)) & set(map(int, pb))
