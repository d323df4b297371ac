"""The skip-over-area PFN cache (Section 3.3.4)."""

import numpy as np

from repro.mem.address import VARange
from repro.mem.constants import PAGE_SIZE
from repro.mem.pfn_cache import PfnCache
from repro.units import GiB


def _r(start_page: int, end_page: int) -> VARange:
    return VARange(start_page * PAGE_SIZE, end_page * PAGE_SIZE)


def test_record_and_take():
    cache = PfnCache()
    cache.record(10, np.array([100, 101, 102]))
    got = cache.take_range(_r(10, 12))
    assert sorted(got) == [100, 101]
    # Taken entries are removed; the rest stays.
    assert len(cache) == 1
    assert list(cache.take_range(_r(12, 13))) == [102]


def test_take_is_destructive_peek_is_not():
    cache = PfnCache()
    cache.record(0, np.array([7]))
    assert list(cache.peek_range(_r(0, 1))) == [7]
    assert len(cache) == 1
    assert list(cache.take_range(_r(0, 1))) == [7]
    assert len(cache) == 0
    assert list(cache.take_range(_r(0, 1))) == []


def test_take_answers_after_unmap():
    # The whole point: PFNs remain queryable after the mapping is gone.
    cache = PfnCache()
    cache.record(100, np.array([5, 6, 7, 8]))
    # (no page table involved — the cache is the only source)
    assert sorted(cache.take_range(_r(100, 104))) == [5, 6, 7, 8]


def test_unaligned_range_uses_inner_pages():
    cache = PfnCache()
    cache.record(0, np.array([1, 2, 3]))
    r = VARange(1, 3 * PAGE_SIZE - 1)  # fully covers only page 1
    assert list(cache.take_range(r)) == [2]


def test_overwrite_updates_mapping():
    cache = PfnCache()
    cache.record(3, np.array([30]))
    cache.record(3, np.array([31]))
    assert list(cache.take_range(_r(3, 4))) == [31]


def test_memory_overhead_matches_paper():
    # "1MB per GB of skip-over area with 4-byte entries"
    cache = PfnCache()
    pages_per_gib = GiB(1) // PAGE_SIZE
    cache.record(0, np.arange(pages_per_gib))
    assert cache.nbytes == 1024 * 1024


def test_clear():
    cache = PfnCache()
    cache.record(0, np.array([1, 2]))
    cache.clear()
    assert len(cache) == 0
