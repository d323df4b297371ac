"""Page bitmaps (dirty bitmap / transfer bitmap representation)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem.bitmap import PageBitmap
from repro.units import GiB


def test_initial_fill_states():
    assert PageBitmap(16).count() == 0
    assert PageBitmap(16, fill=True).count() == 16


def test_single_bit_ops():
    bm = PageBitmap(8)
    bm.set(3)
    assert bm.test(3)
    assert bm.count() == 1
    bm.clear(3)
    assert not bm.test(3)


def test_bulk_pfn_ops():
    bm = PageBitmap(32)
    pfns = np.array([1, 5, 9, 30])
    bm.set_pfns(pfns)
    assert bm.count() == 4
    assert list(bm.set_pfns_array()) == [1, 5, 9, 30]
    bm.clear_pfns(np.array([5, 30]))
    assert list(bm.set_pfns_array()) == [1, 9]


def test_range_ops():
    bm = PageBitmap(100)
    bm.set_range(10, 20)
    assert bm.count() == 10
    bm.set_all()
    assert bm.count() == 100
    bm.clear_all()
    assert bm.count() == 0


def test_test_pfns_vectorized():
    bm = PageBitmap(16)
    bm.set_pfns(np.array([2, 4]))
    mask = bm.test_pfns(np.array([1, 2, 3, 4]))
    assert list(mask) == [False, True, False, True]


def test_snapshot_and_clear_is_atomic_peek():
    bm = PageBitmap(16)
    bm.set_pfns(np.array([3, 7]))
    got = bm.snapshot_and_clear()
    assert list(got) == [3, 7]
    assert bm.count() == 0
    assert list(bm.snapshot_and_clear()) == []


def test_copy_is_independent():
    a = PageBitmap(8)
    a.set(1)
    b = a.copy()
    b.clear(1)
    assert a.test(1)
    assert not b.test(1)


def test_equality():
    a, b = PageBitmap(8), PageBitmap(8)
    a.set(2)
    assert a != b
    b.set(2)
    assert a == b


def test_packed_size_matches_paper_overhead():
    # "the transfer bitmap uses 32KB per GB of VM memory"
    pages_per_gib = GiB(1) // 4096
    bm = PageBitmap(pages_per_gib)
    assert bm.nbytes_packed == 32 * 1024


def test_negative_size_rejected():
    with pytest.raises(ConfigurationError):
        PageBitmap(-1)


def test_duplicate_pfns_in_bulk_set_are_idempotent():
    bm = PageBitmap(8)
    bm.set_pfns(np.array([3, 3, 3]))
    assert bm.count() == 1
