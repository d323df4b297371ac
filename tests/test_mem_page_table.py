"""Per-process page tables and the LKM's page-table walks."""

import pickle

import numpy as np
import pytest

from repro.errors import AddressError, TranslationFault
from repro.mem.address import VARange
from repro.mem.constants import PAGE_SIZE
from repro.mem.page_table import PageTable


def _r(start_page: int, end_page: int) -> VARange:
    return VARange(start_page * PAGE_SIZE, end_page * PAGE_SIZE)


def test_map_and_translate():
    pt = PageTable()
    pt.map_range(_r(10, 14), np.array([100, 101, 102, 103]))
    assert pt.translate(10 * PAGE_SIZE) == 100
    assert pt.translate(13 * PAGE_SIZE + 123) == 103
    assert pt.mapped_pages() == 4


def test_translate_unmapped_faults():
    pt = PageTable()
    with pytest.raises(TranslationFault):
        pt.translate(0x1000)


def test_map_requires_page_alignment():
    pt = PageTable()
    with pytest.raises(AddressError):
        pt.map_range(VARange(100, PAGE_SIZE + 100), np.array([1]))


def test_map_requires_matching_pfn_count():
    pt = PageTable()
    with pytest.raises(AddressError):
        pt.map_range(_r(0, 4), np.array([1, 2]))


def test_overlapping_map_rejected():
    pt = PageTable()
    pt.map_range(_r(0, 4), np.arange(4))
    with pytest.raises(AddressError):
        pt.map_range(_r(2, 6), np.arange(4))
    with pytest.raises(AddressError):
        pt.map_range(_r(0, 1), np.array([9]))


def test_walk_returns_pfns_of_inner_pages():
    pt = PageTable()
    pt.map_range(_r(10, 14), np.array([100, 101, 102, 103]))
    # Unaligned range shrinks inward.
    r = VARange(10 * PAGE_SIZE + 1, 14 * PAGE_SIZE - 1)
    assert list(pt.walk(r)) == [101, 102]


def test_walk_skips_unmapped_holes_by_default():
    pt = PageTable()
    pt.map_range(_r(0, 2), np.array([5, 6]))
    pt.map_range(_r(4, 6), np.array([7, 8]))
    got = pt.walk(_r(0, 6))
    assert list(got) == [5, 6, 7, 8]


def test_walk_strict_faults_on_holes():
    pt = PageTable()
    pt.map_range(_r(0, 2), np.array([5, 6]))
    with pytest.raises(TranslationFault):
        pt.walk(_r(0, 4), strict=True)


def test_unmap_full_vma():
    pt = PageTable()
    pt.map_range(_r(0, 4), np.array([10, 11, 12, 13]))
    released = pt.unmap_range(_r(0, 4))
    assert list(released) == [10, 11, 12, 13]
    assert pt.mapped_pages() == 0


def test_unmap_middle_splits_vma():
    pt = PageTable()
    pt.map_range(_r(0, 6), np.arange(20, 26))
    released = pt.unmap_range(_r(2, 4))
    assert list(released) == [22, 23]
    assert pt.mapped_pages() == 4
    assert pt.translate(1 * PAGE_SIZE) == 21
    assert pt.translate(5 * PAGE_SIZE) == 25
    with pytest.raises(TranslationFault):
        pt.translate(2 * PAGE_SIZE)
    assert pt.mapped_ranges() == [_r(0, 2), _r(4, 6)]


def test_unmap_across_vmas():
    pt = PageTable()
    pt.map_range(_r(0, 2), np.array([1, 2]))
    pt.map_range(_r(2, 4), np.array([3, 4]))
    released = pt.unmap_range(_r(1, 3))
    assert sorted(released) == [2, 3]
    assert pt.mapped_pages() == 2


def test_unmap_with_hole_faults():
    pt = PageTable()
    pt.map_range(_r(0, 2), np.array([1, 2]))
    with pytest.raises(TranslationFault):
        pt.unmap_range(_r(0, 3))


def test_remap_page_changes_backing_frame():
    pt = PageTable()
    pt.map_range(_r(0, 2), np.array([1, 2]))
    old = pt.remap_page(PAGE_SIZE, 99)
    assert old == 2
    assert pt.translate(PAGE_SIZE) == 99


def test_remap_unmapped_faults():
    pt = PageTable()
    with pytest.raises(TranslationFault):
        pt.remap_page(0, 1)


def test_is_mapped():
    pt = PageTable()
    pt.map_range(_r(3, 4), np.array([7]))
    assert pt.is_mapped(3 * PAGE_SIZE)
    assert not pt.is_mapped(4 * PAGE_SIZE)


def test_empty_range_ops_are_noops():
    pt = PageTable()
    pt.map_range(_r(5, 5), np.empty(0, dtype=np.int64))
    assert pt.mapped_pages() == 0
    assert list(pt.unmap_range(_r(5, 5))) == []
    assert list(pt.walk(_r(0, 0))) == []


def _three_vmas() -> PageTable:
    """VMAs at pages [0, 4), [10, 14) and [20, 24), mapped out of order."""
    pt = PageTable()
    pt.map_range(_r(20, 24), np.arange(200, 204))
    pt.map_range(_r(0, 4), np.arange(0, 4))
    pt.map_range(_r(10, 14), np.arange(100, 104))
    return pt


def test_walk_starting_inside_a_later_vma():
    pt = _three_vmas()
    assert list(pt.walk(_r(12, 14))) == [102, 103]
    assert list(pt.walk(_r(21, 23))) == [201, 202]
    assert list(pt.walk(_r(13, 22))) == [103, 200, 201]


def test_walks_across_holes_strict_and_lenient():
    pt = _three_vmas()
    assert list(pt.walk(_r(2, 22))) == [2, 3, 100, 101, 102, 103, 200, 201]
    assert list(pt.walk(_r(5, 9))) == []
    assert list(pt.walk(_r(24, 30))) == []
    assert list(pt.walk(_r(11, 13), strict=True)) == [101, 102]
    for r in (_r(2, 22), _r(5, 9), _r(13, 15), _r(22, 25)):
        with pytest.raises(TranslationFault):
            pt.walk(r, strict=True)


def test_single_vma_walk_result_is_a_copy():
    pt = _three_vmas()
    got = pt.walk(_r(10, 14))
    got[:] = -1
    assert list(pt.walk(_r(10, 14))) == [100, 101, 102, 103]
    assert pt.translate(11 * PAGE_SIZE) == 101


def test_lookups_follow_maps_and_unmaps():
    pt = _three_vmas()
    pt.unmap_range(_r(11, 13))
    pt.map_range(_r(5, 7), np.array([50, 51]))
    assert pt.mapped_ranges() == [_r(0, 4), _r(5, 7), _r(10, 11), _r(13, 14), _r(20, 24)]
    assert pt.translate(6 * PAGE_SIZE) == 51
    assert pt.translate(13 * PAGE_SIZE) == 103
    assert not pt.is_mapped(12 * PAGE_SIZE)
    assert list(pt.walk(_r(6, 14))) == [51, 100, 103]
    with pytest.raises(AddressError):
        pt.map_range(_r(12, 14), np.array([1, 2]))


def test_pickle_round_trip_rebuilds_the_start_list():
    pt = _three_vmas()
    state = pt.__getstate__()
    assert set(state) == {"_vmas"}  # derived state is not stored
    restored = pickle.loads(pickle.dumps(pt))
    assert restored.mapped_ranges() == pt.mapped_ranges()
    assert list(restored.walk(_r(13, 22))) == [103, 200, 201]
    restored.map_range(_r(5, 7), np.array([50, 51]))
    assert restored.translate(5 * PAGE_SIZE) == 50
