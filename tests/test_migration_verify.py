"""The page-version verification oracle."""

import numpy as np

from repro.migration.verify import allowed_mismatch_mask, verify_migration
from repro.units import MiB


def test_identical_domains_verify(domain):
    dest = domain.make_destination()
    pfns = np.arange(domain.n_pages)
    dest.install_pages(pfns, domain.read_pages(pfns))
    result = verify_migration(domain, dest)
    assert result.ok
    assert result.mismatched_pages == 0


def test_stale_page_without_kernel_context_violates(domain):
    dest = domain.make_destination()
    pfns = np.arange(domain.n_pages)
    dest.install_pages(pfns, domain.read_pages(pfns))
    domain.touch_pfns(np.array([7]))
    result = verify_migration(domain, dest)
    assert not result.ok
    assert result.violating_pages == 1
    assert result.violating_pfns == (7,)


def test_free_pages_may_differ(kernel):
    domain = kernel.domain
    dest = domain.make_destination()
    pfns = np.arange(domain.n_pages)
    dest.install_pages(pfns, domain.read_pages(pfns))
    # Dirty a page that is on the kernel's free list.
    free_pfn = int(kernel.free_pfns()[0])
    domain.pages.bump(np.array([free_pfn]))
    result = verify_migration(domain, dest, kernel)
    assert result.ok
    assert result.mismatched_pages == 1
    assert result.violating_pages == 0


def test_allocated_pages_must_match(kernel):
    domain = kernel.domain
    proc = kernel.spawn("app")
    area = proc.mmap(MiB(1))
    dest = domain.make_destination()
    pfns = np.arange(domain.n_pages)
    dest.install_pages(pfns, domain.read_pages(pfns))
    proc.write_range(area.start, area.end)  # dirty after "transfer"
    result = verify_migration(domain, dest, kernel)
    assert not result.ok
    assert result.violating_pages == 256


def test_skip_area_pages_may_differ(kernel, lkm):
    domain = kernel.domain
    proc = kernel.spawn("app")
    area = proc.mmap(MiB(1))
    lkm.register_app(proc.pid, proc)
    lkm.app_records()[0].areas = [area]
    dest = domain.make_destination()
    pfns = np.arange(domain.n_pages)
    dest.install_pages(pfns, domain.read_pages(pfns))
    proc.write_range(area.start, area.end)
    result = verify_migration(domain, dest, kernel, lkm)
    assert result.ok
    assert result.mismatched_pages == 256


def test_allowed_mask_composition(kernel, lkm):
    domain = kernel.domain
    proc = kernel.spawn("app")
    area = proc.mmap(MiB(1))
    lkm.register_app(proc.pid, proc)
    lkm.app_records()[0].areas = [area]
    mask = allowed_mismatch_mask(domain, kernel, lkm)
    area_pfns = proc.write_pfns_of(area)
    assert mask[area_pfns].all()
    assert mask[kernel.free_pfns()].all()
    # Kernel-reserved pages are never excused.
    assert not mask[: kernel.reserved_pages].any()


def test_violating_pfns_truncated_to_32(domain):
    dest = domain.make_destination()
    domain.pages.bump_range(0, 100)
    result = verify_migration(domain, dest)
    assert result.violating_pages == 100
    assert len(result.violating_pfns) == 32
