"""Figure 1 — vanilla Xen migration of the 2 GB derby VM.

Paper: ~66 s, ~7 GB traffic, ~8 s downtime; per-iteration dirtying rate
stays above the transfer rate so the dirty set never shrinks.
"""

from conftest import assert_shape

from repro.experiments import fig01
from repro.units import MIB


def test_fig01_xen_derby():
    result = fig01.run()
    print()
    print("Figure 1 rows (iter, duration, transfer MB/s, dirtying MB/s):")
    for row in fig01.rows(result):
        print(
            f"  {row.index:3d}  {row.duration_s:6.2f}s  "
            f"{row.transfer_rate_mb_s:7.1f}  {row.dirtying_rate_mb_s:7.1f}"
        )
    checks = fig01.comparisons(result)
    for c in checks:
        print(f"  [{'ok' if c.holds else 'FAIL'}] {c.metric}: paper={c.paper} measured={c.measured}")
    assert_shape(checks)

    # The figure's core phenomenon: mid-iteration dirtying outruns the
    # link, so iterations do not shrink.
    mid = [r for r in fig01.rows(result) if 1 < r.index < result.report.n_iterations]
    assert sum(r.dirtying_rate_mb_s > r.transfer_rate_mb_s for r in mid) >= len(mid) // 2
