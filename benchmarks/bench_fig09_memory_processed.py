"""Figure 9 — per-iteration memory processed (transferred vs skipped).

Paper: both engines skip ~500 MB of already-dirtied memory in iteration
1; JAVMM additionally skips the whole Young generation every iteration
and its mid iterations each process only a few MB of dirty memory.
"""

from conftest import assert_shape

from repro.experiments import fig09


def test_fig09_memory_processed():
    results = fig09.run()
    print()
    for engine in ("xen", "javmm"):
        print(f"Figure 9 {engine} (transferred / skipped-dirty / skipped-young MB):")
        for row in fig09.rows(results[engine]):
            print(
                f"   iter {row.index:3d}: {row.transferred_mb:8.1f} "
                f"{row.skipped_dirty_mb:8.1f} {row.skipped_young_mb:8.1f} {row.kind}"
            )
    checks = fig09.comparisons(results)
    for c in checks:
        print(f"  [{'ok' if c.holds else 'FAIL'}] {c.metric}: {c.measured}")
    assert_shape(checks)
