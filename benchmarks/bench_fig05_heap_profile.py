"""Figure 5(a-c) — heap usage and GC behaviour of the nine workloads.

Paper: Category-1 Young generations grow to the 1 GB max; >97 % of the
Young generation is garbage at a minor GC for all but scimark; compiler
has the longest minor GC (~1.5 s); collecting garbage beats pushing it
through a gigabit link for all but scimark.
"""

from conftest import assert_shape

from repro.experiments import fig05


def test_fig05_heap_profiles():
    profiles = fig05.run(duration_s=600.0)
    print()
    print("Figure 5 rows (workload, young MB, old MB, garbage/GC, live/GC, GC s):")
    for p in profiles:
        print(
            f"  {p.workload:9s} {p.avg_young_mb:7.0f} {p.avg_old_mb:7.0f} "
            f"{p.garbage_per_gc_mb:8.0f} {p.live_per_gc_mb:7.1f} {p.gc_duration_s:6.2f}"
        )
    checks = fig05.comparisons(profiles)
    for c in checks:
        print(f"  [{'ok' if c.holds else 'FAIL'}] {c.metric}")
    assert_shape(checks)
