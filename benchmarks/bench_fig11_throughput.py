"""Figure 11 — workload throughput around migration.

Paper: with JAVMM the workload sees only a short pause; with Xen an
extended downtime (derby: >20 % slowdown while Xen migration runs).
"""

from conftest import assert_shape

from repro.experiments import fig11


def test_fig11_throughput():
    results = fig11.run()
    print()
    print("Figure 11 (workload, engine, ops/s before, drop during, downtime, after):")
    for workload in fig11.WORKLOADS:
        for engine in ("xen", "javmm"):
            s = fig11.summarize(results[workload][engine])
            print(
                f"  {s.workload:9s} {s.engine:6s} {s.before_ops_s:6.2f} "
                f"{s.during_drop_pct:5.0f}% {s.observed_downtime_s:5.0f}s {s.after_ops_s:6.2f}"
            )
    checks = fig11.comparisons(results)
    for c in checks:
        print(f"  [{'ok' if c.holds else 'FAIL'}] {c.metric}: {c.measured}")
    assert_shape(checks)
