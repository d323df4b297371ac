"""Figure 12 — the Young-generation size sweep (Category 1).

Paper: time reductions 91 % (xml, 1.5 GB Young) > 82 % (derby, 1 GB)
> 69 % (compiler, 0.5 GB); xml traffic −93 %; Xen downtime grows to
~13 s while JAVMM stays ~1.2 s.
"""

from conftest import assert_shape

from repro.experiments import fig12


def test_fig12_younggen_sweep():
    rows, results = fig12.run()
    print()
    print("Figure 12 (workload, young MB, xen/javmm time, traffic, downtime):")
    for r in rows:
        print(
            f"  {r.workload:9s} {r.max_young_mb:5d} "
            f"{r.xen_time_s:6.1f}/{r.javmm_time_s:<6.1f}s "
            f"{r.xen_traffic_gb:5.2f}/{r.javmm_traffic_gb:<5.2f}GiB "
            f"{r.xen_downtime_s:5.2f}/{r.javmm_downtime_s:<5.2f}s "
            f"(time -{r.time_reduction_pct:.0f}%, traffic -{r.traffic_reduction_pct:.0f}%)"
        )
    checks = fig12.comparisons(rows)
    for c in checks:
        print(f"  [{'ok' if c.holds else 'FAIL'}] {c.metric}: {c.measured}")
    assert_shape(checks)
    for (workload, engine), result in results.items():
        assert result.report.verified, (workload, engine)
