"""Figure 10 — migration performance across workload categories.

Paper: derby −82 %/−84 %/−83 % (time/traffic/downtime), crypto
−69 %/−72 %/−73 %, scimark roughly at parity with no downtime win.
"""

from conftest import assert_shape

from repro.experiments import fig10


def test_fig10_categories():
    rows, results = fig10.run()
    print()
    print("Figure 10 (workload, xen/javmm time s, traffic GiB, downtime s):")
    for r in rows:
        print(
            f"  {r.workload:9s} {r.xen_time_s:6.1f}/{r.javmm_time_s:<6.1f} "
            f"{r.xen_traffic_gb:5.2f}/{r.javmm_traffic_gb:<5.2f} "
            f"{r.xen_downtime_s:5.2f}/{r.javmm_downtime_s:<5.2f}"
        )
        print(
            f"            reductions: time {r.time_reduction_pct:.0f}%, "
            f"traffic {r.traffic_reduction_pct:.0f}%, "
            f"downtime {r.downtime_reduction_pct:.0f}%"
        )
    checks = fig10.comparisons(rows)
    for c in checks:
        print(f"  [{'ok' if c.holds else 'FAIL'}] {c.metric}: {c.measured}")
    assert_shape(checks)
    # Every underlying migration verified.
    for per_engine in results.values():
        for result in per_engine.values():
            assert result.report.verified, result.engine
