"""Scale-up study (Section 6): large VMs over fast networks.

The paper's claim: JAVMM's benefits persist as VM sizes, dirtying rates
and link speeds grow proportionally.
"""

from conftest import assert_shape

from repro.experiments import scaleup


def test_scaleup_benefits_persist():
    rows = scaleup.run()
    print()
    for r in rows:
        print(
            f"  {r.scenario:18s} xen {r.xen_time_s:5.1f}s/{r.xen_traffic_gb:6.2f}GiB "
            f"javmm {r.javmm_time_s:5.1f}s/{r.javmm_traffic_gb:5.2f}GiB "
            f"(-{r.time_reduction_pct:.0f}% time, -{r.traffic_reduction_pct:.0f}% traffic)"
        )
    checks = scaleup.comparisons(rows)
    for c in checks:
        print(f"  [{'ok' if c.holds else 'FAIL'}] {c.metric}")
    assert_shape(checks)
