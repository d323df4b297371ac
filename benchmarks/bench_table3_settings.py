"""Table 3 — the Category-1 sweep settings.

Paper: xml/derby/compiler reach their 1536/1024/512 MB Young maxima
(75/50/25 % of the 2 GB VM) with Old generations of 28/259/86 MB.
"""

from conftest import assert_shape

from repro.experiments import table3


def test_table3_settings():
    rows = table3.run()
    print()
    for r in rows:
        print(
            f"  {r.workload:9s} max_young={r.max_young_mb} "
            f"young={r.observed_young_mb:.0f} old={r.observed_old_mb:.0f} MB"
        )
    assert_shape(table3.comparisons(rows))
