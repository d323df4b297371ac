"""Table 2 — observed heap settings of derby, crypto and scimark.

Paper: young/old at migration = 1024/259, 456/18, 128/486 MB.
"""

from conftest import assert_shape

from repro.experiments import table2


def test_table2_settings():
    rows = table2.run()
    print()
    for r in rows:
        print(
            f"  {r.workload:9s} max_young={r.max_young_mb} "
            f"young={r.observed_young_mb:.0f} old={r.observed_old_mb:.0f} MB"
        )
    assert_shape(table2.comparisons(rows))
