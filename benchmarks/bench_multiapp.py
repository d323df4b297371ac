"""Multi-application coordination (Section 6).

Two JVMs plus a cache server assist in the same migration; the LKM
coordinates their bitmap updates without cross-application interference
and the migration verifies page-exactly.
"""

from repro.experiments import multiapp


def test_multiapp_coordination():
    result = multiapp.run()
    print()
    print(
        f"  apps={result.apps_assisting} enforced_gcs={result.enforced_gcs} "
        f"skipped={result.skipped_mb:.0f}MiB traffic={result.traffic_gb:.2f}GiB "
        f"verified={result.verified}"
    )
    assert result.completed
    assert result.apps_assisting == 3
    assert result.enforced_gcs == 2  # one per JVM, none for the cache
    assert result.verified
    assert result.violating_pages == 0
    assert result.disjoint_areas
    # Both Young generations and the cold cache were skipped.
    assert result.skipped_mb > 400
    # Less than the VM size travelled.
    assert result.traffic_gb < 2.0
