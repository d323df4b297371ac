"""Every Table-1 workload migrated with JAVMM, verified page-exactly.

Not a single paper figure, but the coverage statement behind all of
them: the reproduction can migrate any of the nine calibrated workloads
with the assisted engine, correctness holds for each, and the benefit
ordering follows the categories (1 > 2 > 3).
"""

from repro.experiments.common import run_migration
from repro.units import GIB
from repro.workloads.spec import REGISTRY


def run_all():
    results = {}
    for name in sorted(REGISTRY):
        results[name] = run_migration(name, "javmm", warmup_s=12.0, cooldown_s=2.0)
    return results


def test_all_workloads_migrate_with_javmm():
    results = run_all()
    print()
    skipped_share = {}
    for name, result in sorted(results.items()):
        rep = result.report
        total_seen = rep.total_pages_sent + rep.total_pages_skipped_bitmap
        share = rep.total_pages_skipped_bitmap / total_seen if total_seen else 0.0
        skipped_share[name] = share
        print(
            f"  {name:9s} cat{REGISTRY[name].category}  "
            f"{rep.completion_time_s:5.1f}s  {rep.total_wire_bytes / GIB:5.2f}GiB  "
            f"downtime {rep.downtime.app_downtime_s:5.2f}s  "
            f"skip-share {share:5.1%}  verified={rep.verified}"
        )
        assert rep.verified, name
        assert rep.violating_pages == 0, name
    # Category-1 workloads skip relatively more than scimark (category 3).
    cat1_min = min(
        skipped_share[w] for w in ("derby", "compiler", "xml", "sunflow")
    )
    assert cat1_min > skipped_share["scimark"]
    # Every Category-1/2 migration ships less than the 2 GiB VM.
    for name, spec in REGISTRY.items():
        if spec.category in (1, 2):
            assert results[name].report.total_wire_bytes < 2 * GIB, name
