"""Figure 8 — migration progress of the compiler VM, Xen vs JAVMM.

Paper: Xen 58 s / 6.1 GB / 30 iterations; JAVMM 17 s / 1.6 GB /
11 iterations with a low-traffic waiting iteration before the
stop-and-copy.
"""

from conftest import assert_shape

from repro.experiments import fig08
from repro.units import MIB


def test_fig08_progress():
    results = fig08.run()
    print()
    for engine in ("xen", "javmm"):
        rep = results[engine].report
        print(f"Figure 8 {engine}: {rep.completion_time_s:.1f}s, "
              f"{rep.total_wire_bytes / MIB:.0f} MiB, {rep.n_iterations} iterations")
        for rec in rep.iterations:
            kind = "waiting" if rec.is_waiting else ("last" if rec.is_last else "")
            print(f"   iter {rec.index:3d}: {rec.duration_s:6.2f}s "
                  f"{rec.bytes_sent / MIB:8.1f} MiB {kind}")
    checks = fig08.comparisons(results)
    for c in checks:
        print(f"  [{'ok' if c.holds else 'FAIL'}] {c.metric}: {c.measured}")
    assert_shape(checks)
    # Both migrations verified page-exactly.
    assert results["xen"].report.verified
    assert results["javmm"].report.verified
