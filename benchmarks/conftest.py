"""Benchmark-suite configuration.

Each benchmark regenerates one figure or table of the paper's
evaluation, prints the measured rows next to the paper's numbers, and
asserts that the *shape* of the result holds (who wins, by roughly what
factor).  Simulations are deterministic, so each check is a plain test
that runs its experiment once: ``pytest benchmarks/``.
"""

from __future__ import annotations


def assert_shape(checks) -> None:
    """Fail with a readable message listing any broken shape checks."""
    failed = [c for c in checks if not c.holds]
    assert not failed, "shape checks failed: " + "; ".join(
        f"{c.metric} (paper: {c.paper}, measured: {c.measured})" for c in failed
    )
