"""Interpretation of telemetry: convergence, diagnosis, regression.

PR 3 made the stack *observable* (spans, metrics, time-series, one
JSONL export); this package makes it *self-diagnosing*:

- :class:`ConvergenceMonitor` — classifies an in-flight pre-copy as
  CONVERGING / STALLED / DIVERGING with a downtime ETA, online (fed by
  the migration daemon, read by the supervisor before degrading
  engines) or offline (replayed from an export);
- :class:`Doctor` — a rule catalogue that turns one telemetry export
  into ranked :class:`Finding`\\ s with span/series/metric evidence
  pointers (``repro doctor run.jsonl``);
- :func:`compare_runs` — diffs two telemetry exports into a
  thresholded regression verdict (``repro compare A B``).
"""

from repro.telemetry.analysis.compare import (
    ComparisonResult,
    MeasureDelta,
    compare_runs,
    compare_summaries,
    load_run,
    summarize_dump,
)
from repro.telemetry.analysis.convergence import (
    ConvergenceMonitor,
    ConvergenceState,
    Diagnosis,
)
from repro.telemetry.analysis.doctor import (
    DEFAULT_RULES,
    Doctor,
    DoctorReport,
    Finding,
    replay_convergence,
    replay_convergence_segments,
)

__all__ = [
    "DEFAULT_RULES",
    "ComparisonResult",
    "ConvergenceMonitor",
    "ConvergenceState",
    "Diagnosis",
    "Doctor",
    "DoctorReport",
    "Finding",
    "MeasureDelta",
    "compare_runs",
    "compare_summaries",
    "load_run",
    "replay_convergence",
    "replay_convergence_segments",
    "summarize_dump",
]
