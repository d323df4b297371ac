"""Unified telemetry: spans, metrics and exports for the whole stack.

The paper's evaluation is an observability exercise — correlating
daemon iterations, LKM bitmap updates and JVM GC/safepoint activity
against one clock.  This package provides the instrumentation substrate
every layer shares:

- :class:`Tracer` — hierarchical spans (``migration → iteration →
  stop-and-copy``, ``gc``, ``safepoint``, ``netlink-query``, fault
  windows) on the simulated clock, exportable as Chrome ``trace_event``
  JSON that Perfetto loads directly;
- :class:`MetricsRegistry` — labeled counters / gauges / histograms
  with a ``snapshot()/diff()`` API;
- :class:`Probe` — the handle threaded through the builders into each
  component.  The default :data:`NULL_PROBE` makes instrumentation a
  no-op when telemetry is off;
- :class:`TimeseriesStore` — bounded per-iteration sample series
  (dirty rate, skip ratio, link utilization, …) fed via
  :meth:`Probe.sample`;
- :func:`write_jsonl` / :func:`read_jsonl` — the unified JSONL stream
  carrying spans, metrics, samples, attribution ledgers and
  :class:`~repro.sim.eventlog.EventLog` records under one schema;
- :mod:`repro.telemetry.attribution` — the conservation-checked
  attribution layer: :func:`attribute_report` decomposes completion
  time, downtime and wire bytes into additive audited ledgers, and
  :func:`assert_conserved` raises on any violation (``--audit``);
- :mod:`repro.telemetry.analysis` — the interpretation layer: the
  online :class:`~repro.telemetry.analysis.ConvergenceMonitor`, the
  rule-based :class:`~repro.telemetry.analysis.Doctor` and the
  run-to-run :func:`~repro.telemetry.analysis.compare_runs` comparator;
- :mod:`repro.telemetry.live` — the streaming half: the sink mirrors
  records as they happen, a tail consumes them incrementally, and
  :class:`LiveStatus` / :class:`FleetBoard` fold them into live
  per-migration status and fleet-wide percentile rollups
  (``repro watch``);
- :mod:`repro.telemetry.archive` — the SQLite multi-run archive:
  ``repro archive ingest/query/export`` indexes streams into
  queryable tables.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric names.
"""

from repro.telemetry.attribution import (
    AttributionAuditError,
    MigrationLedger,
    assert_conserved,
    attribute_dump,
    attribute_report,
    attribute_supervision,
    audit_meter,
    audit_report,
    recheck_ledger,
)
from repro.telemetry.export import (
    SCHEMA,
    TelemetryDump,
    read_jsonl,
    telemetry_records,
    write_chrome_trace,
    write_jsonl,
    write_metrics_json,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.telemetry.probe import NULL_PROBE, NullProbe, Probe
from repro.telemetry.timeseries import Series, TimeseriesStore
from repro.telemetry.tracer import InstantEvent, Span, Tracer

# The streaming and archive layers import the analysis package, which
# imports export above — keep them last so the package initializes
# without a cycle.
from repro.telemetry.archive import RunArchive, run_id_for  # noqa: E402
from repro.telemetry.live import (  # noqa: E402
    FileTail,
    FleetBoard,
    JsonlSink,
    LiveStatus,
    StreamSink,
    watch_file,
)

__all__ = [
    "SCHEMA",
    "AttributionAuditError",
    "Counter",
    "FileTail",
    "FleetBoard",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "JsonlSink",
    "LiveStatus",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MigrationLedger",
    "NULL_PROBE",
    "NullProbe",
    "Probe",
    "RunArchive",
    "Series",
    "Span",
    "StreamSink",
    "TelemetryDump",
    "TimeseriesStore",
    "Tracer",
    "assert_conserved",
    "attribute_dump",
    "attribute_report",
    "attribute_supervision",
    "audit_meter",
    "audit_report",
    "read_jsonl",
    "recheck_ledger",
    "run_id_for",
    "telemetry_records",
    "watch_file",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics_json",
]
