"""Unified telemetry export: spans, metrics and event-log records.

One JSONL stream carries all the narratives under a single schema so
downstream tools need exactly one parser:

- line 1 is a ``{"type": "meta", "schema": "repro-telemetry/3"}`` header;
- ``{"type": "span", ...}`` — one per (closed or open) tracer span;
- ``{"type": "instant", ...}`` — tracer markers;
- ``{"type": "event", ...}`` — the free-text EventLog records;
- ``{"type": "metric", ...}`` — one per metrics series (final values);
- ``{"type": "sample", ...}`` — one time-series point (schema 2), with
  ``{"type": "series_dropped", ...}`` recording per-series ring-buffer
  eviction counts;
- ``{"type": "attribution", ...}`` — one audited attribution ledger per
  migration attempt (schema 3, see :mod:`repro.telemetry.attribution`).

Schema 1 (no samples) and schema 2 (no attributions) streams still read
back fine, and :func:`read_jsonl` is forward-compatible the other way
too: record kinds it does not know are counted and reported through one
warning instead of failing the parse, so older readers survive newer
streams.

:func:`decode_stream` is the one place stream bytes become records: the
live tail, :func:`read_jsonl` and the run archive all call it, so a
torn last line or a corrupt one is handled the same way everywhere.
:func:`read_jsonl` round-trips the stream back into plain structures,
and :func:`write_chrome_trace` / :func:`write_metrics_json` cover the
two single-format outputs the CLI exposes (``--trace-out`` /
``--metrics-out``).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import TelemetryFormatError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.probe import Probe
from repro.telemetry.timeseries import TimeseriesStore
from repro.telemetry.tracer import Tracer

SCHEMA = "repro-telemetry/3"


def telemetry_records(
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    event_log: object | None = None,
    timeseries: TimeseriesStore | None = None,
    attributions: list[dict] | None = None,
) -> list[dict]:
    """Every telemetry record as one flat, typed list (the JSONL body)."""
    records: list[dict] = [{"type": "meta", "schema": SCHEMA}]
    if tracer is not None:
        for span in tracer.spans:
            records.append({"type": "span", **span.to_dict()})
        for inst in tracer.instants:
            records.append({"type": "instant", **inst.to_dict()})
    if event_log is not None:
        for ev in event_log.events():
            records.append({
                "type": "event",
                "time_s": ev.time_s,
                "source": ev.source,
                "message": ev.message,
            })
        if getattr(event_log, "dropped", 0):
            records.append({
                "type": "event_log_dropped",
                "dropped": event_log.dropped,
            })
    if metrics is not None:
        for sv in metrics.snapshot().series.values():
            records.append({"type": "metric", **sv.to_dict()})
    if timeseries is not None:
        records.extend(timeseries.to_records())
    if attributions:
        for ledger in attributions:
            records.append({"type": "attribution", **ledger})
    return records


def write_jsonl(
    path: str | Path,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    event_log: object | None = None,
    probe: Probe | None = None,
    timeseries: TimeseriesStore | None = None,
    attributions: list[dict] | None = None,
) -> int:
    """Write the unified stream; returns the number of records written.

    Pass either the stores explicitly or a live *probe* (whose tracer,
    metrics, event log and time-series store are used for anything not
    given).  *attributions* takes ledger dicts from
    :func:`repro.telemetry.attribution.attribute_report`.
    """
    if probe is not None and probe.enabled:
        tracer = tracer if tracer is not None else probe.tracer
        metrics = metrics if metrics is not None else probe.metrics
        event_log = event_log if event_log is not None else probe.event_log
        timeseries = timeseries if timeseries is not None else probe.timeseries
    records = telemetry_records(tracer, metrics, event_log, timeseries, attributions)
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return len(records)


@dataclass
class TelemetryDump:
    """The parsed form of one unified JSONL stream."""

    schema: str = SCHEMA
    spans: list[dict] = field(default_factory=list)
    instants: list[dict] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)
    attributions: list[dict] = field(default_factory=list)
    dropped_events: int = 0
    #: record kinds this reader did not recognize -> occurrence count
    #: (forward compatibility: newer streams parse with a warning)
    unknown_records: dict[str, int] = field(default_factory=dict)
    #: complete lines that did not decode into a typed record
    corrupt_lines: int = 0
    #: 1 when the stream ends in an unterminated line (a torn write)
    torn_lines: int = 0

    def metric_value(self, name: str, default: float = 0.0) -> float:
        for m in self.metrics:
            if m["name"] == name:
                return m["value"]
        return default

    def metric_total(self, name: str, default: float = 0.0) -> float:
        """Sum of *name* across all label sets (e.g. every engine)."""
        found = [m["value"] for m in self.metrics if m["name"] == name]
        return sum(found) if found else default

    def timeseries(self) -> TimeseriesStore:
        """The exported samples rebuilt as a queryable store."""
        return TimeseriesStore.from_records(self.samples)


def absorb_record(dump: TelemetryDump, record: dict) -> None:
    """Sort one typed record (its ``type`` key is consumed) into *dump*.

    The single parsing step :func:`read_jsonl`, the streaming tail
    (:mod:`repro.telemetry.live`) and the run archive
    (:mod:`repro.telemetry.archive`) all share, so a dump rebuilt from
    stored or tailed records is identical to one read from the file.
    """
    kind = record.pop("type")
    if kind == "meta":
        dump.schema = record.get("schema", "")
    elif kind == "span":
        dump.spans.append(record)
    elif kind == "instant":
        dump.instants.append(record)
    elif kind == "event":
        dump.events.append(record)
    elif kind == "metric":
        dump.metrics.append(record)
    elif kind in ("sample", "series_dropped"):
        dump.samples.append({"type": kind, **record})
    elif kind == "attribution":
        dump.attributions.append(record)
    elif kind == "event_log_dropped":
        dump.dropped_events = record["dropped"]
    else:
        dump.unknown_records[kind] = dump.unknown_records.get(kind, 0) + 1


def _warn_lost(dump: TelemetryDump) -> None:
    """One warning per unknown record kind, and one for lost lines."""
    for kind in sorted(dump.unknown_records):
        warnings.warn(
            f"skipped {dump.unknown_records[kind]} unknown telemetry "
            f"record(s) of kind {kind!r} (stream schema {dump.schema!r}, "
            f"reader schema {SCHEMA!r})",
            stacklevel=3,
        )
    if dump.corrupt_lines or dump.torn_lines:
        warnings.warn(
            f"skipped {dump.corrupt_lines} corrupt telemetry line(s) and "
            f"{dump.torn_lines} torn last line(s)",
            stacklevel=3,
        )


def decode_stream(data: bytes) -> tuple[list[dict], int, int]:
    """Decode stream bytes into typed records: the one telemetry reader.

    Returns ``(records, consumed, corrupt)``.  Only bytes up to the last
    newline are consumed: an unterminated last line (a torn write, or a
    writer still mid-record) is left for the caller to re-read or count.
    Blank lines are skipped; a complete line that does not decode into
    a JSON object with a string ``type`` is counted in *corrupt* and
    skipped, nesting deep enough to exhaust the parser's recursion
    included.
    """
    consumed = data.rfind(b"\n") + 1
    records: list[dict] = []
    corrupt = 0
    for raw in data[:consumed].split(b"\n"):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except (ValueError, RecursionError):
            record = None
        if isinstance(record, dict) and isinstance(record.get("type"), str):
            records.append(record)
        else:
            corrupt += 1
    return records, consumed, corrupt


def _fold(dump: TelemetryDump, records) -> TelemetryDump:
    for record in records:
        absorb_record(dump, dict(record))
    _warn_lost(dump)
    return dump


def dump_from_records(records: "list[dict]") -> TelemetryDump:
    """Rebuild a dump from already-decoded typed records (each record
    is copied, not consumed).  Same forward-compatibility contract as
    :func:`read_jsonl`: unknown kinds are counted and warned about."""
    return _fold(TelemetryDump(), records)


def read_stream(data: bytes, source: str) -> TelemetryDump:
    """Parse stream bytes into a dump; *source* names them in errors.

    Corrupt lines and a torn last line are counted on the dump
    (``corrupt_lines``/``torn_lines``) and reported through one
    :class:`UserWarning`, like unknown record kinds.  Bytes whose first
    record is not the ``meta`` header are not a telemetry stream and
    raise :class:`~repro.errors.TelemetryFormatError`.
    """
    records, consumed, corrupt = decode_stream(data)
    if not records or records[0]["type"] != "meta":
        raise TelemetryFormatError(
            f"{source}: not a telemetry stream (no meta header record first)"
        )
    dump = TelemetryDump(
        corrupt_lines=corrupt, torn_lines=int(bool(data[consumed:].strip()))
    )
    return _fold(dump, records)


def read_jsonl(path: str | Path) -> TelemetryDump:
    """Parse a unified stream file back into structured lists
    (round-trip); see :func:`read_stream` for what is tolerated."""
    return read_stream(Path(path).read_bytes(), str(path))


def write_chrome_trace(path: str | Path, tracer: Tracer) -> int:
    """Write Chrome ``trace_event`` JSON; returns the event count."""
    trace = tracer.to_chrome_trace()
    Path(path).write_text(json.dumps(trace, indent=1))
    return len(trace["traceEvents"])


def write_metrics_json(path: str | Path, metrics: MetricsRegistry) -> int:
    """Write the metrics registry as JSON; returns the series count."""
    payload = metrics.to_dict()
    Path(path).write_text(json.dumps(payload, indent=1))
    return len(payload["series"])
