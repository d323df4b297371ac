"""Live telemetry streaming: sink, tail, per-migration status, fleet board.

The post-mortem pipeline (export → read → doctor/attribute) answers
questions about *finished* runs.  A fleet orchestrator needs the same
answers *while the run is in flight*: is migration 412 converging, what
is its downtime ETA, which rescue rung is it on, how do the p95s look
across the fleet?  This module is that live half, built around the same
``repro-telemetry/3`` records the batch exporter writes:

- :class:`JsonlSink` attaches to a
  :class:`~repro.telemetry.probe.Probe` and an
  :class:`~repro.sim.eventlog.EventLog` and mirrors instants, samples
  and events onto a file *as they happen*, flushed per line; spans,
  metrics and the remaining batch-only kinds are appended once by
  :meth:`~StreamSink.finalize`, so a finished stream parses into the
  same dump a batch :func:`~repro.telemetry.export.write_jsonl` export
  would (record order differs; :func:`~repro.telemetry.export.read_jsonl`
  is order-insensitive).  It is how every run writes telemetry:
  ``repro migrate --telemetry-out``, ``repro resume`` and daemon
  sessions alike.
- :class:`FileTail` consumes a stream incrementally — never re-reading
  from offset zero — through the one decoder,
  :func:`~repro.telemetry.export.decode_stream`: a partial last line is
  left unconsumed and re-read once completed, like the checkpoint
  journal's torn tail.
- :class:`LiveStatus` folds the streamed records into one migration's
  current state: phase, iteration table, pages remaining, skip-adjusted
  dirty rate, effective bandwidth, a record-granularity
  :class:`~repro.telemetry.analysis.convergence.ConvergenceMonitor`
  verdict with downtime ETA, rescue-ladder rung, and byte-ledger
  attribution so far.  At stream end :meth:`LiveStatus.to_dict` is
  bit-identical to :meth:`LiveStatus.from_report` recomputed from the
  finished run's :class:`~repro.migration.report.MigrationReport` —
  the equivalence the kernel-equivalence suite enforces.
- :class:`FleetBoard` aggregates N concurrent statuses into
  deterministic p50/p95/p99 rollups (dirty rate, ETA, wire bytes by
  category) with memory bounded by the fleet size, and renders either
  an ASCII board (``repro watch``) or a Prometheus-style text
  exposition (``--prom-out``).

Everything is stamped with the *simulated* clock carried in the
records, so identical runs produce identical boards byte-for-byte.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

from repro.errors import CheckpointError
from repro.telemetry.analysis.convergence import ConvergenceMonitor
from repro.telemetry.export import SCHEMA, decode_stream, telemetry_records

#: fleet rollup quantiles, in exposition order
QUANTILES = (0.5, 0.95, 0.99)


def final_records(probe, attributions=None) -> list[dict]:
    """The batch-only records a sink appends at finalize.

    Spans close (and mutate their args) until the very end of a run and
    metrics are final values, so neither can stream incrementally;
    everything the sink already mirrored live (instants, events,
    samples, the meta header) is filtered out here so nothing is
    emitted twice.
    """
    records = telemetry_records(
        probe.tracer, probe.metrics, probe.event_log, probe.timeseries,
        attributions,
    )
    live_kinds = {"meta", "instant", "event", "sample"}
    return [r for r in records if r["type"] not in live_kinds]


class StreamSink:
    """Base streaming sink: injects the meta header, owns finalize."""

    def __init__(self) -> None:
        self.records_written = 0

    def emit(self, record: dict) -> None:
        if self.records_written == 0:
            self._write({"type": "meta", "schema": SCHEMA})
            self.records_written += 1
        self._write(record)
        self.records_written += 1

    def _write(self, record: dict) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def finalize(self, probe, attributions=None) -> int:
        """Append the batch-only records (spans, metrics, drop counters,
        attributions) and close the sink.  Returns total records."""
        for record in final_records(probe, attributions):
            self.emit(record)
        self.close()
        return self.records_written

    def close(self) -> None:
        pass


class JsonlSink(StreamSink):
    """The file-backed streaming sink, flushed after every record.

    A tail sees each record as soon as it is written; the file is
    fsynced once at :meth:`close`.  The first write truncates a stale
    file at *path*.  The sink is pickle-safe (it rides inside
    checkpointed controller graphs): the file handle is dropped on
    pickling, while the byte length written so far travels with it.
    The first write after a restore truncates the file back to that
    length — the resumed run re-emits everything after its checkpoint,
    so what the crashed run wrote past it (a torn line included) must
    not stay on disk twice — and refuses a file shorter than that,
    which is not the stream this run was writing.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = str(path)
        self.bytes_written = 0
        self._fh = None

    def _file(self):
        if self._fh is None:
            if self.bytes_written == 0:
                self._fh = open(self.path, "wb")
                return self._fh
            size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
            if size < self.bytes_written:
                raise CheckpointError(
                    f"telemetry stream {self.path} holds {size} bytes, fewer "
                    f"than the {self.bytes_written} this run had written"
                )
            self._fh = open(self.path, "r+b")
            self._fh.truncate(self.bytes_written)
            self._fh.seek(self.bytes_written)
        return self._fh

    def _write(self, record: dict) -> None:
        line = (json.dumps(record) + "\n").encode("utf-8")
        fh = self._file()
        fh.write(line)
        fh.flush()
        self.bytes_written += len(line)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_fh"] = None  # reopened, truncated to bytes_written, on next write
        return state


class FileTail:
    """Incremental JSONL reader resuming at a byte offset.

    Each poll decodes what was appended through
    :func:`~repro.telemetry.export.decode_stream`: a mid-record crash (or
    a reader racing the writer) leaves a partial last line, which stays
    unconsumed — the offset does not advance past it, and the next poll
    re-reads it once the newline lands.  A *complete* line that still
    fails to decode is counted in ``corrupt_lines`` and skipped.
    """

    def __init__(self, path: str | Path, offset: int = 0) -> None:
        self.path = str(path)
        self.offset = int(offset)
        self.corrupt_lines = 0

    def poll(self) -> list[dict]:
        """Decoded records appended since the last poll (oldest first)."""
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return []
        with fh:
            fh.seek(self.offset)
            data = fh.read()
        records, consumed, corrupt = decode_stream(data)
        self.offset += consumed
        self.corrupt_lines += corrupt
        return records


def iteration_measures(rec: dict) -> tuple[float, float, float, float] | None:
    """The convergence observation one closed iteration record yields.

    ``(observed_at_s, dirty_rate, eff_bandwidth, pages_remaining)`` —
    computed with exactly the pre-copy daemon's formulas (skip-adjusted
    dirty rate, wire bytes over duration), so replaying a report's
    records and folding a stream's ``progress`` instants produce the
    same floats bit-for-bit.  Returns ``None`` for zero-duration
    records, which the daemon never observes either.
    """
    duration = rec["duration_s"]
    if duration <= 0:
        return None
    examined = (
        rec["pages_sent"] + rec["pages_skipped_dirty"] + rec["pages_skipped_bitmap"]
    )
    skip_ratio = rec["pages_skipped_bitmap"] / examined if examined > 0 else 0.0
    dirty_rate = rec["dirtied_during_bytes"] * (1.0 - skip_ratio) / duration
    eff_bw = rec["wire_bytes"] / duration
    return (
        rec["start_s"] + duration,
        dirty_rate,
        eff_bw,
        float(rec.get("pages_remaining", 0)),
    )


class LiveStatus:
    """One migration's current state, folded from streamed records.

    Feed it every record a tail yields (:meth:`feed` ignores kinds it
    does not need); read :meth:`to_dict` at any point for the canonical
    status.  The convergence verdict is *record-granularity*: a fresh
    :class:`ConvergenceMonitor` replays the closed, post-merge
    iteration records (one observation per non-stop-and-copy record),
    which is also exactly what :meth:`from_report` replays from a
    finished report — the two are bit-identical at stream end.

    Memory is bounded: the iteration table holds the latest ``progress``
    payload per index (the daemon caps iterations), and the monitor
    keeps a fixed window.
    """

    def __init__(self, name: str = "migration", monitor_kwargs: dict | None = None):
        self.name = name
        self.engine = ""
        self.attempt = 1
        self.phase = "idle"
        self.aborts = 0
        self.stop_reason = ""
        self.verified: bool | None = None
        self.clock_s = 0.0
        self.rescues: list[dict] = []
        self.wire_by_category: dict[str, int] = {}
        self.saved_by_category: dict[str, int] = {}
        self.inflight_wire_bytes = 0
        #: stream-health counters (never part of :meth:`to_dict` — a
        #: post-mortem recomputation has no stream to lose records from)
        self.events_dropped = 0
        self.stream_missed = 0
        self._monitor_kwargs = dict(monitor_kwargs or {})
        self._records: dict[int, dict] = {}
        self._monitor = ConvergenceMonitor(**self._monitor_kwargs)
        self._last_measures: tuple | None = None
        self._dirty = False

    # -- folding the stream --------------------------------------------------------------

    def feed(self, record: dict) -> None:
        """Fold one streamed record in (the record is not mutated)."""
        kind = record.get("type")
        if kind == "event_log_dropped":
            self.events_dropped = int(record.get("dropped", 0))
            return
        if kind != "instant":
            return
        name = record.get("name")
        args = record.get("args", {})
        if name == "progress":
            self._turn_attempt(args.get("attempt", 1))
            self.engine = args.get("engine", self.engine)
            rec = args["record"]
            self._records[rec["index"]] = rec
            self.wire_by_category = dict(args.get("wire_by_category", {}))
            self.saved_by_category = dict(args.get("saved_by_category", {}))
            self.clock_s = record.get("time_s", self.clock_s)
            self._dirty = True
        elif name == "phase":
            self._turn_attempt(args.get("attempt", 1))
            self.engine = args.get("engine", self.engine)
            self.phase = args.get("phase", self.phase)
            self.stop_reason = args.get("stop_reason", self.stop_reason)
            self.clock_s = record.get("time_s", self.clock_s)
            if "verified" in args:
                self.verified = args["verified"]
            if "inflight_wire_bytes" in args:
                self.inflight_wire_bytes = int(args["inflight_wire_bytes"])
            if "wire_by_category" in args:
                self.wire_by_category = dict(args["wire_by_category"])
            if "saved_by_category" in args:
                self.saved_by_category = dict(args["saved_by_category"])
            if self.phase == "aborted":
                self.aborts += 1
            self._dirty = True
        elif name == "rescue":
            self.rescues.append(dict(args))
            self.clock_s = record.get("time_s", self.clock_s)

    def feed_all(self, records: list[dict]) -> "LiveStatus":
        for record in records:
            self.feed(record)
        return self

    def follow(self, tail: FileTail) -> "LiveStatus":
        """Fold in what *tail* gained since its last poll, and carry its
        corrupt-line count into ``stream_missed``."""
        self.feed_all(tail.poll())
        self.stream_missed = tail.corrupt_lines
        return self

    def _turn_attempt(self, attempt: int) -> None:
        """A new supervised attempt starts a fresh report: reset every
        per-attempt field (the abort count and rescue ladder span
        attempts, so they persist)."""
        if attempt == self.attempt:
            return
        self.attempt = attempt
        self._records = {}
        self.wire_by_category = {}
        self.saved_by_category = {}
        self.inflight_wire_bytes = 0
        self.stop_reason = ""
        self.verified = None
        self._dirty = True

    # -- derived state -------------------------------------------------------------------

    def _replay(self) -> None:
        """Recompute the monitor verdict from the closed records."""
        if not self._dirty:
            return
        monitor = ConvergenceMonitor(**self._monitor_kwargs)
        last = None
        for index in sorted(self._records):
            rec = self._records[index]
            if rec.get("is_last"):
                continue
            measures = iteration_measures(rec)
            if measures is None:
                continue
            monitor.observe(*measures)
            last = measures
        self._monitor = monitor
        self._last_measures = last
        self._dirty = False

    @property
    def iterations(self) -> int:
        return len(self._records)

    @property
    def pages_remaining(self) -> int:
        if not self._records:
            return 0
        return int(self._records[max(self._records)].get("pages_remaining", 0))

    @property
    def dirty_rate_bytes_s(self) -> float:
        self._replay()
        return self._last_measures[1] if self._last_measures else 0.0

    @property
    def eff_bandwidth_bytes_s(self) -> float:
        self._replay()
        return self._last_measures[2] if self._last_measures else 0.0

    def verdict(self) -> dict:
        """The record-granularity convergence diagnosis, JSON-canonical
        (a non-finite ratio becomes ``None``, like the daemon's
        ``convergence`` instants)."""
        self._replay()
        d = self._monitor.diagnosis
        return {
            "state": d.state.value,
            "ratio": d.ratio if math.isfinite(d.ratio) else None,
            "trend_pages_s": d.trend_pages_s,
            "pages_remaining": d.pages_remaining,
            "eta_s": d.eta_s,
            "downtime_eta_s": d.downtime_eta_s,
            "n_iterations": d.n_iterations,
            "reason": d.reason,
        }

    def rescue_rung(self) -> dict:
        """Where on the rescue ladder this migration sits."""
        stage, factor, compress = 0, None, None
        for decision in self.rescues:
            if decision.get("action") == "throttle":
                stage = max(stage, int(decision.get("stage", 0)))
                factor = decision.get("factor")
            elif decision.get("action") == "compress":
                compress = decision.get("ratio")
        return {
            "rungs": len(self.rescues),
            "throttle_stage": stage,
            "throttle_factor": factor,
            "compress_ratio": compress,
        }

    def iteration_table(self) -> list[dict]:
        """The reconstructed per-iteration records, in index order."""
        return [self._records[i] for i in sorted(self._records)]

    def to_dict(self) -> dict:
        """The canonical status.  At stream end this equals
        :meth:`from_report` on the finished run bit-for-bit."""
        return {
            "name": self.name,
            "engine": self.engine,
            "attempt": self.attempt,
            "phase": self.phase,
            "clock_s": self.clock_s,
            "iterations": self.iterations,
            "pages_remaining": self.pages_remaining,
            "dirty_rate_bytes_s": self.dirty_rate_bytes_s,
            "eff_bandwidth_bytes_s": self.eff_bandwidth_bytes_s,
            "verdict": self.verdict(),
            "rescue": self.rescue_rung(),
            "aborts": self.aborts,
            "stop_reason": self.stop_reason,
            "verified": self.verified,
            "wire_by_category": {
                k: self.wire_by_category[k] for k in sorted(self.wire_by_category)
            },
            "saved_by_category": {
                k: self.saved_by_category[k] for k in sorted(self.saved_by_category)
            },
            "inflight_wire_bytes": self.inflight_wire_bytes,
            "iteration_table": self.iteration_table(),
        }

    @property
    def finished(self) -> bool:
        return self.phase in ("done", "aborted")

    # -- the post-mortem twin ------------------------------------------------------------

    @classmethod
    def from_report(
        cls,
        report,
        rescues: list[dict] | tuple = (),
        name: str = "migration",
        aborts: int | None = None,
        monitor_kwargs: dict | None = None,
    ) -> "LiveStatus":
        """Recompute the status a stream tail would have reached, from a
        finished :class:`~repro.migration.report.MigrationReport` (or
        its dict form) plus the supervision result's rescue decisions.

        Everything is round-tripped through JSON first so the values
        compared against a parsed stream are the same Python objects a
        parse produces (exact for IEEE doubles, ints, bools).
        """
        if hasattr(report, "to_dict"):
            report = report.to_dict()
        d = json.loads(json.dumps(report))
        status = cls(name=name, monitor_kwargs=monitor_kwargs)
        status.engine = d.get("migrator", "")
        status.attempt = d.get("attempt", 1)
        aborted = bool(d.get("aborted", False))
        status.phase = "aborted" if aborted else "done"
        if aborts is None:
            # Under a supervisor every attempt before the final one
            # aborted; the final one adds itself when it aborted too.
            aborts = status.attempt if aborted else status.attempt - 1
        status.aborts = aborts
        status.stop_reason = d.get("stop_reason", "")
        status.verified = d.get("verified")
        status.clock_s = d.get("finished_s", 0.0)
        status.inflight_wire_bytes = d.get("inflight_wire_bytes", 0)
        status.wire_by_category = dict(d.get("wire_by_category", {}))
        status.saved_by_category = dict(d.get("saved_by_category", {}))
        status.rescues = json.loads(json.dumps(list(rescues)))
        for rec in d.get("iterations", []):
            status._records[rec["index"]] = rec
        status._dirty = True
        return status

    @classmethod
    def from_result(
        cls, result, name: str = "migration", monitor_kwargs: dict | None = None
    ) -> "LiveStatus":
        """The :meth:`from_report` twin for a
        :class:`~repro.core.supervisor.SupervisionResult`."""
        return cls.from_report(
            result.report,
            rescues=result.rescues,
            name=name,
            monitor_kwargs=monitor_kwargs,
        )


def watch_file(
    path: str | Path, name: str | None = None, monitor_kwargs: dict | None = None
) -> LiveStatus:
    """One-shot tail: fold everything currently in *path* into a status."""
    return LiveStatus(
        name=name if name is not None else Path(path).stem,
        monitor_kwargs=monitor_kwargs,
    ).follow(FileTail(path))


def percentile(values, q: float) -> float:
    """Deterministic linear-interpolated percentile (numpy 'linear')."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return vals[lo]
    frac = pos - lo
    return vals[lo] * (1.0 - frac) + vals[hi] * frac


class FleetBoard:
    """Percentile rollups over N concurrent :class:`LiveStatus` objects.

    Memory is bounded by the fleet size: one status per migration, each
    itself bounded (see :class:`LiveStatus`).  All aggregation is
    deterministic — sorted names, fixed quantile order, interpolated
    percentiles — so tests assert exact board contents.
    """

    def __init__(self) -> None:
        self._statuses: dict[str, LiveStatus] = {}

    def update(self, status: LiveStatus) -> None:
        self._statuses[status.name] = status

    def statuses(self) -> list[LiveStatus]:
        return [self._statuses[k] for k in sorted(self._statuses)]

    def __len__(self) -> int:
        return len(self._statuses)

    def rollups(self) -> dict:
        """p50/p95/p99 across the fleet, plus phase counts."""
        statuses = self.statuses()
        phases: dict[str, int] = {}
        for s in statuses:
            phases[s.phase] = phases.get(s.phase, 0) + 1
        measures: dict[str, dict] = {}
        for key, pick in (
            ("dirty_rate_bytes_s", lambda s: s.dirty_rate_bytes_s),
            ("eff_bandwidth_bytes_s", lambda s: s.eff_bandwidth_bytes_s),
            ("pages_remaining", lambda s: s.pages_remaining),
            ("eta_s", lambda s: s.verdict()["eta_s"]),
            ("downtime_eta_s", lambda s: s.verdict()["downtime_eta_s"]),
        ):
            values = [
                v for v in (pick(s) for s in statuses)
                if v is not None and math.isfinite(v)
            ]
            measures[key] = {
                f"p{int(q * 100)}": percentile(values, q) for q in QUANTILES
            }
        categories = sorted({c for s in statuses for c in s.wire_by_category})
        wire = {
            cat: {
                f"p{int(q * 100)}": percentile(
                    [s.wire_by_category.get(cat, 0) for s in statuses], q
                )
                for q in QUANTILES
            }
            for cat in categories
        }
        return {
            "n": len(statuses),
            "phases": {k: phases[k] for k in sorted(phases)},
            "measures": measures,
            "wire_bytes": wire,
        }

    def to_dict(self) -> dict:
        statuses = self.statuses()
        return {
            "migrations": [s.to_dict() for s in statuses],
            "rollups": self.rollups(),
            #: corrupt stream lines each tail skipped (only runs with some)
            "stream_missed": {
                s.name: s.stream_missed for s in statuses if s.stream_missed
            },
        }

    # -- expositions ---------------------------------------------------------------------

    def to_prom_text(self) -> str:
        """Prometheus text exposition of the board (see
        docs/OBSERVABILITY.md for the metric catalogue)."""
        out: list[str] = []

        def fmt(v) -> str:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                return None
            if isinstance(v, float) and math.isinf(v):
                return "+Inf" if v > 0 else "-Inf"
            if isinstance(v, bool):
                return "1" if v else "0"
            return repr(float(v)) if isinstance(v, float) else str(v)

        def sample(name: str, value, **labels) -> None:
            text = fmt(value)
            if text is None:
                return
            if labels:
                body = ",".join(
                    f'{k}="{labels[k]}"' for k in sorted(labels)
                )
                out.append(f"{name}{{{body}}} {text}")
            else:
                out.append(f"{name} {text}")

        rollups = self.rollups()
        out.append("# TYPE repro_migrations gauge")
        sample("repro_migrations", rollups["n"])
        for phase, count in rollups["phases"].items():
            sample("repro_migrations_by_phase", count, phase=phase)
        for s in self.statuses():
            run = s.name
            verdict = s.verdict()
            sample("repro_migration_attempt", s.attempt, run=run)
            sample("repro_migration_iterations", s.iterations, run=run)
            sample("repro_migration_pages_remaining", s.pages_remaining, run=run)
            sample(
                "repro_migration_dirty_rate_bytes_per_second",
                s.dirty_rate_bytes_s, run=run,
            )
            sample(
                "repro_migration_eff_bandwidth_bytes_per_second",
                s.eff_bandwidth_bytes_s, run=run,
            )
            sample("repro_migration_eta_seconds", verdict["eta_s"], run=run)
            sample(
                "repro_migration_downtime_eta_seconds",
                verdict["downtime_eta_s"], run=run,
            )
            sample("repro_migration_aborts_total", s.aborts, run=run)
            sample("repro_migration_stream_missed_total", s.stream_missed, run=run)
            sample(
                "repro_migration_rescue_rungs", s.rescue_rung()["rungs"], run=run
            )
            for cat in sorted(s.wire_by_category):
                sample(
                    "repro_migration_wire_bytes_total",
                    s.wire_by_category[cat], run=run, category=cat,
                )
        for key, quantiles in rollups["measures"].items():
            for q in QUANTILES:
                sample(
                    f"repro_fleet_{key}", quantiles[f"p{int(q * 100)}"],
                    quantile=str(q),
                )
        for cat, quantiles in rollups["wire_bytes"].items():
            for q in QUANTILES:
                sample(
                    "repro_fleet_wire_bytes", quantiles[f"p{int(q * 100)}"],
                    category=cat, quantile=str(q),
                )
        return "\n".join(out) + "\n"

    def render(self, fleet: bool | None = None) -> str:
        """The ASCII board: one detail card for a single migration, a
        rollup table for a fleet (``fleet=True`` forces the latter)."""
        from repro.viz import live_board

        return live_board(self.to_dict(), fleet=fleet)
