"""SQLite-backed multi-run telemetry archive.

One migration produces one stream; a fleet produces thousands, and the
questions change shape: *which* runs aborted on the continental link,
what did iteration 7 of attempt 2 of run ``9f31c02a77d4`` look like?
The archive answers those without re-parsing JSONL: ``repro archive
ingest`` indexes telemetry streams into queryable tables, and every
complete raw line is retained so the exact original stream (and
therefore the exact original
:class:`~repro.telemetry.export.TelemetryDump`) can always be rebuilt —
``--from-archive RUN_ID`` feeds ``repro doctor`` / ``repro compare``
straight from the database.  A file that is not a telemetry stream is
refused with :class:`~repro.errors.TelemetryFormatError`.

Design points:

- **Content-addressed runs.** A run's id is the SHA-256 of the file
  bytes (12 hex chars), so ingest is idempotent: re-ingesting the same
  file is a no-op, and two hosts archiving the same run agree on its
  name.
- **Uses only the stdlib** ``sqlite3`` module, one database file.
- **Old databases stay readable.** A database written when the archive
  also indexed bench payloads keeps those tables and ``kind='bench'``
  runs; they are listed but no longer written, and its telemetry runs
  answer as before.
"""

from __future__ import annotations

import hashlib
import sqlite3
from pathlib import Path

from repro.telemetry.export import TelemetryDump, read_stream

SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id     TEXT UNIQUE NOT NULL,
    kind       TEXT NOT NULL,            -- 'telemetry' (old databases: 'bench')
    name       TEXT NOT NULL,            -- stream schema
    path       TEXT NOT NULL,            -- source file at ingest time
    n_records  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS raw_lines (
    run_id  TEXT NOT NULL,
    line_no INTEGER NOT NULL,
    line    TEXT NOT NULL,
    PRIMARY KEY (run_id, line_no)
);
CREATE TABLE IF NOT EXISTS attempts (
    run_id      TEXT NOT NULL,
    attempt     INTEGER NOT NULL,
    engine      TEXT NOT NULL,
    start_s     REAL NOT NULL,
    end_s       REAL,
    aborted     INTEGER NOT NULL,
    stop_reason TEXT NOT NULL,
    verified    INTEGER,
    PRIMARY KEY (run_id, attempt, start_s)
);
CREATE TABLE IF NOT EXISTS iterations (
    run_id               TEXT NOT NULL,
    attempt              INTEGER NOT NULL,
    idx                  INTEGER NOT NULL,
    start_s              REAL NOT NULL,
    duration_s           REAL NOT NULL,
    pending_pages        INTEGER NOT NULL,
    pages_sent           INTEGER NOT NULL,
    wire_bytes           INTEGER NOT NULL,
    pages_skipped_dirty  INTEGER NOT NULL,
    pages_skipped_bitmap INTEGER NOT NULL,
    is_last              INTEGER NOT NULL,
    is_waiting           INTEGER NOT NULL,
    dirtied_during_bytes INTEGER NOT NULL,
    pages_remaining      INTEGER NOT NULL,
    PRIMARY KEY (run_id, attempt, idx)
);
CREATE TABLE IF NOT EXISTS ledger_buckets (
    run_id    TEXT NOT NULL,
    attempt   INTEGER NOT NULL,
    engine    TEXT NOT NULL,
    dimension TEXT NOT NULL,              -- time_ns / wire_bytes / ...
    category  TEXT NOT NULL,
    value     REAL NOT NULL,
    PRIMARY KEY (run_id, attempt, dimension, category)
);
CREATE TABLE IF NOT EXISTS samples (
    run_id  TEXT NOT NULL,
    series  TEXT NOT NULL,
    time_s  REAL NOT NULL,
    value   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS samples_by_series ON samples (run_id, series, time_s);
"""

#: ledger dict fields broken out into ``ledger_buckets`` rows
LEDGER_DIMENSIONS = ("time_ns", "downtime_s", "wire_bytes", "saved_bytes", "overlays")


def run_id_for(path: str | Path) -> str:
    """Content id of a file: first 12 hex chars of its SHA-256."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:12]


class RunArchive:
    """The archive handle: ingest files, query runs, rebuild streams."""

    def __init__(self, db_path: str | Path = "archive.db") -> None:
        self.db_path = str(db_path)
        self._conn = sqlite3.connect(self.db_path)
        self._conn.executescript(SCHEMA_SQL)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunArchive":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- ingest --------------------------------------------------------------------------

    def ingest(self, path: str | Path) -> tuple[str, bool]:
        """Index one telemetry stream file; returns ``(run_id, created)``.

        Idempotent: a file whose bytes are already archived is skipped.
        Each complete non-blank line is kept, a corrupt one included; a
        torn last line is counted (and warned about) but not kept.
        """
        path = Path(path)
        run_id = run_id_for(path)
        cur = self._conn.execute(
            "SELECT 1 FROM runs WHERE run_id = ?", (run_id,)
        )
        if cur.fetchone() is not None:
            return run_id, False
        data = path.read_bytes()
        dump = read_stream(data, str(path))
        lines = [raw.strip() for raw in data.split(b"\n")[:-1]]
        lines = [raw.decode("utf-8", "replace") for raw in lines if raw]
        self._conn.executemany(
            "INSERT INTO raw_lines (run_id, line_no, line) VALUES (?, ?, ?)",
            [(run_id, i, line) for i, line in enumerate(lines)],
        )
        self._conn.execute(
            "INSERT INTO runs (run_id, kind, name, path, n_records)"
            " VALUES (?, 'telemetry', ?, ?, ?)",
            (run_id, dump.schema, str(path), len(lines)),
        )
        self._index_dump(run_id, dump)
        self._conn.commit()
        return run_id, True

    def _index_dump(self, run_id: str, dump: TelemetryDump) -> None:
        for span in dump.spans:
            if span.get("name") != "migration":
                continue
            args = span.get("args", {})
            verified = args.get("verified")
            self._conn.execute(
                "INSERT OR REPLACE INTO attempts"
                " (run_id, attempt, engine, start_s, end_s, aborted,"
                "  stop_reason, verified)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    int(args.get("attempt", 1)),
                    str(args.get("engine", "")),
                    span.get("start_s", 0.0),
                    span.get("end_s"),
                    1 if args.get("aborted") else 0,
                    str(args.get("stop_reason", args.get("reason", ""))),
                    None if verified is None else (1 if verified else 0),
                ),
            )
        # Iteration table: the latest cumulative `progress` payload per
        # (attempt, index) — waiting sub-iterations stream merged
        # updates of the same record, latest wins.
        for inst in dump.instants:
            if inst.get("name") != "progress":
                continue
            args = inst.get("args", {})
            rec = args.get("record", {})
            self._conn.execute(
                "INSERT OR REPLACE INTO iterations VALUES"
                " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run_id,
                    int(args.get("attempt", 1)),
                    rec["index"],
                    rec["start_s"],
                    rec["duration_s"],
                    rec["pending_pages"],
                    rec["pages_sent"],
                    rec["wire_bytes"],
                    rec["pages_skipped_dirty"],
                    rec["pages_skipped_bitmap"],
                    1 if rec.get("is_last") else 0,
                    1 if rec.get("is_waiting") else 0,
                    rec["dirtied_during_bytes"],
                    rec.get("pages_remaining", 0),
                ),
            )
        for ledger in dump.attributions:
            attempt = int(ledger.get("attempt", 1))
            engine = str(ledger.get("engine", ""))
            for dimension in LEDGER_DIMENSIONS:
                for category, value in ledger.get(dimension, {}).items():
                    self._conn.execute(
                        "INSERT OR REPLACE INTO ledger_buckets VALUES"
                        " (?, ?, ?, ?, ?, ?)",
                        (run_id, attempt, engine, dimension, category, value),
                    )
        for sample in dump.samples:
            if sample.get("type") != "sample":
                continue
            self._conn.execute(
                "INSERT INTO samples (run_id, series, time_s, value)"
                " VALUES (?, ?, ?, ?)",
                (run_id, sample["series"], sample["time_s"], sample["value"]),
            )

    # -- queries -------------------------------------------------------------------------

    def runs(self) -> list[dict]:
        """Every archived run, oldest ingest first."""
        cur = self._conn.execute(
            "SELECT seq, run_id, kind, name, path, n_records"
            " FROM runs ORDER BY seq"
        )
        return [
            dict(zip(("seq", "run_id", "kind", "name", "path", "n_records"), row))
            for row in cur.fetchall()
        ]

    def resolve(self, prefix: str) -> str:
        """Expand a unique run-id prefix to the full id."""
        cur = self._conn.execute(
            "SELECT run_id FROM runs WHERE run_id LIKE ? ORDER BY run_id",
            (prefix + "%",),
        )
        matches = [row[0] for row in cur.fetchall()]
        if not matches:
            raise KeyError(f"no archived run matches {prefix!r}")
        if len(matches) > 1:
            raise KeyError(f"ambiguous run id {prefix!r}: {matches}")
        return matches[0]

    def raw_lines(self, run_id: str) -> list[str]:
        run_id = self.resolve(run_id)
        cur = self._conn.execute(
            "SELECT line FROM raw_lines WHERE run_id = ? ORDER BY line_no",
            (run_id,),
        )
        return [row[0] for row in cur.fetchall()]

    def export_stream(self, run_id: str, out: str | Path) -> int:
        """Write the archived run back out as the original stream file
        (byte-for-byte modulo blank lines and a torn last line); returns
        lines written."""
        lines = self.raw_lines(run_id)
        Path(out).write_text("\n".join(lines) + "\n")
        return len(lines)

    def dump(self, run_id: str) -> TelemetryDump:
        """The archived stream rebuilt as a parsed dump — identical to
        :func:`~repro.telemetry.export.read_jsonl` on the source file,
        save for the torn last line the archive does not keep."""
        lines = self.raw_lines(run_id)
        return read_stream(("\n".join(lines) + "\n").encode("utf-8"), run_id)

    def query(self, run_id: str) -> dict:
        """A structured summary of one archived run."""
        run_id = self.resolve(run_id)
        cur = self._conn.execute(
            "SELECT kind, name, path, n_records FROM runs WHERE run_id = ?",
            (run_id,),
        )
        kind, name, path, n_records = cur.fetchone()
        out = {
            "run_id": run_id, "kind": kind, "name": name,
            "path": path, "n_records": n_records,
        }
        cur = self._conn.execute(
            "SELECT attempt, engine, start_s, end_s, aborted, stop_reason,"
            " verified FROM attempts WHERE run_id = ? ORDER BY start_s",
            (run_id,),
        )
        out["attempts"] = [
            dict(zip(
                ("attempt", "engine", "start_s", "end_s", "aborted",
                 "stop_reason", "verified"), row,
            ))
            for row in cur.fetchall()
        ]
        cur = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(wire_bytes), 0) FROM iterations"
            " WHERE run_id = ?",
            (run_id,),
        )
        n_iter, wire = cur.fetchone()
        out["iterations"] = n_iter
        out["wire_bytes"] = int(wire)
        cur = self._conn.execute(
            "SELECT dimension, category, SUM(value) FROM ledger_buckets"
            " WHERE run_id = ? GROUP BY dimension, category"
            " ORDER BY dimension, category",
            (run_id,),
        )
        ledgers: dict[str, dict] = {}
        for dimension, category, value in cur.fetchall():
            ledgers.setdefault(dimension, {})[category] = value
        out["ledger"] = ledgers
        cur = self._conn.execute(
            "SELECT series, COUNT(*) FROM samples WHERE run_id = ?"
            " GROUP BY series ORDER BY series",
            (run_id,),
        )
        out["samples"] = {series: count for series, count in cur.fetchall()}
        return out
