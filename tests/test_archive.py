"""The SQLite run archive: ingest, query, export parity, refusals."""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.core import MigrationExperiment
from repro.errors import TelemetryFormatError
from repro.telemetry.archive import RunArchive, run_id_for
from repro.telemetry.attribution import attribute_report
from repro.telemetry.export import read_jsonl, write_jsonl
from repro.units import MiB



@pytest.fixture(scope="module")
def stream_file(tmp_path_factory):
    """One finished telemetry export shared by the module's tests."""
    path = tmp_path_factory.mktemp("stream") / "run.jsonl"
    result = MigrationExperiment(
        workload="derby", engine="javmm", warmup_s=10.0, cooldown_s=5.0,
        mem_bytes=MiB(512), max_young_bytes=MiB(128), telemetry=True,
    ).run()
    ledger = attribute_report(result.report).to_dict()
    write_jsonl(path, probe=result.probe, attributions=[ledger])
    return path


def test_run_id_is_content_addressed(stream_file, tmp_path):
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(stream_file.read_bytes())
    assert run_id_for(stream_file) == run_id_for(copy)
    assert len(run_id_for(stream_file)) == 12


def test_ingest_is_idempotent(stream_file, tmp_path):
    with RunArchive(tmp_path / "a.db") as archive:
        run_id, created = archive.ingest(stream_file)
        assert created
        again, created_again = archive.ingest(stream_file)
        assert again == run_id and not created_again
        assert len(archive.runs()) == 1


def test_archived_dump_equals_read_jsonl(stream_file, tmp_path):
    """The archive retains every raw line, so the rebuilt dump is
    exactly what parsing the source file yields."""
    with RunArchive(tmp_path / "a.db") as archive:
        run_id, _ = archive.ingest(stream_file)
        assert archive.dump(run_id) == read_jsonl(stream_file)


def test_export_stream_round_trips(stream_file, tmp_path):
    out = tmp_path / "exported.jsonl"
    with RunArchive(tmp_path / "a.db") as archive:
        run_id, _ = archive.ingest(stream_file)
        archive.export_stream(run_id, out)
    original = [ln for ln in stream_file.read_text().splitlines() if ln.strip()]
    assert out.read_text().splitlines() == original


def test_query_summarizes_a_telemetry_run(stream_file, tmp_path):
    with RunArchive(tmp_path / "a.db") as archive:
        run_id, _ = archive.ingest(stream_file)
        summary = archive.query(run_id)
    assert summary["kind"] == "telemetry"
    assert summary["attempts"] and summary["attempts"][0]["engine"] == "javmm"
    assert not summary["attempts"][0]["aborted"]
    assert summary["iterations"] > 0
    assert summary["wire_bytes"] > 0
    assert "wire_bytes" in summary["ledger"]
    assert summary["samples"]  # per-series sample counts


def test_resolve_accepts_unique_prefixes(stream_file, tmp_path):
    with RunArchive(tmp_path / "a.db") as archive:
        run_id, _ = archive.ingest(stream_file)
        assert archive.resolve(run_id[:6]) == run_id
        with pytest.raises(KeyError):
            archive.resolve("zzzzzz")


# -- bench payloads: refused, and old databases still answer -----------------------------

#: the shape of the retired ``BENCH_*.json`` ratio-bench payloads
BENCH_PAYLOAD = {
    "benchmark": "pr3-telemetry-overhead",
    "overhead_pct": 1.18,
    "runs": [{"workload": "derby", "engine": "xen", "wall_s": 0.5}],
}


def _bench_file(tmp_path) -> Path:
    path = tmp_path / "BENCH_OLD.json"
    path.write_text(json.dumps(BENCH_PAYLOAD, indent=2) + "\n")
    return path


def test_ingest_refuses_a_bench_payload(tmp_path):
    with RunArchive(tmp_path / "a.db") as archive:
        with pytest.raises(TelemetryFormatError, match="not a telemetry stream"):
            archive.ingest(_bench_file(tmp_path))
        assert archive.runs() == []


def test_database_with_bench_rows_still_answers(stream_file, tmp_path):
    """A database written when the archive also indexed bench payloads
    keeps its bench tables and runs; it opens, and its telemetry runs
    answer exactly as in a fresh one."""
    db = tmp_path / "old.db"
    with RunArchive(db) as archive:
        telemetry_id, _ = archive.ingest(stream_file)
        want = archive.query(telemetry_id)
    conn = sqlite3.connect(db)
    conn.executescript(
        "CREATE TABLE bench_runs (run_id TEXT, row_no INTEGER, workload TEXT,"
        " engine TEXT, measure TEXT, value REAL);"
        "CREATE TABLE bench_gates (run_id TEXT, measure TEXT, value REAL);"
        "INSERT INTO runs (run_id, kind, name, path, n_records)"
        " VALUES ('b0b0b0b0b0b0', 'bench', 'pr3-telemetry-overhead',"
        " 'BENCH_OLD.json', 1);"
        "INSERT INTO bench_gates VALUES ('b0b0b0b0b0b0', 'overhead_pct', 1.18);"
    )
    conn.commit()
    conn.close()
    with RunArchive(db) as archive:
        assert [r["kind"] for r in archive.runs()] == ["telemetry", "bench"]
        assert archive.query(telemetry_id) == want
        assert archive.dump(telemetry_id) == read_jsonl(stream_file)


# -- CLI integration ---------------------------------------------------------------------


def test_archive_cli_ingest_query_and_doctor_from_archive(
    stream_file, tmp_path, capsys
):
    from repro.cli import main

    db = str(tmp_path / "cli.db")
    assert main(["archive", "ingest", str(stream_file), "--db", db]) == 0
    out = capsys.readouterr().out
    run_id = out.split()[0]
    assert "ingested" in out

    assert main(["archive", "query", "--db", db]) == 0
    assert run_id in capsys.readouterr().out

    # doctor --from-archive must equal doctor on the original file.
    assert main(["doctor", "--from-archive", run_id, "--db", db]) == 0
    from_archive = capsys.readouterr().out
    assert main(["doctor", str(stream_file)]) == 0
    from_file = capsys.readouterr().out
    assert from_archive == from_file


def test_compare_cli_accepts_archived_runs(stream_file, tmp_path, capsys):
    from repro.cli import main

    db = str(tmp_path / "cli.db")
    main(["archive", "ingest", str(stream_file), "--db", db])
    run_id = capsys.readouterr().out.split()[0]
    # A run compared against itself regresses nothing.
    code = main([
        "compare", str(stream_file),
        "--from-archive", run_id, "--db", db,
    ])
    capsys.readouterr()
    assert code == 0


def test_cli_refuses_bench_payloads_and_the_trend_action(tmp_path, capsys):
    """``compare`` and ``archive ingest`` refuse a bench payload with
    the typed exit code 2, and ``archive trend`` is no action."""
    from repro.cli import main

    bench = str(_bench_file(tmp_path))
    db = str(tmp_path / "cli.db")
    assert main(["archive", "ingest", bench, "--db", db]) == 2
    assert "not a telemetry stream" in capsys.readouterr().err
    assert main(["compare", bench, bench]) == 2
    assert "not a telemetry stream" in capsys.readouterr().err
    assert main(["archive", "trend", "--db", db]) == 2
    assert "unknown archive action 'trend'" in capsys.readouterr().err


def test_archive_cli_rejects_missing_action(capsys):
    from repro.cli import main

    assert main(["archive"]) == 2
