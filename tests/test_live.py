"""Live telemetry streaming: sinks, tails, status and board semantics.

The contract under test is the PR's tentpole: a stream tailed while the
run is in flight must end in *bit-identical* state to a recomputation
from the finished run's report — and the plumbing around it (torn
tails, the stream-gap doctor rule, the watch CLI) must be deterministic
and lossless-or-loud.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.core import MigrationExperiment
from repro.core.experiment import ExperimentRun
from repro.core.supervisor import supervised_migrate
from repro.faults import FaultPlan
from repro.telemetry.attribution import attribute_report
from repro.telemetry.export import SCHEMA, dump_from_records, read_jsonl
from repro.telemetry.live import (
    FileTail,
    FleetBoard,
    JsonlSink,
    LiveStatus,
    percentile,
    watch_file,
)
from repro.units import MiB


def _small_vm() -> dict:
    return {"mem_bytes": MiB(512), "max_young_bytes": MiB(128)}


def _streamed_migration(tmp_path, workload="derby", engine="javmm"):
    """One migration streamed through a JsonlSink; returns (path, result)."""
    path = tmp_path / "run.jsonl"
    experiment = MigrationExperiment(
        workload=workload, engine=engine, warmup_s=10.0, cooldown_s=5.0,
        telemetry=True, **_small_vm(),
    )
    run = ExperimentRun(experiment)
    sink = JsonlSink(path)
    run.vm.probe.sink = sink
    run.vm.event_log.sink = sink
    result = run.run()
    ledgers = [attribute_report(result.report).to_dict()]
    sink.finalize(probe=run.vm.probe, attributions=ledgers)
    return path, result


# -- sinks -------------------------------------------------------------------------------


def test_jsonl_sink_line_flush_is_tailable_before_close(tmp_path):
    path = tmp_path / "s.jsonl"
    sink = JsonlSink(path)
    sink.emit({"type": "instant", "name": "phase", "track": "t",
               "time_s": 1.0, "args": {}})
    # No close yet — the record (and the injected meta header) must
    # already be durable enough for a concurrent tail to read.
    records = FileTail(path).poll()
    assert [r["type"] for r in records] == ["meta", "instant"]
    assert records[0]["schema"] == SCHEMA
    sink.close()


def test_jsonl_sink_truncates_a_stale_file(tmp_path):
    """A fresh sink pointed at an existing export must overwrite it, not
    append — otherwise a tail folds two concatenated runs into one
    status (double-counted rescues and aborts)."""
    path = tmp_path / "s.jsonl"
    path.write_text('{"type": "event", "time_s": 0.0, "source": "stale", '
                    '"message": "old run"}\n')
    sink = JsonlSink(path)
    sink.emit({"type": "event", "time_s": 1.0, "source": "a", "message": "new"})
    sink.close()
    records = FileTail(path).poll()
    assert [r.get("message") for r in records] == [None, "new"]


def test_streamed_file_parses_identically_to_batch_export(tmp_path):
    """A finalized stream and write_jsonl must yield the same dump —
    same spans, instants, events, metrics, samples and attributions —
    even though the stream interleaves records in emission order."""
    path, result = _streamed_migration(tmp_path)
    dump = read_jsonl(path)
    assert dump.schema == SCHEMA
    assert dump.spans and dump.instants and dump.events
    assert dump.metrics and dump.samples and dump.attributions
    assert not dump.unknown_records
    # Spans arrive only at finalize, so each span exists exactly once.
    migration_spans = [s for s in dump.spans if s["name"] == "migration"]
    assert len(migration_spans) == 1


def test_jsonl_sink_survives_pickling_and_appends(tmp_path):
    path = tmp_path / "s.jsonl"
    sink = JsonlSink(path)
    sink.emit({"type": "event", "time_s": 1.0, "source": "a", "message": "x"})
    restored = pickle.loads(pickle.dumps(sink))
    restored.emit({"type": "event", "time_s": 2.0, "source": "a", "message": "y"})
    restored.close()
    records = FileTail(path).poll()
    assert [r.get("message") for r in records] == [None, "x", "y"]


def test_restored_jsonl_sink_cuts_what_was_written_after_its_pickle(tmp_path):
    """A sink restored from a checkpoint truncates the file back to the
    length it had written when pickled: what a crashed run wrote later
    (a torn line included) is re-emitted by the resumed run."""
    path = tmp_path / "s.jsonl"
    sink = JsonlSink(path)
    sink.emit({"type": "event", "time_s": 1.0, "source": "a", "message": "x"})
    state = pickle.dumps(sink)
    sink.emit({"type": "event", "time_s": 2.0, "source": "a", "message": "y"})
    with open(path, "a") as fh:
        fh.write('{"type": "event", "time_s": 3.0, "sou')  # the crash
    restored = pickle.loads(state)
    restored.emit({"type": "event", "time_s": 2.0, "source": "a", "message": "y"})
    restored.close()
    dump = read_jsonl(path)
    assert [e["message"] for e in dump.events] == ["x", "y"]
    assert (dump.corrupt_lines, dump.torn_lines) == (0, 0)


def test_restored_jsonl_sink_refuses_a_shorter_stream(tmp_path):
    from repro.errors import CheckpointError

    path = tmp_path / "s.jsonl"
    sink = JsonlSink(path)
    sink.emit({"type": "event", "time_s": 1.0, "source": "a", "message": "x"})
    restored = pickle.loads(pickle.dumps(sink))
    path.write_text("")
    with pytest.raises(CheckpointError, match="fewer than"):
        restored.emit({"type": "event", "time_s": 2.0, "source": "a",
                       "message": "y"})


def test_resumed_stream_is_the_uncrashed_stream(tmp_path, capsys):
    """Crash 0.3 s past a checkpoint and finish with ``repro resume``:
    the stream the crashed run was writing ends as a complete export
    whose instants, events and samples equal an uncrashed run's — none
    of what the crashed run wrote past its checkpoint is left twice."""
    from repro.checkpoint import CheckpointConfig, Checkpointer, SimulatedCrash
    from repro.cli import main
    from repro.service.session import SessionConfig

    whole = tmp_path / "whole.jsonl"
    assert main([
        "migrate", "--workload", "derby", "--engine", "javmm",
        "--mem-mb", "512", "--young-mb", "128", "--warmup-s", "2",
        "--cooldown-s", "1", "--json", "--telemetry-out", str(whole),
    ]) == 0
    expected = json.loads(capsys.readouterr().out)

    crashed = tmp_path / "crashed.jsonl"
    ckpts = str(tmp_path / "ckpts")
    spec = SessionConfig(workload="derby", engine="javmm", mem_mb=512,
                         young_mb=128, warmup_s=2.0, cooldown_s=1.0)
    driver = spec.build_driver(JsonlSink(crashed))
    with pytest.raises(SimulatedCrash):
        # checkpoints at every 0.5 s; tick 560 is t = 2.8 s
        driver.run(Checkpointer(CheckpointConfig(
            directory=ckpts, every_s=0.5, crash_at_tick=560, max_overhead=None,
        )))
    assert main(["resume", "--checkpoint-dir", ckpts, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["final_digest"] == expected["final_digest"]

    want, got = read_jsonl(whole), read_jsonl(crashed)
    assert got.instants == want.instants
    assert got.events == want.events
    assert got.samples == want.samples
    assert got.spans and got.metrics
    assert got.attributions == want.attributions == payload["attribution"]
    post = LiveStatus.from_report(payload, name="m")
    assert watch_file(crashed, name="m").to_dict() == post.to_dict()


def test_resume_refuses_a_second_stream(tmp_path, capsys):
    """A resumed run finalizes the stream its checkpoint carries; it
    does not start a second, partial one."""
    from repro.cli import main

    other = tmp_path / "other.jsonl"
    assert main(["resume", "--checkpoint-dir", str(tmp_path / "ckpts"),
                 "--telemetry-out", str(other)]) == 2
    assert "cannot start another" in capsys.readouterr().err
    assert not other.exists()


# -- file tails --------------------------------------------------------------------------


def test_file_tail_is_incremental(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"type": "meta", "schema": "s"}\n')
    tail = FileTail(path)
    assert len(tail.poll()) == 1
    assert tail.poll() == []  # nothing new
    with open(path, "a") as fh:
        fh.write('{"type": "event", "time_s": 1.0, "source": "a", "message": "m"}\n')
    new = tail.poll()
    assert len(new) == 1 and new[0]["type"] == "event"


def test_file_tail_leaves_torn_tail_unconsumed(tmp_path):
    """A mid-record crash leaves a partial last line; the tail must not
    consume it, and must resume cleanly at the same offset once the
    record completes."""
    path = tmp_path / "t.jsonl"
    whole = '{"type": "event", "time_s": 1.0, "source": "a", "message": "m"}\n'
    torn = '{"type": "event", "time_s": 2.0, "sour'
    path.write_text(whole + torn)
    tail = FileTail(path)
    first = tail.poll()
    assert len(first) == 1 and first[0]["time_s"] == 1.0
    assert tail.poll() == []  # torn tail stays pending, offset frozen
    offset_before = tail.offset
    with open(path, "a") as fh:
        fh.write('ce": "a", "message": "n"}\n')
    resumed = tail.poll()
    assert tail.offset > offset_before
    assert len(resumed) == 1 and resumed[0]["message"] == "n"
    assert tail.corrupt_lines == 0


def test_file_tail_with_only_a_torn_record_returns_nothing(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"type": "ev')  # crash before the first newline
    tail = FileTail(path)
    assert tail.poll() == []
    assert tail.offset == 0


def test_file_tail_counts_corrupt_complete_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('not json at all\n{"type": "meta", "schema": "s"}\n')
    tail = FileTail(path)
    records = tail.poll()
    assert len(records) == 1
    assert tail.corrupt_lines == 1


def test_file_tail_on_missing_file_returns_nothing(tmp_path):
    assert FileTail(tmp_path / "absent.jsonl").poll() == []


# -- live status vs post-mortem ----------------------------------------------------------


def test_live_status_matches_post_mortem_bit_for_bit(tmp_path):
    path, result = _streamed_migration(tmp_path)
    live = watch_file(path, name="m")
    post = LiveStatus.from_report(result.report, name="m")
    assert live.finished
    assert live.to_dict() == post.to_dict()


def test_live_status_tracks_aborts_across_supervised_attempts(tmp_path):
    path = tmp_path / "run.jsonl"
    sink = JsonlSink(path)
    plan = FaultPlan().kill_destination(at_s=2.0)
    result, vm = supervised_migrate(
        workload="derby", engine_name="javmm", plan=plan, seed=11,
        vm_kwargs=_small_vm(), telemetry=True, telemetry_sink=sink,
        max_attempts=3,
    )
    ledgers = [
        attribute_report(rec.report).to_dict()
        for rec in result.attempts
        if rec.report is not None
    ]
    sink.finalize(probe=vm.probe, attributions=ledgers)
    assert result.n_attempts > 1  # the fault really forced a retry
    live = watch_file(path, name="m")
    post = LiveStatus.from_result(result, name="m")
    assert live.aborts == result.n_attempts - (1 if result.ok else 0)
    assert live.to_dict() == post.to_dict()


def test_live_status_mid_stream_is_a_prefix_of_the_final_state(tmp_path):
    """Feeding only a prefix of the stream gives an unfinished status
    whose iteration table is a prefix of the final one."""
    path, result = _streamed_migration(tmp_path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    progress_idx = [
        i for i, r in enumerate(records)
        if r.get("type") == "instant" and r.get("name") == "progress"
    ]
    cut = progress_idx[1] + 1  # stop right after the second progress
    partial = LiveStatus(name="m").feed_all(records[:cut])
    final = LiveStatus(name="m").feed_all(records)
    assert not partial.finished
    assert final.finished
    assert partial.iterations <= final.iterations
    final_by_idx = {r["index"]: r for r in final.iteration_table()}
    for rec in partial.iteration_table()[:-1]:
        # All but the last fed record are closed and final.
        assert final_by_idx[rec["index"]] == rec


def test_live_status_unaffected_by_stream_gap_counters(tmp_path):
    """Dropped-event accounting is surfaced on the status object but
    excluded from the canonical dict (a post-mortem recomputation has
    no stream to lose records from)."""
    path, result = _streamed_migration(tmp_path)
    live = watch_file(path, name="m")
    live.events_dropped = 123
    live.stream_missed = 45
    assert live.to_dict() == LiveStatus.from_report(result.report, name="m").to_dict()


# -- fleet board -------------------------------------------------------------------------


def test_percentile_is_deterministic_linear_interpolation():
    vals = [4, 1, 3, 2]
    assert percentile(vals, 0.5) == 2.5
    assert percentile(vals, 0.0) == 1.0
    assert percentile(vals, 1.0) == 4.0
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0


def test_fleet_board_rollups_and_prom_text_are_deterministic(tmp_path):
    path, result = _streamed_migration(tmp_path)
    status_a = watch_file(path, name="alpha")
    status_b = watch_file(path, name="beta")

    board1 = FleetBoard()
    board1.update(status_a)
    board1.update(status_b)
    board2 = FleetBoard()
    board2.update(status_b)  # reversed insertion order
    board2.update(status_a)

    assert board1.to_dict() == board2.to_dict()
    prom = board1.to_prom_text()
    assert prom == board2.to_prom_text()
    assert "repro_migrations 2" in prom
    assert 'repro_migration_pages_remaining{run="alpha"}' in prom
    assert 'repro_fleet_dirty_rate_bytes_s{quantile="0.5"}' in prom
    assert 'category=' in prom
    rollups = board1.rollups()
    assert rollups["n"] == 2
    # Two copies of the same run: every percentile equals the value.
    measures = rollups["measures"]["dirty_rate_bytes_s"]
    assert measures["p50"] == measures["p95"] == measures["p99"]


def test_fleet_board_render_modes(tmp_path):
    path, _ = _streamed_migration(tmp_path)
    board = FleetBoard()
    board.update(watch_file(path, name="solo"))
    single = board.render()
    assert "migration solo" in single
    fleet = board.render(fleet=True)
    assert "fleet: 1 migration(s)" in fleet


# -- stream-gap doctor rule --------------------------------------------------------------


def _gap_dump(extra_records=()):
    records = [
        {"type": "meta", "schema": SCHEMA},
        {"type": "span", "id": 1, "name": "migration", "track": "t",
         "start_s": 0.0, "end_s": 5.0, "cat": "migration", "parent_id": None,
         "args": {"engine": "javmm", "attempt": 1}},
    ]
    records.extend(extra_records)
    return dump_from_records(records)


def test_doctor_flags_convergence_series_drops_as_stream_gap():
    from repro.telemetry.analysis import Doctor

    dump = _gap_dump([
        {"type": "series_dropped", "series": "migration.dirty_rate_bytes_s",
         "dropped": 40},
        {"type": "series_dropped", "series": "migration.pages_remaining",
         "dropped": 2},
        # A non-convergence series drop stays event-loss territory.
        {"type": "series_dropped", "series": "jvm.gc_pause_s", "dropped": 99},
    ])
    findings = Doctor().diagnose(dump).by_rule("stream-gap")
    assert len(findings) == 1
    finding = findings[0]
    assert finding.severity == "warning"
    assert "42" in finding.title
    assert "migration.dirty_rate_bytes_s lost 40" in finding.detail
    assert "series:migration.pages_remaining" in finding.evidence


def test_doctor_flags_unknown_record_kinds_as_stream_gap():
    import warnings

    from repro.telemetry.analysis import Doctor

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dump = _gap_dump([
            {"type": "hologram", "x": 1},
            {"type": "hologram", "x": 2},
        ])
    findings = Doctor().diagnose(dump).by_rule("stream-gap")
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert "hologram x2" in findings[0].detail


def test_doctor_stream_gap_event_threshold():
    from repro.telemetry.analysis import Doctor

    quiet = _gap_dump([{"type": "event_log_dropped", "dropped": 10}])
    assert Doctor().diagnose(quiet).by_rule("stream-gap") == []
    noisy = _gap_dump([{"type": "event_log_dropped", "dropped": 20_000}])
    findings = Doctor().diagnose(noisy).by_rule("stream-gap")
    assert len(findings) == 1 and findings[0].severity == "warning"
    # Tunable like every other threshold.
    assert Doctor(stream_gap_events=5).diagnose(quiet).by_rule("stream-gap")


# -- damaged streams: one decoder, counted losses ---------------------------------------


def _damaged(tmp_path):
    """A finished stream with one corrupt middle line (cut short, with
    a byte that is not UTF-8) and a torn tail."""
    path, result = _streamed_migration(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    lines[middle] = lines[middle][: len(lines[middle]) // 2] + b"\xff\n"
    lines.append(b'{"type": "event", "time_s": 99.0, "sou')
    path.write_bytes(b"".join(lines))
    return path, result


def test_read_jsonl_counts_corrupt_and_torn_lines_with_one_warning(tmp_path):
    from repro.telemetry.analysis import Doctor

    path, _ = _damaged(tmp_path)
    with pytest.warns(UserWarning) as caught:
        dump = read_jsonl(path)
    assert len(caught) == 1
    assert "1 corrupt telemetry line(s) and 1 torn" in str(caught[0].message)
    assert (dump.corrupt_lines, dump.torn_lines) == (1, 1)
    assert dump.spans and dump.attributions
    [finding] = [
        f for f in Doctor().diagnose(dump).by_rule("stream-gap")
        if "line" in f.title
    ]
    assert finding.severity == "warning"
    assert "1 corrupt" in finding.detail and "1 torn" in finding.detail


def test_decoder_counts_over_deep_nesting_as_corrupt():
    from repro.telemetry.export import decode_stream

    data = b'{"type": "meta"}\n' + b"[" * 60000 + b"\n" + b"[1]\n\n{}\n"
    records, consumed, corrupt = decode_stream(data + b'{"type"')
    assert records == [{"type": "meta"}]
    assert consumed == len(data)
    assert corrupt == 3


@pytest.mark.filterwarnings("ignore:skipped 1 corrupt")
def test_every_reader_takes_a_damaged_stream(tmp_path, capsys):
    """doctor, attribute, compare and archive ingest read a stream with
    a corrupt middle line and a torn tail without a traceback; watch
    reports the corrupt line it skipped."""
    from repro.cli import main

    path, _ = _damaged(tmp_path)
    assert main(["doctor", str(path)]) == 0
    assert "stream-gap" in capsys.readouterr().out
    assert main(["attribute", str(path), "--audit"]) == 0
    assert main(["compare", str(path), str(path)]) == 0
    db = str(tmp_path / "archive.db")
    assert main(["archive", "ingest", str(path), "--db", db]) == 0
    capsys.readouterr()
    assert main(["watch", str(path), "--json"]) == 0
    board = json.loads(capsys.readouterr().out)
    assert board["stream_missed"] == {"run": 1}
    assert main(["watch", str(path)]) == 0
    assert "skipped 1 corrupt line(s)" in capsys.readouterr().out


def test_a_file_that_is_no_stream_is_refused(tmp_path, capsys):
    from repro.cli import main
    from repro.errors import TelemetryFormatError

    path = tmp_path / "notes.txt"
    path.write_text("these are not\ntelemetry records\n")
    with pytest.raises(TelemetryFormatError, match="notes.txt"):
        read_jsonl(path)
    for command in (["doctor"], ["attribute"], ["archive", "ingest"]):
        assert main([*command, str(path), "--db", str(tmp_path / "a.db")]) == 2
        assert "notes.txt: not a telemetry stream" in capsys.readouterr().err


# -- the watch CLI -----------------------------------------------------------------------


def test_watch_cli_board_matches_post_mortem_report(tmp_path, capsys):
    from repro.cli import main

    stream = tmp_path / "run.jsonl"
    prom = tmp_path / "board.prom"
    code = main([
        "migrate", "--workload", "crypto", "--engine", "javmm",
        "--mem-mb", "512", "--young-mb", "128", "--json",
        "--telemetry-out", str(stream),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)

    code = main(["watch", str(stream), "--json", "--prom-out", str(prom)])
    out = capsys.readouterr().out
    assert code == 0
    board = json.loads(out)
    assert len(board["migrations"]) == 1

    # The board the tail computed equals the board recomputed from the
    # run's own JSON report — the CI live-board assertion, in-process.
    post = LiveStatus.from_report(payload, name="run")
    assert board["migrations"][0] == post.to_dict()
    assert prom.read_text().startswith("# TYPE repro_migrations gauge")


def test_migrate_telemetry_out_is_a_complete_export(tmp_path, capsys):
    from repro.cli import main

    stream = tmp_path / "run.jsonl"
    assert main([
        "migrate", "--workload", "derby", "--engine", "javmm",
        "--mem-mb", "512", "--young-mb", "128", "--warmup-s", "2",
        "--cooldown-s", "1", "--json", "--telemetry-out", str(stream),
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    dump = read_jsonl(stream)
    assert dump.spans and dump.metrics and dump.instants and dump.samples
    assert dump.attributions == payload["attribution"]
    post = LiveStatus.from_report(payload, name="run")
    assert watch_file(stream).to_dict() == post.to_dict()


def test_watch_cli_needs_an_input(capsys):
    from repro.cli import main

    assert main(["watch"]) == 2
