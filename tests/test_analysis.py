"""The analysis stack: time-series, convergence monitor, doctor, compare.

Unit tests drive the classifier and rules on synthetic observations;
the integration tests run real supervised migrations (healthy, stalled
by a permanent link outage, diverging over a starved link) and assert
the headline property of the pipeline: the offline replay of an export
reproduces the online monitor's verdict exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.core.builders import JavaVM
from repro.core.supervisor import MigrationSupervisor
from repro.errors import TelemetryFormatError
from repro.faults import FaultInjector, FaultPlan
from repro.mem.constants import PAGE_SIZE
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.sim.eventlog import EventLog
from repro.telemetry.analysis import (
    ConvergenceMonitor,
    ConvergenceState,
    Doctor,
    compare_runs,
    compare_summaries,
    load_run,
    replay_convergence,
    replay_convergence_segments,
)
from repro.telemetry.export import SCHEMA, TelemetryDump, read_jsonl, write_jsonl
from repro.telemetry.probe import Probe
from repro.telemetry.timeseries import Series, TimeseriesStore
from repro.units import mbit_per_s
from repro.viz import timeseries_sparkline
from repro.workloads.analyzer import Analyzer

from tests.conftest import TINY, build_tiny_vm

# ---------------------------------------------------------------------------
# TimeseriesStore
# ---------------------------------------------------------------------------


def test_series_bounded_keeps_newest():
    store = TimeseriesStore(max_samples_per_series=4)
    for i in range(7):
        store.add("s", float(i), float(i * 10))
    series = store.series("s")
    assert len(series) == 4
    assert series.dropped == 3
    assert list(series.values) == [30.0, 40.0, 50.0, 60.0]
    assert series.last == 60.0


def test_store_round_trip_preserves_values_and_drop_counts():
    store = TimeseriesStore(max_samples_per_series=3)
    for i in range(5):
        store.add("a", float(i), float(i))
    store.add("b", 0.0, 42.0)
    rebuilt = TimeseriesStore.from_records(store.to_records())
    assert rebuilt.names() == ["a", "b"]
    assert rebuilt.get("a") == store.get("a")
    assert rebuilt.series("a").dropped == 2
    assert rebuilt.series("b").dropped == 0
    assert rebuilt.total_samples == store.total_samples


def test_store_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        TimeseriesStore(max_samples_per_series=0)


def test_store_get_missing_series_is_empty():
    store = TimeseriesStore()
    assert store.get("nope") == ([], [])
    assert store.series("nope") is None
    assert "nope" not in store


# ---------------------------------------------------------------------------
# Sparklines (satellite: repro.viz)
# ---------------------------------------------------------------------------


def test_sparkline_renders_range_label():
    out = timeseries_sparkline([0.0, 1.0, 2.0], [1.0, 5.0, 3.0], label="x")
    assert out.startswith("x: [")
    assert "min 1" in out and "max 5" in out and "n=3" in out


def test_sparkline_empty_and_missing_series_degrade():
    assert "(no samples)" in timeseries_sparkline([], [], label="x")
    assert "(no samples)" in timeseries_sparkline(None)
    # mismatched lengths must not raise either
    assert "(no samples)" in timeseries_sparkline([1.0], [1.0, 2.0], label="x")


def test_sparkline_accepts_series_object():
    series = Series("jvm.gc_pause_s")
    series.add(1.0, 0.5)
    series.add(2.0, 0.7)
    out = timeseries_sparkline(series)
    assert out.startswith("jvm.gc_pause_s:")
    assert "n=2" in out


def test_sparkline_flat_series_renders_mid_glyph():
    out = timeseries_sparkline([0.0, 1.0], [3.0, 3.0], label="flat")
    assert "min 3 max 3" in out


def test_sparkline_downsamples_wide_series():
    times = [float(i) for i in range(500)]
    out = timeseries_sparkline(times, times, label="wide", width=40)
    assert "n=40" in out


# ---------------------------------------------------------------------------
# ConvergenceMonitor (synthetic observations)
# ---------------------------------------------------------------------------

BW = 100e6  # a healthy 100 MB/s effective bandwidth


def feed(monitor, rows):
    for t, rate, bw, rem in rows:
        monitor.observe(t, rate, bw, rem)
    return monitor.diagnosis


def test_unknown_before_min_iterations():
    mon = ConvergenceMonitor()
    diag = feed(mon, [(1.0, 10e6, BW, 100_000)])
    assert diag.state is ConvergenceState.UNKNOWN
    assert "1 iteration" in diag.summary()


def test_single_zero_bandwidth_observation_is_stalled():
    mon = ConvergenceMonitor()
    diag = feed(mon, [(2.0, 10e6, 0.0, 100_000)])
    assert diag.state is ConvergenceState.STALLED
    assert "nothing is reaching the wire" in diag.reason


def test_converging_decay_has_finite_eta():
    mon = ConvergenceMonitor()
    rows = [
        (float(k), 0.2 * BW, BW, 1_000_000 * 0.5 ** k) for k in range(1, 6)
    ]
    diag = feed(mon, rows)
    assert diag.state is ConvergenceState.CONVERGING
    assert diag.eta_s is not None and diag.eta_s >= 0
    assert diag.downtime_eta_s is not None and diag.downtime_eta_s > 0
    assert diag.ratio == pytest.approx(0.2)


def test_diverging_when_set_stuck_above_budget():
    mon = ConvergenceMonitor()
    rows = [(float(k), 3 * BW, BW, 2_000_000) for k in range(1, 8)]
    diag = feed(mon, rows)
    assert diag.state is ConvergenceState.DIVERGING
    assert diag.eta_s is None
    assert "DIVERGING" in diag.summary()


def test_adverse_ratio_with_stoppable_set_stays_converging():
    # remaining fits comfortably in the downtime budget: however fast the
    # guest churns, the daemon can stop at will -> never DIVERGING.
    mon = ConvergenceMonitor()
    budget_pages = BW * mon.downtime_budget_s / PAGE_SIZE
    rows = [(float(k), 3 * BW, BW, budget_pages / 10) for k in range(1, 8)]
    diag = feed(mon, rows)
    assert diag.state is ConvergenceState.CONVERGING
    assert "downtime budget" in diag.reason


def test_tiny_remaining_set_is_converged_even_with_idle_link():
    # javmm waiting-for-apps: nothing pending, so nothing is sent; an
    # empty transfer set must read as converged, not stalled.
    mon = ConvergenceMonitor()
    rows = [(float(k), 5e6, 0.0, 10) for k in range(1, 6)]
    diag = feed(mon, rows)
    assert diag.state is ConvergenceState.CONVERGING
    assert "below the stop threshold" in diag.reason


def test_stalled_window_detected():
    mon = ConvergenceMonitor()
    rows = [(float(k), 10e6, 10.0, 500_000) for k in range(1, 6)]
    diag = feed(mon, rows)
    assert diag.state is ConvergenceState.STALLED


def test_slow_shrink_does_not_excuse_adverse_ratio():
    # Trend is (barely) negative, but at this pace the set reaches
    # stoppable size long after the horizon: still DIVERGING.
    mon = ConvergenceMonitor()
    rows = [
        (float(k), 3 * BW, BW, 2_000_000 - 10 * k) for k in range(1, 8)
    ]
    diag = feed(mon, rows)
    assert diag.state is ConvergenceState.DIVERGING


def test_replay_matches_online_observation_for_observation():
    rows = [
        (1.0, 0.5 * BW, BW, 50_000),
        (2.0, 2.0 * BW, BW, 60_000),
        (3.0, 3.0 * BW, BW, 900_000),
        (4.0, 3.0 * BW, BW, 900_000),
        (5.0, 3.0 * BW, BW, 900_000),
        (6.0, 3.0 * BW, BW, 900_000),
    ]
    online = ConvergenceMonitor()
    for row in rows:
        online.observe(*row)
    replayed = ConvergenceMonitor.replay(
        [r[0] for r in rows], [r[1] for r in rows],
        [r[2] for r in rows], [r[3] for r in rows],
    )
    assert [d.state for d in online.history] == [
        d.state for d in replayed.history
    ]
    assert online.diagnosis.summary() == replayed.diagnosis.summary()


def test_window_requires_two_iterations():
    with pytest.raises(ValueError):
        ConvergenceMonitor(window=1)


# ---------------------------------------------------------------------------
# Doctor rules (synthetic dumps)
# ---------------------------------------------------------------------------


def _sample(series, t, v):
    return {"type": "sample", "series": series, "time_s": t, "value": v}


def _conv_samples(rows):
    out = []
    for t, rate, bw, rem in rows:
        out.append(_sample("migration.dirty_rate_bytes_s", t, rate))
        out.append(_sample("migration.eff_bandwidth_bytes_s", t, bw))
        out.append(_sample("migration.pages_remaining", t, rem))
    return out


def test_rule_convergence_reports_diverging_as_critical():
    dump = TelemetryDump(
        samples=_conv_samples(
            [(float(k), 3 * BW, BW, 2_000_000) for k in range(1, 8)]
        )
    )
    report = Doctor().diagnose(dump)
    conv = report.by_rule("convergence")
    assert len(conv) == 1
    assert conv[0].severity == "critical"
    assert "DIVERGING" in conv[0].title
    assert "series:migration.dirty_rate_bytes_s" in conv[0].evidence


def test_rule_convergence_surfaces_worst_verdict_across_attempts():
    # Attempt 1 stalls (and aborts); attempt 2 converges.  The abort
    # instant separates the segments, and the finding must cite the
    # STALLED attempt even though the final attempt is healthy.
    stall = [(float(k), 10e6, 0.0, 500_000) for k in range(1, 4)]
    healthy = [(10.0 + k, 0.1 * BW, BW, 100_000 * 0.5 ** k) for k in range(1, 6)]
    dump = TelemetryDump(
        samples=_conv_samples(stall) + _conv_samples(healthy),
        instants=[{"name": "abort", "time_s": 5.0, "args": {}}],
    )
    segments = replay_convergence_segments(dump)
    assert len(segments) == 2
    assert segments[0].diagnosis.state is ConvergenceState.STALLED
    assert segments[1].diagnosis.state is ConvergenceState.CONVERGING
    # replay_convergence == the final attempt's monitor
    assert replay_convergence(dump).diagnosis.state is ConvergenceState.CONVERGING
    conv = Doctor().diagnose(dump).by_rule("convergence")
    assert len(conv) == 1
    assert "STALLED" in conv[0].title
    assert "recovered to CONVERGING" in conv[0].detail


def test_rule_dirty_vs_bandwidth_quiet_when_set_drained():
    # Adverse ratios everywhere, but the final dirty set is below the
    # stop threshold (javmm's skip bitmap absorbed the churn): no finding.
    rows = [(float(k), 3 * BW, BW, 40) for k in range(1, 8)]
    dump = TelemetryDump(samples=_conv_samples(rows))
    assert Doctor().diagnose(dump).by_rule("dirty-vs-bandwidth") == []


def test_rule_gc_interference_gates_on_mean_not_peak():
    one_burst = [_sample("jvm.gc_pause_budget", float(k), 0.0) for k in range(9)]
    one_burst.append(_sample("jvm.gc_pause_budget", 9.0, 1.0))
    assert Doctor().diagnose(
        TelemetryDump(samples=one_burst)
    ).by_rule("gc-interference") == []

    sustained = [_sample("jvm.gc_pause_budget", float(k), 0.5) for k in range(10)]
    findings = Doctor().diagnose(
        TelemetryDump(samples=sustained)
    ).by_rule("gc-interference")
    assert len(findings) == 1
    assert "50%" in findings[0].title


def test_rule_retransmit_cites_fault_windows():
    dump = TelemetryDump(
        metrics=[
            {"name": "net.wire_bytes", "labels": {}, "value": 1000.0},
            {"name": "net.retransmit_wire_bytes", "labels": {}, "value": 200.0},
        ],
        spans=[{
            "id": 9, "name": "fault-window", "start_s": 1.0, "end_s": 2.0,
            "args": {},
        }],
    )
    findings = Doctor().diagnose(dump).by_rule("retransmit")
    assert len(findings) == 1
    assert "20%" in findings[0].title
    assert "span:9" in findings[0].evidence


def test_rule_aborts_and_slow_downtime_from_spans():
    dump = TelemetryDump(
        spans=[
            {"id": 1, "name": "migration", "start_s": 0.0, "end_s": 4.0,
             "args": {"aborted": True, "abort_reason": "link died"}},
            {"id": 2, "name": "stop-and-copy", "start_s": 5.0, "end_s": 7.5,
             "args": {}},
            {"id": 3, "name": "resume", "start_s": 7.5, "end_s": 7.6,
             "args": {}},
        ]
    )
    report = Doctor().diagnose(dump)
    aborts = report.by_rule("aborts")
    assert len(aborts) == 1 and aborts[0].severity == "critical"
    assert "link died" in aborts[0].detail
    slow = report.by_rule("slow-downtime")
    assert len(slow) == 1
    assert "2.60s" in slow[0].title
    # critical ranks before warning
    assert report.findings[0].rule == "aborts"
    assert report.worst == "critical"


def test_rule_event_loss_reports_both_ring_buffers():
    dump = TelemetryDump(
        samples=[{"type": "series_dropped", "series": "s", "dropped": 7}],
        dropped_events=13,
    )
    findings = Doctor().diagnose(dump).by_rule("event-loss")
    assert len(findings) == 2
    assert all(f.severity == "info" for f in findings)
    assert any("13" in f.title for f in findings)
    assert any("7" in f.title for f in findings)


def test_rule_resumed_run_sizes_the_reexecution_gap():
    # checkpoint at t=10, crashed run journaled up to t=12: a 2s gap,
    # within the default 5s budget -> info
    dump = TelemetryDump(
        spans=[{
            "id": 4, "name": "checkpoint-restore", "start_s": 10.0,
            "end_s": 10.0,
            "args": {"tick": 2000, "checkpoint_t": 10.0,
                     "journal_last_t": 12.0, "replayed_entries": 3},
        }]
    )
    findings = Doctor().diagnose(dump).by_rule("resumed-run")
    assert len(findings) == 1
    assert findings[0].severity == "info"
    assert "t=10.00s" in findings[0].title
    assert "2.00s of simulated time re-executed" in findings[0].detail
    assert "span:4" in findings[0].evidence


def test_rule_resumed_run_warns_when_gap_exceeds_budget():
    span = {
        "id": 5, "name": "checkpoint-restore", "start_s": 3.0, "end_s": 3.0,
        "args": {"checkpoint_t": 3.0, "journal_last_t": 11.0},
    }
    findings = Doctor().diagnose(TelemetryDump(spans=[span])).by_rule(
        "resumed-run"
    )
    assert len(findings) == 1
    assert findings[0].severity == "warning"
    assert "faster checkpoint cadence" in findings[0].detail
    # a run that never restored stays quiet
    assert Doctor().diagnose(TelemetryDump()).by_rule("resumed-run") == []
    # and the budget is an override like every other threshold
    lax = Doctor(resume_gap_s=20.0)
    assert lax.diagnose(TelemetryDump(spans=[span])).findings[0].severity == "info"


def test_doctor_healthy_dump_renders_no_findings():
    report = Doctor().diagnose(TelemetryDump())
    assert report.findings == []
    assert "no findings" in report.render()


def test_doctor_threshold_overrides():
    dump = TelemetryDump(
        spans=[{"id": 2, "name": "stop-and-copy", "start_s": 5.0,
                "end_s": 5.5, "args": {}}]
    )
    assert Doctor().diagnose(dump).by_rule("slow-downtime") == []
    strict = Doctor(downtime_budget_s=0.1)
    assert len(strict.diagnose(dump).by_rule("slow-downtime")) == 1


# ---------------------------------------------------------------------------
# Comparator
# ---------------------------------------------------------------------------


def _run(**measures):
    """A one-run summary, keyed the way ``summarize_dump`` keys it."""
    return {"migration": measures}


def _stream(tmp_path, name, downtime_s):
    """A minimal telemetry export whose one measure is its downtime."""
    records = [
        {"type": "meta", "schema": SCHEMA},
        {"type": "span", "id": 1, "name": "stop-and-copy", "start_s": 10.0,
         "end_s": 10.0 + downtime_s, "args": {}},
    ]
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def test_compare_identical_bench_runs_pass():
    a = _run(downtime_s=1.0, wire_bytes=1e8)
    result = compare_summaries(a, dict(a))
    assert not result.regressed
    assert result.exit_code == 0
    assert "no regression" in result.render()


def test_compare_detects_downtime_regression():
    a = _run(downtime_s=1.0, wire_bytes=1e8)
    b = _run(downtime_s=1.2, wire_bytes=1e8)
    result = compare_summaries(a, b)
    assert result.regressed
    assert result.exit_code == 1
    assert [d.measure for d in result.regressions] == ["downtime_s"]
    assert "REGRESSION" in result.render()


def test_compare_improvement_never_regresses():
    a = _run(downtime_s=1.0, wire_bytes=1e8)
    b = _run(downtime_s=0.2, wire_bytes=5e7)
    assert compare_summaries(a, b).exit_code == 0


def test_compare_absolute_floor_swallows_noise():
    # +100 % downtime, but the absolute delta is far below the 1 ms floor.
    assert compare_summaries(
        _run(downtime_s=1e-5), _run(downtime_s=2e-5)
    ).exit_code == 0


def test_compare_wall_clock_is_informational():
    a = _run(downtime_s=1.0, wall_s=10.0)
    b = _run(downtime_s=1.0, wall_s=30.0)
    result = compare_summaries(a, b)
    assert result.exit_code == 0
    wall = [d for d in result.deltas if d.measure == "wall_s"]
    assert wall and wall[0].threshold_pct is None
    # ... unless the caller explicitly gates it
    gated = compare_summaries(a, b, thresholds={"wall_s": 5.0})
    assert gated.exit_code == 1


def test_compare_threshold_override_relaxes_gate():
    a = _run(downtime_s=1.0)
    b = _run(downtime_s=1.2)
    assert compare_summaries(a, b, threshold_pct=50.0).exit_code == 0


def test_compare_new_aborts_always_regress():
    result = compare_summaries(_run(aborts=0.0), _run(aborts=1.0))
    assert result.regressed
    assert result.regressions[0].measure == "aborts"


# ---------------------------------------------------------------------------
# Integration: real supervised runs
# ---------------------------------------------------------------------------


def _supervised(plan=None, engine_name="javmm", link=None,
                event_log_capacity=None, max_samples=None, **sup_kwargs):
    engine = Engine(0.005)
    domain, kernel, lkm, process, heap, jvm, agent = build_tiny_vm()
    vm = JavaVM(domain, kernel, lkm, process, jvm, agent, Analyzer(jvm), TINY)
    if event_log_capacity is not None:
        vm.event_log = EventLog(capacity=event_log_capacity)
    lkm.event_log = vm.event_log
    jvm.event_log = vm.event_log
    timeseries = (
        TimeseriesStore(max_samples_per_series=max_samples)
        if max_samples is not None else None
    )
    vm.probe = Probe(event_log=vm.event_log, timeseries=timeseries)
    lkm.probe = vm.probe
    jvm.probe = vm.probe
    agent.probe = vm.probe
    domain.dirty_log.probe = vm.probe
    for actor in vm.actors():
        engine.add(actor)
    link = link or Link()
    engine.run_until(0.5)
    injector = None
    if plan is not None:
        injector = FaultInjector(
            plan, link=link, lkm=vm.lkm, agent=vm.agent,
            netlink=vm.kernel.netlink,
        )
        injector.probe = vm.probe
        injector.arm(engine.now)
        engine.add(injector)
    sup = MigrationSupervisor(
        engine, vm, link, engine_name=engine_name, injector=injector,
        consult_policy=False, **sup_kwargs,
    )
    result = sup.run()
    vm.probe.finish(engine.now)
    return result, vm


@pytest.fixture(scope="module")
def healthy_run(tmp_path_factory):
    result, vm = _supervised()
    path = tmp_path_factory.mktemp("healthy") / "run.jsonl"
    write_jsonl(path, probe=vm.probe)
    return result, vm, path


@pytest.fixture(scope="module")
def stalled_run(tmp_path_factory):
    result, vm = _supervised(
        plan=FaultPlan().link_outage(at_s=0.05),  # permanent outage
        backoff_s=0.1, max_attempts=2,
    )
    path = tmp_path_factory.mktemp("stalled") / "run.jsonl"
    write_jsonl(path, probe=vm.probe)
    return result, vm, path


@pytest.fixture(scope="module")
def diverging_run(tmp_path_factory):
    result, vm = _supervised(
        engine_name="xen",
        link=Link(bandwidth_bytes_per_s=mbit_per_s(100)),
    )
    path = tmp_path_factory.mktemp("diverging") / "run.jsonl"
    write_jsonl(path, probe=vm.probe)
    return result, vm, path


def test_healthy_run_samples_expected_series(healthy_run):
    _, vm, path = healthy_run
    store = vm.probe.timeseries
    for name in (
        "migration.dirty_rate_bytes_s",
        "migration.eff_bandwidth_bytes_s",
        "migration.pages_remaining",
        "migration.link_utilization",
        "migration.skip_ratio",
        "jvm.gc_pause_budget",
    ):
        assert name in store, name
        assert len(store.series(name)) > 0, name
    dump = read_jsonl(path)
    assert dump.schema == "repro-telemetry/3"
    assert dump.timeseries().get("migration.pages_remaining") == store.get(
        "migration.pages_remaining"
    )


def test_healthy_run_diagnosed_converging_online_and_offline(healthy_run):
    result, _, path = healthy_run
    assert result.ok
    record = result.attempts[0]
    assert record.diagnosis.startswith("CONVERGING")
    # the headline property: the replayed diagnosis IS the online one
    offline = replay_convergence(read_jsonl(path)).diagnosis
    assert offline.summary() == record.diagnosis


def test_healthy_run_doctor_finds_nothing_alarming(healthy_run):
    _, _, path = healthy_run
    report = Doctor().diagnose_file(path)
    assert report.by_rule("convergence") == []
    assert report.by_rule("aborts") == []
    assert report.worst != "critical"


def test_supervised_run_without_telemetry_still_diagnoses():
    engine = Engine(0.005)
    domain, kernel, lkm, process, heap, jvm, agent = build_tiny_vm()
    vm = JavaVM(domain, kernel, lkm, process, jvm, agent, Analyzer(jvm), TINY)
    for actor in vm.actors():
        engine.add(actor)
    link = Link()
    engine.run_until(0.5)
    sup = MigrationSupervisor(engine, vm, link, engine_name="javmm")
    result = sup.run()
    assert result.ok
    assert not vm.probe.enabled
    assert result.attempts[0].diagnosis.startswith("CONVERGING")


def test_stalled_run_logs_diagnosis_before_degrade(stalled_run):
    result, vm, path = stalled_run
    assert not result.ok
    # the supervisor cites the stall verdict in the event log, before
    # switching engines
    messages = [e.message for e in vm.event_log.events()]
    cited = [m for m in messages if m.startswith("diagnosis before degrade:")]
    assert cited and "STALLED" in cited[0]
    dump = read_jsonl(path)
    degrades = [i for i in dump.instants if i["name"] == "degrade"]
    assert degrades and degrades[0]["args"]["diagnosis"] == "STALLED"


def test_stalled_run_doctor_reproduces_verdict_offline(stalled_run):
    result, _, path = stalled_run
    stalled_records = [
        rec for rec in result.attempts if rec.diagnosis.startswith("STALLED")
    ]
    assert stalled_records
    report = Doctor().diagnose_file(path)
    conv = report.by_rule("convergence")
    assert len(conv) == 1 and "STALLED" in conv[0].title
    # segment-for-segment, the replay reproduces each attempt's verdict
    segments = replay_convergence_segments(read_jsonl(path))
    assert segments[-1].diagnosis.summary() == stalled_records[-1].diagnosis


def test_diverging_run_flags_diverging_online_and_offline(diverging_run):
    result, vm, path = diverging_run
    record = result.attempts[-1]
    assert record.diagnosis.startswith("DIVERGING")
    flips = [
        i for i in read_jsonl(path).instants
        if i["name"] == "convergence" and i["args"]["state"] == "DIVERGING"
    ]
    assert flips, "online monitor never flagged DIVERGING"
    offline = replay_convergence(read_jsonl(path)).diagnosis
    assert offline.summary() == record.diagnosis
    conv = Doctor().diagnose_file(path).by_rule("convergence")
    assert len(conv) == 1
    assert conv[0].severity == "critical"
    assert "DIVERGING" in conv[0].title


# -- telemetry export under supervisor + faults (satellite) -----------------


@pytest.fixture(scope="module")
def faulted_export(tmp_path_factory):
    result, vm = _supervised(
        plan=FaultPlan().agent_hang(at_s=0.01),
        phase_timeouts={"waiting-for-apps": 0.5},
        backoff_s=0.1, max_attempts=4,
        event_log_capacity=8, max_samples=4,
    )
    path = tmp_path_factory.mktemp("faulted") / "run.jsonl"
    write_jsonl(path, probe=vm.probe)
    return result, vm, path


def test_export_interleaves_aborted_and_successful_attempts(faulted_export):
    result, _, path = faulted_export
    assert result.ok
    assert result.engine == "xen"
    dump = read_jsonl(path)
    migrations = [s for s in dump.spans if s["name"] == "migration"]
    aborted = [s for s in migrations if s["args"].get("aborted")]
    completed = [s for s in migrations if not s["args"].get("aborted")]
    assert len(aborted) >= 2 and len(completed) == 1
    # attempt N's aborted span closes before attempt N+1 opens, and all
    # of them live in the same export
    spans_sorted = sorted(migrations, key=lambda s: s["start_s"])
    for earlier, later in zip(spans_sorted, spans_sorted[1:]):
        assert earlier["end_s"] is not None
        assert earlier["end_s"] <= later["start_s"]
    # abort instants from earlier attempts interleave with later spans
    aborts = [i for i in dump.instants if i["name"] == "abort"]
    assert len(aborts) == len(aborted)


def test_export_preserves_ring_buffer_drop_counts(faulted_export):
    _, vm, path = faulted_export
    assert vm.event_log.dropped > 0, "fixture never overflowed the event log"
    dump = read_jsonl(path)
    assert dump.dropped_events == vm.event_log.dropped
    # per-series sample drops survive the round-trip too
    store = vm.probe.timeseries
    overflowed = [
        store.series(name) for name in store.names()
        if store.series(name).dropped
    ]
    assert overflowed, "fixture never overflowed a sample series"
    rebuilt = dump.timeseries()
    for series in overflowed:
        assert rebuilt.series(series.name).dropped == series.dropped
    # ... and the doctor reports the loss
    loss = Doctor().diagnose(dump).by_rule("event-loss")
    assert any("event log dropped" in f.title for f in loss)
    assert any("oldest samples" in f.title for f in loss)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_doctor_prints_report(healthy_run, capsys):
    _, _, path = healthy_run
    assert cli_main(["doctor", str(path)]) == 0
    out = capsys.readouterr().out
    assert "migration doctor" in out
    assert "key series:" in out


def test_cli_doctor_no_sparklines(healthy_run, capsys):
    _, _, path = healthy_run
    assert cli_main(["doctor", str(path), "--no-sparklines"]) == 0
    assert "key series:" not in capsys.readouterr().out


def test_cli_compare_identical_exits_zero(healthy_run, capsys):
    _, _, path = healthy_run
    assert cli_main(["compare", str(path), str(path)]) == 0
    assert "no regression" in capsys.readouterr().out


def test_cli_compare_regression_exits_nonzero(tmp_path, capsys):
    a = _stream(tmp_path, "a.jsonl", downtime_s=1.0)
    b = _stream(tmp_path, "b.jsonl", downtime_s=1.2)
    assert cli_main(["compare", str(a), str(b)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # a relaxed gate lets the same pair pass
    assert cli_main(["compare", str(a), str(b), "--threshold-pct", "50"]) == 0


def test_cli_wrong_arity_is_usage_error(healthy_run):
    _, _, path = healthy_run
    assert cli_main(["doctor"]) == 2
    assert cli_main(["doctor", str(path), str(path)]) == 2
    assert cli_main(["compare", str(path)]) == 2


def test_load_run_refuses_a_bench_payload(healthy_run, tmp_path):
    _, _, path = healthy_run
    telemetry = load_run(path)
    assert "migration" in telemetry
    assert telemetry["migration"]["downtime_s"] > 0
    bench = tmp_path / "BENCH_OLD.json"
    bench.write_text(json.dumps(
        {"benchmark": "old", "runs": [{"workload": "w", "downtime_s": 1.0}]},
        indent=2,
    ))
    with pytest.raises(TelemetryFormatError, match="not a telemetry stream"):
        load_run(bench)
