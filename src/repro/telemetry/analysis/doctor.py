"""The migration doctor: rule-based post-mortem of a telemetry export.

``repro doctor run.jsonl`` answers "what went wrong (or right)?" from
the unified export alone — no live simulation required.  Each rule
inspects the parsed :class:`~repro.telemetry.export.TelemetryDump`
and emits :class:`Finding`\\ s with severity, a human sentence, and
*evidence pointers*: span ids, instant names, series names and metric
names a reader can chase back into the export or a Perfetto view.

Rule catalogue (see ``docs/OBSERVABILITY.md`` for the full table):

- ``throttle-rescue`` — the supervisor's adaptive rescue ladder fired
  (guest throttling and/or wire compression); names every rung applied
  and ranks first among criticals so a rescued run leads with *how* it
  was rescued;
- ``wan-loss-burst`` — the WAN link's Gilbert–Elliott chain entered
  its bursty-loss state during the migration;
- ``convergence`` — replays the same
  :class:`~repro.telemetry.analysis.convergence.ConvergenceMonitor`
  the supervisor runs online over the exported per-iteration series,
  so the offline verdict provably matches the in-flight one;
- ``dirty-vs-bandwidth`` — counts iterations whose dirty rate met or
  exceeded the effective bandwidth;
- ``skip-collapse`` — a Young-gen skip-ratio that collapses after the
  last observed heap-shrink event;
- ``retransmit`` — retransmitted wire share above threshold, with any
  overlapping fault windows cited;
- ``gc-interference`` — GC pause budget above threshold during the
  migration window;
- ``aborts`` — aborted migration spans, with reasons;
- ``slow-downtime`` — stop-and-copy + resume spans above the downtime
  budget;
- ``event-loss`` — ring-buffer drops in the event log or sample series
  (the export itself is lossy: treat absence of evidence carefully);
- ``stream-gap`` — the stream lost records that live consumers depend
  on: sample drops on the convergence series (dirty rate, effective
  bandwidth, pages remaining), record kinds this reader skipped, lines
  that did not decode (corrupt or torn), or heavy event-log eviction —
  any of which makes the live board's ETAs start from an incomplete
  record set;
- ``resumed-run`` — the run was restored from a durable checkpoint
  (``checkpoint-restore`` span present); flags the gap between the
  checkpoint instant and the crashed run's last journaled decision;
- ``downtime-retransmit`` — the attribution ledger shows app downtime
  dominated by the stop-and-copy transfer while loss retransmissions
  ate a meaningful wire share: the blackout is a network-loss problem,
  not a guest problem;
- ``assist-overhead`` — the attribution ledger shows the guest assist's
  wire overhead (LKM bitmap updates) exceeding the bytes its skips
  saved: the assist cost more than it bought.

The last two rules need an export with ``attribution`` records (schema
3, written by ``--telemetry-out`` since the attribution layer landed);
they stay silent on older exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.analysis.convergence import (
    ConvergenceMonitor,
    ConvergenceState,
)
from repro.telemetry.export import TelemetryDump, read_jsonl

#: Severity ranks findings; ties keep rule-catalogue order.
SEVERITIES = ("critical", "warning", "info")


@dataclass(frozen=True)
class Finding:
    """One ranked diagnosis with evidence pointers into the export."""

    rule: str
    severity: str  # "critical" | "warning" | "info"
    title: str
    detail: str = ""
    #: pointers a reader can follow: ``span:<id>``, ``series:<name>``,
    #: ``metric:<name>``, ``instant:<name>@<t>``
    evidence: tuple[str, ...] = ()

    @property
    def rank(self) -> int:
        return SEVERITIES.index(self.severity)

    def render(self) -> str:
        lines = [f"[{self.severity.upper():8s}] {self.rule}: {self.title}"]
        if self.detail:
            lines.append(f"           {self.detail}")
        if self.evidence:
            lines.append(f"           evidence: {', '.join(self.evidence)}")
        return "\n".join(lines)


@dataclass
class DoctorReport:
    """Every finding for one export, ranked most-severe first."""

    findings: list[Finding] = field(default_factory=list)
    dump: TelemetryDump | None = None

    @property
    def worst(self) -> str | None:
        return self.findings[0].severity if self.findings else None

    def by_rule(self, rule: str) -> list[Finding]:
        return [f for f in self.findings if f.rule == rule]

    def render(self, sparklines: bool = True) -> str:
        if not self.findings:
            body = ["no findings: the migration looks healthy"]
        else:
            body = [f.render() for f in self.findings]
        out = [f"migration doctor — {len(self.findings)} finding(s)"]
        out.extend(body)
        if sparklines and self.dump is not None:
            charts = self._sparklines()
            if charts:
                out.append("")
                out.append("key series:")
                out.extend(f"  {line}" for line in charts)
        return "\n".join(out)

    def _sparklines(self) -> list[str]:
        from repro.viz import timeseries_sparkline

        assert self.dump is not None
        store = self.dump.timeseries()
        picked = (
            "migration.dirty_rate_bytes_s",
            "migration.eff_bandwidth_bytes_s",
            "migration.pages_remaining",
            "migration.skip_ratio",
            "migration.retransmit_fraction",
            "jvm.gc_pause_budget",
        )
        return [
            timeseries_sparkline(store.series(name), label=name)
            for name in picked
            if name in store
        ]


class Doctor:
    """Runs the rule catalogue over a telemetry dump."""

    def __init__(self, rules: "list | None" = None, **thresholds) -> None:
        self.rules = list(rules) if rules is not None else list(DEFAULT_RULES)
        #: tunables shared by the default rules
        self.thresholds = {
            "retransmit_fraction": 0.10,
            "gc_pause_budget": 0.25,
            "downtime_budget_s": 1.0,
            "skip_collapse_factor": 0.5,
            "stop_pages": 50,
            "resume_gap_s": 5.0,
            "downtime_stop_copy_share": 0.5,
            "stream_gap_events": 10_000,
            **thresholds,
        }

    def diagnose(self, dump: TelemetryDump) -> DoctorReport:
        findings: list[Finding] = []
        for rule in self.rules:
            findings.extend(rule(dump, self.thresholds))
        findings.sort(key=lambda f: f.rank)
        return DoctorReport(findings=findings, dump=dump)

    def diagnose_file(self, path: "str | Path") -> DoctorReport:
        return self.diagnose(read_jsonl(path))


# -- helpers -----------------------------------------------------------------------------


def _series(dump: TelemetryDump, name: str) -> tuple[list[float], list[float]]:
    times: list[float] = []
    values: list[float] = []
    for rec in dump.samples:
        if rec.get("type", "sample") == "sample" and rec["series"] == name:
            times.append(rec["time_s"])
            values.append(rec["value"])
    return times, values


def replay_convergence_segments(
    dump: TelemetryDump, **kwargs
) -> list[ConvergenceMonitor]:
    """Rebuild the online monitor(s) from the exported series.

    The supervisor gives every attempt a *fresh* monitor, so a
    supervised export holds one observation sequence per attempt,
    concatenated.  Abort instants mark the attempt boundaries; one
    replayed monitor per segment reproduces each attempt's online
    verdict exactly.
    """
    t, rates = _series(dump, "migration.dirty_rate_bytes_s")
    _, bws = _series(dump, "migration.eff_bandwidth_bytes_s")
    _, remaining = _series(dump, "migration.pages_remaining")
    cuts = sorted(
        i["time_s"] for i in dump.instants if i["name"] == "abort"
    )
    segments: list[list[tuple[float, float, float, float]]] = [[]]
    cut_idx = 0
    for row in zip(t, rates, bws, remaining):
        while cut_idx < len(cuts) and row[0] > cuts[cut_idx]:
            cut_idx += 1
            segments.append([])
        segments[-1].append(row)
    monitors = []
    for seg in segments:
        if not seg:
            continue
        ts, rs, bs, rems = (list(col) for col in zip(*seg))
        monitors.append(ConvergenceMonitor.replay(ts, rs, bs, rems, **kwargs))
    return monitors or [ConvergenceMonitor(**kwargs)]


def replay_convergence(dump: TelemetryDump, **kwargs) -> ConvergenceMonitor:
    """The offline half of the convergence pipeline: the replayed
    monitor of the *final* attempt (the whole run when nothing
    aborted)."""
    return replay_convergence_segments(dump, **kwargs)[-1]


def _iteration_span_ids(dump: TelemetryDump, limit: int = 6) -> tuple[str, ...]:
    ids = [
        f"span:{s['id']}" for s in dump.spans
        if s["name"] in ("iteration", "stop-and-copy")
    ]
    return tuple(ids[:limit])


# -- rules -------------------------------------------------------------------------------


def rule_throttle_rescue(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    """Name every rescue-ladder rung the supervisor applied.

    Rescue instants are emitted both mid-flight (the
    :class:`~repro.core.rescue.RescueController`) and between attempts;
    a run that needed rescuing should lead with how it was rescued, so
    this rule is first in the catalogue and critical — the stable
    severity sort then puts it at the top of the report.
    """
    rescues = sorted(
        (i for i in dump.instants if i["name"] == "rescue"),
        key=lambda i: i["time_s"],
    )
    if not rescues:
        return []
    parts = []
    deepest_factor = None
    compressed = None
    for inst in rescues:
        args = inst.get("args", {})
        if args.get("action") == "throttle":
            deepest_factor = args.get("factor")
            parts.append(
                f"throttle stage {args.get('stage')} "
                f"(x{float(args.get('factor', 0.0)):.2f})"
            )
        elif args.get("action") == "compress":
            compressed = args.get("ratio")
            parts.append(f"wire compression (ratio {float(compressed):.2f})")
    summary = []
    if deepest_factor is not None:
        summary.append(f"guest throttled to x{float(deepest_factor):.2f}")
    if compressed is not None:
        summary.append(f"pages compressed to {float(compressed):.0%}")
    evidence = tuple(
        f"instant:rescue@{i['time_s']:.3f}" for i in rescues[:6]
    ) + ("metric:supervisor.rescues",)
    return [
        Finding(
            rule="throttle-rescue",
            severity="critical",
            title=(
                f"rescue ladder applied: {', '.join(summary) or 'rescued'}"
            ),
            detail=" -> ".join(parts),
            evidence=evidence,
        )
    ]


def rule_wan_loss_burst(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    bursts = [i for i in dump.instants if i["name"] == "wan-burst"]
    if not bursts:
        return []
    peak_loss = max(
        float(i.get("args", {}).get("loss_rate", 0.0)) for i in bursts
    )
    _, fractions = _series(dump, "migration.retransmit_fraction")
    peak_retrans = max(fractions, default=0.0)
    detail = (
        f"burst loss peaked at {peak_loss:.0%}; retransmissions peaked at "
        f"{peak_retrans:.0%} of an iteration's wire bytes"
        if fractions
        else f"burst loss peaked at {peak_loss:.0%}"
    )
    return [
        Finding(
            rule="wan-loss-burst",
            severity="warning",
            title=(
                f"WAN link entered its bursty-loss state "
                f"{len(bursts)} time(s) during transfer"
            ),
            detail=detail,
            evidence=tuple(
                f"instant:wan-burst@{i['time_s']:.3f}" for i in bursts[:6]
            ) + (
                "series:net.loss_rate",
                "series:migration.retransmit_fraction",
                "metric:net.loss_bursts",
            ),
        )
    ]


#: worse states sort first; CONVERGING/UNKNOWN never produce a finding
_STATE_RANK = {
    ConvergenceState.DIVERGING: 0,
    ConvergenceState.STALLED: 1,
    ConvergenceState.CONVERGING: 2,
    ConvergenceState.UNKNOWN: 3,
}


def rule_convergence(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    # One replayed monitor per attempt; report the worst diagnosis
    # reached anywhere — that is the verdict the supervisor acted on
    # before degrading, even when a later attempt recovered.
    segments = replay_convergence_segments(dump)
    history = [d for mon in segments for d in mon.history]
    if not history:
        return []
    diag = min(history, key=lambda d: _STATE_RANK[d.state])
    if diag.state in (ConvergenceState.UNKNOWN, ConvergenceState.CONVERGING):
        return []
    final = segments[-1].diagnosis
    detail = diag.summary()
    if final.state is not diag.state:
        detail += f"; later observations recovered to {final.state.value}"
    severity = "critical" if diag.state is ConvergenceState.DIVERGING else "warning"
    return [
        Finding(
            rule="convergence",
            severity=severity,
            title=f"pre-copy classified {diag.state.value}",
            detail=detail,
            evidence=(
                "series:migration.dirty_rate_bytes_s",
                "series:migration.eff_bandwidth_bytes_s",
                "series:migration.pages_remaining",
            ) + _iteration_span_ids(dump),
        )
    ]


def rule_dirty_vs_bandwidth(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    t, rates = _series(dump, "migration.dirty_rate_bytes_s")
    _, bws = _series(dump, "migration.eff_bandwidth_bytes_s")
    _, remaining = _series(dump, "migration.pages_remaining")
    if remaining and remaining[-1] <= thresholds.get("stop_pages", 50):
        # The dirty set drained regardless (e.g. skip-over areas absorb
        # the dirtying, as in javmm): an adverse raw ratio is not a
        # problem by itself.
        return []
    pairs = [(r, b) for r, b in zip(rates, bws) if b > 0]
    if not pairs:
        return []
    exceeded = sum(1 for r, b in pairs if r >= b)
    if exceeded == 0 or exceeded * 2 < len(pairs):
        return []
    return [
        Finding(
            rule="dirty-vs-bandwidth",
            severity="warning",
            title=(
                f"dirty rate met or exceeded effective link bandwidth in "
                f"{exceeded}/{len(pairs)} iterations"
            ),
            detail=(
                "iterating cannot shrink the dirty set while the guest "
                "writes faster than the link carries"
            ),
            evidence=(
                "series:migration.dirty_rate_bytes_s",
                "series:migration.eff_bandwidth_bytes_s",
            ) + _iteration_span_ids(dump),
        )
    ]


def rule_skip_collapse(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    times, ratios = _series(dump, "migration.skip_ratio")
    shrinks = [i for i in dump.instants if i["name"] == "shrink"]
    if len(ratios) < 2 or not shrinks:
        return []
    last_shrink_t = max(i["time_s"] for i in shrinks)
    before = [r for t, r in zip(times, ratios) if t <= last_shrink_t]
    after = [r for t, r in zip(times, ratios) if t > last_shrink_t]
    if not before or not after:
        return []
    peak = max(before)
    floor = min(after)
    if peak <= 0 or floor > peak * thresholds["skip_collapse_factor"]:
        return []
    return [
        Finding(
            rule="skip-collapse",
            severity="warning",
            title=(
                f"skip ratio collapsed from {peak:.2f} to {floor:.2f} "
                f"after the last heap-shrink event"
            ),
            detail=(
                "shrunk areas return frames to the transfer set, so the "
                "bitmap skips fewer pages from then on"
            ),
            evidence=(
                "series:migration.skip_ratio",
                f"instant:shrink@{last_shrink_t:.3f}",
                "metric:lkm.shrink_events",
            ),
        )
    ]


def rule_retransmit(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    retrans = dump.metric_total("net.retransmit_wire_bytes")
    wire = dump.metric_total("net.wire_bytes")
    _, fractions = _series(dump, "migration.retransmit_fraction")
    peak_fraction = max(fractions, default=0.0)
    overall = retrans / wire if wire > 0 else 0.0
    limit = thresholds["retransmit_fraction"]
    if overall < limit and peak_fraction < limit:
        return []
    faults = [
        f"span:{s['id']}" for s in dump.spans if s["name"] == "fault-window"
    ]
    where = "during fault window(s)" if faults else "with no fault window recorded"
    return [
        Finding(
            rule="retransmit",
            severity="warning",
            title=(
                f"retransmissions reached {max(overall, peak_fraction):.0%} "
                f"of wire bytes {where}"
            ),
            detail=(
                f"{retrans:.0f} of {wire:.0f} wire bytes were re-carried; "
                f"goodput shrank accordingly"
            ),
            evidence=(
                "metric:net.retransmit_wire_bytes",
                "series:migration.retransmit_fraction",
                *faults,
            ),
        )
    ]


def rule_gc_interference(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    _, budgets = _series(dump, "jvm.gc_pause_budget")
    if not budgets:
        return []
    # Gate on the mean: a single short iteration swallowed by one pause
    # is normal; sustained pressure across the migration is not.
    mean = sum(budgets) / len(budgets)
    if mean < thresholds["gc_pause_budget"]:
        return []
    return [
        Finding(
            rule="gc-interference",
            severity="warning",
            title=(
                f"GC pauses consumed {mean:.0%} of pre-copy wall time "
                f"(peak {max(budgets):.0%} in one iteration)"
            ),
            detail=(
                "collections both stall the workload and re-dirty survivor "
                "pages mid-iteration"
            ),
            evidence=("series:jvm.gc_pause_budget", "metric:jvm.gc_count"),
        )
    ]


def rule_aborts(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    aborted = [
        s for s in dump.spans
        if s["name"] == "migration" and s["args"].get("aborted")
    ]
    if not aborted:
        return []
    reasons = {s["args"].get("abort_reason", "?") for s in aborted}
    return [
        Finding(
            rule="aborts",
            severity="critical",
            title=f"{len(aborted)} migration attempt(s) aborted and rolled back",
            detail="; ".join(sorted(reasons)),
            evidence=tuple(f"span:{s['id']}" for s in aborted)
            + ("metric:migration.aborts",),
        )
    ]


def rule_slow_downtime(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    downtime = 0.0
    spans = []
    for s in dump.spans:
        if s["name"] in ("stop-and-copy", "resume") and s["end_s"] is not None:
            downtime += s["end_s"] - s["start_s"]
            spans.append(f"span:{s['id']}")
    budget = thresholds["downtime_budget_s"]
    if not spans or downtime <= budget:
        return []
    return [
        Finding(
            rule="slow-downtime",
            severity="warning",
            title=(
                f"downtime {downtime:.2f}s exceeded the {budget:.2f}s budget"
            ),
            detail="stop-and-copy plus destination resume",
            evidence=tuple(spans),
        )
    ]


def rule_event_loss(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    findings = []
    if dump.dropped_events:
        findings.append(
            Finding(
                rule="event-loss",
                severity="info",
                title=(
                    f"event log dropped {dump.dropped_events} oldest records "
                    f"(ring buffer)"
                ),
                detail="early-run narrative may be missing from the export",
                evidence=("metric:event_log_dropped",),
            )
        )
    for rec in dump.samples:
        if rec.get("type") == "series_dropped":
            findings.append(
                Finding(
                    rule="event-loss",
                    severity="info",
                    title=(
                        f"series {rec['series']} dropped {rec['dropped']} "
                        f"oldest samples"
                    ),
                    evidence=(f"series:{rec['series']}",),
                )
            )
    return findings


#: the sample series live ETAs are derived from — a drop on any of
#: these means the record-granularity replay started mid-history
CONVERGENCE_SERIES = (
    "migration.dirty_rate_bytes_s",
    "migration.eff_bandwidth_bytes_s",
    "migration.pages_remaining",
)


def rule_stream_gap(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    """Warn when the stream dropped records live consumers rely on.

    ``event-loss`` (info) reports *any* ring eviction; this rule
    escalates to a warning when the loss is the kind that corrupts a
    live reading: convergence-series samples evicted (the ETA replay is
    missing its oldest observations), record kinds skipped as unknown
    (a newer writer than this reader), lines that did not decode
    (corrupt, or torn by a crash), or event eviction past
    ``stream_gap_events`` (the narrative around the remaining records
    is gone).  The counts are the evidence.
    """
    findings = []
    dropped_series = {
        rec["series"]: rec["dropped"]
        for rec in dump.samples
        if rec.get("type") == "series_dropped"
        and rec.get("series") in CONVERGENCE_SERIES
    }
    if dropped_series:
        total = sum(dropped_series.values())
        findings.append(
            Finding(
                rule="stream-gap",
                severity="warning",
                title=(
                    f"stream dropped {total} sample(s) from "
                    f"{len(dropped_series)} convergence series — live ETAs "
                    f"computed from an incomplete history"
                ),
                detail=", ".join(
                    f"{name} lost {dropped_series[name]}"
                    for name in sorted(dropped_series)
                ),
                evidence=tuple(
                    f"series:{name}" for name in sorted(dropped_series)
                ),
            )
        )
    if dump.unknown_records:
        total = sum(dump.unknown_records.values())
        findings.append(
            Finding(
                rule="stream-gap",
                severity="warning",
                title=(
                    f"reader skipped {total} record(s) of "
                    f"{len(dump.unknown_records)} unknown kind(s) — the "
                    f"stream writer is newer than this reader"
                ),
                detail=", ".join(
                    f"{kind} x{dump.unknown_records[kind]}"
                    for kind in sorted(dump.unknown_records)
                ),
                evidence=tuple(
                    f"record-kind:{kind}" for kind in sorted(dump.unknown_records)
                ),
            )
        )
    if dump.corrupt_lines or dump.torn_lines:
        findings.append(
            Finding(
                rule="stream-gap",
                severity="warning",
                title=(
                    f"reader skipped {dump.corrupt_lines + dump.torn_lines} "
                    f"stream line(s) that did not decode — the records on "
                    f"them are missing from every reading"
                ),
                detail=(
                    f"{dump.corrupt_lines} corrupt, {dump.torn_lines} torn "
                    f"at the end (a crashed or still-running writer)"
                ),
                evidence=("stream:lines",),
            )
        )
    if dump.dropped_events > thresholds["stream_gap_events"]:
        findings.append(
            Finding(
                rule="stream-gap",
                severity="warning",
                title=(
                    f"event log evicted {dump.dropped_events} records "
                    f"(> {thresholds['stream_gap_events']}) — the live "
                    f"timeline around surviving records is unreliable"
                ),
                evidence=("metric:event_log_dropped",),
            )
        )
    return findings


def rule_resumed_run(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    """Detect a crash-restarted run and size its re-execution window.

    A ``checkpoint-restore`` span marks a run resumed from a durable
    checkpoint.  Its args carry the checkpoint instant and the crashed
    run's last write-ahead journal instant; the difference is the
    stretch of simulated time the resumed run re-executed (always with
    identical results — the chaos suite enforces that — but re-paid in
    wall clock).  A gap above ``resume_gap_s`` suggests the checkpoint
    cadence is too slow for the crash rate.
    """
    restores = [s for s in dump.spans if s["name"] == "checkpoint-restore"]
    if not restores:
        return []
    findings = []
    gap_budget = thresholds["resume_gap_s"]
    for s in restores:
        args = s.get("args", {})
        checkpoint_t = args.get("checkpoint_t")
        journal_last_t = args.get("journal_last_t")
        gap = (
            max(0.0, float(journal_last_t) - float(checkpoint_t))
            if checkpoint_t is not None and journal_last_t is not None
            else 0.0
        )
        severity = "warning" if gap > gap_budget else "info"
        title = (
            f"run resumed from checkpoint t={float(checkpoint_t):.2f}s"
            if checkpoint_t is not None
            else "run resumed from a checkpoint"
        )
        detail = (
            f"crashed run journaled decisions up to t={float(journal_last_t):.2f}s; "
            f"{gap:.2f}s of simulated time re-executed after restore"
            if journal_last_t is not None
            else "no journaled decisions after the checkpoint"
        )
        if gap > gap_budget:
            detail += (
                f" (gap exceeds the {gap_budget:.1f}s budget: "
                "consider a faster checkpoint cadence)"
            )
        findings.append(
            Finding(
                rule="resumed-run",
                severity=severity,
                title=title,
                detail=detail,
                evidence=(f"span:{s['id']}", "metric:checkpoint.restores"),
            )
        )
    return findings


def rule_downtime_retransmit(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    """Attribution-backed: the blackout was spent re-sending lost bytes.

    Fires when the final (non-aborted) ledger shows the stop-and-copy
    transfer dominating app downtime *and* loss retransmissions above
    the retransmit threshold — together they say the last-iteration
    dirty set was small but the lossy wire made even that slow, so the
    fix is the network path (or rescue compression), not the guest.
    """
    ledgers = [a for a in dump.attributions if not a.get("aborted")]
    if not ledgers:
        return []
    led = ledgers[-1]
    downtime = float(led.get("app_downtime_s", 0.0))
    stop_copy = float(led.get("downtime_s", {}).get("stop_copy", 0.0))
    wire = led.get("wire_bytes", {})
    carried = sum(wire.values())
    retx = wire.get("loss_retx", 0)
    if downtime <= 0 or carried <= 0:
        return []
    share = stop_copy / downtime
    retx_share = retx / carried
    if (
        share < thresholds["downtime_stop_copy_share"]
        or retx_share < thresholds["retransmit_fraction"]
    ):
        return []
    return [
        Finding(
            rule="downtime-retransmit",
            severity="warning",
            title=(
                f"app downtime dominated by retransmit-inflated stop-and-copy "
                f"({share:.0%} of {downtime:.3f}s blackout)"
            ),
            detail=(
                f"loss retransmissions re-carried {retx_share:.0%} of all wire "
                f"bytes ({retx} of {carried}); the final dirty set paid that "
                f"tax with the guest paused"
            ),
            evidence=(
                "attribution:downtime_s.stop_copy",
                "attribution:wire_bytes.loss_retx",
                "metric:net.retransmit_wire_bytes",
            ),
        )
    ]


def rule_assist_overhead(dump: TelemetryDump, thresholds: dict) -> list[Finding]:
    """Attribution-backed: the guest assist cost more wire than it saved.

    Compares each ledger's skip savings (``skip_bitmap`` — bytes the
    transfer bitmap kept off the wire) against the assist's own wire
    overhead (LKM bitmap-update traffic).  A negative balance means the
    paper's mechanism is upside-down for this workload — worth a
    finding because the whole point of the assist is a net byte win.
    """
    findings = []
    for led in dump.attributions:
        overhead = int(led.get("assist_overhead_bytes", 0))
        if overhead <= 0:
            continue
        saved = int(led.get("saved_bytes", {}).get("skip_bitmap", 0))
        if saved >= overhead:
            continue
        findings.append(
            Finding(
                rule="assist-overhead",
                severity="warning",
                title=(
                    f"assist savings below wire overhead: skips saved {saved} B "
                    f"but bitmap updates cost {overhead} B"
                ),
                detail=(
                    f"attempt {led.get('attempt', 1)} "
                    f"({led.get('engine', '?')}): the guest assist was a net "
                    f"loss of {overhead - saved} wire bytes"
                ),
                evidence=(
                    "attribution:saved_bytes.skip_bitmap",
                    "attribution:assist_overhead_bytes",
                    "metric:net.saved_bytes",
                ),
            )
        )
    return findings


DEFAULT_RULES = (
    rule_throttle_rescue,
    rule_wan_loss_burst,
    rule_convergence,
    rule_dirty_vs_bandwidth,
    rule_skip_collapse,
    rule_retransmit,
    rule_gc_interference,
    rule_aborts,
    rule_slow_downtime,
    rule_event_loss,
    rule_stream_gap,
    rule_resumed_run,
    rule_downtime_retransmit,
    rule_assist_overhead,
)
