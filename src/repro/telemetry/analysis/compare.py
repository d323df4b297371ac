"""Run-to-run regression diffing of telemetry exports.

``repro compare A B`` answers "did this change regress migration?"
by summarizing two unified telemetry JSONL exports into comparable
measures and diffing them against per-measure thresholds: downtime
(stop-and-copy + resume spans), total migration time (completed
``migration`` spans), wire and retransmitted bytes (``net.*`` metrics)
and abort count.  A file that is not a telemetry stream is refused
with :class:`~repro.errors.TelemetryFormatError`.

Only *simulated* measures gate by default: they are deterministic for
a given seed, so any drift is a code change, not machine noise.
Measures without a threshold (``saved_bytes``) are reported but never
fail the comparison unless an explicit threshold is supplied.

A measure regresses when it grows beyond its threshold percentage
*and* beyond a small absolute floor (so a 0.1 ms downtime cannot
"regress by 200 %").  Improvements never fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.export import TelemetryDump, read_jsonl

#: gated measures -> (threshold %, absolute floor below which deltas
#: are noise).  Wall-clock fields are deliberately absent.
DEFAULT_THRESHOLDS: dict[str, float] = {
    "downtime_s": 5.0,
    "total_time_s": 5.0,
    "wire_bytes": 5.0,
    "retransmit_wire_bytes": 5.0,
    "aborts": 0.0,
}
ABS_FLOORS: dict[str, float] = {
    "downtime_s": 1e-3,
    "total_time_s": 1e-3,
    "wire_bytes": 4096.0,
    "retransmit_wire_bytes": 4096.0,
    "aborts": 0.0,
}


@dataclass(frozen=True)
class MeasureDelta:
    """One measure of one run key, before vs after."""

    key: str  # run identity (``summarize_dump`` keys it "migration")
    measure: str
    before: float
    after: float
    threshold_pct: float | None  # None: informational, never gates

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def delta_pct(self) -> float:
        if self.before == 0:
            return 0.0 if self.after == 0 else float("inf")
        return 100.0 * self.delta / abs(self.before)

    @property
    def regressed(self) -> bool:
        if self.threshold_pct is None:
            return False
        floor = ABS_FLOORS.get(self.measure, 0.0)
        if self.delta <= floor:
            return False
        if self.before == 0:
            return True  # grew from nothing past the floor
        return self.delta_pct > self.threshold_pct

    def render(self) -> str:
        pct = (
            f"{self.delta_pct:+.1f}%" if self.before != 0
            else ("n/a" if self.after == 0 else "new")
        )
        gate = (
            "REGRESSION" if self.regressed
            else ("ok" if self.threshold_pct is not None else "info")
        )
        return (
            f"{self.key:>24s}  {self.measure:<18s} "
            f"{self.before:>14.6g} -> {self.after:>14.6g}  {pct:>8s}  {gate}"
        )


@dataclass
class ComparisonResult:
    """The full diff of two runs."""

    path_a: str
    path_b: str
    deltas: list[MeasureDelta] = field(default_factory=list)
    only_in_a: list[str] = field(default_factory=list)
    only_in_b: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MeasureDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    @property
    def exit_code(self) -> int:
        return 1 if self.regressed else 0

    def render(self) -> str:
        lines = [f"compare {self.path_a} -> {self.path_b}"]
        gated = [d for d in self.deltas if d.threshold_pct is not None]
        info = [d for d in self.deltas if d.threshold_pct is None]
        lines.extend(d.render() for d in gated)
        if info:
            lines.append("  (informational, never gated:)")
            lines.extend(d.render() for d in info)
        for key in self.only_in_a:
            lines.append(f"{key:>24s}  only in {self.path_a}")
        for key in self.only_in_b:
            lines.append(f"{key:>24s}  only in {self.path_b}")
        verdict = (
            f"VERDICT: {len(self.regressions)} regression(s)"
            if self.regressed
            else "VERDICT: no regression"
        )
        lines.append(verdict)
        return "\n".join(lines)


# -- summarising one run ------------------------------------------------------------------


def summarize_dump(dump: TelemetryDump) -> dict[str, dict[str, float]]:
    """Key measures of one unified telemetry export."""
    downtime = sum(
        s["end_s"] - s["start_s"]
        for s in dump.spans
        if s["name"] in ("stop-and-copy", "resume") and s["end_s"] is not None
    )
    completed = [
        s for s in dump.spans
        if s["name"] == "migration"
        and s["end_s"] is not None
        and not s["args"].get("aborted")
    ]
    total = sum(s["end_s"] - s["start_s"] for s in completed)
    aborted = [
        s for s in dump.spans
        if s["name"] == "migration" and s["args"].get("aborted")
    ]
    measures = {
        "downtime_s": downtime,
        "total_time_s": total,
        "wire_bytes": dump.metric_total("net.wire_bytes"),
        # Always present (the link emits the series even at zero loss),
        # so rescue-compression runs can gate on retransmit growth.
        "retransmit_wire_bytes": dump.metric_total("net.retransmit_wire_bytes"),
        # Informational (no threshold entry): bytes assists/compression
        # kept off the wire — context for a wire_bytes verdict.
        "saved_bytes": dump.metric_total("net.saved_bytes"),
        "aborts": float(len(aborted)),
    }
    return {"migration": measures}


def load_run(path: "str | Path") -> dict[str, dict[str, float]]:
    """Summarize the telemetry export at *path*."""
    return summarize_dump(read_jsonl(path))


# -- the diff -----------------------------------------------------------------------------


def compare_runs(
    path_a: "str | Path",
    path_b: "str | Path",
    threshold_pct: float | None = None,
    thresholds: dict[str, float] | None = None,
) -> ComparisonResult:
    """Diff the export at *path_b* (candidate) against *path_a*."""
    return compare_summaries(
        load_run(path_a), load_run(path_b), threshold_pct, thresholds,
        names=(str(path_a), str(path_b)),
    )


def compare_summaries(
    a: dict[str, dict[str, float]],
    b: dict[str, dict[str, float]],
    threshold_pct: float | None = None,
    thresholds: dict[str, float] | None = None,
    names: tuple[str, str] = ("A", "B"),
) -> ComparisonResult:
    """Diff summary *b* (candidate) against summary *a* (baseline).

    *threshold_pct* overrides every default gate percentage at once;
    *thresholds* overrides per measure (and may add gates for measures
    that default to informational).
    """
    gates = dict(DEFAULT_THRESHOLDS)
    if threshold_pct is not None:
        gates = {name: threshold_pct for name in gates}
    if thresholds:
        gates.update(thresholds)
    result = ComparisonResult(path_a=names[0], path_b=names[1])
    result.only_in_a = sorted(set(a) - set(b))
    result.only_in_b = sorted(set(b) - set(a))
    for key in sorted(set(a) & set(b)):
        before, after = a[key], b[key]
        for measure in sorted(set(before) & set(after)):
            result.deltas.append(
                MeasureDelta(
                    key=key,
                    measure=measure,
                    before=before[measure],
                    after=after[measure],
                    threshold_pct=gates.get(measure),
                )
            )
    return result
