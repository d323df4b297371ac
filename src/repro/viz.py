"""Terminal visualizations of migration results.

Pure-text renderings of the paper's figure styles, used by the examples
and the CLI:

- :func:`iteration_boxes` — Figure 8: one box per pre-copy iteration,
  width ∝ duration, label = traffic sent;
- :func:`throughput_sparkline` — Figure 11: ops/s over time with the
  migration window marked;
- :func:`stacked_bars` — Figures 9/10/12: labelled horizontal bars;
- :func:`timeseries_sparkline` — one telemetry time-series (or any
  ``(times, values)`` pair) as a labelled sparkline, used by the
  ``doctor`` output;
- :func:`attribution_waterfall` — the conservation-checked attribution
  ledger (``repro attribute`` / ``--audit``) as cumulative-offset
  waterfall bars: where every millisecond and every wire byte went.

No plotting dependencies: everything renders to strings.
"""

from __future__ import annotations

from repro.migration.report import MigrationReport
from repro.units import MIB, fmt_bytes, fmt_seconds
from repro.workloads.analyzer import ThroughputSample

_SPARK_LEVELS = " .:-=+*#%@"


def iteration_boxes(report: MigrationReport, width: int = 72) -> str:
    """Render iterations as width-proportional boxes (Figure 8 style)."""
    total = max(report.completion_time_s, 1e-9)
    lines = []
    for rec in report.iterations:
        w = max(1, round(width * rec.duration_s / total))
        mark = "W" if rec.is_waiting else ("L" if rec.is_last else "#")
        bar = mark * w
        label = f" iter {rec.index}: {rec.duration_s:.2f}s, {rec.bytes_sent / MIB:.0f} MiB"
        lines.append(f"|{bar:<{width}}|{label}")
    legend = "#: live iteration   W: waiting for applications   L: stop-and-copy"
    return "\n".join(lines + [legend])


def throughput_sparkline(
    samples: list[ThroughputSample],
    start_s: float | None = None,
    end_s: float | None = None,
    migration_window: tuple[float, float] | None = None,
    width: int = 72,
) -> str:
    """Render a per-second throughput series (Figure 11 style).

    Each column is one sample bucketed onto a 10-level scale; the row
    below marks the migration window with ``^``.
    """
    picked = [
        s
        for s in samples
        if (start_s is None or s.time_s >= start_s)
        and (end_s is None or s.time_s <= end_s)
    ]
    if not picked:
        return "(no samples)"
    if len(picked) > width:
        stride = len(picked) / width
        picked = [picked[int(i * stride)] for i in range(width)]
    peak = max(s.ops_per_s for s in picked) or 1.0
    chars = []
    marks = []
    for s in picked:
        level = int(round((len(_SPARK_LEVELS) - 1) * s.ops_per_s / peak))
        chars.append(_SPARK_LEVELS[level])
        in_window = (
            migration_window is not None
            and migration_window[0] <= s.time_s <= migration_window[1]
        )
        marks.append("^" if in_window else " ")
    t0, t1 = picked[0].time_s, picked[-1].time_s
    header = f"ops/s (peak {peak:.2f})  t = {t0:.0f}..{t1:.0f} s"
    body = "".join(chars)
    out = [header, body]
    if migration_window is not None:
        out.append("".join(marks) + "  (^ = migrating)")
    return "\n".join(out)


def timeseries_sparkline(
    times: "list[float] | object",
    values: list[float] | None = None,
    label: str = "",
    width: int = 60,
) -> str:
    """Render a time-series as a one-line sparkline with a range label.

    Accepts either explicit ``(times, values)`` lists or a single
    :class:`~repro.telemetry.timeseries.Series`-like object (anything
    with ``times``/``values``/``name``).  Degrades gracefully: an empty
    or missing series renders as ``(no samples)`` instead of raising.
    """
    if values is None:
        series = times
        if series is None:
            return f"{label or '(series)'}: (no samples)"
        times = list(getattr(series, "times", []))
        values = list(getattr(series, "values", []))
        label = label or getattr(series, "name", "")
    else:
        times = list(times)
        values = list(values)
    if not values or len(times) != len(values):
        return f"{label or '(series)'}: (no samples)"
    if len(values) > width:
        stride = len(values) / width
        idx = [int(i * stride) for i in range(width)]
        times = [times[i] for i in idx]
        values = [values[i] for i in idx]
    lo, hi = min(values), max(values)
    span = hi - lo
    chars = []
    for v in values:
        level = (
            len(_SPARK_LEVELS) // 2 if span <= 0 else
            int(round((len(_SPARK_LEVELS) - 1) * (v - lo) / span))
        )
        chars.append(_SPARK_LEVELS[level])
    return (
        f"{label}: [{''.join(chars)}] "
        f"min {lo:.3g} max {hi:.3g} last {values[-1]:.3g} "
        f"(t {times[0]:.1f}..{times[-1]:.1f}s, n={len(values)})"
    )


def stacked_bars(
    rows: list[tuple[str, dict[str, float]]],
    width: int = 56,
    unit: str = "",
) -> str:
    """Render labelled horizontal bars with stacked segments.

    *rows* maps a label to ordered ``{segment_name: value}`` dicts; all
    bars share one scale.  Segment glyphs are assigned in order:
    ``#``, ``+``, ``.``.
    """
    glyphs = "#+.~"
    peak = max((sum(segments.values()) for _, segments in rows), default=0.0) or 1.0
    seg_names: list[str] = []
    for _, segments in rows:
        for name in segments:
            if name not in seg_names:
                seg_names.append(name)
    lines = []
    label_w = max((len(label) for label, _ in rows), default=0)
    for label, segments in rows:
        bar = ""
        for i, name in enumerate(seg_names):
            value = segments.get(name, 0.0)
            bar += glyphs[i % len(glyphs)] * max(
                0, round(width * value / peak)
            )
        total = sum(segments.values())
        lines.append(f"{label:<{label_w}} |{bar:<{width}}| {total:.2f}{unit}")
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} = {name}" for i, name in enumerate(seg_names)
    )
    return "\n".join(lines + [legend])


#: Render order for attribution waterfalls (matches the canonical
#: bucket orders in repro.telemetry.attribution).
_TIME_ORDER = (
    "first_copy", "redirty", "gc_wait", "stop_copy", "fetch",
    "resume", "abort_tail",
)
_DOWNTIME_ORDER = (
    "safepoint", "enforced_gc", "final_update", "stop_copy", "resume",
)
_WIRE_ORDER = (
    "first_copy", "redirty", "stop_copy", "loss_retx",
    "demand_fetch", "background_push", "control", "other",
)
_SAVED_ORDER = ("skip_bitmap", "skip_redirty", "compression")


def _waterfall_section(
    title: str,
    buckets: dict[str, float],
    order: tuple[str, ...],
    total: float,
    fmt,
    width: int,
) -> list[str]:
    """One waterfall block: each bucket's bar starts at the cumulative
    offset of everything before it, so the bars tile the total."""
    names = [n for n in order if buckets.get(n)] + sorted(
        n for n in buckets if n not in order and buckets[n]
    )
    lines = [f"{title}: {fmt(total)}"]
    if not names:
        lines.append("  (nothing attributed)")
        return lines
    label_w = max(len(n) for n in names)
    cum = 0.0
    denom = total if total > 0 else sum(buckets[n] for n in names) or 1.0
    for name in names:
        value = buckets[name]
        lo = min(round(width * cum / denom), width - 1)
        hi = min(max(round(width * (cum + value) / denom), lo + 1), width)
        bar = " " * lo + "#" * (hi - lo)
        share = 100.0 * value / denom
        lines.append(
            f"  {name:<{label_w}} |{bar:<{width}}| {fmt(value)} ({share:.1f}%)"
        )
        cum += value
    return lines


def attribution_waterfall(ledger: dict, width: int = 56) -> str:
    """Render one attribution ledger (its ``to_dict`` form) as stacked
    waterfall sections: completion time, app downtime, wire bytes and
    assist/compression savings, plus the conservation verdict."""
    head = f"attribution: {ledger.get('engine', '?')} (attempt {ledger.get('attempt', 1)}"
    head += ", ABORTED)" if ledger.get("aborted") else ")"
    lines = [head]
    lines += _waterfall_section(
        "completion",
        {k: v / 1e9 for k, v in ledger.get("time_ns", {}).items()},
        _TIME_ORDER,
        ledger.get("total_ns", 0) / 1e9,
        fmt_seconds,
        width,
    )
    lines += _waterfall_section(
        "app downtime",
        dict(ledger.get("downtime_s", {})),
        _DOWNTIME_ORDER,
        ledger.get("app_downtime_s", 0.0),
        fmt_seconds,
        width,
    )
    wire_total = ledger.get("total_wire_bytes", 0) + ledger.get(
        "inflight_wire_bytes", 0
    )
    lines += _waterfall_section(
        "wire bytes",
        dict(ledger.get("wire_bytes", {})),
        _WIRE_ORDER,
        wire_total,
        fmt_bytes,
        width,
    )
    saved = dict(ledger.get("saved_bytes", {}))
    if saved:
        lines += _waterfall_section(
            "saved off the wire",
            saved,
            _SAVED_ORDER,
            sum(saved.values()),
            fmt_bytes,
            width,
        )
    overlays = {k: v for k, v in ledger.get("overlays", {}).items() if v}
    if overlays:
        lines.append(
            "overlays: "
            + ", ".join(f"{k} {fmt_seconds(v)}" for k, v in sorted(overlays.items()))
        )
    violations = ledger.get("violations", [])
    if violations:
        lines.append(f"conservation: VIOLATED ({len(violations)})")
        lines += [f"  !! {v}" for v in violations]
    else:
        n_checks = len(ledger.get("conservation", {}))
        suffix = f" ({n_checks} invariants)" if n_checks else " (unaudited export)"
        lines.append("conservation: OK" + suffix)
    return "\n".join(lines)


def downtime_breakdown_bar(report: MigrationReport, width: int = 56) -> str:
    """One stacked bar of the downtime components (Section 5.3)."""
    d = report.downtime
    return stacked_bars(
        [
            (
                report.migrator,
                {
                    "safepoint": d.safepoint_s,
                    "enforced GC": d.enforced_gc_s,
                    "stop-and-copy": d.last_iter_s,
                    "resume": d.resume_s,
                },
            )
        ],
        width=width,
        unit=" s",
    )


def _fmt_eta(value: float | None) -> str:
    if value is None:
        return "-"
    return fmt_seconds(value)


def _status_card(status: dict) -> str:
    """One migration's live detail card (``repro watch``, single mode)."""
    verdict = status.get("verdict", {})
    rescue = status.get("rescue", {})
    lines = [
        f"migration {status.get('name', '?')}  "
        f"[{status.get('engine', '?')}  attempt {status.get('attempt', 1)}  "
        f"phase {status.get('phase', '?')}  t={status.get('clock_s', 0.0):.3f}s]",
        f"  iterations {status.get('iterations', 0)}  "
        f"pages remaining {status.get('pages_remaining', 0)}  "
        f"aborts {status.get('aborts', 0)}",
        f"  dirty rate {fmt_bytes(status.get('dirty_rate_bytes_s', 0.0))}/s  "
        f"eff bandwidth {fmt_bytes(status.get('eff_bandwidth_bytes_s', 0.0))}/s",
        f"  convergence {verdict.get('state', '?')}  "
        f"eta {_fmt_eta(verdict.get('eta_s'))}  "
        f"downtime eta {_fmt_eta(verdict.get('downtime_eta_s'))}",
    ]
    if verdict.get("reason"):
        lines.append(f"    {verdict['reason']}")
    if rescue.get("rungs"):
        parts = [f"{rescue['rungs']} rung(s)"]
        if rescue.get("throttle_stage"):
            parts.append(
                f"throttle stage {rescue['throttle_stage']} "
                f"(factor {rescue.get('throttle_factor')})"
            )
        if rescue.get("compress_ratio") is not None:
            parts.append(f"compress ratio {rescue['compress_ratio']}")
        lines.append("  rescue ladder: " + ", ".join(parts))
    wire = status.get("wire_by_category", {})
    if wire:
        total = sum(wire.values())
        lines.append(f"  wire bytes {fmt_bytes(total)}:")
        for cat in sorted(wire):
            lines.append(f"    {cat:<18} {fmt_bytes(wire[cat])}")
    if status.get("phase") in ("done", "aborted"):
        lines.append(
            f"  finished: stop_reason={status.get('stop_reason') or '-'}  "
            f"verified={status.get('verified')}"
        )
    return "\n".join(lines)


def live_board(board: dict, fleet: bool | None = None) -> str:
    """Render a :class:`~repro.telemetry.live.FleetBoard` dict.

    One migration renders as a detail card; several (or ``fleet=True``)
    render as a per-migration table plus the percentile rollups.
    """
    migrations = board.get("migrations", [])
    if not migrations:
        return "(no migrations on the board)"
    missed = board.get("stream_missed", {})
    notes = [
        f"stream {name}: skipped {missed[name]} corrupt line(s)"
        for name in sorted(missed)
    ]
    if fleet is not True and len(migrations) == 1:
        return "\n".join([_status_card(migrations[0]), *notes])
    header = (
        f"{'migration':<20} {'engine':<9} {'phase':<16} {'iter':>4} "
        f"{'pages rem':>10} {'dirty rate':>12} {'eta':>10} {'rungs':>5}"
    )
    lines = [header, "-" * len(header)]
    for status in migrations:
        verdict = status.get("verdict", {})
        eta = verdict.get("eta_s")
        lines.append(
            f"{status.get('name', '?'):<20} "
            f"{status.get('engine', '?'):<9} "
            f"{status.get('phase', '?'):<16} "
            f"{status.get('iterations', 0):>4} "
            f"{status.get('pages_remaining', 0):>10} "
            f"{fmt_bytes(status.get('dirty_rate_bytes_s', 0.0)) + '/s':>12} "
            f"{(f'{eta:.1f}s' if eta is not None else '-'):>10} "
            f"{status.get('rescue', {}).get('rungs', 0):>5}"
        )
    rollups = board.get("rollups", {})
    phases = rollups.get("phases", {})
    lines.append("")
    lines.append(
        f"fleet: {rollups.get('n', len(migrations))} migration(s)  "
        + "  ".join(f"{phase}={count}" for phase, count in phases.items())
    )
    for key, quantiles in rollups.get("measures", {}).items():
        lines.append(
            f"  {key:<24} p50 {quantiles.get('p50', 0.0):.4g}  "
            f"p95 {quantiles.get('p95', 0.0):.4g}  "
            f"p99 {quantiles.get('p99', 0.0):.4g}"
        )
    for cat, quantiles in rollups.get("wire_bytes", {}).items():
        lines.append(
            f"  wire[{cat}]  p50 {fmt_bytes(quantiles.get('p50', 0.0))}  "
            f"p95 {fmt_bytes(quantiles.get('p95', 0.0))}  "
            f"p99 {fmt_bytes(quantiles.get('p99', 0.0))}"
        )
    return "\n".join(lines + notes)
