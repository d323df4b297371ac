"""Command-line entry point.

Two modes:

- regenerate a paper figure/table::

      javmm-repro fig01
      javmm-repro fig10 --seed 7
      javmm-repro all

- run a single migration and print (or JSON-dump) its report::

      javmm-repro migrate --workload derby --engine javmm
      javmm-repro migrate --workload scimark --engine auto --json

- trace a migration with full telemetry and print the per-phase
  latency table (``--trace-out`` writes Perfetto-loadable JSON)::

      javmm-repro trace --workload derby --engine javmm --trace-out t.json

- diagnose a finished run from its unified JSONL export, or diff two
  runs against regression thresholds (nonzero exit on regression)::

      javmm-repro doctor run.jsonl
      javmm-repro compare baseline.jsonl candidate.jsonl --threshold-pct 5

- run crash-safe, and resume a crashed run from its latest durable
  checkpoint (the resumed run is bit-identical to an uninterrupted
  one)::

      javmm-repro migrate --workload derby --checkpoint-dir ckpts/
      javmm-repro resume --checkpoint-dir ckpts/

- attribute where every millisecond and every wire byte went, with
  conservation checked (``--audit`` makes any violation fatal, exit 3)::

      javmm-repro migrate --workload derby --audit
      javmm-repro migrate --workload derby --telemetry-out run.jsonl
      javmm-repro attribute run.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.errors import TelemetryFormatError
from repro.experiments import ALL_EXPERIMENTS
from repro.sim.engine import KERNEL_ENV_VAR, KERNELS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="javmm-repro",
        description=(
            "Reproduce the evaluation of 'Application-Assisted Live Migration "
            "of Virtual Machines with Java Applications' (EuroSys 2015)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS)
        + ["all", "migrate", "trace", "doctor", "compare", "resume",
           "attribute", "watch", "archive", "serve", "ctl"],
        help=(
            "which figure/table to regenerate ('all' runs everything; "
            "'migrate' runs one ad-hoc migration; 'trace' runs one with "
            "telemetry on and prints the per-phase latency table; "
            "'doctor' diagnoses a telemetry export; 'compare' diffs two "
            "runs for regressions; 'resume' continues a crashed run "
            "from its latest checkpoint; 'attribute' renders the "
            "conservation-checked attribution waterfall of an export; "
            "'watch' tails telemetry streams into a live status board; "
            "'archive' manages the SQLite multi-run archive "
            "(ingest/query/export); 'serve' runs the migration-"
            "manager daemon over --service-dir; 'ctl' sends it control "
            "verbs (submit/status/list/pause/resume/stop-and-copy/"
            "abort/finalize/wait/watch/ping/shutdown)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="FILE",
        help=(
            "inputs for 'doctor'/'attribute' (one telemetry JSONL "
            "export), 'compare' (baseline then candidate telemetry "
            "JSONL export), 'watch' (streams to tail), and "
            "'archive' (an action — ingest/query/export — "
            "followed by its arguments)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=20150421, help="root random seed (default: %(default)s)"
    )
    parser.add_argument(
        "--kernel",
        choices=KERNELS,
        default=None,
        help=(
            "simulation kernel: 'fixed' steps every tick, 'event' leaps "
            "quiet stretches (default: $REPRO_SIM_KERNEL, else fixed)"
        ),
    )
    migrate = parser.add_argument_group("migrate options")
    migrate.add_argument("--workload", default="derby", help="workload name")
    migrate.add_argument(
        "--engine",
        default="javmm",
        help="migration engine (xen, javmm, auto, throttle, compress, ...)",
    )
    migrate.add_argument(
        "--mem-mb", type=int, default=2048, help="VM memory in MiB"
    )
    migrate.add_argument(
        "--young-mb", type=int, default=1024, help="maximum Young generation in MiB"
    )
    migrate.add_argument(
        "--json", action="store_true",
        help="emit the run's payload as JSON, always with a 'final_digest'",
    )
    migrate.add_argument(
        "--warmup-s", type=float, default=None, metavar="SECONDS",
        help="warm-up (default: migrate 20, or 5 supervised; ctl submit 6)",
    )
    migrate.add_argument(
        "--cooldown-s", type=float, default=None, metavar="SECONDS",
        help="cool-down of a plain run (default: migrate 10; ctl submit 3)",
    )
    migrate.add_argument(
        "--audit",
        action="store_true",
        help=(
            "audit the attribution ledger: every millisecond and wire "
            "byte must land in exactly one bucket, buckets must sum to "
            "the report totals, and the link meter must reconcile; any "
            "violation prints the offenders and exits 3"
        ),
    )
    migrate.add_argument(
        "--supervise",
        action="store_true",
        help=(
            "run under a MigrationSupervisor: retry aborted migrations with "
            "exponential backoff, degrading javmm -> assisted -> xen"
        ),
    )
    migrate.add_argument(
        "--max-attempts",
        type=int,
        default=4,
        help="attempt budget for --supervise (default: %(default)s)",
    )
    from repro.net import WAN_PROFILES

    migrate.add_argument(
        "--wan",
        choices=sorted(WAN_PROFILES),
        default=None,
        metavar="PROFILE",
        help=(
            "migrate over a WAN link profile (implies --supervise): "
            + ", ".join(sorted(WAN_PROFILES))
        ),
    )
    migrate.add_argument(
        "--no-rescue",
        action="store_true",
        help=(
            "disable the supervisor's rescue ladder (no auto-converge "
            "throttling, no rescue wire compression) and RTT-aware "
            "watchdog rescaling — the fixed-policy baseline"
        ),
    )
    checkpoint = parser.add_argument_group("checkpoint options")
    checkpoint.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "write durable checkpoints here during migrate/trace (and "
            "read them back for 'resume')"
        ),
    )
    checkpoint.add_argument(
        "--checkpoint-every",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="simulated seconds between checkpoints (default: %(default)s)",
    )
    checkpoint.add_argument(
        "--checkpoint-budget",
        type=float,
        default=3.0,
        metavar="PCT",
        help=(
            "max percentage of wall clock spent writing checkpoints; due "
            "writes past the budget are deferred to the next cadence "
            "instant. 0 disables the throttle and honours the cadence "
            "exactly (default: %(default)s)"
        ),
    )
    telemetry = parser.add_argument_group(
        "telemetry options (any of these turns telemetry on)"
    )
    telemetry.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write spans as Chrome trace_event JSON (load in Perfetto)",
    )
    telemetry.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the metrics registry snapshot as JSON",
    )
    telemetry.add_argument(
        "--telemetry-out",
        metavar="FILE",
        help=(
            "stream the unified JSONL export (spans + metrics + events) "
            "as the run goes; tail it with 'watch --follow'"
        ),
    )
    watch = parser.add_argument_group("watch options")
    watch.add_argument(
        "--follow",
        action="store_true",
        help="watch: keep tailing until every migration reaches done/aborted",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="watch --follow: wall seconds between polls (default: %(default)s)",
    )
    watch.add_argument(
        "--watch-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help=(
            "watch --follow: give up (exit 1) after this many wall "
            "seconds without every stream finishing (default: %(default)s)"
        ),
    )
    watch.add_argument(
        "--fleet",
        action="store_true",
        help="watch: force the fleet rollup board even for one stream",
    )
    watch.add_argument(
        "--prom-out",
        metavar="FILE",
        help="watch: also write the board as a Prometheus text exposition",
    )
    archive_opts = parser.add_argument_group("archive options")
    archive_opts.add_argument(
        "--db",
        default="archive.db",
        metavar="PATH",
        help="archive database file (default: %(default)s)",
    )
    archive_opts.add_argument(
        "--from-archive",
        action="append",
        default=[],
        metavar="RUN_ID",
        help=(
            "doctor/compare/attribute/watch: read this archived run "
            "(by id or unique prefix, from --db) instead of a file; "
            "repeatable, consumed after any positional FILEs"
        ),
    )
    service = parser.add_argument_group("serve / ctl options")
    service.add_argument(
        "--service-dir",
        default="repro-service",
        metavar="DIR",
        help=(
            "the service root: sessions, checkpoints, results and the "
            "control socket all live under it (default: %(default)s)"
        ),
    )
    service.add_argument(
        "--max-active",
        type=int,
        default=8,
        metavar="N",
        help=(
            "serve: admission-control pool — sessions RUNNING at once; "
            "the rest queue (default: %(default)s)"
        ),
    )
    service.add_argument(
        "--slice-s",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help=(
            "serve: simulated seconds each session advances per "
            "scheduling round (default: %(default)s)"
        ),
    )
    service.add_argument(
        "--session-name",
        default="",
        metavar="NAME",
        help="ctl submit: operator label surfaced by status/watch",
    )
    service.add_argument(
        "--no-session-telemetry",
        action="store_true",
        help="ctl submit: skip the session's telemetry.jsonl stream",
    )
    analysis = parser.add_argument_group("doctor / compare options")
    analysis.add_argument(
        "--threshold-pct",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "compare: override every regression gate percentage "
            "(default: per-measure, 5%% for simulated measures)"
        ),
    )
    analysis.add_argument(
        "--no-sparklines",
        action="store_true",
        help="doctor: omit the key-series sparkline charts",
    )
    return parser


def _write_telemetry_outputs(args: argparse.Namespace, driver, payload: dict) -> None:
    from repro.service.session import finish_stream
    from repro.telemetry import write_chrome_trace, write_metrics_json

    probe = driver.vm.probe
    if not probe.enabled:
        return
    if args.trace_out:
        write_chrome_trace(args.trace_out, probe.tracer)
        print(f"wrote Chrome trace: {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        write_metrics_json(args.metrics_out, probe.metrics)
        print(f"wrote metrics: {args.metrics_out}", file=sys.stderr)
    n = finish_stream(driver, payload)
    if n is not None:
        print(f"wrote {n} telemetry records: {probe.sink.path}", file=sys.stderr)


def _audit_verdict(args: argparse.Namespace, violations: list[str]) -> int | None:
    """In ``--audit`` mode a conservation violation is fatal (exit 3)."""
    if not args.audit:
        return None
    if violations:
        print("attribution audit FAILED:", file=sys.stderr)
        for v in violations:
            print(f"  !! {v}", file=sys.stderr)
        return 3
    print("attribution audit: conserved", file=sys.stderr)
    return None


def _max_overhead(args: argparse.Namespace) -> float | None:
    """--checkpoint-budget as a fraction; 0 disables the throttle."""
    budget = args.checkpoint_budget
    return None if budget <= 0 else budget / 100.0


#: ``repro migrate``'s warm-up when --warmup-s is not given, keyed by
#: --supervise: the library drivers' own defaults (MigrationExperiment
#: 20 s, supervised_migrate 5 s)
_MIGRATE_WARMUP_S = {False: 20.0, True: 5.0}


def _spec(args: argparse.Namespace):
    """The run spec the migrate flags describe, for ``migrate``/``trace``
    and ``ctl submit`` alike.  Unset --warmup-s/--cooldown-s keep each
    command's default: the library drivers' for ``migrate``, the
    spec's own for ``ctl submit``."""
    from repro.service.session import SessionConfig

    supervise = args.supervise or bool(args.wan)
    fields = {
        "workload": args.workload,
        "engine": args.engine,
        "mem_mb": args.mem_mb,
        "young_mb": args.young_mb,
        "kernel": args.kernel,
        "seed": args.seed,
        "supervise": supervise,
        "wan": args.wan,
        "max_attempts": args.max_attempts,
        "rescue": not args.no_rescue,
    }
    if args.experiment == "ctl":
        fields["telemetry"] = not args.no_session_telemetry
        fields["name"] = args.session_name
    else:
        fields["telemetry"] = bool(
            args.trace_out or args.metrics_out or args.telemetry_out
            or args.experiment == "trace"
        )
        fields["warmup_s"] = _MIGRATE_WARMUP_S[supervise]
        fields["cooldown_s"] = 10.0
    for name in ("warmup_s", "cooldown_s"):
        if getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    return SessionConfig(**fields)


def _print_run(args: argparse.Namespace, driver) -> int:
    """Print a finished run — ``--json`` prints its payload — and
    return the exit code: 0 iff the migration succeeded and verified."""
    from repro.service.session import run_payload

    payload = run_payload(driver)
    ledgers = payload["attribution"]
    probe = driver.vm.probe
    _write_telemetry_outputs(args, driver, payload)
    if args.experiment == "trace" and probe.enabled:
        print(probe.tracer.phase_table())
    report = driver.result.report
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        summaries = (driver.result.summary(), report and report.summary())
        print("\n".join(text for text in summaries if text))
        if args.audit and ledgers:
            from repro.viz import attribution_waterfall

            print(attribution_waterfall(ledgers[-1]))
    verdict = _audit_verdict(args, payload["conservation_violations"])
    if verdict is not None:
        return verdict
    return 0 if payload["ok"] and report is not None and report.verified else 1


def _run_migrate(args: argparse.Namespace) -> int:
    from repro.telemetry.live import JsonlSink

    spec = _spec(args)
    driver = spec.build_driver(
        JsonlSink(args.telemetry_out) if args.telemetry_out else None
    )
    checkpointer = None
    if args.checkpoint_dir:
        checkpointer = spec.checkpointer(
            args.checkpoint_dir, args.checkpoint_every, _max_overhead(args)
        )
    driver.run(checkpointer)
    return _print_run(args, driver)


def _run_resume(args: argparse.Namespace) -> int:
    from repro.checkpoint import resume
    from repro.errors import CheckpointError
    from repro.service.session import restored_driver

    if not args.checkpoint_dir:
        print("resume needs --checkpoint-dir", file=sys.stderr)
        return 2
    if args.telemetry_out:
        print("resume finalizes the stream the checkpointed run was writing; "
              "--telemetry-out cannot start another", file=sys.stderr)
        return 2
    resumed = resume(args.checkpoint_dir)
    try:
        driver = restored_driver(resumed.controller)
    except CheckpointError as exc:
        print(exc, file=sys.stderr)
        return 2
    driver.run(resumed.checkpointer(
        every_s=args.checkpoint_every, max_overhead=_max_overhead(args)
    ))
    return _print_run(args, driver)


def _resolve_inputs(args: argparse.Namespace) -> list[str]:
    """Positional FILEs plus any --from-archive runs, in that order.

    Archived runs are exported back out of the database into a private
    temp directory, so every downstream consumer (doctor, compare,
    attribute, watch) keeps its plain path-based interface.
    """
    inputs = list(args.paths)
    if args.from_archive:
        import tempfile

        from repro.telemetry.archive import RunArchive

        tmpdir = tempfile.mkdtemp(prefix="repro-archive-")
        with RunArchive(args.db) as archive:
            for prefix in args.from_archive:
                run_id = archive.resolve(prefix)
                out = os.path.join(tmpdir, f"{run_id}.jsonl")
                archive.export_stream(run_id, out)
                inputs.append(out)
    return inputs


def _run_doctor(args: argparse.Namespace) -> int:
    from repro.telemetry.analysis import Doctor

    inputs = _resolve_inputs(args)
    if len(inputs) != 1:
        print(
            "doctor needs exactly one telemetry JSONL export "
            "(a FILE or --from-archive RUN_ID)",
            file=sys.stderr,
        )
        return 2
    report = Doctor().diagnose_file(inputs[0])
    print(report.render(sparklines=not args.no_sparklines))
    return 0


def _run_attribute(args: argparse.Namespace) -> int:
    from repro.telemetry import read_jsonl
    from repro.telemetry.attribution import attribute_dump
    from repro.viz import attribution_waterfall

    inputs = _resolve_inputs(args)
    if len(inputs) != 1:
        print(
            "attribute needs exactly one telemetry JSONL export "
            "(a FILE or --from-archive RUN_ID)",
            file=sys.stderr,
        )
        return 2
    dump = read_jsonl(inputs[0])
    ledgers = attribute_dump(dump)
    if not ledgers:
        print("no migration found in the export", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(ledgers, indent=2))
    else:
        print("\n\n".join(attribution_waterfall(led) for led in ledgers))
    violations = [
        f"attempt {led.get('attempt', 1)}: {v}"
        for led in ledgers
        for v in led.get("violations", [])
    ]
    return _audit_verdict(args, violations) or 0


def _run_compare(args: argparse.Namespace) -> int:
    from repro.telemetry.analysis import compare_runs

    inputs = _resolve_inputs(args)
    if len(inputs) != 2:
        print(
            "compare needs a baseline and a candidate telemetry "
            "export (FILEs first, then any --from-archive RUN_IDs)",
            file=sys.stderr,
        )
        return 2
    result = compare_runs(
        inputs[0], inputs[1], threshold_pct=args.threshold_pct
    )
    print(result.render())
    return result.exit_code


def _run_watch(args: argparse.Namespace) -> int:
    """Tail telemetry streams into a live board (one-shot or --follow)."""
    import time

    from repro.telemetry.live import FileTail, FleetBoard, LiveStatus

    inputs = _resolve_inputs(args)
    if not inputs:
        print(
            "watch needs at least one telemetry stream "
            "(a FILE or --from-archive RUN_ID)",
            file=sys.stderr,
        )
        return 2
    tails = []
    for path in inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        tails.append((FileTail(path), LiveStatus(name=name)))
    board = FleetBoard()
    deadline = time.monotonic() + args.watch_timeout
    finished = False
    while True:
        for tail, status in tails:
            board.update(status.follow(tail))
        finished = all(status.finished for _, status in tails)
        if not args.follow or finished or time.monotonic() >= deadline:
            break
        time.sleep(args.interval)
    if args.json:
        print(json.dumps(board.to_dict(), indent=2))
    else:
        print(board.render(fleet=args.fleet or None))
    if args.prom_out:
        with open(args.prom_out, "w") as fh:
            fh.write(board.to_prom_text())
        print(f"wrote Prometheus exposition: {args.prom_out}", file=sys.stderr)
    if args.follow and not finished:
        print(
            f"watch timed out after {args.watch_timeout}s with "
            "unfinished migrations",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_archive(args: argparse.Namespace) -> int:
    """``archive ACTION [ARGS...]``: ingest / query / export."""
    from repro.telemetry.archive import RunArchive

    if not args.paths:
        print(
            "archive needs an action: ingest FILE..., query [RUN_ID], "
            "export RUN_ID OUT",
            file=sys.stderr,
        )
        return 2
    action, rest = args.paths[0], args.paths[1:]
    with RunArchive(args.db) as archive:
        if action == "ingest":
            if not rest:
                print("archive ingest needs at least one file", file=sys.stderr)
                return 2
            for path in rest:
                run_id, created = archive.ingest(path)
                verb = "ingested" if created else "already archived"
                print(f"{run_id}  {verb}  {path}")
            return 0
        if action == "query":
            if not rest:
                for run in archive.runs():
                    print(
                        f"{run['run_id']}  {run['kind']:<9}  "
                        f"{run['name']:<24}  {run['path']}"
                    )
                return 0
            payload = archive.query(rest[0])
            print(json.dumps(payload, indent=2))
            return 0
        if action == "export":
            if len(rest) != 2:
                print("archive export needs RUN_ID and OUT", file=sys.stderr)
                return 2
            n = archive.export_stream(rest[0], rest[1])
            print(f"wrote {n} lines: {rest[1]}", file=sys.stderr)
            return 0
    print(f"unknown archive action {action!r}", file=sys.stderr)
    return 2


def _run_serve(args: argparse.Namespace) -> int:
    """Run the migration-manager daemon (blocks until 'ctl shutdown')."""
    from repro.service.server import serve

    print(
        f"repro serve: root={args.service_dir} max_active={args.max_active} "
        f"slice={args.slice_s}s",
        file=sys.stderr,
    )
    serve(
        args.service_dir,
        max_active=args.max_active,
        slice_s=args.slice_s,
        checkpoint_every_s=args.checkpoint_every,
        checkpoint_overhead=_max_overhead(args),
    )
    return 0


def _run_ctl(args: argparse.Namespace) -> int:
    """Send one control verb to a running daemon."""
    from repro.service import RequestFailed, ServiceClient, ServiceUnavailable

    if not args.paths:
        print(
            "ctl needs a verb: submit, status [ID], list, pause ID, "
            "resume ID, stop-and-copy ID, abort ID, finalize ID, "
            "wait ID, watch, ping, shutdown",
            file=sys.stderr,
        )
        return 2
    verb, rest = args.paths[0].replace("-", "_"), args.paths[1:]
    client = ServiceClient(args.service_dir)
    try:
        if verb == "submit":
            response = client.request("submit", config=_spec(args).to_dict())
            print(response["id"])
            return 0
        if verb in ("status", "list"):
            if verb == "status" and rest:
                response = client.request("status", id=rest[0])
                print(json.dumps(response["session"], indent=2))
                return 0
            response = client.request("list")
            sessions = response["sessions"]
            if args.json:
                print(json.dumps(sessions, indent=2))
            else:
                for info in sessions:
                    line = (
                        f"{info['id']:<28} {info['state']:<10} "
                        f"{info['workload']:<10} {info['engine']}"
                    )
                    if info.get("error"):
                        line += f"  !! {info['error']}"
                    print(line)
            return 0
        if verb == "wait":
            if not rest:
                print("ctl wait needs a session id", file=sys.stderr)
                return 2
            status = client.wait_terminal(rest[0], timeout_s=args.watch_timeout)
            print(json.dumps(status, indent=2))
            return 0 if status.get("state") == "done" else 1
        if verb == "watch":
            import time

            deadline = time.monotonic() + args.watch_timeout
            while True:
                response = client.request("watch")
                if not args.follow or time.monotonic() >= deadline:
                    break
                listing = client.request("list")["sessions"]
                if listing and all(
                    s["state"] in ("done", "aborted", "failed", "finalized")
                    for s in listing
                ):
                    break
                time.sleep(args.interval)
            if args.json:
                print(json.dumps(response["board"], indent=2))
            else:
                print(response["rendered"])
            if args.prom_out:
                with open(args.prom_out, "w") as fh:
                    fh.write(response.get("prom", ""))
                print(
                    f"wrote Prometheus exposition: {args.prom_out}",
                    file=sys.stderr,
                )
            return 0
        if verb in ("pause", "resume", "stop_and_copy", "abort", "finalize",
                    "ping", "shutdown"):
            fields = {}
            if verb not in ("ping", "shutdown"):
                if not rest:
                    print(f"ctl {verb} needs a session id", file=sys.stderr)
                    return 2
                fields["id"] = rest[0]
            response = client.request(verb, **fields)
            payload = response.get(
                "session", response.get("result", response)
            )
            print(json.dumps(payload, indent=2))
            return 0
        print(f"unknown ctl verb {verb!r}", file=sys.stderr)
        return 2
    except RequestFailed as exc:
        print(f"ctl {verb}: {exc}", file=sys.stderr)
        return 1
    except ServiceUnavailable as exc:
        print(f"ctl {verb}: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()


def main(argv: list[str] | None = None) -> int:
    # Intermixed, so an option may sit between the command and its FILEs
    # (`attribute --audit run.jsonl`): plain parse_args would consume the
    # nargs="*" positional empty before the option.
    args = build_parser().parse_intermixed_args(argv)
    if args.kernel:
        # Every engine is built through make_engine(), which reads this.
        os.environ[KERNEL_ENV_VAR] = args.kernel
    readers = {
        "doctor": _run_doctor,
        "compare": _run_compare,
        "attribute": _run_attribute,
        "archive": _run_archive,
    }
    if args.experiment in readers:
        try:
            return readers[args.experiment](args)
        except TelemetryFormatError as exc:  # a file that is no stream
            print(exc, file=sys.stderr)
            return 2
    if args.experiment == "watch":
        return _run_watch(args)
    if args.experiment == "resume":
        return _run_resume(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "ctl":
        return _run_ctl(args)
    if args.experiment in ("migrate", "trace"):
        return _run_migrate(args)
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        module = ALL_EXPERIMENTS[name]
        print("=" * 72)
        try:
            if name == "table1":
                module.main()
            else:
                module.main(seed=args.seed)
        except Exception as exc:  # pragma: no cover - CLI surface
            print(f"{name} failed: {exc}", file=sys.stderr)
            return 1
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
