"""The command-line entry point."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import ALL_EXPERIMENTS


def test_parser_lists_all_experiments():
    parser = build_parser()
    args = parser.parse_args(["table1"])
    assert args.experiment == "table1"
    assert args.seed == 20150421


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["not-a-figure"])


def test_seed_flag():
    args = build_parser().parse_args(["fig01", "--seed", "7"])
    assert args.seed == 7


def test_main_runs_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "derby" in out


def test_main_runs_multiapp(capsys):
    assert main(["multiapp"]) == 0
    out = capsys.readouterr().out
    assert "verified:         True" in out


def test_migrate_command_runs_and_reports(capsys):
    code = main(
        [
            "migrate",
            "--workload", "crypto",
            "--engine", "javmm",
            "--mem-mb", "512",
            "--young-mb", "128",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "javmm" in out
    assert "verified: True" in out


def test_migrate_command_json(capsys):
    code = main(
        [
            "migrate",
            "--workload", "crypto",
            "--engine", "xen",
            "--mem-mb", "512",
            "--young-mb", "128",
            "--json",
        ]
    )
    assert code == 0
    import json as jsonlib

    payload = jsonlib.loads(capsys.readouterr().out)
    assert payload["engine"] == "xen"
    assert payload["verified"] is True
    assert payload["iterations"]


def test_experiment_registry_complete():
    expected = {
        "fig01", "fig05", "fig08", "fig09", "fig10", "fig11", "fig12",
        "table1", "table2", "table3", "ablations", "scaleup", "multiapp",
        "wan",
    }
    assert set(ALL_EXPERIMENTS) == expected
    for module in ALL_EXPERIMENTS.values():
        assert hasattr(module, "main")


SMALL_MIGRATE = ["--workload", "crypto", "--mem-mb", "512", "--young-mb", "128"]


@pytest.mark.parametrize("extra,spec", [
    ([], dict(warmup_s=20.0, cooldown_s=10.0)),
    (["--supervise"], dict(supervise=True, warmup_s=5.0)),
])
def test_migrate_json_is_the_standalone_payload(capsys, extra, spec):
    """``migrate --json`` prints exactly what ``run_standalone`` returns
    for the same spec: one payload builder for the CLI and the service."""
    import json as jsonlib

    from repro.service import SessionConfig, run_standalone

    assert main(["migrate", *SMALL_MIGRATE, *extra, "--json"]) == 0
    payload = jsonlib.loads(capsys.readouterr().out)
    config = SessionConfig(
        workload="crypto", mem_mb=512, young_mb=128, telemetry=False, **spec
    )
    assert payload == run_standalone(config)
    assert payload["ok"] is True
    assert payload["conservation_violations"] == []


def test_migrate_honours_warmup_flag(capsys):
    import json as jsonlib

    code = main(["migrate", *SMALL_MIGRATE, "--warmup-s", "4",
                 "--cooldown-s", "1", "--json"])
    assert code == 0
    payload = jsonlib.loads(capsys.readouterr().out)
    assert payload["started_s"] == pytest.approx(4.0, abs=0.005)


def test_migrate_refuses_a_bad_spec():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="mem_mb"):
        main(["migrate", "--mem-mb", "-5"])


def test_one_flags_to_spec_function_serves_migrate_and_submit():
    from repro.cli import _spec

    def spec(*argv):
        return _spec(build_parser().parse_args(list(argv)))

    assert (spec("migrate").warmup_s, spec("migrate").cooldown_s) == (20.0, 10.0)
    submit = spec("ctl", "submit")
    assert (submit.warmup_s, submit.cooldown_s, submit.telemetry) == (6.0, 3.0, True)
    wan = spec("migrate", *SMALL_MIGRATE, "--wan", "metro", "--no-rescue")
    assert wan.supervise and not wan.rescue and wan.warmup_s == 5.0
    driver = wan.build_driver()
    assert driver.experiment.supervision["rescue"] is False
    assert driver.experiment.supervision["scale_timeouts"] is False


@pytest.fixture(scope="module")
def export(tmp_path_factory):
    """A finalized ``--telemetry-out`` stream of one small migration."""
    import contextlib
    import io

    path = tmp_path_factory.mktemp("export") / "run.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["migrate", *SMALL_MIGRATE, "--warmup-s", "2",
                     "--cooldown-s", "1", "--telemetry-out", str(path)]) == 0
    return path


def test_options_may_sit_before_or_after_the_files(export, tmp_path, capsys):
    """``attribute --audit run.jsonl`` parses like ``attribute run.jsonl
    --audit``, and so do doctor, compare, watch and archive."""
    path = str(export)
    db = str(tmp_path / "runs.db")
    for before, after in [
        (["attribute", "--audit", path], ["attribute", path, "--audit"]),
        (["doctor", "--no-sparklines", path], ["doctor", path, "--no-sparklines"]),
        (["compare", "--threshold-pct", "5", path, path],
         ["compare", path, path, "--threshold-pct", "5"]),
        (["watch", "--json", path], ["watch", path, "--json"]),
        (["archive", "--db", db, "ingest", path], ["archive", "ingest", path, "--db", db]),
    ]:
        assert main(before) == 0, before
        first = capsys.readouterr().out
        assert main(after) == 0, after
        second = capsys.readouterr().out
        if before[0] != "archive":  # the second ingest finds the run archived
            assert first == second, before


def test_doctor_names_an_unfinalized_stream(export, tmp_path, capsys):
    """A stream cut before its span, metric and attribution lines (what
    a crashed writer leaves) is reported, not passed as healthy."""
    import json

    lines = export.read_text().splitlines(keepends=True)
    live = [line for line in lines
            if json.loads(line)["type"] not in ("span", "metric", "attribution")]
    assert 0 < len(live) < len(lines)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(live))
    assert main(["doctor", str(cut), "--no-sparklines"]) == 0
    out = capsys.readouterr().out
    assert "unfinalized" in out and "no findings" not in out
    assert main(["doctor", str(export), "--no-sparklines"]) == 0
    assert "unfinalized" not in capsys.readouterr().out
