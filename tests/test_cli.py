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
