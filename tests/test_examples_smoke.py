"""Smoke tests for the runnable examples (the fast ones).

The examples are user-facing deliverables; these tests import and run a
representative subset end-to-end so API drift cannot silently break
them.  The long sweeps (young_gen_sweep, gang_migration) are exercised
by the equivalent benchmarks instead.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "script, expect",
    [
        ("quickstart.py", "JAVMM vs Xen"),
        ("cache_server_migration.py", "shrunken cache: True"),
        ("dotnet_migration.py", "framework-assisted"),
        ("g1_migration.py", "assisted (AreaAdded on)"),
        ("checkpoint_replication.py", "deprotected"),
    ],
)
def test_example_runs(script, expect, capsys):
    out = run_example(script, capsys)
    assert expect in out
    assert "verified=False" not in out
    assert "verified: False" not in out


def test_all_examples_present_and_documented():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert len(scripts) >= 9
    for script in scripts:
        text = (EXAMPLES / script).read_text()
        assert text.startswith("#!/usr/bin/env python3"), script
        assert '"""' in text, script
        assert "def main()" in text, script
