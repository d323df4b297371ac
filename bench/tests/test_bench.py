"""Self-tests of the benchmark harness, on reduced cell lists.

    python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO_ROOT / "src")]

import compare  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LEDGER_TOLERANCE, Tracer  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())

#: small stand-ins for the real cells: same code paths, a fraction of the work
LAN_CELLS = [
    {"workload": "derby", "engine": "xen", "mem_mb": 1024, "young_mb": 512,
     "warmup_s": 3.0, "cooldown_s": 1.0, "dt": 0.005},
    {"workload": "crypto", "engine": "javmm", "mem_mb": 1024, "young_mb": 512,
     "warmup_s": 3.0, "cooldown_s": 1.0, "dt": 0.005},
]
SERVICE_CELLS = [
    {"workload": "derby", "engine": "javmm", "supervise": False, "mem_mb": 512,
     "young_mb": 128, "telemetry": True, "kernel": "fixed"},
    {"workload": "crypto", "engine": "xen", "supervise": True, "mem_mb": 512,
     "young_mb": 128, "telemetry": True, "kernel": "fixed"},
]


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def emitted(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.fixture(scope="module")
def traced_lan() -> dict:
    out = wl.run_inprocess(wl.LanPaper, seed=3, seconds=0, tracer=Tracer(), cells=LAN_CELLS)
    out["layers"] = wl.layer_metrics(out)
    return out


@pytest.fixture(scope="module")
def lan() -> dict:
    return wl.run_inprocess(wl.LanPaper, seed=11, seconds=0, cells=LAN_CELLS[:1])


def test_traced_ledger_is_conserved(traced_lan):
    assert len(traced_lan["ledgers"]) == wl.MIN_PASSES * len(LAN_CELLS)
    for ledger in traced_lan["ledgers"]:
        assert abs(ledger["residual"]) <= LEDGER_TOLERANCE
        assert sum(ledger["self_s"].values()) == pytest.approx(ledger["wall_s"], rel=LEDGER_TOLERANCE)
        assert {"migration", "jvm", "guest", "sim", "bench"} <= set(ledger["self_s"])
    assert traced_lan["correct"], traced_lan["errors"]


def test_tracer_uninstalls_cleanly(traced_lan):
    from repro.mem.page_table import PageTable
    from repro.sim.engine import Engine

    assert not hasattr(Engine.step, "__wrapped__")
    assert not hasattr(PageTable.walk, "__wrapped__")


def test_unbalanced_ledger_fails_loudly():
    tracer = Tracer()
    with pytest.raises(AssertionError, match="unbalanced"):
        with tracer.op("broken"):
            tracer.stack.append([0, 0, 0])


def test_same_seed_same_outputs_other_seed_other_inputs(lan):
    first = lan
    again = wl.run_inprocess(wl.LanPaper, seed=11, seconds=0, cells=LAN_CELLS[:1])
    other = wl.run_inprocess(wl.LanPaper, seed=12, seconds=0, cells=LAN_CELLS[:1])
    assert first["outputs_digest"] == again["outputs_digest"]
    assert first["model"] == again["model"]
    assert wl.inputs("lan-paper", 11, LAN_CELLS) != wl.inputs("lan-paper", 12, LAN_CELLS)
    assert first["outputs_digest"] != other["outputs_digest"]
    assert first["model"]["migrations"] == 1 and first["model"]["wire_gib"] > 0


class _UnverifiedLan(wl.LanPaper):
    """The real op, with its migration reported unverified."""

    @staticmethod
    def run(cell, seed):
        result, sim_s = wl.LanPaper.run(cell, seed)
        result.report.verified = False
        return result, sim_s


def test_unverified_op_raises_error_rate():
    out = wl.run_inprocess(_UnverifiedLan, seed=3, seconds=0, cells=LAN_CELLS[:1])
    assert (out["attempted"], out["failed"], out["correct"]) == (wl.MIN_PASSES, wl.MIN_PASSES, False)
    assert any("not verified" in e for e in out["errors"])
    assert out["metrics"]["ops_per_min"]["value"] == 0.0


def test_passes_repeat_until_the_next_would_end_past_seconds(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(wl.time, "perf_counter", lambda: clock[0])

    def run_pass(index: int) -> None:
        clock[0] += 1.0

    assert wl.repeat_passes(run_pass, seconds=4.5) == 4
    assert wl.repeat_passes(run_pass, seconds=0) == wl.MIN_PASSES


def test_every_metric_is_declared_and_vice_versa(lan, traced_lan):
    end_to_end = {"setup_s": "s", **emitted(lan["metrics"])}
    assert end_to_end == declared("end_to_end")
    assert emitted(traced_lan["layers"]) == declared("per_layer")
    # Traced walls are inflated, so a traced run reports no end-to-end metrics.
    assert "metrics" not in traced_lan


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_service_fleet_traced_daemon(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"))
    fleet = wl.Fleet(tmp_path / "svc", trace=True, trace_path=tmp_path / "svc.trace.json")
    try:
        fleet.start()
        out = wl.run_service(fleet, seed=5, seconds=0, cells=SERVICE_CELLS, tracer=Tracer())
    finally:
        fleet.stop()
        fleet.remove_root()
    assert out["correct"], out["errors"]
    assert out["attempted"] == wl.MIN_PASSES * 2 and out["model"]["migrations"] == 2
    assert abs(out["ledgers"][0]["residual"]) <= LEDGER_TOLERANCE
    layers = wl.layer_metrics(out)
    assert layers["service.slices"]["value"] > 0
    assert layers["checkpoint.writes"]["value"] > 0
    assert layers["service.verb_wait_p50_ms"]["value"] > 0
    events = json.loads((tmp_path / "svc.trace.json").read_text())["traceEvents"]
    assert {e["args"]["op"] for e in events} >= {"daemon"}


def test_compare_verdicts():
    a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(a, [v * 1.3 for v in a], "higher", 0.1) == "better"
    assert compare.verdict(a, [v * 0.8 for v in a], "higher", 0.1) == "worse"
    assert compare.verdict(a, list(a), "higher", 0.1) == "within-bound"
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert compare.verdict(noisy, [v * 1.01 for v in noisy], "higher", 0.1) == "unresolved"


def test_compare_refuses_results_run_differently(tmp_path):
    def result(name: str, trace: int, seconds: float) -> str:
        path = tmp_path / name
        path.write_text(json.dumps({"seed": 1, "seconds": seconds, "trace": trace, "workloads": {}}))
        return str(path)

    same = [result("a.json", 0, 16.0), "--", result("b.json", 0, 16.0)]
    assert compare.main(same) == 0
    assert compare.main([result("c.json", 0, 16.0), "--", result("d.json", 1, 16.0)]) == 2
    assert compare.main([result("e.json", 0, 16.0), result("f.json", 0, 8.0), "--",
                         result("g.json", 0, 16.0)]) == 2


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lan-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
