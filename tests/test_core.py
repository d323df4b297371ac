"""Builders, the experiment driver and the policy advisor."""

import pytest

from repro.core.builders import ENGINE_NAMES, build_java_vm, make_migrator
from repro.core.experiment import MigrationExperiment
from repro.core.policy import choose_engine
from repro.errors import ConfigurationError, MigrationError
from repro.net.link import Link
from repro.units import GiB, MiB
from repro.workloads.spec import REGISTRY, get_workload


def test_build_java_vm_wiring():
    vm = build_java_vm(workload="crypto", mem_bytes=GiB(1), max_young_bytes=MiB(256))
    assert vm.domain.mem_bytes == GiB(1)
    assert vm.heap.max_young_bytes == MiB(256)
    assert vm.heap.old_used == MiB(18)  # crypto's observed Old, seeded
    assert vm.workload.name == "crypto"
    assert vm.process.pid in vm.kernel.netlink.subscriber_ids
    assert len(vm.actors()) == 4


def test_build_rejects_oversized_young():
    with pytest.raises(ConfigurationError):
        build_java_vm(mem_bytes=GiB(1), max_young_bytes=GiB(1))


def test_build_accepts_spec_object():
    spec = get_workload("mpeg").with_overrides(alloc_mb_s=10.0)
    vm = build_java_vm(workload=spec, mem_bytes=GiB(1), max_young_bytes=MiB(256))
    assert vm.jvm.alloc_bytes_per_s == MiB(10)


def test_make_migrator_all_engines():
    vm = build_java_vm(mem_bytes=GiB(1), max_young_bytes=MiB(256))
    link = Link()
    for engine in ENGINE_NAMES:
        migrator = make_migrator(engine, vm, link)
        assert migrator is not None
    with pytest.raises(ConfigurationError):
        make_migrator("bogus", vm, link)


def test_experiment_small_end_to_end():
    result = MigrationExperiment(
        workload="crypto",
        engine="javmm",
        mem_bytes=MiB(512),
        max_young_bytes=MiB(128),
        warmup_s=3.0,
        cooldown_s=2.0,
    ).run()
    assert result.report.verified is True
    assert result.report.violating_pages == 0
    assert result.young_committed_at_migration > 0
    assert result.mean_throughput_before > 0
    assert result.mean_throughput_after > 0
    assert len(result.throughput) > 0
    assert result.gc_log  # GCs happened


def test_experiment_deterministic_given_seed():
    def run():
        return MigrationExperiment(
            workload="crypto",
            engine="javmm",
            mem_bytes=MiB(512),
            max_young_bytes=MiB(128),
            warmup_s=3.0,
            cooldown_s=1.0,
            seed=99,
        ).run()

    a, b = run(), run()
    assert a.report.completion_time_s == b.report.completion_time_s
    assert a.report.total_wire_bytes == b.report.total_wire_bytes
    assert a.report.downtime.app_downtime_s == b.report.downtime.app_downtime_s


def test_experiment_throughput_recovers():
    result = MigrationExperiment(
        workload="crypto",
        engine="javmm",
        mem_bytes=MiB(512),
        max_young_bytes=MiB(128),
        warmup_s=3.0,
        cooldown_s=5.0,
    ).run()
    assert result.throughput_drop_fraction < 0.2


# -- policy ---------------------------------------------------------------------


def test_policy_recommends_javmm_for_category1():
    for name in ("derby", "compiler", "xml", "sunflow"):
        decision = choose_engine(REGISTRY[name], GiB(1))
        assert decision.engine == "javmm", name
        assert decision.estimated_traffic_saving_bytes > MiB(100)


def test_policy_rejects_high_survival():
    decision = choose_engine(REGISTRY["scimark"], GiB(1))
    assert decision.engine == "xen"
    assert "survival" in decision.reason


def test_policy_rejects_read_intensive():
    quiet = REGISTRY["derby"].with_overrides(
        alloc_mb_s=5.0, old_write_mb_s=1.0, misc_mb_s=0.5
    )
    decision = choose_engine(quiet, GiB(1))
    assert decision.engine == "xen"
    assert "read-intensive" in decision.reason


def test_policy_rejects_pathological_gc_cost():
    slow_gc = REGISTRY["derby"].with_overrides(gc_scale=100.0)
    decision = choose_engine(slow_gc, GiB(1))
    assert decision.engine == "xen"
    assert "long minor GC" in decision.reason


def test_policy_estimates_are_positive():
    decision = choose_engine(REGISTRY["derby"], GiB(1))
    assert decision.estimated_javmm_downtime_s > 0
    assert decision.estimated_xen_downtime_s > 0


def test_plain_run_past_its_timeout_raises():
    exp = MigrationExperiment(
        workload="derby", mem_bytes=MiB(512), max_young_bytes=MiB(128),
        warmup_s=1.0, cooldown_s=1.0, migration_timeout_s=0.5, seed=7,
    )
    with pytest.raises(MigrationError, match="did not finish within the timeout"):
        exp.run()
