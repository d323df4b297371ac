"""Unit tests for the crash-safe control plane (repro.checkpoint).

The chaos-restart equivalence matrix lives in
``test_checkpoint_chaos.py``; this file covers the primitives — the
write-ahead journal, atomic archives, the actor snapshot protocol,
RNG stream capture — and the supervisor's mid-attempt resume proof.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    SimulatedCrash,
    WriteAheadJournal,
    config_hash,
    list_checkpoints,
    load_checkpoint,
    prune_checkpoints,
    resume,
    write_checkpoint,
)
from repro.core import MigrationExperiment
from repro.core.experiment import ExperimentRun
from repro.core.supervisor import supervised_migrate
from repro.errors import CheckpointError, CheckpointSchemaError
from repro.faults import FaultPlan
from repro.sim.actor import Actor
from repro.sim.engine import Engine, make_engine
from repro.sim.rng import SimRng
from repro.units import MiB

VM_KWARGS = {"mem_bytes": MiB(512), "max_young_bytes": MiB(128)}


class Counter(Actor):
    """A trivially stateful actor for engine round-trip tests."""

    def __init__(self) -> None:
        self.ticks = 0
        self.history: list[float] = []

    def step(self, now: float, dt: float) -> None:
        self.ticks += 1
        if self.ticks % 100 == 0:
            self.history.append(now)


# -- write-ahead journal ---------------------------------------------------------------


def test_journal_append_replay_offsets(tmp_path):
    journal = WriteAheadJournal(tmp_path / "j.jsonl")
    assert journal.offset == 0
    journal.append("attempt-started", 1.0, attempt=1, engine="javmm")
    journal.append("backoff", 2.5, attempt=2, until_s=3.0)
    assert journal.offset == 2
    assert journal.last_time() == 2.5

    entries = journal.replay()
    assert [e["kind"] for e in entries] == ["attempt-started", "backoff"]
    assert [e["seq"] for e in entries] == [0, 1]
    assert journal.replay(since=1)[0]["kind"] == "backoff"

    # a reopened journal continues the sequence, not restarts it
    reopened = WriteAheadJournal(tmp_path / "j.jsonl")
    assert reopened.offset == 2
    reopened.append("degrade", 4.0)
    assert reopened.replay(since=2)[0]["seq"] == 2


def test_journal_tolerates_torn_tail(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = WriteAheadJournal(path)
    journal.append("attempt-started", 1.0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq": 1, "t": 2.0, "kind": "attem')  # crash mid-write
    entries = WriteAheadJournal.read(path)
    assert len(entries) == 1  # the torn final line is dropped, not fatal


# -- archives --------------------------------------------------------------------------


def _counting_engine(kernel: str = "fixed") -> tuple[Engine, Counter]:
    engine = make_engine(0.005, kernel=kernel)
    counter = engine.add(Counter())
    return engine, counter


def test_archive_write_load_round_trip(tmp_path):
    engine, counter = _counting_engine()
    engine.run_until(1.0)
    archive = write_checkpoint(
        tmp_path, engine,
        cfg_hash=config_hash({"seed": 7}),
        journal_offset=3,
        extra={"phase": "warmup"},
    )
    assert archive.tick == engine.clock.ticks
    assert (archive.path / "manifest.json").exists()

    loaded = load_checkpoint(tmp_path, expect_config_hash=config_hash({"seed": 7}))
    assert loaded.manifest["extra"] == {"phase": "warmup"}
    assert loaded.manifest["journal_offset"] == 3

    restored = loaded.load_engine()
    twin = [a for a in restored.actors() if isinstance(a, Counter)][0]
    assert twin.ticks == counter.ticks
    # both copies keep evolving identically
    engine.run_until(2.0)
    restored.run_until(2.0)
    assert twin.history == counter.history


def test_archive_refuses_config_mismatch(tmp_path):
    engine, _ = _counting_engine()
    write_checkpoint(tmp_path, engine, cfg_hash=config_hash({"seed": 7}))
    with pytest.raises(CheckpointSchemaError, match="different"):
        load_checkpoint(tmp_path, expect_config_hash=config_hash({"seed": 8}))


def test_archive_detects_corruption(tmp_path):
    engine, _ = _counting_engine()
    archive = write_checkpoint(tmp_path, engine)
    (archive.path / "state.pkl").write_bytes(b"garbage")
    with pytest.raises(CheckpointError, match="digest"):
        load_checkpoint(tmp_path).load_engine()


def test_archive_stale_latest_pointer_falls_back(tmp_path):
    engine, _ = _counting_engine()
    engine.run_until(0.5)
    write_checkpoint(tmp_path, engine)
    engine.run_until(1.0)
    newest = write_checkpoint(tmp_path, engine)
    (tmp_path / "LATEST").write_text("ckpt-does-not-exist\n")
    assert load_checkpoint(tmp_path).tick == newest.tick


def test_archive_prune_keeps_newest(tmp_path):
    engine, _ = _counting_engine()
    for t in (0.2, 0.4, 0.6, 0.8):
        engine.run_until(t)
        write_checkpoint(tmp_path, engine)
    removed = prune_checkpoints(tmp_path, keep=2)
    assert removed == 2
    remaining = list_checkpoints(tmp_path)
    assert len(remaining) == 2
    assert remaining[-1].tick == engine.clock.ticks


def test_empty_directory_raises(tmp_path):
    with pytest.raises(CheckpointError, match="no complete checkpoint"):
        load_checkpoint(tmp_path / "nothing")


# -- actor snapshot protocol -----------------------------------------------------------


def test_actor_version_mismatch_fails_loudly():
    class V2Counter(Counter):
        snapshot_version = 2

    actor = V2Counter()
    payload = actor.__getstate__()
    assert payload["snapshot_version"] == 2
    stale = V2Counter.__new__(V2Counter)
    with pytest.raises(CheckpointSchemaError, match="v1 cannot be applied"):
        stale.__setstate__({"snapshot_version": 1, "state": {}})


def test_engine_snapshot_version_gate():
    engine, _ = _counting_engine()
    blob = engine.snapshot()
    # corrupt the envelope version
    import pickle

    _, payload = pickle.loads(blob)
    bad = pickle.dumps((99, payload))
    with pytest.raises(CheckpointSchemaError, match="v99"):
        Engine.restore(bad)


def test_engine_describe_inventory():
    engine, _ = _counting_engine(kernel="event")
    desc = engine.describe()
    assert desc["kernel"] == "event"
    assert desc["actors"][0]["class"] == "Counter"
    assert desc["actors"][0]["snapshot_version"] == 1
    json.dumps(desc)  # must be JSON-safe as the manifest body


# -- RNG stream capture (satellite: explicit RNG snapshot) -----------------------------


def test_rng_snapshot_resumes_draw_sequences():
    fresh_a, fresh_b = SimRng(42), SimRng(42)
    # Two fresh same-seed rngs produce identical draws...
    a = [fresh_a.uniform("x", 0, 1) for _ in range(5)]
    b = [fresh_b.uniform("x", 0, 1) for _ in range(5)]
    assert a == b

    # ...and a snapshot/restore mid-sequence continues exactly.
    snap = fresh_a.snapshot()
    restored = SimRng(0)  # wrong seed on purpose; restore overwrites it
    restored.restore(snap)
    tail_orig = [fresh_a.uniform("x", 0, 1) for _ in range(50)]
    tail_restored = [restored.uniform("x", 0, 1) for _ in range(50)]
    assert tail_orig == tail_restored

    # streams first touched after the restore point agree too
    assert fresh_a.uniform("later", 0, 1) == restored.uniform("later", 0, 1)


def test_rng_snapshot_version_gate():
    rng = SimRng(1)
    snap = rng.snapshot()
    snap["snapshot_version"] = 99
    with pytest.raises(CheckpointSchemaError):
        SimRng(1).restore(snap)


def test_rng_spawn_keys_do_not_use_builtin_hash():
    # crc32 keys are stable across processes (PYTHONHASHSEED-immune)
    from repro.sim.rng import _spawn_key

    assert _spawn_key("young-gen") == _spawn_key("young-gen")
    assert _spawn_key("young-gen") != _spawn_key("old-gen")
    import zlib

    assert _spawn_key("abc") == zlib.crc32(b"abc") & 0xFFFFFFFF


# -- the checkpointer ------------------------------------------------------------------


class _EngineController:
    """Minimal controller: the engine itself plus array/extra hooks."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine

    def checkpoint_extra(self) -> dict:
        return {"ticks": self.engine.clock.ticks}


def test_checkpointer_cadence_and_crash(tmp_path):
    engine, _ = _counting_engine()
    ctl = _EngineController(engine)
    ck = Checkpointer(CheckpointConfig(directory=str(tmp_path), every_s=0.25,
                                       keep=10, crash_at_tick=160,
                                       max_overhead=None))
    ck.arm(ctl)
    with pytest.raises(SimulatedCrash, match="chaos crash"):
        while True:
            engine.advance(ck.bound(10.0))
            ck.maybe(ctl)
    ticks = [a.tick for a in list_checkpoints(tmp_path)]
    # armed at tick 0, then one per 0.25 s cadence boundary before death;
    # the crash fires at the first chunk boundary at/after tick 160
    assert ticks[0] == 0
    assert len(ticks) >= 3
    assert ticks == sorted(set(ticks))
    assert engine.clock.ticks >= 160


def test_checkpointer_journal_lives_outside_archive(tmp_path):
    engine, _ = _counting_engine()
    ctl = _EngineController(engine)
    ck = Checkpointer(CheckpointConfig(directory=str(tmp_path), every_s=1.0))
    ck.arm(ctl)
    ck.journal.append("note", engine.now, detail="pre-crash decision")
    # the journal file sits beside the checkpoint dirs, shared by resumes
    assert (tmp_path / "journal.jsonl").exists()
    again = Checkpointer(CheckpointConfig(directory=str(tmp_path), every_s=1.0))
    assert again.journal.offset == 1


# -- experiment resume (driver level) --------------------------------------------------


def _experiment(seed: int = 7, kernel: str = "fixed") -> MigrationExperiment:
    return MigrationExperiment(
        workload="derby", engine="javmm", warmup_s=6.0, cooldown_s=3.0,
        seed=seed, kernel=kernel, **VM_KWARGS,
    )


def test_experiment_checkpoint_restore_telemetry(tmp_path):
    exp = _experiment()
    exp.telemetry = True
    config = {"workload": "derby", "seed": 7}
    cfg = CheckpointConfig(directory=str(tmp_path), every_s=2.0,
                           crash_at_tick=1500, max_overhead=None,
                           config=config)
    with pytest.raises(SimulatedCrash):
        ExperimentRun(exp).run(Checkpointer(cfg))

    resumed = resume(str(tmp_path), expect_config=config)
    ctl = resumed.controller
    result = ctl.run(resumed.checkpointer(every_s=2.0, max_overhead=None))
    assert not result.report.aborted
    # the restore span + counters are in the resumed run's telemetry
    probe = ctl.vm.probe
    names = [s.name for s in probe.tracer.spans]
    assert "checkpoint-restore" in names
    assert "checkpoint" in names


def test_counter_handles_survive_a_checkpoint_round_trip(tmp_path):
    """The link and the dirty log count through counter handles they
    resolved before the crash; in the resumed run those counts must
    still land in the run's own registry, equal to an uninterrupted
    run's."""

    def counted(probe) -> dict:
        return {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in probe.metrics.to_dict()["series"]
            if s["name"].startswith(("net.", "dirty."))
        }

    exp = _experiment()
    exp.telemetry = True
    want = counted(ExperimentRun(exp).run().probe)
    assert want[("net.wire_bytes", ())] > 0
    crashed = _experiment()
    crashed.telemetry = True
    cfg = CheckpointConfig(directory=str(tmp_path), every_s=2.0,
                           crash_at_tick=1500, max_overhead=None)
    with pytest.raises(SimulatedCrash):
        ExperimentRun(crashed).run(Checkpointer(cfg))
    resumed = resume(str(tmp_path))
    resumed.controller.run(resumed.checkpointer(every_s=2.0, max_overhead=None))
    assert counted(resumed.controller.vm.probe) == want


def test_resume_refuses_wrong_config(tmp_path):
    exp = _experiment(seed=7)
    cfg = CheckpointConfig(directory=str(tmp_path), every_s=2.0,
                           crash_at_tick=1500, max_overhead=None,
                           config={"workload": "derby", "seed": 7})
    with pytest.raises(SimulatedCrash):
        ExperimentRun(exp).run(Checkpointer(cfg))
    with pytest.raises(CheckpointSchemaError, match="different"):
        resume(str(tmp_path), expect_config={"workload": "derby", "seed": 8})


def test_resumed_run_keeps_the_config_hash(tmp_path):
    """A run crashed twice resumes twice under the same expected config:
    the resumed run's checkpoints carry the original config hash."""
    exp = MigrationExperiment(
        workload="crypto", engine="javmm", warmup_s=6.0, cooldown_s=3.0,
        seed=7, **VM_KWARGS,
    )
    baseline = ExperimentRun(exp).run()
    fingerprint = {"workload": "crypto", "seed": 7}
    cfg = CheckpointConfig(directory=str(tmp_path), every_s=0.5,
                           crash_at_tick=500, max_overhead=None,
                           config=fingerprint)
    with pytest.raises(SimulatedCrash):
        ExperimentRun(exp).run(Checkpointer(cfg))
    first = resume(str(tmp_path), expect_config=fingerprint)
    with pytest.raises(SimulatedCrash):
        first.controller.run(first.checkpointer(
            every_s=0.5, crash_at_tick=900, max_overhead=None))
    second = resume(str(tmp_path), expect_config=fingerprint)
    assert second.archive.tick > 500
    result = second.controller.run(
        second.checkpointer(every_s=0.5, max_overhead=None))
    assert result.report.to_dict() == baseline.report.to_dict()


# -- supervisor mid-attempt resume proof -----------------------------------------------


def test_supervisor_resumes_mid_run_state(tmp_path):
    """A crash mid-supervision restores the machine mid-flight: the
    attempt counter, the armed backoff/attempt deadlines, and the fault
    plan's fired-offset all come back exactly, and the finished run
    matches an uninterrupted one."""
    plan = FaultPlan().link_outage(at_s=0.5, duration_s=4.0)
    kwargs = dict(
        workload="derby", engine_name="javmm", warmup_s=4.0, seed=11,
        vm_kwargs=dict(VM_KWARGS), max_attempts=3, backoff_s=1.0,
        attempt_timeout_s=120.0,
    )
    baseline, _ = supervised_migrate(plan=plan, **kwargs)
    assert baseline.n_attempts >= 2  # the outage must force a retry

    cfg = CheckpointConfig(directory=str(tmp_path), every_s=0.5,
                           crash_at_tick=1300,  # t=6.5s, inside supervision
                           max_overhead=None)
    with pytest.raises(SimulatedCrash):
        supervised_migrate(
            plan=FaultPlan().link_outage(at_s=0.5, duration_s=4.0),
            checkpoint=cfg, **kwargs,
        )

    resumed = resume(str(tmp_path))
    sup = resumed.controller.supervisor
    # mid-run machine state restored, not reset
    assert sup._state in ("backoff", "attempt", "launch", "next")
    assert sup._attempt >= 1
    if sup._state == "backoff":
        assert sup._backoff_until is not None
        assert sup._backoff_until > sup.engine.now - 1e-9
    if sup._state == "attempt":
        assert sup._attempt_deadline is not None
        assert sup._migrator is not None
    # the injector's fired-offset survives (manifest carries it too)
    manifest_extra = resumed.archive.manifest["extra"]
    assert manifest_extra["driver"] == "supervisor"
    assert manifest_extra["faults_fired"] == len(sup.injector.injected)

    outcome = sup.run(resumed.checkpointer(every_s=0.5, max_overhead=None))
    assert outcome.ok == baseline.ok
    assert outcome.n_attempts == baseline.n_attempts
    assert outcome.degradations == baseline.degradations
    assert [
        (r.attempt, r.engine, r.aborted, r.reason, r.waited_before_s)
        for r in outcome.attempts
    ] == [
        (r.attempt, r.engine, r.aborted, r.reason, r.waited_before_s)
        for r in baseline.attempts
    ]
    assert outcome.report.to_dict() == baseline.report.to_dict()
    # the journal narrates the supervision: attempt starts, backoff, end
    kinds = [e["kind"] for e in resumed.journal.replay()]
    assert "attempt-started" in kinds
    assert "backoff" in kinds


def test_archive_from_the_list_allocator_layout_is_refused(tmp_path, monkeypatch):
    """State v3 archives pickled the guest's frame allocator as a list
    and a set; v4 holds arrays, so a v3 archive is refused rather than
    restored into an allocator with the wrong fields."""
    from repro.checkpoint import archive
    from repro.core import build_java_vm

    engine = make_engine(0.005)
    build_java_vm(workload="derby", **VM_KWARGS).register(engine)
    monkeypatch.setattr(archive, "STATE_VERSION", 3)
    write_checkpoint(tmp_path, engine)
    monkeypatch.undo()
    with pytest.raises(CheckpointSchemaError, match="v3 cannot be applied to v5"):
        load_checkpoint(tmp_path).load_state()


def test_archive_from_before_compact_pickles_is_refused(tmp_path, monkeypatch):
    """State v4 archives pickled the frame allocator's whole pool, stack
    and mask, and every page-table VMA's PFNs; v5 keeps only what is not
    derived.  A v4 archive names no state version in its manifest, and
    it is refused with a schema error before its state is unpickled."""
    import pickle

    from repro.checkpoint import archive
    from repro.core import build_java_vm

    engine = make_engine(0.005)
    build_java_vm(workload="derby", **VM_KWARGS).register(engine)
    monkeypatch.setattr(archive, "STATE_VERSION", 4)
    written = write_checkpoint(tmp_path, engine)
    monkeypatch.undo()
    manifest_path = written.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["state_version"]  # as v4 wrote it
    manifest_path.write_text(json.dumps(manifest))

    def refuse(*args, **kwargs):
        raise AssertionError("a v4 archive's state was unpickled")

    monkeypatch.setattr(pickle, "loads", refuse)
    with pytest.raises(CheckpointSchemaError, match="v4 or older cannot be applied to v5"):
        load_checkpoint(tmp_path).load_state()


def test_compact_pickles_restore_the_derived_state():
    """The frame allocator, page table and engine leave derived fields
    out of the pickle; a restored copy behaves as the original."""
    import pickle

    from repro.core import build_java_vm
    from repro.guest.kernel import GuestKernel

    engine = make_engine(0.005)
    vm = build_java_vm(workload="derby", **VM_KWARGS)
    vm.register(engine)
    engine.run_until(0.5)
    allocator = vm.kernel.allocator
    restored = pickle.loads(pickle.dumps(allocator))
    assert restored.free_frames == allocator.free_frames
    assert restored.allocated_pfns().tolist() == allocator.allocated_pfns().tolist()
    assert restored.alloc(7).tolist() == allocator.alloc(7).tolist()
    assert len(pickle.dumps(allocator)) < allocator.total_frames * 8

    twin = Engine.restore(engine.snapshot())
    assert [type(a).__name__ for a in twin.actors()] == [
        type(a).__name__ for a in engine.actors()
    ]
    for e in (engine, twin):
        e.run_until(1.0)
    domain, twin_domain = (
        next(a for a in e.actors() if isinstance(a, GuestKernel)).domain
        for e in (engine, twin)
    )
    assert twin_domain.pages.snapshot().tolist() == domain.pages.snapshot().tolist()


def test_archive_from_the_two_driver_layout_is_refused(tmp_path, monkeypatch):
    """Archives rooted at a bare MigrationSupervisor (state v1, written
    before the run became the only checkpoint root) are refused with a
    schema error rather than mis-restored."""
    from repro.checkpoint import archive
    from repro.core import MigrationSupervisor, build_java_vm
    from repro.net.link import Link

    engine = make_engine(0.005)
    vm = build_java_vm(workload="derby", **VM_KWARGS)
    vm.register(engine)
    root = MigrationSupervisor(engine, vm, Link())
    monkeypatch.setattr(archive, "STATE_VERSION", 1)
    write_checkpoint(tmp_path, engine, root=root)
    monkeypatch.undo()
    with pytest.raises(CheckpointSchemaError, match="v1"):
        resume(str(tmp_path))
