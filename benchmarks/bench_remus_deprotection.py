"""RemusDB-style checkpoint deprotection (closest related work).

Replicating a 1 GB crypto VM every 200 ms: omitting the Young
generation from checkpoints (the framework's skip-over machinery in
RemusDB's "memory deprotection" role) must cut both replication traffic
and per-epoch pauses by a large factor, while the backup still tracks
the primary outside the deprotected areas.
"""

import numpy as np

from repro.core.builders import build_java_vm
from repro.guest import messages as msg
from repro.migration.remus import RemusReplicator
from repro.net.link import Link
from repro.sim.engine import Engine
from repro.units import GiB, MIB, MiB
from repro.xen.event_channel import EventChannel


def replicate(deprotect: bool, seconds: float = 10.0):
    engine = Engine(0.005)
    vm = build_java_vm(workload="crypto", mem_bytes=GiB(1), max_young_bytes=MiB(384))
    for actor in vm.actors():
        engine.add(actor)
    replicator = RemusReplicator(
        vm.domain, Link(), epoch_s=0.2, lkm=vm.lkm if deprotect else None
    )
    engine.add(replicator)
    engine.run_until(8.0)
    if deprotect:
        chan = EventChannel()
        chan.bind_daemon(lambda m: None)
        vm.lkm.attach_event_channel(chan)
        chan.send_to_guest(msg.MigrationBegin())
    replicator.start(engine.now)
    engine.run_until(engine.now + seconds)
    replicator.stop(engine.now)
    return replicator.report


def run_both():
    return replicate(False), replicate(True)


def test_remus_deprotection():
    plain, deprotected = run_both()
    plain_pages = sum(e.pages_sent for e in plain.epochs[1:])
    dep_pages = sum(e.pages_sent for e in deprotected.epochs[1:])
    print()
    print(
        f"  fully protected: {plain_pages * 4096 / MIB:.0f} MiB replicated, "
        f"mean pause {1e3 * plain.mean_pause_s:.1f} ms"
    )
    print(
        f"  deprotected:     {dep_pages * 4096 / MIB:.0f} MiB replicated, "
        f"mean pause {1e3 * deprotected.mean_pause_s:.1f} ms"
    )
    assert dep_pages < plain_pages / 3
    assert deprotected.mean_pause_s < plain.mean_pause_s / 3
