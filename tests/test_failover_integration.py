"""Cross-feature integration: replicate, fail over, verify."""

from repro.guest import messages as msg
from repro.migration.remus import RemusReplicator
from repro.migration.verify import verify_migration
from repro.net.link import Link
from repro.sim.engine import Engine

from tests.conftest import build_tiny_vm


def test_replicate_failover_chain():
    """The full HA story: Remus keeps a backup image, and on failover
    the backup matches the protected state of the primary."""
    domain, kernel, lkm, process, heap, jvm, agent = build_tiny_vm()
    engine = Engine(0.005)
    for actor in (jvm, kernel, lkm):
        engine.add(actor)
    replicator = RemusReplicator(domain, Link(), epoch_s=0.2, lkm=lkm)
    engine.add(replicator)
    engine.run_until(2.5)

    from repro.xen.event_channel import EventChannel

    chan = EventChannel()
    chan.bind_daemon(lambda m: None)
    lkm.attach_event_channel(chan)
    chan.send_to_guest(msg.MigrationBegin())
    replicator.start(engine.now)
    engine.run_until(engine.now + 2.0)

    # "Failure": freeze the primary right after a final sync.
    if domain.paused:
        domain.unpause(engine.now)
        replicator._paused_until = None
    replicator._checkpoint(engine.now, domain.dirty_log.peek_and_clear())
    replicator.stop(engine.now)

    # The backup stands in for the primary outside deprotected areas.
    backup = replicator.backup
    assert backup.paused
    result = verify_migration(domain, backup, kernel, lkm)
    assert result.ok, result.violating_pages
