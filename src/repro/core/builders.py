"""Assemble guests and migration daemons.

:func:`build_java_vm` produces the paper's guest stack — a domain with
a guest kernel, the LKM, one Java process (heap + JVM + TI agent) and
an external throughput analyzer — wired together and ready to be added
to a simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.guest.kernel import DEFAULT_KERNEL_RESERVED_BYTES, GuestKernel
from repro.guest.lkm import AssistLKM
from repro.guest.process import Process
from repro.jvm.heap import GenerationalHeap
from repro.jvm.hotspot import HotSpotJVM
from repro.jvm.ti_agent import TIAgent
from repro.migration.baselines import (
    CompressedPrecopyMigrator,
    FreePageSkipMigrator,
    StopAndCopyMigrator,
    ThrottledPrecopyMigrator,
)
from repro.migration.alb import BallooningPrecopyMigrator
from repro.migration.hybrid import JavmmCompressedMigrator
from repro.migration.javmm import JavmmMigrator
from repro.migration.postcopy import PostCopyMigrator
from repro.migration.precopy import PrecopyMigrator
from repro.net.link import Link
from repro.sim.actor import Actor
from repro.sim.engine import Engine
from repro.sim.eventlog import EventLog
from repro.telemetry.probe import NULL_PROBE, Probe
from repro.units import GiB, MiB
from repro.workloads.analyzer import Analyzer
from repro.workloads.spec import WorkloadSpec, get_workload
from repro.xen.domain import Domain

#: Address-space slack kept out of the heap (stacks, GC side tables).
_HEAP_SLACK_BYTES = MiB(64)
#: JVM-internal region the HotSpot actor maps (code cache, metaspace).
_JVM_MISC_BYTES = MiB(96)

ENGINE_NAMES = (
    "xen",
    "javmm",
    "assisted",
    "stopcopy",
    "throttle",
    "compress",
    "freepage",
    "postcopy",
    "alb",
    "javmm+compress",
)


@dataclass
class JavaVM:
    """A fully-wired guest running one Java workload."""

    domain: Domain
    kernel: GuestKernel
    lkm: AssistLKM
    process: Process
    jvm: HotSpotJVM
    agent: TIAgent
    analyzer: Analyzer
    workload: WorkloadSpec
    event_log: EventLog = field(default_factory=EventLog)
    #: shared telemetry handle; NULL_PROBE unless built with telemetry
    probe: Probe = NULL_PROBE

    @property
    def heap(self) -> GenerationalHeap:
        return self.jvm.heap

    def actors(self) -> list[Actor]:
        """Actors to register with the engine, in priority order."""
        return [self.jvm, self.kernel, self.lkm, self.analyzer]

    def register(self, engine: "Engine") -> "Engine":
        """Add every guest actor to *engine*; returns it for chaining."""
        for actor in self.actors():
            engine.add(actor)
        return engine

    def unwire(self) -> None:
        """Undo :func:`build_java_vm`'s wiring, and the migrator's hooks
        into the guest, once the guest will never run again.

        The wiring is a web of reference cycles (kernel and process,
        LKM and its netlink, /proc and channel endpoints, heap and JVM
        callbacks into the agent and the migrator), so without this a
        finished guest — gigabytes of page state — waits for the cyclic
        garbage collector.  Afterwards the object graph is a tree and is
        freed by reference counting the moment its owner lets go.  The
        domain's pages, the analyzer's samples, the event log and every
        trace stay readable.
        """
        jvm = self.jvm
        jvm.migration_load = None
        jvm.on_enforced_ready = None
        jvm.heap.on_young_shrunk = None
        self.lkm.unwire()
        self.kernel.netlink.close()
        for process in self.kernel.processes:
            self.kernel.reap(process)

    def stream_to(self, sink) -> None:
        """Mirror the guest's telemetry and event log onto a
        :class:`~repro.telemetry.live.StreamSink` as they happen (a
        no-op when telemetry is off)."""
        if self.probe.enabled:
            self.probe.sink = sink
            if self.event_log is not None:
                self.event_log.sink = sink


def build_java_vm(
    workload: str | WorkloadSpec = "derby",
    name: str = "java-vm",
    mem_bytes: int = GiB(2),
    max_young_bytes: int = GiB(1),
    max_old_bytes: int | None = None,
    vcpus: int = 4,
    seed_old: bool = True,
    with_agent: bool = True,
    lkm_reply_timeout_s: float | None = None,
    lkm_full_rewalk: bool = False,
    seed: int = 20150421,
    telemetry: bool = False,
    probe: Probe | None = None,
) -> JavaVM:
    """Build the paper's guest: a 2 GB, 4-vCPU Java VM by default."""
    spec = get_workload(workload) if isinstance(workload, str) else workload
    domain = Domain(name, mem_bytes, vcpus)
    kernel = GuestKernel(domain)
    lkm = AssistLKM(kernel, reply_timeout_s=lkm_reply_timeout_s, full_rewalk=lkm_full_rewalk)
    process = kernel.spawn(f"java-{spec.name}")

    if max_old_bytes is None:
        max_old_bytes = (
            mem_bytes
            - DEFAULT_KERNEL_RESERVED_BYTES
            - _JVM_MISC_BYTES
            - max_young_bytes
            - _HEAP_SLACK_BYTES
        )
    if max_old_bytes <= 0:
        raise ConfigurationError(
            f"no room for an Old generation: {mem_bytes >> 20} MiB VM with a "
            f"{max_young_bytes >> 20} MiB Young maximum"
        )
    rng = np.random.default_rng(seed)
    jvm = spec.build(
        process,
        max_young_bytes=max_young_bytes,
        max_old_bytes=max_old_bytes,
        seed_old=seed_old,
        rng=rng,
    )
    agent = TIAgent(jvm, lkm)
    if not with_agent:
        # A detached placeholder keeps the dataclass total for an
        # agent-less guest (vanilla-only runs).
        agent.detach()
    analyzer = Analyzer(jvm)
    vm = JavaVM(domain, kernel, lkm, process, jvm, agent, analyzer, spec)
    lkm.event_log = vm.event_log
    jvm.event_log = vm.event_log
    if probe is not None or telemetry:
        vm.probe = probe if probe is not None else Probe(event_log=vm.event_log)
        if vm.probe.enabled:
            if vm.probe.event_log is None:
                vm.probe.event_log = vm.event_log
            lkm.probe = vm.probe
            jvm.probe = vm.probe
            agent.probe = vm.probe
            domain.dirty_log.probe = vm.probe
    return vm


def make_migrator(
    engine: str,
    vm: JavaVM,
    link: Link,
    **kwargs,
) -> PrecopyMigrator:
    """Create the requested migration daemon for *vm* over *link*.

    Engines: ``xen`` (vanilla pre-copy), ``javmm``, ``assisted`` (the
    generic framework without JVM bookkeeping), ``stopcopy``,
    ``throttle``, ``compress``, ``freepage``, ``postcopy``, ``alb``,
    ``javmm+compress``.  The created daemon shares the guest's event
    log, so ``vm.event_log.format_timeline()`` interleaves the daemon,
    LKM and JVM narratives.
    """
    migrator = _make_migrator(engine, vm, link, **kwargs)
    if hasattr(migrator, "event_log"):
        migrator.event_log = vm.event_log
    if vm.probe.enabled:
        migrator.probe = vm.probe
        link.probe = vm.probe
    return migrator


def _make_migrator(
    engine: str,
    vm: JavaVM,
    link: Link,
    **kwargs,
) -> PrecopyMigrator:
    if engine == "xen":
        return PrecopyMigrator(vm.domain, link, **kwargs)
    if engine == "javmm":
        return JavmmMigrator(vm.domain, link, vm.lkm, jvms=[vm.jvm], **kwargs)
    if engine == "assisted":
        from repro.migration.assisted import AssistedMigrator

        return AssistedMigrator(vm.domain, link, vm.lkm, **kwargs)
    if engine == "stopcopy":
        return StopAndCopyMigrator(vm.domain, link, **kwargs)
    if engine == "throttle":
        return ThrottledPrecopyMigrator(vm.domain, link, jvms=[vm.jvm], **kwargs)
    if engine == "compress":
        return CompressedPrecopyMigrator(vm.domain, link, **kwargs)
    if engine == "freepage":
        return FreePageSkipMigrator(vm.domain, link, kernel=vm.kernel, **kwargs)
    if engine == "postcopy":
        return PostCopyMigrator(vm.domain, link, **kwargs)
    if engine == "alb":
        return BallooningPrecopyMigrator(vm.domain, link, jvms=[vm.jvm], **kwargs)
    if engine == "javmm+compress":
        return JavmmCompressedMigrator(vm.domain, link, vm.lkm, jvms=[vm.jvm], **kwargs)
    raise ConfigurationError(f"unknown engine {engine!r}; known: {', '.join(ENGINE_NAMES)}")
