"""Section-6 generality: the framework beyond the HotSpot scavenger.

Three non-JAVMM participants migrate with the unmodified LKM + daemon:
a memcached-like cache server (cold cache skipped), a CLR-style .NET
runtime (ephemeral segment skipped), and a G1-style region heap
(scattered Young regions skipped, with the `AreaAdded` extension).
"""

import numpy as np

from repro.guest.kernel import GuestKernel
from repro.guest.lkm import AssistLKM
from repro.jvm.g1 import G1Agent, G1Heap, G1Runtime
from repro.migration.assisted import AssistedMigrator
from repro.migration.precopy import PrecopyMigrator
from repro.net.link import Link
from repro.runtime.dotnet import DotNetAgent, DotNetRuntime, EphemeralHeap
from repro.sim.engine import Engine
from repro.units import GIB, GiB, MIB, MiB
from repro.workloads.cache_app import CacheApp
from repro.xen.domain import Domain


def _migrate(build_guest, assisted):
    engine = Engine(0.005)
    domain = Domain("guest", GiB(1))
    kernel = GuestKernel(domain)
    lkm = AssistLKM(kernel)
    actors = build_guest(kernel, lkm)
    for actor in actors:
        engine.add(actor)
    engine.add(kernel)
    engine.add(lkm)
    migrator = (
        AssistedMigrator(domain, Link(), lkm)
        if assisted
        else PrecopyMigrator(domain, Link())
    )
    engine.add(migrator)
    engine.run_until(6.0)
    migrator.start(engine.now)
    engine.run_while(lambda: not migrator.done, timeout=600)
    return migrator.report


def _cache_guest(kernel, lkm):
    return [CacheApp(kernel, lkm, cache_bytes=MiB(512), hot_fraction=0.25,
                     write_bytes_per_s=MiB(40))]


def _dotnet_guest(kernel, lkm):
    process = kernel.spawn("dotnet")
    heap = EphemeralHeap(process, MiB(256), MiB(256), rng=np.random.default_rng(3))
    runtime = DotNetRuntime(process, heap, alloc_bytes_per_s=MiB(120))
    DotNetAgent(runtime, lkm)
    return [runtime]


def _g1_guest(kernel, lkm):
    process = kernel.spawn("g1")
    heap = G1Heap(process, MiB(512), region_bytes=MiB(4),
                  young_regions_target=64, rng=np.random.default_rng(4))
    runtime = G1Runtime(process, heap, alloc_bytes_per_s=MiB(150))
    G1Agent(runtime, lkm)
    return [runtime]


GUESTS = {"cache": _cache_guest, "dotnet": _dotnet_guest, "g1": _g1_guest}


def run_all():
    results = {}
    for name, builder in GUESTS.items():
        results[name] = {
            "xen": _migrate(builder, assisted=False),
            "assisted": _migrate(builder, assisted=True),
        }
    return results


def test_runtime_generality():
    results = run_all()
    print()
    for name, pair in results.items():
        xen, assisted = pair["xen"], pair["assisted"]
        print(
            f"  {name:7s} xen {xen.completion_time_s:5.1f}s/"
            f"{xen.total_wire_bytes / GIB:5.2f}GiB -> assisted "
            f"{assisted.completion_time_s:5.1f}s/{assisted.total_wire_bytes / GIB:5.2f}GiB "
            f"(skipped {assisted.total_pages_skipped_bitmap * 4096 / MIB:.0f} MiB-views)"
        )
        assert xen.verified and assisted.verified
        assert assisted.violating_pages == 0
        # Every runtime gains from skipping with the SAME framework.
        assert assisted.total_wire_bytes < xen.total_wire_bytes * 0.8
        assert assisted.completion_time_s <= xen.completion_time_s
