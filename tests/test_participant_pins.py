"""Pinned simulated outcomes for the participants no benchmark runs.

Neither benchmark workload drives a G1 or .NET runtime, the cache
server, the multi-application guest or the no-GC ablation, so a change
to the application side of the assist protocol could move any of them
unseen.  Each cell here hashes what the run produced: for a single
migration, the report JSON and the final source page versions; for the
two studies, their result dataclass.  The digests were recorded before
the participants shared one protocol base and the G1 and .NET runtimes
one stop-the-world actor.  A legitimate change to the simulated model
updates them in the same commit, and says why.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.guest.kernel import GuestKernel
from repro.guest.lkm import AssistLKM
from repro.jvm.g1 import G1Agent, G1Heap, G1Runtime
from repro.migration.assisted import AssistedMigrator
from repro.net.link import Link
from repro.runtime.dotnet import DotNetAgent, DotNetRuntime, EphemeralHeap
from repro.sim.engine import make_engine
from repro.units import MiB
from repro.workloads.cache_app import CacheApp
from repro.xen.domain import Domain


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _g1(kernel, lkm, addition_notices):
    process = kernel.spawn("g1-java")
    heap = G1Heap(
        process, heap_bytes=MiB(48), region_bytes=MiB(1),
        young_regions_target=12, rng=np.random.default_rng(8),
    )
    runtime = G1Runtime(process, heap, alloc_bytes_per_s=MiB(60))
    G1Agent(runtime, lkm, addition_notices=addition_notices)
    return runtime


def _dotnet(kernel, lkm):
    process = kernel.spawn("dotnet-app")
    heap = EphemeralHeap(
        process, ephemeral_bytes=MiB(24), gen2_bytes=MiB(32),
        rng=np.random.default_rng(9),
    )
    runtime = DotNetRuntime(process, heap, alloc_bytes_per_s=MiB(30))
    DotNetAgent(runtime, lkm)
    return runtime


def _cache(kernel, lkm):
    return CacheApp(
        kernel, lkm, cache_bytes=MiB(64), hot_fraction=0.25,
        write_bytes_per_s=MiB(20),
    )


#: cell -> participant factory over (kernel, lkm)
BUILDERS = {
    "g1-added-on": lambda kernel, lkm: _g1(kernel, lkm, True),
    "g1-added-off": lambda kernel, lkm: _g1(kernel, lkm, False),
    "dotnet": _dotnet,
    "cache": _cache,
}

#: cell -> (sha256 of report JSON, sha256 of final page versions)
PINS = {
    "g1-added-on": (
        "6b8da6904b3669da9435ea6b7a73051d35241728d892732d68308a918f089f54",
        "802c890d800a0dad517929d661a5d9d81b81f1061cc4372d255a5410e8901f72",
    ),
    "g1-added-off": (
        "9f511a34729dcbc78457c43b6fa6094868070dff6cac33fa2f751ecec257bbb4",
        "e68b22150ba3febf7978cbdc4bae32dae7eb40689135ba4019a3b47d9ab730df",
    ),
    "dotnet": (
        "46adbac4a21dac8b2c0fa8e0aad0c0636d294d5346b873d1ec1cf6c05a03ccba",
        "208f9ca138a64abb47d829b492e8f6f3507a6fb48dce692807fb50214aa977c6",
    ),
    "cache": (
        "f6958dd8a8f63ebd732b9ba844178fb4adc8ff1b30a6edbbb217ea4a7857b602",
        "52802c214993d375fcf09edef4f85c7425b3f96c950f79314e579fec3f9d1b41",
    ),
}

#: sha256 of the result dataclass JSON of each study
MULTIAPP_PIN = "61738992674f7f7da4fe63f69d3c270f1fbf936edca8504aa1591e8a3689ffb8"
NO_GC_PIN = "4f0dd33811349d16e3de3471c6e45f456f5f502fdf514f6955427561c200a78a"


def migrate_cell(cell: str):
    """One assisted migration of a 128 MiB guest running *cell*."""
    engine = make_engine(0.005)
    domain = Domain(f"{cell}-vm", MiB(128))
    kernel = GuestKernel(domain, kernel_reserved_bytes=MiB(8))
    lkm = AssistLKM(kernel)
    actor = BUILDERS[cell](kernel, lkm)
    for a in (actor, kernel, lkm):
        engine.add(a)
    migrator = engine.add(AssistedMigrator(domain, Link(), lkm))
    engine.run_until(1.0)
    migrator.start(engine.now)
    engine.run_while(lambda: not migrator.done, timeout=240)
    return domain, migrator.report


@pytest.mark.parametrize("cell", sorted(PINS))
def test_participant_outcome_matches_pin(cell):
    domain, report = migrate_cell(cell)
    assert report.verified
    pages = domain.read_pages(np.arange(domain.n_pages)).tobytes()
    digests = (
        _sha(json.dumps(report.to_dict(), sort_keys=True).encode()),
        _sha(pages),
    )
    assert digests == PINS[cell]


def test_multiapp_study_matches_pin():
    from repro.experiments import multiapp

    result = multiapp.run()
    assert result.verified
    assert _sha(json.dumps(asdict(result), sort_keys=True).encode()) == MULTIAPP_PIN


def test_no_enforced_gc_ablation_matches_pin():
    from repro.experiments.ablations import no_enforced_gc

    result = no_enforced_gc()
    assert result.data_loss
    assert _sha(json.dumps(asdict(result), sort_keys=True).encode()) == NO_GC_PIN
