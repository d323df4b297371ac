"""Pinned simulated outcomes for small cells of the experiment stack.

The fixed-vs-event suite compares two kernels that share the pre-copy
pump and the guest write path, so a change to either moves both sides
together and goes unnoticed there.  These pins catch it: each cell's
report JSON and final source page versions must hash to the values
recorded before the pump's windowed scan and the bisected page-table
walk existed.  The supervised Figure-10 sweep cells and the quiet
Figure-5/Table-2 rows are pinned the same way: their simulated
downtime, total time, wire and retransmitted bytes are deterministic,
so they are held exactly rather than within a tolerance, and the quiet
rows are held to one digest under both kernels.  A legitimate
change to the simulated model updates these digests in the same commit,
and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core.experiment import ExperimentRun, MigrationExperiment
from repro.core.supervisor import supervised_migrate
from repro.experiments.fig05 import profile_workload
from repro.experiments.table2 import observe
from repro.sim import KERNEL_ENV_VAR
from repro.units import MiB

#: (workload, engine) -> (sha256 of report JSON, sha256 of page versions)
PINS = {
    ("derby", "xen"): (
        "08ea3fc5d6bccd12d1f8e259417dd8bc15f9a6dc6fb26fd2930f5c4f1832b447",
        "b8cfbb9b95abfa01586e69049b133d826aeb8ec207a42109547c40ca9630a522",
    ),
    ("crypto", "javmm"): (
        "3a6bd925486df19fcddbf743ef19844ebc41c3980348095b7a15229eead13282",
        "884294f7964d5b4739b34c8c87cdad748dd3a5c8172d21a5e8e86bdab5adcb4e",
    ),
    ("scimark", "assisted"): (
        "59b657c263519d1585ec235f6348161463f06dbf8c27b39fef45e89335f39819",
        "eddfc2a5c5f31f32e416981e6b33acded9b1cee9f41d930801a2427d1c617d13",
    ),
    ("derby", "compress"): (
        "acc014686b443fc29dc11de794ce39132d7b053fa6068632be51283867daedc2",
        "7684aef2c7019e056432f3543703ca1f0c8d322ea22a6f297ebcd6198a72d803",
    ),
    ("compiler", "javmm+compress"): (
        "8b80634b32f98c5abd8174dc84fb24c52693cae8b7aef115fdd0517c11e1af34",
        "850ef2205efadb716acbf384749718beea00fcb13a4fe1c1ab76ce4f16e84f65",
    ),
    ("xml", "freepage"): (
        "cac71ba9bb9574093bd989d7b0c8a1a243f8684e282798c7dcfe6f4d4447f358",
        "c2dd387066500cfbd787b838013e1dfb25880bf602bddced6140c94b51f53ed0",
    ),
}


@pytest.mark.parametrize("cell", sorted(PINS), ids=lambda c: "/".join(c))
def test_outcome_matches_pin(cell):
    workload, engine = cell
    run = ExperimentRun(
        MigrationExperiment(
            workload=workload, engine=engine, mem_bytes=MiB(512),
            max_young_bytes=MiB(128), warmup_s=3.0, cooldown_s=1.0,
            kernel="fixed", seed=7,
        )
    )
    result = run.run()
    assert result.report.verified
    report = json.dumps(result.report.to_dict(), sort_keys=True).encode()
    domain = run.vm.domain
    pages = domain.read_pages(np.arange(domain.n_pages)).tobytes()
    assert (
        hashlib.sha256(report).hexdigest(),
        hashlib.sha256(pages).hexdigest(),
    ) == PINS[cell]


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


#: the supervised Figure-10 sweep (512 MiB VM, 128 MiB Young, default
#: seed and warm-up): (workload, engine) -> (sha256 of report JSON,
#: sha256 of page versions)
SWEEP_PINS = {
    ("derby", "xen"): (
        "29dc95cba5277ad27e66e5bb40764b516642dac084e2cb8b427829423795fa45",
        "1bf840152d01d6ca4b5ef8790c11188f71a268d9a8dd40c26aa358cd43dc202b",
    ),
    ("derby", "javmm"): (
        "5de6ee746df272f3bd804774c0525beca5d34eb0811ceb9e8060a8913d9226af",
        "ed281a05436f7b63a0faa9d84dab0105a8c0309019da764c974c9a56ff885a3c",
    ),
    ("crypto", "xen"): (
        "8c79522a4eabdf973b0d1a5f06fcfe63e293cfd8aa6faa3a20a5a016f2e304fd",
        "22820b0bf10b462862e6e4894400626184bb139c0b347513a30b50596349a262",
    ),
    ("crypto", "javmm"): (
        "f52b5f6c29929de35412e3276dafe91d822a79c3d28bba041c28d6ec4dcdd449",
        "8431e16ba5b85a2d8e38e867f02108e518162a689fed5737ab88ef27db74c8f0",
    ),
    ("scimark", "xen"): (
        "6195ff483289758fd2412c59ce295dc067a82f3cbe9a5f24d402255dd025beb0",
        "0b6f31c1a51a0157a6a3c2951330629abcfe970edcf15682718eb8774f96a0ec",
    ),
    ("scimark", "javmm"): (
        "19871fe3c77093e04d4dc2ade364662cd2098d387849a87ba60f3c78aaed7cf0",
        "efec820b2605a2448794d5149e09bc0fbd9238304b1a6b7e37a75cb37a0381fb",
    ),
}


def sweep_cell_digests(workload: str, engine: str) -> tuple[str, str]:
    result, vm = supervised_migrate(
        workload=workload, engine_name=engine, kernel="fixed",
        vm_kwargs={"mem_bytes": MiB(512), "max_young_bytes": MiB(128)},
    )
    assert result.ok and result.report.verified
    pages = vm.domain.read_pages(np.arange(vm.domain.n_pages)).tobytes()
    return _sha256(result.report.to_dict()), hashlib.sha256(pages).hexdigest()


@pytest.mark.parametrize("cell", sorted(SWEEP_PINS), ids=lambda c: "/".join(c))
def test_supervised_sweep_cell_matches_pin(cell):
    assert sweep_cell_digests(*cell) == SWEEP_PINS[cell]


#: sha256 over the Figure-5 heap-profile rows (five workloads, 240 s)
#: and the Table-2 warm-up rows (three workloads); the same under the
#: fixed and the event kernel
QUIET_ROWS_PIN = "4d8154d56fbf2b681818cf7ca45e7814117be6063269ecc4b50fa3dc09591069"


def quiet_rows_digest() -> str:
    profiles = [
        dataclasses.asdict(profile_workload(workload, duration_s=240.0))
        for workload in ("derby", "compiler", "crypto", "scimark", "compress")
    ]
    settings = [
        dataclasses.asdict(observe(workload))
        for workload in ("derby", "crypto", "scimark")
    ]
    return _sha256({"fig05": profiles, "table2": settings})


@pytest.mark.parametrize("kernel", ["fixed", "event"])
def test_quiet_rows_match_pin(kernel, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
    assert quiet_rows_digest() == QUIET_ROWS_PIN
