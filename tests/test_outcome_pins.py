"""Pinned simulated outcomes for a handful of small fixed-kernel cells.

The fixed-vs-event suite compares two kernels that share the pre-copy
pump and the guest write path, so a change to either moves both sides
together and goes unnoticed there.  These pins catch it: each cell's
report JSON and final source page versions must hash to the values
recorded before the pump's windowed scan and the bisected page-table
walk existed.  A legitimate change to the simulated model updates these
digests in the same commit, and says why.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.experiment import ExperimentRun, MigrationExperiment
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
