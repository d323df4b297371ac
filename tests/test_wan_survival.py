"""WAN survival: the rescue ladder completes what the fixed LAN policy aborts.

Every cell drags one workload across one hostile WAN profile under a
repeated outage plan (eight 2.5 s blackouts, each one outliving the
LAN-tuned 2 s stall watchdog) and migrates it twice:

- with the **fixed LAN policy** (``rescue=False``,
  ``scale_timeouts=False``): the watchdog fires inside every outage,
  the attempt budget drains, and the migration must abort, so the
  scenario really is hostile on every profile;
- with the **ladder** (RTT/goodput-rescaled watchdogs plus the
  adaptive rescue ladder): the migration must complete, its outcome
  must equal the pinned digest exactly, and where a rescue was applied
  the doctor's top finding on the run's export must name it
  (``throttle-rescue``).

Tier 1 runs one cell per profile; ``REPRO_CHAOS_FULL=1`` (the CI
``wan-chaos`` job) runs all nine workloads on all four profiles.  Kernel
identity and crash/resume equivalence of these runs are covered by
``tests/test_kernel_equivalence.py -k wan`` and
``tests/test_checkpoint_chaos.py -k wan``.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.core import supervised_migrate
from repro.faults import FaultPlan
from repro.net import wan_link
from repro.telemetry import write_jsonl
from repro.telemetry.analysis import Doctor
from repro.units import MiB

FULL = os.environ.get("REPRO_CHAOS_FULL") == "1"
SEED = 20150421

#: the cells tier 1 runs: one per profile, the quickest of each
TIER1 = {
    ("metro", "xml"),
    ("continental", "scimark"),
    ("intercontinental", "scimark"),
    ("satellite", "compress"),
}
#: (profile, workload) -> sha256 of the ladder run's outcome (see
#: :func:`_digest`)
PINS = {
    ("metro", "compiler"):
        "da12687a7e81761527d5d483f53183704f78a1ede8f3b0fd3e9c61473ebe5992",
    ("metro", "compress"):
        "e8bc9228ccbd6b3e84417c660336c4373aab66c0abf9f62a85a487a8f33c8236",
    ("metro", "crypto"):
        "9942311d7dfc7915bc89551edda110f23b12c7b7859829c6cab06c43653ca669",
    ("metro", "derby"):
        "4c3ae7db6917ecfb4bd33c36db99fd0629317dfd433604fd965e8e791c245df1",
    ("metro", "mpeg"):
        "dc73f1b262623fe641d828caa6195fa4621706f850b2ee1e6a1a74fa53d572e1",
    ("metro", "scimark"):
        "4691e4080f4635833cbbb7c0d5964db8e65db3f044e8d767917dd5d569937453",
    ("metro", "serial"):
        "fe92ffa1ae565a048df0d92259086a9208f0dce5064b3b629df3b59e48545795",
    ("metro", "sunflow"):
        "d313a2193ea88b5d96b325a18548a0f1f597d4e41aa14967829f181b4829a55b",
    ("metro", "xml"):
        "0d334bc4bc3b920b0358c461e4c05f05ed9eb01fff6fa83201a6dcf9f80c6acb",
    ("continental", "compiler"):
        "45f7bf9387473b3a090f53f28cc25619cffc317a537d26ccc7ce0f5e0260bffa",
    ("continental", "compress"):
        "a2657505c68451a6547b1c92dcae60a026dedf1b990408bac7453382f29654bc",
    ("continental", "crypto"):
        "e690b3a02acf1b65611a43b044f1c2bb945c9905442c9757fa42c49627d91891",
    ("continental", "derby"):
        "ee9e8732e35e904384def2249e35250d861fc5ab3b603c0c7caa7d216a404fcb",
    ("continental", "mpeg"):
        "b7357c4ba46217fbb7c58bb15f3864d68000ae61f20ea3a4527f8949762079bb",
    ("continental", "scimark"):
        "bce6511fb1267c2501a8d253c8fecc2f966a7e7e160440d9972ea9c5311ba977",
    ("continental", "serial"):
        "e5968d09e0c0515f610891c2ee720a5b574541cd20109e40881a838426af4b7c",
    ("continental", "sunflow"):
        "0884742a18e81929221f1396fe33d54cb3261f3281cead26e2d8adaf4a9b9611",
    ("continental", "xml"):
        "d71d0bfadc88880f0696ea0417c4ba9cd24d5615d694ef709f4b1f5571f10714",
    ("intercontinental", "compiler"):
        "7360e7fba7cfc8e8c6bf6ce75bdd848a9d4be35996d89242bf5c9a360cc4b0c9",
    ("intercontinental", "compress"):
        "67dcc0a10d7896d618e2a2198b7a3e0a2aad656a6795cc06ffc236244ac84aaa",
    ("intercontinental", "crypto"):
        "5427b1288c30f33582110880ecb1069e9ee551912bc69a022ad156bdd680919d",
    ("intercontinental", "derby"):
        "fe0e385b7b2baaac56eb56beace095444e2a848cc2e9de845db5ea492458726d",
    ("intercontinental", "mpeg"):
        "cc8671a9cf6a9804aae85d5f0437b2fb7fa58bb81359793e27b97cb7ae127255",
    ("intercontinental", "scimark"):
        "4b0d2a1caad6622ba939ce98ca2de7f008bfba38371d095ed362d76a56175be4",
    ("intercontinental", "serial"):
        "643a0ed0af3aeb0132a482e8a84ca4773f2fc6ad98dcc3abfd6b2830284222e6",
    ("intercontinental", "sunflow"):
        "f9d61f3026106fb9b4dab6703eb2b3fcb11c8f0602b358e393e2d211c4b7a4c2",
    ("intercontinental", "xml"):
        "114e3099b61de864e7514ff798a314db83f3a7450624b9790daf186bdeea4b91",
    ("satellite", "compiler"):
        "b3c24bbd4b5b7fe46c05719a68fdd043f52ff0db5c4bd72e3264172b81b9a125",
    ("satellite", "compress"):
        "e1a9f91afc292f3c9e9ecb12e3b3490fbdbcd07290aa542e87365db48e4a2a18",
    ("satellite", "crypto"):
        "a21ac30cb97fed0ec4afc686239becb9b9eab902bcc1c30cb000c9c9cd602214",
    ("satellite", "derby"):
        "af4a8b580ecb47a1096d8583543c7f7f2b56bd191641648f29e246276e5ee9e8",
    ("satellite", "mpeg"):
        "dcb6986bce5aca491f925ef5fdc832d96508910296e7a7852b7291350bec2dae",
    ("satellite", "scimark"):
        "0a5a1f3710131acdc6a680cf973cde5ace7144379a0285ea55067dbc7b977878",
    ("satellite", "serial"):
        "3cdd9742c7fcdccf16816e73569fec4de5a977cc7751c311e4b64ed74ca34bdb",
    ("satellite", "sunflow"):
        "9ba4c1b9baff2354e6b94207d24ffdacd1351b53324fd5c2f090d2ea837e7f2a",
    ("satellite", "xml"):
        "b554fa2eed903f3683ed0f2550301107020b19808dead98949d84154cfe763c1",
}


def _migrate(workload: str, profile: str, ladder: bool, **extra):
    kwargs = dict(
        workload=workload,
        link=wan_link(profile, seed=SEED),
        plan=FaultPlan().link_flap(at_s=1.0, down_s=2.5, count=8, spacing_s=8.0),
        vm_kwargs={"mem_bytes": MiB(384), "max_young_bytes": MiB(96)},
        seed=SEED,
        dt=0.01,  # half the default tick rate: same physics, half the wall time
        kernel="fixed",
        max_attempts=4,
    )
    if not ladder:
        kwargs.update(rescue=False, scale_timeouts=False)
    return supervised_migrate(**kwargs, **extra)


def _digest(result) -> str:
    outcome = {
        "ok": result.ok,
        "n_attempts": result.n_attempts,
        "rescues": result.rescues,
        "breaker_tripped": result.breaker_tripped,
        "report": result.report.to_dict() if result.report else None,
    }
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


CELLS = [
    pytest.param(*cell, id="/".join(cell), marks=[] if cell in TIER1 else [
        pytest.mark.skipif(not FULL, reason="full WAN matrix needs REPRO_CHAOS_FULL=1")
    ])
    for cell in PINS
]


@pytest.mark.parametrize("profile, workload", CELLS)
def test_ladder_completes_what_the_fixed_policy_aborts(profile, workload, tmp_path):
    baseline, _ = _migrate(workload, profile, ladder=False)
    assert not baseline.ok and baseline.n_attempts == 4
    # Telemetry on: it must leave the outcome untouched, and it lets
    # the doctor read the run back.
    ladder, vm = _migrate(workload, profile, ladder=True, telemetry=True)
    assert ladder.ok
    assert _digest(ladder) == PINS[profile, workload]
    if ladder.rescues:
        # On a rescued run's export, the doctor's top finding names the
        # rescue that saved it.
        assert ladder.rescues[0]["action"] == "throttle"
        export = tmp_path / "wan.jsonl"
        write_jsonl(export, probe=vm.probe)
        findings = Doctor().diagnose_file(export).findings
        assert findings and findings[0].rule == "throttle-rescue"
