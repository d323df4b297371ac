"""The migration link and traffic accounting."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.constants import PAGE_SIZE
from repro.net.link import Link
from repro.net.meter import TrafficMeter
from repro.units import MiB, gbit_per_s


def test_default_is_gigabit_with_efficiency():
    link = Link()
    assert link.bandwidth == pytest.approx(gbit_per_s(1.0) * 0.96)


def test_page_wire_cost_includes_overhead():
    link = Link(page_overhead_bytes=150)
    assert link.page_wire_bytes == PAGE_SIZE + 150


def test_pages_per_second_sane_for_gigabit():
    link = Link()
    # ~117 MB/s usable over 4246-byte wire pages → ~28k pages/s.
    assert 25_000 < link.pages_per_second < 30_000


def test_capacity_scales_with_dt():
    link = Link(bandwidth_bytes_per_s=1000, efficiency=1.0, page_overhead_bytes=0)
    assert link.capacity_bytes(0.5) == pytest.approx(500)


def test_time_to_send():
    link = Link(bandwidth_bytes_per_s=MiB(100), efficiency=1.0, page_overhead_bytes=0)
    assert link.time_to_send_bytes(MiB(50)) == pytest.approx(0.5)
    assert link.time_to_send_pages(10) == pytest.approx(10 * PAGE_SIZE / MiB(100))


def test_account_pages_default_payload():
    link = Link(page_overhead_bytes=100)
    wire = link.account_pages(3)
    assert wire == 3 * (PAGE_SIZE + 100)
    assert link.meter.pages_sent == 3
    assert link.meter.payload_bytes == 3 * PAGE_SIZE
    assert link.meter.wire_bytes == wire


def test_account_pages_compressed_payload():
    link = Link(page_overhead_bytes=100)
    wire = link.account_pages(2, payload_bytes=PAGE_SIZE)  # 50% ratio
    assert wire == PAGE_SIZE + 200


def test_account_control_bytes():
    link = Link()
    link.account_control(500)
    assert link.meter.wire_bytes == 500
    assert link.meter.pages_sent == 0


def test_invalid_configs_rejected():
    with pytest.raises(ConfigurationError):
        Link(bandwidth_bytes_per_s=0)
    with pytest.raises(ConfigurationError):
        Link(efficiency=0.0)
    with pytest.raises(ConfigurationError):
        Link(efficiency=1.5)


def test_meter_marks_and_deltas():
    meter = TrafficMeter()
    meter.add(pages=2, payload_bytes=100, wire_bytes=120)
    meter.mark("iter1")
    meter.add(pages=3, payload_bytes=200, wire_bytes=230)
    assert meter.since("iter1") == (3, 200, 230)


def test_meter_unknown_mark_raises():
    meter = TrafficMeter()
    meter.add(pages=2, payload_bytes=100, wire_bytes=120)
    with pytest.raises(KeyError):
        meter.since("never-marked")


def test_meter_reset():
    meter = TrafficMeter()
    meter.add(1, 10, 12)
    meter.mark("m")
    meter.reset()
    assert meter.pages_sent == 0


def test_meter_stale_mark_after_reset_raises():
    """reset() clears the marks: a delta against a pre-reset mark would
    mix two accounting epochs, so it must raise, not return zeros."""
    meter = TrafficMeter()
    meter.add(1, 10, 12)
    meter.mark("m")
    meter.reset()
    with pytest.raises(KeyError):
        meter.since("m")
    meter.mark("m")  # re-marking after reset is fine
    meter.add(2, 20, 24)
    assert meter.since("m") == (2, 20, 24)


def test_reconfigure_during_sever_is_deferred_to_restore():
    """A set_bandwidth() that lands mid-outage must not leak into the
    live bandwidth, and restore() must come back at the *new* speed —
    previously the mid-outage value was applied immediately and then
    silently resurrected by restore()."""
    link = Link(bandwidth_bytes_per_s=1000, efficiency=1.0, page_overhead_bytes=0)
    link.sever()
    assert link.goodput == 0.0
    link.set_bandwidth(500)
    assert link.bandwidth == pytest.approx(1000)  # staged, not applied
    assert link.goodput == 0.0
    link.restore()
    assert link.bandwidth == pytest.approx(500)
    assert link.goodput == pytest.approx(500)


def test_restore_without_pending_reconfigure_keeps_bandwidth():
    link = Link(bandwidth_bytes_per_s=1000, efficiency=1.0, page_overhead_bytes=0)
    link.sever()
    link.restore()
    assert link.bandwidth == pytest.approx(1000)


def test_reconfigure_while_up_applies_immediately():
    link = Link(bandwidth_bytes_per_s=1000, efficiency=0.5, page_overhead_bytes=0)
    link.set_bandwidth(600)
    assert link.bandwidth == pytest.approx(300)  # efficiency still applies


def test_plain_link_latency_surface_is_neutral():
    link = Link()
    assert link.control_rtt_s == 0.0
    assert link.iteration_floor_s(1 << 20) == 0.0
    assert link.watchdog_scale() == (1.0, 0.0)


def test_net_counters_follow_the_probe_and_its_categories():
    """The held ``net.*`` counters are resolved per wire category, in
    the order the registry lookups would create them, and are dropped
    when another probe is attached."""
    from repro.telemetry.probe import Probe

    link = Link()
    first, second = Probe(), Probe()
    link.probe = first
    link.account_pages(2, category="first_copy")
    link.account_pages(1, category="redirty")
    link.account_control(100)
    link.probe = second
    link.account_pages(3, category="first_copy")
    snap = first.metrics.snapshot()
    assert [(sv.name, dict(sv.labels)) for sv in snap.series.values()] == [
        ("net.pages", {}),
        ("net.payload_bytes", {}),
        ("net.wire_bytes", {}),
        ("net.category_wire_bytes", {"category": "first_copy"}),
        ("net.retransmit_wire_bytes", {}),
        ("net.category_wire_bytes", {"category": "redirty"}),
        ("net.control_bytes", {}),
        ("net.category_wire_bytes", {"category": "control"}),
    ]
    assert snap.value("net.pages") == 3
    assert snap.value("net.wire_bytes") == 3 * link.page_wire_bytes + 100
    assert second.metrics.snapshot().value("net.pages") == 3
