"""The migration network link.

The paper's bottleneck is a gigabit Ethernet LAN between two blades.
The model is deliberately simple — a bandwidth pipe with per-page
protocol overhead — because that is the only property the evaluation
exercises: pages either move faster than they are dirtied, or they do
not.

A migration daemon consumes capacity through a per-step byte budget
(:meth:`capacity_bytes`), so transfer progress and workload dirtying
interleave at simulation-step granularity.

Real migration links fail in ways the paper's healthy-LAN testbed never
exercises, so the link also models three degradation modes for the
fault-injection subsystem (``repro.faults``):

- **severing** (:meth:`sever` / :meth:`restore`): capacity drops to
  zero while the link is down — an outage, not a reconfiguration, which
  is why it is separate from :meth:`set_bandwidth`'s positive-only
  validation;
- **degradation**: :meth:`set_bandwidth` mid-flight (already used by
  the failover tests);
- **packet loss with retransmission**: with loss rate *p*, TCP delivers
  every byte eventually but each wire byte is carried an expected
  ``1/(1-p)`` times, so *goodput* — the budget handed to consumers —
  shrinks to ``bandwidth * (1-p)`` while the accounted wire traffic
  still fills the physical pipe.  :attr:`retransmit_wire_bytes` tracks
  the waste.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.mem.constants import PAGE_SIZE
from repro.net.meter import TrafficMeter
from repro.telemetry.probe import NULL_PROBE
from repro.units import gbit_per_s

#: Rough per-page wire overhead: migration record header + its share of
#: TCP/IP/Ethernet framing for a 4 KiB payload.
DEFAULT_PAGE_OVERHEAD_BYTES = 150


class Link:
    """A point-to-point link with fixed usable bandwidth."""

    def __init__(
        self,
        bandwidth_bytes_per_s: float = gbit_per_s(1.0),
        page_overhead_bytes: int = DEFAULT_PAGE_OVERHEAD_BYTES,
        efficiency: float = 0.96,
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if not 0.0 < efficiency <= 1.0:
            raise ConfigurationError("link efficiency must be in (0, 1]")
        self._efficiency = efficiency
        self.bandwidth = float(bandwidth_bytes_per_s) * efficiency
        self.page_overhead = int(page_overhead_bytes)
        self.meter = TrafficMeter()
        self._consumers: set[object] = set()
        self._severed = False
        #: bandwidth staged by a reconfiguration that arrived mid-outage;
        #: applied when :meth:`restore` brings the link back up.
        self._pending_bandwidth: float | None = None
        self.loss_rate = 0.0
        #: wire bytes spent re-carrying lost data (goodput accounting)
        self.retransmit_wire_bytes = 0
        #: retransmitted share of the most recent :meth:`account_pages`
        #: call — read immediately by the caller (the simulation is
        #: single-threaded) to split its byte ledger without duplicating
        #: the loss arithmetic.
        self.last_retransmit_bytes = 0
        #: telemetry handle (see repro.telemetry); no-op unless enabled
        self.probe = NULL_PROBE

    def set_bandwidth(self, bandwidth_bytes_per_s: float) -> None:
        """Change the raw link speed mid-flight (congestion, failover).

        Takes effect from the next simulation step; in-flight byte
        budgets are unaffected.  While the link is severed the new speed
        is staged, not applied: a severed link has no negotiated rate, so
        the reconfiguration takes effect when :meth:`restore` brings the
        link back up (previously it leaked straight into ``bandwidth``
        and ``restore()`` silently resurrected the mid-outage value).
        """
        if bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        effective = float(bandwidth_bytes_per_s) * self._efficiency
        if self._severed:
            self._pending_bandwidth = effective
        else:
            self.bandwidth = effective

    # -- fault surface (repro.faults) --------------------------------------------------

    @property
    def severed(self) -> bool:
        return self._severed

    def sever(self) -> None:
        """Take the link down: capacity is zero until :meth:`restore`."""
        self._severed = True

    def restore(self) -> None:
        """Bring a severed link back up at its configured bandwidth.

        A reconfiguration staged during the outage (see
        :meth:`set_bandwidth`) is applied now.
        """
        self._severed = False
        if self._pending_bandwidth is not None:
            self.bandwidth = self._pending_bandwidth
            self._pending_bandwidth = None

    def set_loss_rate(self, loss_rate: float) -> None:
        """Set the packet-loss probability (0 disables the loss model)."""
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError("loss rate must be in [0, 1)")
        self.loss_rate = float(loss_rate)

    @property
    def goodput(self) -> float:
        """Usable bytes/s after outages and retransmissions."""
        if self._severed:
            return 0.0
        return self.bandwidth * (1.0 - self.loss_rate)

    # -- latency surface (overridden by repro.net.wan.WanLink) -------------------------

    @property
    def control_rtt_s(self) -> float:
        """Round-trip time a control exchange pays.  LAN: negligible."""
        return 0.0

    def iteration_floor_s(self, bitmap_bytes: int) -> float:
        """Latency floor one pre-copy iteration pays regardless of pages.

        A LAN link adds nothing; a WAN link charges the dirty-bitmap
        sync round-trip (RTT plus the bitmap crossing the reverse path).
        """
        return 0.0

    def watchdog_scale(self) -> tuple[float, float]:
        """``(scale, grace_s)`` for watchdog/backoff timeouts.

        Timeouts tuned for a healthy gigabit LAN fire spuriously on a
        slow, high-RTT link.  A plain link keeps them untouched.
        """
        return (1.0, 0.0)

    # -- fair sharing (gang migration) -----------------------------------------------

    def register_consumer(self, consumer: object) -> None:
        """A migration starts drawing capacity from this link."""
        self._consumers.add(consumer)

    def release_consumer(self, consumer: object) -> None:
        """A migration finished; its share returns to the pool."""
        self._consumers.discard(consumer)

    @property
    def active_consumers(self) -> int:
        return len(self._consumers)

    def share_for(self, consumer: object, dt: float) -> float:
        """This consumer's fair byte share of a *dt*-second step.

        With one active migration this equals :meth:`capacity_bytes`;
        concurrent (gang) migrations split the pipe evenly.
        """
        active = max(1, len(self._consumers))
        if consumer not in self._consumers:
            return self.capacity_bytes(dt)
        return self.capacity_bytes(dt) / active

    @property
    def page_wire_bytes(self) -> int:
        """Bytes a single 4 KiB page costs on the wire."""
        return PAGE_SIZE + self.page_overhead

    @property
    def pages_per_second(self) -> float:
        """Sustained page transfer rate."""
        return self.goodput / self.page_wire_bytes

    def capacity_bytes(self, dt: float) -> float:
        """Usable bytes this link can move in a *dt*-second step."""
        return self.goodput * dt

    def time_to_send_pages(self, n_pages: int) -> float:
        """Seconds to push *n_pages* full pages through the link."""
        if self.goodput <= 0:
            return float("inf")
        return n_pages * self.page_wire_bytes / self.goodput

    def time_to_send_bytes(self, n_bytes: float) -> float:
        if self.goodput <= 0:
            return float("inf")
        return n_bytes / self.goodput

    def account_pages(
        self,
        n_pages: int,
        payload_bytes: int | None = None,
        category: str = "page",
    ) -> int:
        """Record *n_pages* sent; returns wire bytes consumed.

        *payload_bytes* overrides the default full-page payload, which
        the compression baseline uses to send fewer wire bytes per page.
        *category* attributes the bytes in the meter's byte ledger; the
        retransmitted share is always split out as ``loss_retx`` and
        mirrored into :attr:`last_retransmit_bytes` for the caller.
        """
        payload = n_pages * PAGE_SIZE if payload_bytes is None else int(payload_bytes)
        wire = payload + n_pages * self.page_overhead
        retrans = 0
        if self.loss_rate > 0.0:
            # Lost frames are re-carried: the consumer's goodput budget
            # already shrank, so the extra bytes fill the physical pipe.
            retrans = int(round(wire * self.loss_rate / (1.0 - self.loss_rate)))
            self.retransmit_wire_bytes += retrans
            wire += retrans
        self.last_retransmit_bytes = retrans
        self.meter.add(
            pages=n_pages,
            payload_bytes=payload,
            wire_bytes=wire - retrans,
            category=category,
        )
        if retrans:
            self.meter.add(
                pages=0, payload_bytes=0, wire_bytes=retrans, category="loss_retx"
            )
        if self.probe.enabled:
            counters = self.probe.counters
            counters["net.pages"].value += n_pages
            counters["net.payload_bytes"].value += payload
            counters["net.wire_bytes"].value += wire
            counters["net.category_wire_bytes", category].value += wire - retrans
            # Emitted even when zero so downstream comparators always
            # find the series and can gate on its growth.
            counters["net.retransmit_wire_bytes"].value += retrans
            if retrans:
                counters["net.category_wire_bytes", "loss_retx"].value += retrans
        return wire

    def account_control(self, n_bytes: int, category: str = "control") -> int:
        """Record control-plane bytes (handshakes, dirty-bitmap syncs)."""
        self.meter.add(
            pages=0, payload_bytes=0, wire_bytes=int(n_bytes), category=category
        )
        if self.probe.enabled:
            counters = self.probe.counters
            counters["net.control_bytes"].value += int(n_bytes)
            counters["net.wire_bytes"].value += int(n_bytes)
            counters["net.category_wire_bytes", category].value += int(n_bytes)
        return int(n_bytes)
