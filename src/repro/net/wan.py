"""WAN-grade migration links: RTT, asymmetry, burst loss, weather.

The paper's evaluation runs on a healthy gigabit LAN, where the only
property that matters is bandwidth.  Real migrations also cross metro,
continental and satellite links, which misbehave in three extra ways
this module models on top of :class:`~repro.net.link.Link`:

- **propagation latency**: every control exchange (netlink query
  round-trips, dirty-bitmap syncs, the final device handover) pays the
  link RTT, so per-iteration overhead and resume downtime become
  latency-bound, not just bandwidth-bound.  Watchdogs tuned for a LAN
  must stretch accordingly (:meth:`WanLink.watchdog_scale`).
- **asymmetry**: the reverse path (acks, bitmap syncs) is provisioned
  independently of the forward path carrying pages.
- **bursty loss**: packet loss on long-haul links arrives in bursts,
  not i.i.d. coin flips.  The classic Gilbert–Elliott two-state chain
  (GOOD ↔ BAD) drives :attr:`Link.loss_rate`; the existing i.i.d. model
  is the degenerate single-state case.  The chain draws from a
  :class:`~repro.sim.rng.SimRng` substream and only advances while
  traffic flows, so runs are bit-identical across the fixed and event
  kernels and across checkpoint/resume.
- **weather**: timed bandwidth/RTT shifts (routing changes, cross
  traffic) scheduled like a :class:`~repro.faults.FaultPlan` and
  composing with one — weather reshapes the link, faults break it.

:class:`WanDriver` is the actor that animates the last two; it follows
the :class:`~repro.faults.injector.FaultInjector` horizon conventions
so the event kernel can leap quiet stretches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.net.link import DEFAULT_PAGE_OVERHEAD_BYTES, Link
from repro.sim.actor import Actor
from repro.sim.rng import SimRng
from repro.units import gbit_per_s, mbit_per_s

#: Watchdog stretch is capped: beyond this the link is effectively
#: dead and the fault machinery (stall abort, circuit breaker), not
#: more patience, is the right response.
MAX_WATCHDOG_SCALE = 16.0

#: How many RTTs of grace a watchdog deadline gains (a handful of
#: control round-trips can legitimately sit between progress events).
WATCHDOG_GRACE_RTTS = 4.0


@dataclass(frozen=True)
class WeatherEvent:
    """A timed reshaping of the link: scale bandwidth and/or RTT.

    ``at_s`` counts from :meth:`WanDriver.arm`; a ``duration_s`` of
    ``None`` makes the shift permanent.  Scales apply to the link's
    *nominal* rates, so overlapping events compose last-writer-wins and
    revert to whatever was in force when they fired.
    """

    at_s: float
    duration_s: float | None = None
    bandwidth_scale: float = 1.0
    rtt_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigurationError("weather event needs at_s >= 0")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ConfigurationError("weather duration must be positive")
        if self.bandwidth_scale <= 0 or self.rtt_scale <= 0:
            raise ConfigurationError("weather scales must be positive")


class WanLink(Link):
    """A long-haul link: RTT, asymmetric rates, burst loss, weather."""

    def __init__(
        self,
        up_bytes_per_s: float = mbit_per_s(100.0),
        down_bytes_per_s: float | None = None,
        rtt_s: float = 0.0,
        jitter_frac: float = 0.0,
        good_loss_rate: float = 0.0,
        bad_loss_rate: float = 0.0,
        mean_good_s: float = 0.0,
        mean_bad_s: float = 0.0,
        weather: tuple[WeatherEvent, ...] = (),
        seed: int = 20150421,
        page_overhead_bytes: int = DEFAULT_PAGE_OVERHEAD_BYTES,
        efficiency: float = 0.96,
    ) -> None:
        super().__init__(up_bytes_per_s, page_overhead_bytes, efficiency)
        if down_bytes_per_s is None:
            down_bytes_per_s = up_bytes_per_s
        if down_bytes_per_s <= 0:
            raise ConfigurationError("down bandwidth must be positive")
        if rtt_s < 0:
            raise ConfigurationError("RTT must be >= 0")
        if not 0.0 <= jitter_frac < 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1)")
        for name, rate in (("good", good_loss_rate), ("bad", bad_loss_rate)):
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(f"{name} loss rate must be in [0, 1)")
        if mean_good_s < 0 or mean_bad_s < 0:
            raise ConfigurationError("mean state durations must be >= 0")
        #: nominal raw rates; weather scales apply on top of these
        self._nominal_up = float(up_bytes_per_s)
        self._nominal_down = float(down_bytes_per_s)
        self.down_bandwidth = float(down_bytes_per_s) * efficiency
        self.rtt_s = float(rtt_s)
        self.jitter_frac = float(jitter_frac)
        self.good_loss_rate = float(good_loss_rate)
        self.bad_loss_rate = float(bad_loss_rate)
        self.mean_good_s = float(mean_good_s)
        self.mean_bad_s = float(mean_bad_s)
        self.weather = tuple(weather)
        self.rng = SimRng(seed)
        self._bw_scale = 1.0
        self._rtt_scale = 1.0
        self._driver: WanDriver | None = None
        self.set_loss_rate(self.good_loss_rate)

    # -- burst-loss model --------------------------------------------------------------

    @property
    def burst_enabled(self) -> bool:
        """True when the Gilbert–Elliott chain is non-degenerate."""
        return (
            self.mean_good_s > 0
            and self.mean_bad_s > 0
            and self.bad_loss_rate > self.good_loss_rate
        )

    # -- latency surface ---------------------------------------------------------------

    @property
    def control_rtt_s(self) -> float:
        """Current effective RTT one control round-trip pays."""
        return self.rtt_s * self._rtt_scale

    def iteration_floor_s(self, bitmap_bytes: int) -> float:
        """Each iteration's dirty-bitmap sync crosses the reverse path:
        one RTT of hypercall/handshake plus the bitmap in flight."""
        down = max(self.down_bandwidth * self._bw_scale, 1.0)
        return self.control_rtt_s + bitmap_bytes / down

    def watchdog_scale(self) -> tuple[float, float]:
        """Stretch LAN-tuned watchdogs to this link's measured shape.

        ``scale`` is how much slower than the paper's gigabit reference
        the current goodput is (capped at :data:`MAX_WATCHDOG_SCALE`);
        ``grace`` adds a few RTTs, widened by jitter, on top.
        """
        reference = gbit_per_s(1.0) * self._efficiency
        current = max(self.bandwidth * (1.0 - self.loss_rate), 1.0)
        scale = min(max(reference / current, 1.0), MAX_WATCHDOG_SCALE)
        grace = WATCHDOG_GRACE_RTTS * self.control_rtt_s * (1.0 + self.jitter_frac)
        return (scale, grace)

    # -- weather application (driven by WanDriver) -------------------------------------

    def _apply_weather(self, bandwidth_scale: float, rtt_scale: float) -> None:
        self._bw_scale = float(bandwidth_scale)
        self._rtt_scale = float(rtt_scale)
        # Routed through set_bandwidth so a shift that lands mid-outage
        # is staged and applied on restore, like any reconfiguration.
        self.set_bandwidth(self._nominal_up * bandwidth_scale)
        self.down_bandwidth = self._nominal_down * self._efficiency * bandwidth_scale

    # -- wiring ------------------------------------------------------------------------

    def install(self, engine) -> "WanDriver":
        """Register (once) and arm this link's driver actor.

        ``at_s`` offsets in the weather schedule count from now, and
        the burst chain starts in GOOD at this instant.
        """
        if self._driver is None:
            self._driver = WanDriver(self)
            engine.add(self._driver)
        self._driver.arm(engine.now)
        return self._driver


class WanDriver(Actor):
    """Animates a :class:`WanLink`: burst-loss chain + weather schedule.

    Stepped at priority 1 (with the fault injector, before the
    migration daemon) so a burst or weather shift that lands at time
    *t* shapes the very step that would have moved bytes at *t*.

    Determinism contract with the event kernel: the Gilbert–Elliott
    chain draws exactly one uniform per tick *while the link has active
    consumers* and none otherwise.  An in-flight migration abstains
    from horizons (forcing per-tick stepping for everyone), so the
    draw sequence is identical under both kernels; while idle the chain
    is frozen, which is what makes the quiet-stretch leaps safe.
    """

    priority = 1
    name = "wan-driver"
    snapshot_version = 2  # v2: _burst_wire_base (burst wire attribution)

    def __init__(self, link: WanLink) -> None:
        self.link = link
        self._armed_at: float | None = None
        self._now = 0.0
        self._burst = False
        #: meter reading at burst entry; the delta at burst exit is the
        #: wire traffic that crossed the link while loss was bursty
        #: (``net.burst_wire_bytes`` in the byte-attribution layer)
        self._burst_wire_base = 0
        self._pending: list[WeatherEvent] = sorted(
            link.weather, key=lambda e: e.at_s
        )
        #: (due-at, bandwidth_scale, rtt_scale) restore records —
        #: declarative, so armed weather survives a checkpoint pickle
        self._reversions: list[tuple[float, float, float]] = []

    def arm(self, now: float) -> None:
        """Fix the weather schedule's t=0 (see FaultInjector.arm)."""
        self._armed_at = now

    # -- actor -------------------------------------------------------------------------

    def next_event(self, now: float) -> float | None:
        if self._pending and self._armed_at is None:
            return None  # self-arming instant depends on the tick grid
        if self.link.burst_enabled and self.link.active_consumers > 0:
            return None  # one chain draw per tick while traffic flows
        dt = self.sim_dt
        if dt is None:
            return None
        cands = [r[0] for r in self._reversions]
        # Pad one tick early, as the injector does: ``rel >= at_s``
        # recomputes ``now - armed_at`` each tick and can round low.
        cands += [self._armed_at + e.at_s - dt for e in self._pending]
        return min(cands) if cands else math.inf

    def step_many(self, start_tick: int, ticks: int, dt: float) -> None:
        # Quiet ticks: the chain is frozen (no consumers) and no weather
        # is due; replay the first tick's self-arming exactly.
        if self._armed_at is None:
            self._armed_at = (start_tick + 1) * dt - dt
        self._now = (start_tick + ticks) * dt

    def step(self, now: float, dt: float) -> None:
        self._now = now
        if self._armed_at is None:
            self._armed_at = now - dt
        rel = now - self._armed_at
        for entry in [r for r in self._reversions if r[0] <= now]:
            self._reversions.remove(entry)
            self.link._apply_weather(entry[1], entry[2])
            self._sample_shape(now)
        for event in [e for e in self._pending if rel >= e.at_s]:
            self._pending.remove(event)
            if event.duration_s is not None:
                self._reversions.append(
                    (now + event.duration_s, self.link._bw_scale,
                     self.link._rtt_scale)
                )
            self.link._apply_weather(event.bandwidth_scale, event.rtt_scale)
            probe = self.link.probe
            if probe.enabled:
                probe.instant(
                    "wan-weather", now, track="net",
                    bandwidth_scale=event.bandwidth_scale,
                    rtt_scale=event.rtt_scale,
                    duration_s=event.duration_s,
                )
            self._sample_shape(now)
        self._step_burst(now, dt)

    # -- Gilbert–Elliott chain ---------------------------------------------------------

    def _step_burst(self, now: float, dt: float) -> None:
        link = self.link
        if not link.burst_enabled or link.active_consumers == 0:
            return
        u = link.rng.uniform("wan-ge", 0.0, 1.0)
        if self._burst:
            if u < min(1.0, dt / link.mean_bad_s):
                self._burst = False
                link.set_loss_rate(link.good_loss_rate)
                if link.probe.enabled:
                    link.probe.sample("net.loss_rate", now, link.loss_rate)
                    link.probe.count(
                        "net.burst_wire_bytes",
                        link.meter.wire_bytes - self._burst_wire_base,
                    )
        elif u < min(1.0, dt / link.mean_good_s):
            self._burst = True
            self._burst_wire_base = link.meter.wire_bytes
            link.set_loss_rate(link.bad_loss_rate)
            probe = link.probe
            if probe.enabled:
                probe.count("net.loss_bursts")
                probe.instant(
                    "wan-burst", now, track="net",
                    loss_rate=link.loss_rate,
                )
                probe.sample("net.loss_rate", now, link.loss_rate)

    def _sample_shape(self, now: float) -> None:
        probe = self.link.probe
        if probe.enabled:
            probe.sample("net.rtt_s", now, self.link.control_rtt_s)
            probe.sample("net.bandwidth_bytes_s", now, self.link.bandwidth)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "BAD" if self._burst else "GOOD"
        return f"WanDriver({state}, {len(self._pending)} weather pending)"


#: Named link shapes, roughly ordered by hostility.  Rates are raw
#: (pre-efficiency); RTTs and burst parameters are calibrated to make
#: each profile qualitatively distinct rather than to any one carrier.
WAN_PROFILES: dict[str, dict] = {
    "metro": dict(
        up_bytes_per_s=mbit_per_s(200.0),
        down_bytes_per_s=mbit_per_s(400.0),
        rtt_s=0.008,
        jitter_frac=0.10,
        good_loss_rate=0.0,
        bad_loss_rate=0.05,
        mean_good_s=20.0,
        mean_bad_s=0.5,
        weather=(),
    ),
    "continental": dict(
        up_bytes_per_s=mbit_per_s(80.0),
        down_bytes_per_s=mbit_per_s(160.0),
        rtt_s=0.040,
        jitter_frac=0.20,
        good_loss_rate=0.002,
        bad_loss_rate=0.08,
        mean_good_s=12.0,
        mean_bad_s=1.0,
        weather=(
            WeatherEvent(at_s=20.0, duration_s=10.0,
                         bandwidth_scale=0.6, rtt_scale=1.5),
        ),
    ),
    "intercontinental": dict(
        up_bytes_per_s=mbit_per_s(40.0),
        down_bytes_per_s=mbit_per_s(80.0),
        rtt_s=0.120,
        jitter_frac=0.30,
        good_loss_rate=0.005,
        bad_loss_rate=0.12,
        mean_good_s=8.0,
        mean_bad_s=1.5,
        weather=(
            WeatherEvent(at_s=15.0, duration_s=12.0,
                         bandwidth_scale=0.5, rtt_scale=2.0),
        ),
    ),
    "satellite": dict(
        up_bytes_per_s=mbit_per_s(20.0),
        down_bytes_per_s=mbit_per_s(60.0),
        rtt_s=0.600,
        jitter_frac=0.40,
        good_loss_rate=0.01,
        bad_loss_rate=0.20,
        mean_good_s=6.0,
        mean_bad_s=2.0,
        weather=(
            WeatherEvent(at_s=10.0, duration_s=15.0,
                         bandwidth_scale=0.7, rtt_scale=1.3),
        ),
    ),
    "hostile": dict(
        up_bytes_per_s=mbit_per_s(30.0),
        down_bytes_per_s=mbit_per_s(30.0),
        rtt_s=0.200,
        jitter_frac=0.50,
        good_loss_rate=0.01,
        bad_loss_rate=0.30,
        mean_good_s=4.0,
        mean_bad_s=2.5,
        weather=(
            WeatherEvent(at_s=8.0, duration_s=10.0,
                         bandwidth_scale=0.3, rtt_scale=2.5),
            WeatherEvent(at_s=30.0, duration_s=8.0,
                         bandwidth_scale=0.4, rtt_scale=2.0),
        ),
    ),
}


def wan_link(profile: str, seed: int = 20150421) -> WanLink:
    """Build the named :data:`WAN_PROFILES` link."""
    try:
        params = WAN_PROFILES[profile]
    except KeyError:
        known = ", ".join(sorted(WAN_PROFILES))
        raise ConfigurationError(
            f"unknown WAN profile {profile!r} (known: {known})"
        ) from None
    return WanLink(seed=seed, **params)
