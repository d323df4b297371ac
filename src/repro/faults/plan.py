"""Fault plans: declarative, deterministic schedules of failures.

A plan is built fluently and then handed to a
:class:`~repro.faults.injector.FaultInjector`::

    plan = (
        FaultPlan()
        .link_outage(at_s=3.0, duration_s=1.5)
        .agent_hang(at_s=4.0)
    )

Events trigger either at a simulated time offset (``at_s``, measured
from when the injector is armed) or when the bound migrator reaches a
pre-copy iteration (``at_iteration``) — the natural way to express
"the link dies during iteration 3".  Randomized plans come from
:meth:`FaultPlan.chaos`, which derives every event time from a seed so
a failing schedule can be replayed exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import FaultInjectionError


class FaultKind(enum.Enum):
    """What breaks."""

    def __repr__(self) -> str:
        # ``FaultKind.LINK_DOWN`` instead of ``<FaultKind.LINK_DOWN:
        # 'link-down'>`` so a FaultEvent/FaultPlan repr round-trips
        # through eval (plans are quoted in checkpoint manifests).
        return f"{type(self).__name__}.{self.name}"

    LINK_DOWN = "link-down"
    LINK_DEGRADE = "link-degrade"
    LINK_LOSS = "link-loss"
    NETLINK_DROP = "netlink-drop"
    NETLINK_DELAY = "netlink-delay"
    NETLINK_DUPLICATE = "netlink-duplicate"
    AGENT_HANG = "agent-hang"
    AGENT_CRASH = "agent-crash"
    LKM_HANG = "lkm-hang"
    DEST_KILL = "dest-kill"


#: Kinds that require a ``value`` (bandwidth, loss rate, delay seconds).
_VALUED = (FaultKind.LINK_DEGRADE, FaultKind.LINK_LOSS, FaultKind.NETLINK_DELAY)

#: Clamp bounds for :meth:`FaultPlan.chaos` draws — safely inside each
#: builder's validated range whatever the underlying distribution does.
CHAOS_MIN_BANDWIDTH = 1.0
CHAOS_MIN_LOSS_RATE = 0.01
CHAOS_MAX_LOSS_RATE = 0.95
CHAOS_MIN_DELAY_S = 1e-3
#: Kinds that are one-way: there is nothing to revert when they end.
_IRREVERSIBLE = (FaultKind.AGENT_CRASH, FaultKind.DEST_KILL)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    ``duration_s=None`` means the fault persists until the end of the
    run (or forever, for the irreversible kinds).
    """

    kind: FaultKind
    at_s: float | None = None
    at_iteration: int | None = None
    duration_s: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if (self.at_s is None) == (self.at_iteration is None):
            raise FaultInjectionError(
                f"{self.kind.value}: exactly one of at_s / at_iteration required"
            )
        if self.at_s is not None and self.at_s < 0:
            raise FaultInjectionError(f"{self.kind.value}: at_s must be >= 0")
        if self.at_iteration is not None and self.at_iteration < 1:
            raise FaultInjectionError(f"{self.kind.value}: at_iteration must be >= 1")
        if self.duration_s is not None and self.duration_s <= 0:
            raise FaultInjectionError(f"{self.kind.value}: duration_s must be > 0")
        if self.kind in _VALUED and self.value is None:
            raise FaultInjectionError(f"{self.kind.value}: a value is required")
        if self.kind in _IRREVERSIBLE and self.duration_s is not None:
            raise FaultInjectionError(f"{self.kind.value}: cannot have a duration")


class FaultPlan:
    """An ordered collection of fault events (fluent builder)."""

    def __init__(self, events: "list[FaultEvent] | tuple[FaultEvent, ...]" = ()) -> None:
        self.events: list[FaultEvent] = list(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    # -- link faults --------------------------------------------------------------------

    def link_outage(
        self,
        at_s: float | None = None,
        duration_s: float | None = None,
        at_iteration: int | None = None,
    ) -> "FaultPlan":
        """Sever the link; restore it after *duration_s* if given."""
        return self.add(
            FaultEvent(FaultKind.LINK_DOWN, at_s, at_iteration, duration_s)
        )

    def link_flap(
        self,
        at_s: float,
        down_s: float = 0.05,
        count: int = 1,
        spacing_s: float = 0.5,
    ) -> "FaultPlan":
        """*count* brief outages of *down_s* seconds, *spacing_s* apart."""
        if count < 1:
            raise FaultInjectionError("link_flap needs count >= 1")
        for i in range(count):
            self.link_outage(at_s=at_s + i * spacing_s, duration_s=down_s)
        return self

    def link_degrade(
        self,
        at_s: float | None = None,
        bandwidth_bytes_per_s: float = 0.0,
        duration_s: float | None = None,
        at_iteration: int | None = None,
    ) -> "FaultPlan":
        """Drop the raw link speed (congestion); revert after the window."""
        if bandwidth_bytes_per_s <= 0:
            raise FaultInjectionError("link_degrade needs a positive bandwidth")
        return self.add(
            FaultEvent(
                FaultKind.LINK_DEGRADE,
                at_s,
                at_iteration,
                duration_s,
                float(bandwidth_bytes_per_s),
            )
        )

    def link_loss(
        self,
        at_s: float | None = None,
        loss_rate: float = 0.0,
        duration_s: float | None = None,
        at_iteration: int | None = None,
    ) -> "FaultPlan":
        """Introduce packet loss (goodput shrinks, retransmits accounted)."""
        if not 0.0 < loss_rate < 1.0:
            raise FaultInjectionError("link_loss needs a loss rate in (0, 1)")
        return self.add(
            FaultEvent(FaultKind.LINK_LOSS, at_s, at_iteration, duration_s, loss_rate)
        )

    # -- netlink faults ------------------------------------------------------------------

    def netlink_drop(
        self,
        at_s: float | None = None,
        duration_s: float | None = None,
        at_iteration: int | None = None,
    ) -> "FaultPlan":
        """Black-hole every netlink message inside the window."""
        return self.add(
            FaultEvent(FaultKind.NETLINK_DROP, at_s, at_iteration, duration_s)
        )

    def netlink_delay(
        self,
        at_s: float | None = None,
        delay_s: float = 0.1,
        duration_s: float | None = None,
        at_iteration: int | None = None,
    ) -> "FaultPlan":
        """Hold netlink messages for *delay_s* before delivering them."""
        if delay_s <= 0:
            raise FaultInjectionError("netlink_delay needs delay_s > 0")
        return self.add(
            FaultEvent(
                FaultKind.NETLINK_DELAY, at_s, at_iteration, duration_s, float(delay_s)
            )
        )

    def netlink_duplicate(
        self,
        at_s: float | None = None,
        duration_s: float | None = None,
        at_iteration: int | None = None,
    ) -> "FaultPlan":
        """Deliver every netlink message twice inside the window."""
        return self.add(
            FaultEvent(FaultKind.NETLINK_DUPLICATE, at_s, at_iteration, duration_s)
        )

    # -- guest-side faults ---------------------------------------------------------------

    def agent_hang(
        self,
        at_s: float | None = None,
        duration_s: float | None = None,
        at_iteration: int | None = None,
    ) -> "FaultPlan":
        """Wedge the TI agent; it recovers after *duration_s* if given."""
        return self.add(
            FaultEvent(FaultKind.AGENT_HANG, at_s, at_iteration, duration_s)
        )

    def lkm_hang(
        self,
        at_s: float | None = None,
        duration_s: float | None = None,
        at_iteration: int | None = None,
    ) -> "FaultPlan":
        """Wedge the LKM's kernel thread."""
        return self.add(FaultEvent(FaultKind.LKM_HANG, at_s, at_iteration, duration_s))

    # -- host faults ---------------------------------------------------------------------

    def kill_destination(
        self, at_s: float | None = None, at_iteration: int | None = None
    ) -> "FaultPlan":
        """The destination host dies; the in-flight migration must abort."""
        return self.add(FaultEvent(FaultKind.DEST_KILL, at_s, at_iteration))

    # -- randomized plans ----------------------------------------------------------------

    @classmethod
    def chaos(
        cls,
        seed: int,
        horizon_s: float,
        n_events: int = 4,
        mean_duration_s: float = 0.5,
    ) -> "FaultPlan":
        """A seeded random schedule of recoverable infrastructure faults.

        Only recoverable kinds are drawn (outage, degrade, loss, netlink
        drop/delay/duplicate, agent/LKM hang) so a supervised migration
        always has a path to completion; the schedule is a pure function
        of *seed*.  Every drawn magnitude is clamped into its builder's
        validated range, so a plan built from *any* seed constructs —
        the draws approximate the ranges, the clamps guarantee them.
        """
        if horizon_s <= 0:
            raise FaultInjectionError("chaos needs a positive horizon")
        rng = np.random.default_rng(seed)
        plan = cls()
        for _ in range(n_events):
            at = float(np.clip(rng.uniform(0.0, horizon_s), 0.0, horizon_s))
            dur = max(float(rng.exponential(mean_duration_s)) + 0.01, 0.01)
            kind = rng.integers(0, 8)
            if kind == 0:
                plan.link_outage(at_s=at, duration_s=dur)
            elif kind == 1:
                plan.link_degrade(
                    at_s=at,
                    bandwidth_bytes_per_s=float(
                        np.clip(rng.uniform(5e6, 5e7), CHAOS_MIN_BANDWIDTH, None)
                    ),
                    duration_s=dur,
                )
            elif kind == 2:
                plan.link_loss(
                    at_s=at,
                    loss_rate=float(
                        np.clip(
                            rng.uniform(0.05, 0.5),
                            CHAOS_MIN_LOSS_RATE,
                            CHAOS_MAX_LOSS_RATE,
                        )
                    ),
                    duration_s=dur,
                )
            elif kind == 3:
                plan.netlink_drop(at_s=at, duration_s=dur)
            elif kind == 4:
                plan.netlink_delay(
                    at_s=at,
                    delay_s=float(
                        np.clip(rng.uniform(0.01, 0.2), CHAOS_MIN_DELAY_S, None)
                    ),
                    duration_s=dur,
                )
            elif kind == 5:
                plan.netlink_duplicate(at_s=at, duration_s=dur)
            elif kind == 6:
                plan.agent_hang(at_s=at, duration_s=dur)
            else:
                plan.lkm_hang(at_s=at, duration_s=dur)
        return plan

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events

    def __repr__(self) -> str:
        # Round-trips: ``eval(repr(plan))`` rebuilds an equal plan given
        # FaultPlan/FaultEvent/FaultKind in the namespace.  Checkpoint
        # manifests fingerprint plans through this repr, so it must
        # carry the full schedule, not just a count.
        return f"FaultPlan({self.events!r})"
