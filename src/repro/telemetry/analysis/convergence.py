"""Online pre-copy convergence classification.

Pre-copy live migration converges only while the guest dirties memory
slower than the link can carry it; otherwise every iteration re-sends
roughly what the last one sent and the stop rules (iteration cap,
traffic cap) eventually force a long stop-and-copy.  The
:class:`ConvergenceMonitor` watches the per-iteration telemetry series
and classifies the migration *in flight*:

- **CONVERGING** — the dirty set is shrinking; a downtime ETA is
  estimated from the dirty-rate/bandwidth ratio;
- **STALLED** — iterations pass but (nearly) nothing reaches the wire:
  a severed link, a wedged daemon, or a hung waiting-for-apps phase;
- **DIVERGING** — the dirtying rate meets or exceeds the effective
  bandwidth over the window, so iterating cannot shrink the dirty set;
- **UNKNOWN** — not enough samples yet (the first iteration sends the
  whole VM and says nothing about the steady state).

The math, per sliding window of the last *W* iterations (default 6):

- ``ratio`` — mean of ``dirty_rate / eff_bandwidth`` per iteration
  (the pre-copy contraction factor: iteration *k+1* must carry what
  was dirtied during iteration *k*, so the dirty set scales by
  roughly this factor each round);
- ``trend`` — least-squares slope of ``pages_remaining`` over time,
  the direct observation of the same thing;
- ``eta``  — with ``ratio < 1`` the remaining set decays
  geometrically; the time until it fits under *stop_pages* and the
  stop-and-copy duration it would then cost are both closed-form.

The monitor is deliberately usable in two modes: *online* (the
migration daemon calls :meth:`observe` at the end of every iteration;
the supervisor reads :attr:`diagnosis` before degrading engines) and
*offline* (:meth:`replay` walks the exported
``migration.dirty_rate_bytes_s`` / ``migration.eff_bandwidth_bytes_s``
/ ``migration.pages_remaining`` series from a telemetry dump, so the
doctor reaches the same verdict from the export alone).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from repro.mem.constants import PAGE_SIZE


class ConvergenceState(enum.Enum):
    UNKNOWN = "UNKNOWN"
    CONVERGING = "CONVERGING"
    STALLED = "STALLED"
    DIVERGING = "DIVERGING"


@dataclass(frozen=True)
class Diagnosis:
    """One classification of an in-flight (or replayed) migration."""

    state: ConvergenceState
    ratio: float  # mean dirty-rate / eff-bandwidth over the window
    trend_pages_s: float  # slope of pages_remaining over time
    pages_remaining: float  # newest observation
    eta_s: float | None  # predicted time until stop-and-copy can begin
    downtime_eta_s: float | None  # predicted stop-and-copy duration
    n_iterations: int  # observations behind this verdict
    reason: str

    @property
    def converging(self) -> bool:
        return self.state is ConvergenceState.CONVERGING

    def summary(self) -> str:
        eta = (
            f"ETA {self.eta_s:.2f}s, downtime ~{self.downtime_eta_s:.3f}s"
            if self.eta_s is not None and self.downtime_eta_s is not None
            else "no finite ETA"
        )
        return (
            f"{self.state.value}: {self.reason} "
            f"(dirty/bw ratio {self.ratio:.2f} over {self.n_iterations} "
            f"iterations, {eta})"
        )


#: the verdict before any iteration was observed
NO_DIAGNOSIS = Diagnosis(
    ConvergenceState.UNKNOWN, 0.0, 0.0, 0.0, None, None, 0,
    "no iterations observed",
)


@dataclass(frozen=True)
class _Observation:
    time_s: float
    dirty_rate_bytes_s: float
    eff_bandwidth_bytes_s: float
    pages_remaining: float


class ConvergenceMonitor:
    """Classifies pre-copy progress from per-iteration observations."""

    def __init__(
        self,
        window: int = 6,
        min_iterations: int = 2,
        diverge_ratio: float = 0.95,
        stall_bandwidth_bytes_s: float = 1024.0,
        stop_pages: int = 50,
        downtime_budget_s: float = 0.3,
        eta_horizon_s: float = 60.0,
    ) -> None:
        if window < 2:
            raise ValueError("the sliding window needs at least 2 iterations")
        self.window = window
        #: observations needed before leaving UNKNOWN (iteration 1 sends
        #: the whole VM, so at least one steady-state point is required)
        self.min_iterations = min_iterations
        #: ratio at/above which the dirty set cannot shrink usefully
        self.diverge_ratio = diverge_ratio
        #: effective bandwidth below which the migration counts as stalled
        self.stall_bandwidth_bytes_s = stall_bandwidth_bytes_s
        #: dirty-set size at which the daemon would stop and copy
        self.stop_pages = stop_pages
        #: stop-and-copy duration the operator would accept; a dirty set
        #: that fits under it is stoppable, hence never "diverging"
        self.downtime_budget_s = downtime_budget_s
        #: a shrinking trend only excuses an adverse ratio if it reaches
        #: stoppable size within this long (noise-proofs the trend sign)
        self.eta_horizon_s = eta_horizon_s
        self._window: deque[_Observation] = deque(maxlen=window)
        self._history: list[Diagnosis] = []

    # -- feeding -------------------------------------------------------------------------

    def observe(
        self,
        now: float,
        dirty_rate_bytes_s: float,
        eff_bandwidth_bytes_s: float,
        pages_remaining: float,
    ) -> Diagnosis:
        """Record one finished iteration and return the fresh verdict."""
        self._window.append(
            _Observation(
                now,
                float(dirty_rate_bytes_s),
                float(eff_bandwidth_bytes_s),
                float(pages_remaining),
            )
        )
        diagnosis = self._classify()
        self._history.append(diagnosis)
        return diagnosis

    @property
    def diagnosis(self) -> Diagnosis:
        """The most recent verdict (UNKNOWN before any observation)."""
        return self._history[-1] if self._history else NO_DIAGNOSIS

    @property
    def history(self) -> list[Diagnosis]:
        return list(self._history)

    def state_changes(self) -> list[tuple[int, ConvergenceState]]:
        """(observation index, new state) each time the verdict flipped."""
        changes: list[tuple[int, ConvergenceState]] = []
        last: ConvergenceState | None = None
        for i, diag in enumerate(self._history):
            if diag.state is not last:
                changes.append((i, diag.state))
                last = diag.state
        return changes

    @classmethod
    def replay(
        cls,
        times: list[float],
        dirty_rates: list[float],
        eff_bandwidths: list[float],
        pages_remaining: list[float],
        **kwargs,
    ) -> "ConvergenceMonitor":
        """Re-run the classifier over exported series (offline mode)."""
        monitor = cls(**kwargs)
        for t, rate, bw, rem in zip(
            times, dirty_rates, eff_bandwidths, pages_remaining
        ):
            monitor.observe(t, rate, bw, rem)
        return monitor

    # -- classification ------------------------------------------------------------------

    def _classify(self) -> Diagnosis:
        obs = list(self._window)
        latest = obs[-1]
        n = len(obs)
        if n < self.min_iterations:
            # One observation normally says nothing (iteration 1 sends
            # the whole VM) — unless nothing reached the wire while a
            # real dirty set waits, which is a stall however early.
            if (
                latest.eff_bandwidth_bytes_s <= self.stall_bandwidth_bytes_s
                and latest.pages_remaining > self.stop_pages
            ):
                return Diagnosis(
                    ConvergenceState.STALLED, float("inf"), 0.0,
                    latest.pages_remaining, None, None, n,
                    f"effective bandwidth "
                    f"{latest.eff_bandwidth_bytes_s:.0f} B/s — nothing is "
                    f"reaching the wire",
                )
            return Diagnosis(
                ConvergenceState.UNKNOWN, 0.0, 0.0, latest.pages_remaining,
                None, None, n, f"only {n} iteration(s) observed",
            )
        # Iteration 1 carries the full-VM copy; drop it from the fit as
        # soon as enough steady-state points exist.  Once the window
        # slides past it the guard is moot.
        if len(self._history) + 1 == n and n > self.min_iterations:
            obs = obs[1:]
        if latest.pages_remaining <= self.stop_pages:
            # Effectively done: the daemon could stop and copy right now.
            # This must precede the stall/ratio checks — an empty dirty
            # set means nothing to send, which otherwise reads as zero
            # bandwidth (a "stall") or an infinite dirty/bw ratio.
            mean_bw = sum(o.eff_bandwidth_bytes_s for o in obs) / len(obs)
            downtime_s = (
                max(latest.pages_remaining, 1.0) * PAGE_SIZE / mean_bw
                if mean_bw > 0 else None
            )
            return Diagnosis(
                ConvergenceState.CONVERGING, self._mean_ratio(obs),
                self._trend(obs), latest.pages_remaining,
                0.0 if downtime_s is not None else None, downtime_s, n,
                f"dirty set ({latest.pages_remaining:.0f} pages) already "
                f"below the stop threshold ({self.stop_pages})",
            )
        mean_bw = sum(o.eff_bandwidth_bytes_s for o in obs) / len(obs)
        if mean_bw <= self.stall_bandwidth_bytes_s:
            return Diagnosis(
                ConvergenceState.STALLED,
                float("inf") if mean_bw <= 0 else self._mean_ratio(obs),
                self._trend(obs), latest.pages_remaining, None, None, n,
                f"effective bandwidth {mean_bw:.0f} B/s — nothing is "
                f"reaching the wire",
            )
        ratio = self._mean_ratio(obs)
        trend = self._trend(obs)
        if ratio >= self.diverge_ratio:
            # An adverse ratio only matters while the dirty set is too
            # large to stop on.  "Too large" is measured in downtime,
            # not pages: a set the link clears within the budget is
            # stoppable at will, however fast the guest churns — so a
            # set hovering at stoppable size must not flap the verdict.
            budget_pages = max(
                float(self.stop_pages),
                mean_bw * self.downtime_budget_s / PAGE_SIZE,
            )
            stuck_high = all(
                o.pages_remaining > budget_pages for o in obs
            )
            eta_s, downtime_s = self._eta_from_trend(latest, trend, mean_bw)
            # A shrinking trend only counts as evidence against the
            # ratio if it would reach stoppable size within the horizon
            # — the slope's *sign* is noise while the set is stuck high.
            shrinking_fast = eta_s is not None and eta_s <= self.eta_horizon_s
            if stuck_high and not shrinking_fast:
                return Diagnosis(
                    ConvergenceState.DIVERGING, ratio, trend,
                    latest.pages_remaining, None, None, n,
                    f"dirty rate matched or exceeded effective bandwidth in "
                    f"{self._exceed_count(obs)}/{len(obs)} windowed iterations",
                )
            # Rate says diverging but the direct observation disagrees:
            # either the set is shrinking anyway (skip-over areas absorb
            # the dirtying) or it keeps touching stoppable size.
            return Diagnosis(
                ConvergenceState.CONVERGING, ratio, trend,
                latest.pages_remaining, eta_s, downtime_s, n,
                "dirty set shrinking despite an adverse dirty/bw ratio"
                if stuck_high
                else "dirty set fits in the downtime budget despite "
                "an adverse dirty/bw ratio",
            )
        eta_s, downtime_s = self._eta_geometric(latest, ratio, mean_bw)
        return Diagnosis(
            ConvergenceState.CONVERGING, ratio, trend,
            latest.pages_remaining, eta_s, downtime_s, n,
            "dirty set contracts each iteration",
        )

    @staticmethod
    def _mean_ratio(obs: list[_Observation]) -> float:
        ratios = [
            o.dirty_rate_bytes_s / o.eff_bandwidth_bytes_s
            for o in obs
            if o.eff_bandwidth_bytes_s > 0
        ]
        return sum(ratios) / len(ratios) if ratios else float("inf")

    def _exceed_count(self, obs: list[_Observation]) -> int:
        return sum(
            1
            for o in obs
            if o.eff_bandwidth_bytes_s <= 0
            or o.dirty_rate_bytes_s / o.eff_bandwidth_bytes_s >= self.diverge_ratio
        )

    @staticmethod
    def _trend(obs: list[_Observation]) -> float:
        """Least-squares slope of pages_remaining vs time (pages/s)."""
        if len(obs) < 2:
            return 0.0
        times = [o.time_s for o in obs]
        pages = [o.pages_remaining for o in obs]
        t_mean = sum(times) / len(times)
        p_mean = sum(pages) / len(pages)
        denom = sum((t - t_mean) ** 2 for t in times)
        if denom <= 0:
            return 0.0
        return sum(
            (t - t_mean) * (p - p_mean) for t, p in zip(times, pages)
        ) / denom

    def _eta_geometric(
        self, latest: _Observation, ratio: float, mean_bw: float
    ) -> tuple[float | None, float | None]:
        """Remaining-set decay ``r_{k+1} = r_k * ratio``: iterations to
        reach *stop_pages*, each costing ``r_k * page / bw`` seconds."""
        remaining = max(latest.pages_remaining, 1.0)
        downtime_s = self.stop_pages * PAGE_SIZE / mean_bw
        if remaining <= self.stop_pages:
            return 0.0, max(remaining, 1.0) * PAGE_SIZE / mean_bw
        if ratio <= 0.0:
            return remaining * PAGE_SIZE / mean_bw, downtime_s
        # Sum of the geometric series of iteration durations.
        per_iter_s = remaining * PAGE_SIZE / mean_bw
        eta_s = per_iter_s * (1.0 - ratio ** 32) / (1.0 - ratio)
        return eta_s, downtime_s

    def _eta_from_trend(
        self, latest: _Observation, trend: float, mean_bw: float
    ) -> tuple[float | None, float | None]:
        if trend >= 0:
            return None, None
        eta_s = max(0.0, (latest.pages_remaining - self.stop_pages) / -trend)
        return eta_s, self.stop_pages * PAGE_SIZE / mean_bw
